"""One-dimensional Gaussian mixture fitting by expectation-maximization.

The mixture density is p(v) = sum_k w_k N(v | mu_k, var_k). All
posterior and likelihood computations run in log space with log-sum-exp
normalization, so widely separated components and tiny variances do not
underflow.

EM runs on each distinct value and its count (the grouped-data EM of
McLachlan & Jones, Biometrics 1988), which is exact: quantised volumes
collapse to a few hundred columns, and every input is fitted in full.
Continuous data, with more than ``_MAX_COLUMNS`` (4096) distinct values,
are first folded into that many equal-width bins over their range [lo,
hi]: bin j holds the values v with e_j <= v < e_{j+1} between the
float64 edges e_j = lo + (hi - lo) * (j / 4096), and the maximum lies in
the last. On the fit path's [0, 1] data the edges are exactly j / 4096.
Each bin keeps its count, the mean of its values and their squared
deviations from that mean, both summed over the bin's values in
ascending order; EM runs on the (bin mean, count) columns, and the
responsibility-weighted within-bin variance is added to each component
afterwards. Exact columns carry a within-bin spread of zero. So a k = 1
fit still returns the sample mean and variance (to rounding), and each
sweep costs O(4096 k) however many voxels there are.

Each sweep is two small matrix products over the columns' power rows
P = [1, u, u^2], u = x - c, built once per fit about the data's
count-weighted mean c. A component's log-density is a quadratic in u, so
the E-step's (k, columns) log-densities are one (k, 3) @ P product, and
the M-step's masses, first and second moments about c are the posterior
times the count-weighted (columns, 3) transpose of P. A variance is then
the second moment less the squared mean offset. Taken about c, the
offsets stay within the data's spread, so that difference loses few
digits; taken about 0 it would lose those of the squared mean over the
variance (a k = 1 fit of integer intensities near 300 with variance 400
is then off by 3e-14 relative, against 2e-16 about c). Near component
j's mean, where they cancel, the quadratic's terms are each about
(mu_j - c)^2 / var_j, so a log-density there carries a rounding error of
about 1e-16 of that: at most about 1e-8 on [0, 1] data at the variance
floor.

The EM sweeps come in cycles that jump: the hybrid EM-Newton scheme of
Redner & Walker (SIAM Review 1984) within a trust region (Nocedal &
Wright, *Numerical Optimization*, ch. 4). A cycle takes two EM maps
theta1 = F(theta0) and theta2 = F(theta1) and then jumps from theta1 on
the 3k - 1 unknowns: the means, the log variances and the k - 1 weight
logits log(w_j / w_0). The log-likelihood's gradient g and negated
Hessian C there are sums over the columns of polynomials of degree <= 4
in u, read off theta1's posterior with one (columns, 5) table of counts
* u^p, built once per fit. The jump maximises the model g.s - s.C.s / 2
within a radius: it is Newton's step C^-1 g where C has a Cholesky
factor and that step fits, and near the maximum it converges
quadratically, where EM crawls along the overlap of the components;
otherwise it is the model's maximum on the sphere of that radius. The
radius is infinite until a jump is refused; a model that is not concave
takes radius 1 then. A jump costs one E-step. It is refused, and the
cycle moves to theta2 instead, if its log-likelihood is below that of
theta1 or a component's mass collapses there, so the log-likelihood
never decreases; a step to no valid mixture (a weight <= 0, a variance
below the floor or a non-finite parameter) is not evaluated. A refused
or invalid jump sets the radius to a quarter of its step's length, and
a kept jump that reached the radius doubles it: off the regular path,
such as k components on fewer clusters, where the likelihood has flat
ridges along which Newton steps run far, the steps shrink until one is
kept. One plain EM step from where the cycle moved closes it and starts
the next. A fit converges when a cycle whose jump was not refused raised
the log-likelihood by less than the tolerance (relative): one EM map
gains little along a slowly converging direction even far from the
maximum, which is where plain EM's per-step test used to stop, and a
cycle with a refused jump made only plain EM progress. The fit returned
is always that of a closing plain step (or of the last E-step when
``max_iter`` cuts the fit), with the log-likelihood and posterior of
that same evaluation.

Fitting is fully deterministic and depends only on the multiset of
values and the config, never on their order: every fit runs on the
values in ascending order, held either as one sorted array or as the
distinct values with their counts, and ends in one EM core,
``_fit_columns``. :func:`fit_em` sorts a copy of its input; the volume
fit path sorts float values as stored and counts integer ones (see
:func:`gmmaug.preprocess.fit_volume`). ``_fit_sorted`` finds the
runs of equal values of a sorted array in one pass. Up to 4096 runs go
on as distinct values and run lengths to ``_fit_counted``; more are
folded into bins, whose edges it finds by binary search, and the
starting means are read off the sorted values by index.
``_fit_counted`` merges equal values (a clip window sends many to 0 and
1), reads the starting means off the running totals of the counts and
takes the distinct values as the columns; above 4096 of them it
rebuilds the sorted array with ``np.repeat`` (a counting sort) for the
binned fit. Both forms hold the same values, so they give the same fit
bit for bit. Initial means sit at equally spaced sample quantiles
(``np.percentile``'s default linear rule, bit for bit), initial
variances at sample variance / k^2, initial weights uniform.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateComponentError, DegenerateIntensityError, InputError,
                     InsufficientDataError)
from .volume import _BLOCK, _field, _flat_float64, _freeze, _is_number

LOG_2PI = math.log(2.0 * math.pi)

# The default number of components: CSF, grey and white matter.
_DEFAULT_K = 3

# Smallest variance a fitted or perturbed component may carry on
# [0, 1]-normalized data; prevents singular collapse.
VARIANCE_FLOOR = 1e-8

# A component whose total responsibility mass falls below this has
# effectively lost all its voxels.
_MASS_FLOOR = 1e-12

# Inputs with more distinct values than this are fitted on equal-width
# bins that keep exact within-bin moments; fewer are fitted exactly.
_MAX_COLUMNS = 4096


@dataclass(frozen=True)
class EmConfig:
    """Convergence knobs for :func:`fit_em`.

    ``tol`` bounds the relative log-likelihood gain of a converged
    cycle (denominator ``max(1, |previous|)``); ``max_iter`` caps
    the E-steps. No fitted variance falls below ``VARIANCE_FLOOR``.
    """

    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not (_is_number(self.tol) and self.tol > 0
                and _is_number(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise InputError(f"tol must be a finite real > 0 and max_iter an integer >= 1, "
                             f"got tol {self.tol} max_iter {self.max_iter}")


@dataclass(frozen=True)
class GmmParams:
    """Fitted mixture, components sorted ascending by mean.

    On T1w brain data the sort realises the CSF < GM < WM intensity
    convention. ``converged`` says whether EM stopped on its tolerance
    rather than on ``max_iter`` (see :func:`fit_em`), and
    ``final_rel_change`` is the relative log-likelihood change of its
    last step, below the tolerance whenever it converged; parameters not
    made by :func:`fit_em` (or read from JSON without these keys) count
    as converged with change 0. ``ll_trajectory`` keeps the
    log-likelihood of every point the fit moved to, for monotonicity
    checks; it is not serialized. For a binned fit (more
    than 4096 distinct values), ``log_likelihood`` and ``ll_trajectory``
    are those of the bin-mean columns, evaluated before the within-bin
    variance is added.
    """

    k: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool = True
    final_rel_change: float = 0.0
    ll_trajectory: tuple[float, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        weights, means, variances = _flat_float64(self, "weights", "means", "variances")
        if not (self.k == weights.size == means.size == variances.size):
            raise InputError("k, weights, means, variances sizes disagree")
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise InputError("weights must be non-negative and sum to 1")
        if np.any(variances < VARIANCE_FLOOR):
            raise InputError(f"variances must be >= {VARIANCE_FLOOR}")
        if np.any(np.diff(means) < 0):
            raise InputError("means must be sorted ascending")
        if not (np.all(np.isfinite(np.concatenate((weights, means, variances))))
                and math.isfinite(self.log_likelihood) and math.isfinite(self.final_rel_change)):
            raise InputError("mixture parameters contain NaN or Inf")
        _freeze(self, weights=weights, means=means, variances=variances)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_rel_change": self.final_rel_change,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GmmParams":
        """Build parameters from their JSON object, by the stats files' rule.

        ``k`` and ``iterations`` must be integers, ``converged`` a bool and
        every other value a real number: nothing is coerced.
        """
        try:
            obj = {"converged": True, "final_rel_change": 0.0, **obj}
            arrays = {name: obj[name] for name in ("weights", "means", "variances")}
            for name, values in arrays.items():
                if not (isinstance(values, list) and all(map(_is_number, values))):
                    raise TypeError(f"{name} must be a list of real numbers, got {values!r}")
            return cls(
                k=_field(obj, "k", numbers.Integral),
                log_likelihood=float(_field(obj, "log_likelihood")),
                iterations=_field(obj, "iterations", numbers.Integral),
                converged=_field(obj, "converged", bool),
                final_rel_change=float(_field(obj, "final_rel_change")),
                **arrays,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed mixture parameters: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _as_values(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size and not np.all(np.isfinite(v)):
        raise InputError("values must be finite")
    return v


def _component_log_prob(weights, means, variances, values) -> np.ndarray:
    """(k, n) array of log(w_k) + log N(v | mu_k, var_k).

    Computed in place in the one (k, n) buffer it returns. The steps
    keep the operation order of
    ``log w - 0.5 * (LOG_2PI + log var + d * d / var)``, so the result is
    that expression bit for bit. Component-major layout keeps the
    posterior's reductions contiguous. The EM sweep builds its
    log-densities from power rows instead (see :func:`_em_sweep`).
    """
    with np.errstate(divide="ignore"):  # zero weights -> -inf is fine
        log_w = np.log(weights)
    lp = np.subtract(values[None, :], means[:, None])
    lp *= lp
    lp /= variances[:, None]
    lp += LOG_2PI + np.log(variances)[:, None]
    lp *= -0.5
    lp += log_w[:, None]
    return lp


def _posterior(log_prob: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize (k, n) log probabilities: (responsibilities, top, total).

    The responsibilities overwrite ``log_prob``, so no second (k, n)
    buffer is held. One shared exp pass; rows where every density
    underflows still resolve, and exact ties split evenly. Each value's
    log-evidence is ``top + np.log(total)``, for a caller that needs it.
    """
    top = log_prob.max(axis=0)
    log_prob -= top
    unnorm = np.exp(log_prob, out=log_prob)
    total = unnorm.sum(axis=0)
    unnorm /= total
    return unnorm, top, total


def responsibilities(params: GmmParams, values) -> np.ndarray:
    """(n, k) posterior p(component | value), rows summing to 1."""
    v = _as_values(values)
    lp = _component_log_prob(params.weights, params.means, params.variances, v)
    return np.ascontiguousarray(_posterior(lp)[0].T)


def _sorted_percentiles(x: np.ndarray, pct, cumulative: np.ndarray | None = None) -> np.ndarray:
    """``np.percentile(x, pct)`` of ascending ``x``, bit for bit, read off by index.

    numpy's default linear rule: the q-th percentile sits at the virtual
    index ``(n - 1) * q / 100``, between the order statistics at its floor
    and the next one, and is interpolated as ``a + (b - a) * g`` with
    fraction ``g``, or ``b - (b - a) * (1 - g)`` when ``g >= 0.5``. A
    virtual index at or past ``n - 1`` reads the maximum, as numpy's does.

    Given ``cumulative``, the running totals of the counts of ``x``'s
    values, the percentiles are those of ``np.repeat(x, counts)``: the
    order statistic of rank r is the first value whose running total
    exceeds r.
    """
    n = x.size if cumulative is None else int(cumulative[-1])
    virtual = (n - 1) * np.true_divide(pct, 100)
    top = virtual >= n - 1
    below = np.where(top, -1.0, np.floor(virtual))
    gamma = virtual - below
    ranks = np.where(top, n - 1, (below, below + 1)).astype(np.intp)
    if cumulative is not None:
        ranks = np.searchsorted(cumulative, ranks, side="right")
    a, b = x[ranks]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Flags marking where each run of equal values starts in ascending ``x``."""
    new = np.empty(x.size, dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new


def _bin_sorted(x: np.ndarray):
    """Fold ascending values into at most ``_MAX_COLUMNS`` equal-width bins.

    Bin j lies between the float64 edges ``e_j = lo + (hi - lo) * (j /
    _MAX_COLUMNS)`` over ``[lo, hi] = [x[0], x[-1]]`` and holds the values
    v with ``e_j <= v < e_{j+1}``; the maximum lies in the last bin. The
    edges rise with j, so each bin is a run of ``x``, cut where
    ``np.searchsorted`` finds its edge: a value on an edge falls in the
    upper bin, and a run of equal values never splits. On [0, 1] data
    the edges are exactly j / ``_MAX_COLUMNS``. Empty bins are dropped.

    Returns each bin's mean, its count and the sum of squared deviations
    from that mean, so the binned columns keep the exact total mean and
    variance of the data. Both sums run over the bin's values in
    ascending order, a group of whole bins of at most ``_BLOCK`` values
    (or one larger bin) at a time, so no temporary is as long as ``x``.
    """
    edges = x[0] + (x[-1] - x[0]) * (np.arange(1, _MAX_COLUMNS) / _MAX_COLUMNS)
    cuts = np.concatenate(([0], np.searchsorted(x, edges), [x.size]))
    sizes = np.diff(cuts)
    starts, counts = cuts[:-1][sizes > 0], sizes[sizes > 0]
    means = np.add.reduceat(x, starts) / counts
    lo, ends, within = 0, starts + counts, np.empty(means.size)
    while lo < means.size:
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + _BLOCK, side="right")))
        dev = np.repeat(means[lo:hi], counts[lo:hi])
        np.subtract(x[starts[lo]:ends[hi - 1]], dev, out=dev)
        dev *= dev
        within[lo:hi] = np.add.reduceat(dev, starts[lo:hi] - starts[lo])
        lo = hi
    return means, counts.astype(np.float64), within


def _model_step(curvature, grad, radius):
    """The step s that maximises ``grad . s - s . curvature . s / 2`` within ``radius``.

    Returns (s, mu, length). Where ``curvature`` C has a Cholesky factor
    and Newton's step C^-1 g fits within the radius, s is that step and
    mu is 0. Otherwise s solves (C + mu I) s = g for the shift mu >= 0
    that puts it on the sphere of that radius, with C + mu I positive
    semidefinite (Nocedal & Wright, *Numerical Optimization*, ch. 4):
    in C's eigenbasis, by bisection on mu above max(0, -lambda_min). An
    infinite radius counts as 1 there, where C is no concave model. The
    length is ``||s||``, or the radius for a step on the sphere.
    """
    try:
        factor = np.linalg.cholesky(curvature)
        step = np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
        if (length := math.hypot(*step)) <= radius:
            return step, 0.0, length
    except np.linalg.LinAlgError:
        pass
    radius = 1.0 if radius == np.inf else radius
    lam, vecs = np.linalg.eigh(curvature)
    coef = grad @ vecs
    floor = max(0.0, -lam[0])
    gaps = lam + floor  # the eigenvalues of C + floor I, all >= 0
    # ||s|| falls as the shift above the floor rises: it exceeds the radius
    # at ``below`` (once moved) and does not at ``above``
    below, above = 0.0, math.hypot(*coef) / radius
    while below < (mid := 0.5 * (below + above)) < above:
        if math.hypot(*(coef / (gaps + mid))) > radius:
            below = mid
        else:
            above = mid
    shift = below or above
    return vecs @ (coef / (gaps + shift)), floor + shift, radius


@functools.cache
def _jump_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only flat indices of :func:`_newton_point`'s score entries, in the order it
    lists them, of (j, l, p + q) in the covariance for each Hankel entry ((j, p), (l, q)),
    and of its Hessian corrections, for ``k`` components."""
    own, logits = np.arange(k), np.arange(2 * k, 3 * k - 1)
    head = 3 * own  # score row (j, 0), followed by rows (j, 1) and (j, 2)
    score = np.ravel_multi_index((
        np.r_[head, head + 1, head, head + 1, head + 2, np.repeat(head, k - 1)],
        np.r_[own, own, k + own, k + own, k + own, np.tile(logits, k)]), (3 * k, 3 * k - 1))
    hessian = np.ravel_multi_index((
        np.r_[own, own, k + own, k + own, np.repeat(logits, k - 1)],
        np.r_[own, k + own, own, k + own, np.tile(logits, k - 1)]), (3 * k - 1, 3 * k - 1))
    hankel = np.arange(5 * k * k).reshape(k, k, 5)[..., np.add.outer(np.arange(3), np.arange(3))]
    layout = score, hankel.transpose(0, 2, 1, 3).reshape(3 * k, 3 * k), hessian
    for index in layout:
        index.setflags(write=False)
    return layout


def _newton_point(theta, resp, table, centre, radius):
    """Newton's point from ``theta`` within ``radius``: (point or None, step length).

    ``resp`` is theta's posterior. The unknowns are the means, the log
    variances and the k - 1 weight logits log(w_j / w_0). The
    log-likelihood's gradient and Hessian are sums over the columns of
    polynomials of degree <= 4 in u = x - centre, so they come from
    ``table``, the (columns, 5) array of counts * u^p: one product with
    the posterior rows gives the sums of counts * gamma_j * u^p, and one
    with each product gamma_j * gamma_l (j < l) the posterior's
    covariance. The step is :func:`_model_step`'s. There is no point,
    and the length is 0, when the gradient or Hessian is not finite; nor
    is there one, at the step's length, when the step leads to no valid
    mixture with finite parameters.
    """
    weights, means, variances = theta
    k = weights.size
    score_at, hankel_at, hessian_at = _jump_layout(k)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = resp @ table
        # sum of counts * (delta_jl gamma_j - gamma_j gamma_l) * u^p; the
        # diagonal gamma_j (1 - gamma_j) is summed from the pairs, which
        # keeps its digits where gamma_j is near 1
        cov = np.zeros((k, k, 5))
        row = np.empty(resp.shape[1])
        for j, l in itertools.combinations(range(k), 2):
            pair = table.T @ np.multiply(resp[j], resp[l], out=row)
            cov[j, l] = cov[l, j] = -pair
            cov[j, j] += pair
            cov[l, l] += pair
        # row (j, p): the u^p coefficient of component j's log-density's
        # derivatives by the means, the log variances and the logits
        offset, inv = means - centre, 1.0 / variances
        score = np.zeros(3 * k * (3 * k - 1))
        score[score_at] = np.concatenate((
            -offset * inv, inv, 0.5 * (offset * offset * inv - 1.0), -offset * inv, 0.5 * inv,
            (np.eye(k)[:, 1:] - weights[1:]).ravel()))
        score = score.reshape(3 * k, 3 * k - 1)
        grad = sums[:, :3].ravel() @ score
        hess = score.T @ cov.ravel()[hankel_at] @ score
        # plus the posterior-weighted second derivatives of each component's log-density
        first = sums[:, 1] - offset * sums[:, 0]  # of counts * gamma_j * (x - mu_j)
        second = sums[:, 2] - offset * (sums[:, 1] + first)  # and of its square
        tail, cross = weights[1:], first * inv
        hess.flat[hessian_at] -= np.concatenate((
            sums[:, 0] * inv, cross, cross, 0.5 * second * inv,
            (sums[:, 0].sum() * (np.diag(tail) - np.outer(tail, tail))).ravel()))
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            return None, 0.0
        step, _, length = _model_step(-hess, grad, radius)
        weights = weights * np.exp(np.concatenate(([0.0], step[2 * k:])))
        candidate = np.array((weights / weights.sum(), means + step[:k],
                              variances * np.exp(step[k:2 * k])))
    if not (np.isfinite(candidate).all() and np.all(candidate[0] > 0)
            and np.all(candidate[2] >= VARIANCE_FLOOR)):
        return None, length
    return candidate, length


def _em_sweep(x, counts, centre, scale_ll):
    """The EM sweep over columns ``x`` with ``counts``, as two small products.

    ``centre`` is the columns' count-weighted mean. The power rows
    ``P = [1, u, u^2]`` over ``u = x - centre`` and the weighted moments
    ``M = (P * counts)^T`` are built once; each sweep's (k, n)
    log-densities are ``coef @ P`` and its masses, first and second
    moments ``resp @ M`` (see the module docstring).

    Returns ``sweep(theta)``: the log-likelihood of theta, its posterior
    (not count-weighted) and F(theta), or None for F(theta) when a
    component's mass collapsed.
    """
    n = counts.sum()
    u = x - centre
    powers = np.array((np.ones_like(u), u, u * u))
    moments = (powers * counts).T

    def sweep(theta):
        weights, means, variances = theta
        offset = means - centre
        coef = np.empty((weights.size, 3))
        coef[:, 2] = -0.5 / variances
        coef[:, 1] = offset / variances
        coef[:, 0] = np.log(weights) - 0.5 * (LOG_2PI + np.log(variances) + offset * coef[:, 1])
        resp, top, total = _posterior(coef @ powers)
        ll = scale_ll * float((top + np.log(total)) @ counts)
        mass, first, second = (resp @ moments).T
        if np.any(mass < _MASS_FLOOR):
            return ll, resp, None
        shift = first / mass
        mapped_variances = np.maximum(second / mass - shift * shift, VARIANCE_FLOOR)
        return ll, resp, np.array((mass / n, shift + centre, mapped_variances))

    return sweep


def fit_em(values, k: int = _DEFAULT_K, cfg: EmConfig | None = None) -> GmmParams:
    """Fit a k-component mixture to 1-D samples by EM, with trust-region Newton jumps.

    Each sweep runs over the sorted distinct values weighted by their
    counts, so the fit does not depend on the order of ``values``. Above
    ``_MAX_COLUMNS`` distinct values it runs over equal-width bins
    instead (see the module docstring): the same EM on the bin means,
    then each component's variance gains its responsibility-weighted
    within-bin variance. A sweep is two small products over the columns'
    power rows [1, u, u^2], u taken about the data's count-weighted
    mean so that a variance, second moment less squared mean offset,
    keeps its digits (see the module docstring).

    The sweeps come in cycles (see the module docstring): two EM maps,
    one jump to the maximum of the log-likelihood's quadratic model
    within a trust region (Newton's point where the model is concave
    and Newton's step fits), kept only if it is a valid mixture whose
    log-likelihood is no lower than that of the point it jumps from
    (else the second map's point is taken), and one plain EM step that
    closes the cycle. The fit converges when a
    cycle without a refused jump raised the log-likelihood by less than
    ``cfg.tol`` relative to its start, so only a closing plain step can
    end it. ``iterations`` still counts E-steps: those after the one at
    the starting point, each evaluated jump, refused or kept, included;
    it never exceeds ``cfg.max_iter``; ``converged`` is
    false when the cap stopped the fit. The reported ``log_likelihood``
    refers to the returned means and weights (for a binned fit, on the
    bin-mean columns with the variances before the within-bin term),
    and ``ll_trajectory`` holds the log-likelihood of every point the
    fit moved to, starting point included: it does not decrease.

    Raises:
        InsufficientDataError: fewer than ``10 * k`` values.
        DegenerateIntensityError: the values' mean or spread overflows
            float64 (a ``NumericalError``).
        DegenerateComponentError: a component's responsibility mass
            collapsed below 1e-12 on an E-step the fit moved to, including
            the last one before ``max_iter`` stops it (a
            ``NumericalError``: the CLI exits 3).
    """
    return _fit_sorted(np.sort(_as_values(values)), k, cfg)


def _check_size(n: int, k: int) -> None:
    """Refuse a fit of ``k`` components to ``n`` values: k below 1, or n below 10 k."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if n < 10 * k:
        raise InsufficientDataError(f"need at least {10 * k} values, got {n}")


def _fit_sorted(x: np.ndarray, k: int, cfg: EmConfig | None) -> GmmParams:
    """:func:`fit_em` on ``x``, finite float64 values sorted ascending.

    Every per-value job reads ``x`` in place: the runs of equal values
    in one comparison pass, then either the distinct values with their
    counts, fitted by :func:`_fit_counted`, or, above ``_MAX_COLUMNS``
    of them, the starting means by index and the bins.
    """
    new = _run_starts(x)
    distinct = np.count_nonzero(new)
    if distinct <= _MAX_COLUMNS:
        starts = np.flatnonzero(new)
        return _fit_counted(x[starts], np.diff(starts, append=x.size), k, cfg)
    n = x.size
    _check_size(n, k)
    ordered = x
    # A common factor of the run lengths scales the log-likelihood and
    # nothing else; dividing it out keeps the fit of repeated values
    # bit-equal to that of the values, which extrapolation would not
    # otherwise do. With more than n / 2 runs, one has length 1.
    scale_ll = 1
    if 2 * distinct <= n:
        scale_ll = int(np.gcd.reduce(np.diff(np.flatnonzero(new), append=n)))
        x = x[::scale_ll]  # each value once per factor
    with np.errstate(over="ignore", invalid="ignore"):  # the core refuses an overflow
        columns = _bin_sorted(x)
    return _fit_columns(*columns, scale_ll, lambda pct: _sorted_percentiles(ordered, pct), k, cfg)


def _fit_counted(x: np.ndarray, counts: np.ndarray, k: int, cfg: EmConfig | None) -> GmmParams:
    """:func:`fit_em` on ``np.repeat(x, counts)``, without building it when it can.

    ``x`` holds finite float64 values in ascending order, repeats allowed
    (a clip window sends many values to one), and ``counts`` their
    positive integer counts. Runs of equal values are merged. Up to
    ``_MAX_COLUMNS`` merged values are the columns themselves, and the
    starting means are read off their running totals; above that,
    ``np.repeat`` rebuilds the ascending values (a counting sort) for the
    binned fit of :func:`_fit_sorted`. Either way the fit is that of
    the repeated values, bit for bit.
    """
    n = int(counts.sum())
    _check_size(n, k)
    starts = np.flatnonzero(_run_starts(x))
    if starts.size > _MAX_COLUMNS:
        return _fit_sorted(np.repeat(x, counts), k, cfg)
    x, counts = x[starts], np.add.reduceat(counts, starts)
    cumulative = np.cumsum(counts)
    scale_ll = 1  # the common factor of the counts, as in _fit_sorted
    if 2 * x.size <= n:
        scale_ll = int(np.gcd.reduce(counts))
        counts = counts // scale_ll
    return _fit_columns(x, counts.astype(np.float64), np.zeros(x.size), scale_ll,
                        lambda pct: _sorted_percentiles(x, pct, cumulative), k, cfg)


def _fit_columns(x, counts, within, scale_ll, percentiles, k: int,
                 cfg: EmConfig | None) -> GmmParams:
    """The EM core: fit ``k`` components to the columns ``x`` with ``counts``.

    ``within`` holds each column's sum of squared deviations about it (0
    for exact columns), ``scale_ll`` the common factor divided out of the
    counts, and ``percentiles(pct)`` gives the data's percentiles, where
    the starting means sit. See :func:`fit_em` for the fit.
    """
    cfg = cfg or EmConfig()
    n = counts.sum()
    # Values near the float64 limit can overflow a sum or a square on the
    # way to the spread; a spread that is finite rules that out everywhere.
    with np.errstate(over="ignore", invalid="ignore"):
        centre = (counts * x).sum() / n
        centred = x - centre
        spread = (counts * centred * centred).sum() + within.sum()
        square = centred * centred  # Newton's power sums; products, since pow is slow
        table = (counts * np.array((np.ones_like(centred), centred, square,
                                    square * centred, square * square))).T
    if not np.isfinite(spread):
        raise DegenerateIntensityError("the values' mean or spread overflows float64")
    means = percentiles(100.0 * np.arange(1, k + 1) / (k + 1))
    variance = spread / n  # np.var(v), but order-free
    variances = np.full(k, max(float(variance) / (k * k), VARIANCE_FLOOR))
    sweep = _em_sweep(x, counts, centre, scale_ll)

    theta = np.array((np.full(k, 1.0 / k), means, variances))
    ll, resp, mapped = sweep(theta)
    trajectory = [ll]
    radius = np.inf  # the jumps' trust region, unbounded until a jump is refused
    evaluations, converged, refused = 0, False, False
    while mapped is not None and not converged and evaluations < cfg.max_iter:
        jumped = False
        # Mid-cycle, mapped = F(theta). Jump only when a refused jump
        # leaves room for the fallback's E-step.
        if len(trajectory) % 3 == 2 and cfg.max_iter - evaluations >= 2:
            candidate, length = _newton_point(theta, resp, table, centre, radius)
            refused = candidate is not None  # a proposed jump is refused until kept
            if refused:
                evaluations += 1
                jump = sweep(candidate)
                if jump[0] >= ll and jump[2] is not None:
                    theta, jumped, refused = candidate, True, False
                    ll, resp, mapped = jump
            if jumped and length >= radius:
                radius *= 2.0
            elif not jumped and length > 0:  # refused, or no valid mixture
                radius = length / 4.0
        if not jumped:
            evaluations += 1
            theta = mapped
            ll, resp, mapped = sweep(theta)
        trajectory.append(ll)
        if len(trajectory) % 3 == 1:  # a plain step closed the cycle
            start = trajectory[-4]
            converged = not refused and ll - start < cfg.tol * max(1.0, abs(start))
            refused = False

    mass = resp @ counts  # resp holds the posterior of the returned parameters
    if mapped is None:  # found on the last sweep, even one the cap ended on
        dead = int(np.argmin(mass))
        raise DegenerateComponentError(
            f"component {dead} responsibility mass {mass[dead]:.3e} collapsed"
        )
    weights, means, variances = theta
    variances = variances + (resp @ within) / mass
    order = np.lexsort((variances, means))  # stable tie-break on variance
    return GmmParams(
        k=k,
        weights=weights[order],
        means=means[order],
        variances=variances[order],
        log_likelihood=ll,
        iterations=evaluations,
        converged=converged,
        final_rel_change=abs(ll - trajectory[-2]) / max(1.0, abs(trajectory[-2])),
        ll_trajectory=tuple(trajectory),
    )
