"""One-dimensional Gaussian mixture fitting by expectation-maximization.

The mixture density is p(v) = sum_k w_k N(v | mu_k, var_k). All
posterior and likelihood computations run in log space with log-sum-exp
normalization, so widely separated components and tiny variances do not
underflow.

EM runs on each distinct value and its count (the grouped-data EM of
McLachlan & Jones, Biometrics 1988), which is exact: quantised volumes
collapse to a few hundred columns, and every input is fitted in full.
Continuous data, with more than ``_MAX_COLUMNS`` (4096) distinct values,
are first folded into that many equal-width bins over their range. Each
bin keeps its count, the mean of its values and their squared deviations
from that mean; EM runs on the (bin mean, count) columns, and the
responsibility-weighted within-bin variance is added to each component
afterwards. So a k = 1 fit still returns the exact sample mean and
variance, and each sweep costs O(4096 k) however many voxels there are.

The EM sweeps are accelerated by SQUAREM (Varadhan & Roland, Scand. J.
Stat. 2008, scheme S3) on the flat vector theta of weights, means and
variances. A cycle takes two EM maps theta1 = F(theta0) and theta2 =
F(theta1), sets r = theta1 - theta0 and v = theta2 - theta1 - r, and
jumps to theta0 + 2 alpha r + alpha^2 v with alpha = ||r|| / ||v||,
at least 1 and at most a step bound that starts at 1 and grows fourfold
each time alpha reaches it; alpha = 1 gives back theta2. The jump is
refused, and the cycle moves to theta2 instead, if it proposes a weight
<= 0 or a variance below the floor, if a component's mass collapses
there, or if its log-likelihood is below that of theta1; so the
log-likelihood never decreases. One plain EM step from where the cycle
moved closes it and starts the next. A fit converges when a cycle whose
jump was not refused raised the log-likelihood by less than the
tolerance (relative): one EM map gains little along a slowly converging
direction even far from the maximum, which is where plain EM's per-step
test used to stop, and a cycle with a refused jump made only plain EM
progress. The fit returned is always that of a closing plain step (or
of the last E-step when ``max_iter`` cuts the fit), with the
log-likelihood and posterior of that same evaluation.

Fitting is fully deterministic and depends only on the multiset of
values and the config, never on their order: every fit builds its
columns from one sorted copy. Initial means sit at equally spaced sample
quantiles, initial variances at sample variance / k^2, initial weights
uniform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateComponentError, InputError, InsufficientDataError

LOG_2PI = math.log(2.0 * math.pi)

# Smallest variance a fitted or perturbed component may carry on
# [0, 1]-normalized data; prevents singular collapse.
VARIANCE_FLOOR = 1e-8

# A component whose total responsibility mass falls below this has
# effectively lost all its voxels.
_MASS_FLOOR = 1e-12

# Inputs with more distinct values than this are fitted on equal-width
# bins that keep exact within-bin moments; fewer are fitted exactly.
_MAX_COLUMNS = 4096

# SQUAREM's bound on the extrapolation step length, as in Varadhan &
# Roland's package: it starts at 1 and grows fourfold each time a step
# reaches it.
_STEP_MAX0 = 1.0
_STEP_GROWTH = 4.0


@dataclass(frozen=True)
class EmConfig:
    """Convergence knobs for :func:`fit_em`.

    ``tol`` bounds the relative log-likelihood gain of a converged
    SQUAREM cycle (denominator ``max(1, |previous|)``); ``max_iter`` caps
    the E-steps. No fitted variance falls below ``VARIANCE_FLOOR``.
    """

    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.tol < math.inf or self.max_iter < 1:
            raise InputError(f"tol must be finite and > 0 and max_iter >= 1, "
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
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        means = np.asarray(self.means, dtype=np.float64).ravel()
        variances = np.asarray(self.variances, dtype=np.float64).ravel()
        if not (self.k == weights.size == means.size == variances.size):
            raise InputError("k, weights, means, variances sizes disagree")
        if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
            raise InputError("weights must be non-negative and sum to 1")
        if np.any(variances < VARIANCE_FLOOR):
            raise InputError(f"variances must be >= {VARIANCE_FLOOR}")
        if np.any(np.diff(means) < 0):
            raise InputError("means must be sorted ascending")
        for name, arr in (("weights", weights), ("means", means), ("variances", variances)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        try:
            return cls(
                k=int(obj["k"]),
                weights=np.asarray(obj["weights"], dtype=np.float64),
                means=np.asarray(obj["means"], dtype=np.float64),
                variances=np.asarray(obj["variances"], dtype=np.float64),
                log_likelihood=float(obj["log_likelihood"]),
                iterations=int(obj["iterations"]),
                converged=bool(obj.get("converged", True)),
                final_rel_change=float(obj.get("final_rel_change", 0.0)),
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


def _component_log_prob(weights, means, variances, values, out=None) -> np.ndarray:
    """(k, n) array of log(w_k) + log N(v | mu_k, var_k), written into ``out``.

    Computed in place in one (k, n) buffer, a new one when ``out`` is
    None. The steps keep the operation order of
    ``log w - 0.5 * (LOG_2PI + log var + d * d / var)``, so the result is
    that expression bit for bit. Component-major layout keeps every
    reduction in the EM loop contiguous.
    """
    with np.errstate(divide="ignore"):  # zero weights -> -inf is fine
        log_w = np.log(weights)
    lp = np.subtract(values[None, :], means[:, None], out=out)
    lp *= lp
    lp /= variances[:, None]
    lp += LOG_2PI + np.log(variances)[:, None]
    lp *= -0.5
    lp += log_w[:, None]
    return lp


def _posterior(log_prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize (k, n) log probabilities: (responsibilities, log-evidence).

    The responsibilities overwrite ``log_prob``, so no second (k, n)
    buffer is held. One shared exp pass; rows where every density
    underflows still resolve, and exact ties split evenly.
    """
    top = log_prob.max(axis=0)
    log_prob -= top
    unnorm = np.exp(log_prob, out=log_prob)
    total = unnorm.sum(axis=0)
    unnorm /= total
    return unnorm, top + np.log(total)


def responsibilities(params: GmmParams, values) -> np.ndarray:
    """(n, k) posterior p(component | value), rows summing to 1."""
    v = _as_values(values)
    lp = _component_log_prob(params.weights, params.means, params.variances, v)
    return np.ascontiguousarray(_posterior(lp)[0].T)


def _bin_columns(x, counts):
    """Fold sorted distinct values into at most ``_MAX_COLUMNS`` bins.

    Bins are equal-width over ``[x[0], x[-1]]``; empty ones are dropped.
    Returns each bin's count, the mean of its values and the sum of
    squared deviations from that mean, so the binned columns keep the
    exact total mean and variance of the data.
    """
    lo, hi = x[0], x[-1]
    index = np.minimum(np.floor((x - lo) / (hi - lo) * _MAX_COLUMNS), _MAX_COLUMNS - 1)
    starts = np.flatnonzero(np.diff(index, prepend=-1.0))  # x is sorted: bins are runs
    bin_counts = np.add.reduceat(counts, starts).astype(np.float64)
    bin_means = np.add.reduceat(counts * x, starts) / bin_counts
    dev = x - np.repeat(bin_means, np.diff(starts, append=x.size))
    return bin_means, bin_counts, np.add.reduceat(counts * dev * dev, starts)


def _squarem_point(theta0, theta1, theta2, step_max):
    """SQUAREM jump from two EM maps: (candidate or None, step length alpha).

    ``theta1 = F(theta0)`` and ``theta2 = F(theta1)`` are (3, k) stacks of
    weights, means and variances; see the module docstring for the step.
    There is no candidate when alpha is 1 (the jump would be
    ``theta2``) or when the jump is no valid mixture. A candidate's
    weights are rescaled to sum to exactly 1.
    """
    r = theta1 - theta0
    v = theta2 - theta1 - r
    norm_v = np.linalg.norm(v)
    alpha = step_max if norm_v == 0 else min(step_max, max(1.0, np.linalg.norm(r) / norm_v))
    if alpha == 1.0:
        return None, alpha
    candidate = theta0 + 2.0 * alpha * r + alpha * alpha * v
    weights, _, variances = candidate
    if not (np.all(weights > 0) and np.all(variances >= VARIANCE_FLOOR)):
        return None, alpha
    weights /= weights.sum()
    return candidate, alpha


def fit_em(values, k: int = 3, cfg: EmConfig | None = None) -> GmmParams:
    """Fit a k-component mixture to 1-D samples by EM, accelerated by SQUAREM.

    Each sweep runs over the sorted distinct values weighted by their
    counts, so the fit does not depend on the order of ``values``. Above
    ``_MAX_COLUMNS`` distinct values it runs over equal-width bins
    instead (see the module docstring): the same EM on the bin means,
    then each component's variance gains its responsibility-weighted
    within-bin variance.

    The sweeps come in SQUAREM cycles (see the module docstring): two EM
    maps, one extrapolated jump, kept only if it is a valid mixture whose
    log-likelihood is no lower than that of the point it jumps from
    (else the second map's point is taken), and one plain EM step that
    closes the cycle. The fit converges when a cycle without a refused
    jump raised the log-likelihood by less than ``cfg.tol`` relative to
    its start, so only a closing plain step can end it. ``iterations``
    counts the E-steps after the one at the starting point, refused
    jumps included, and never exceeds ``cfg.max_iter``; ``converged`` is
    false when the cap stopped the fit. The reported ``log_likelihood``
    refers to the returned means and weights (for a binned fit, on the
    bin-mean columns with the variances before the within-bin term),
    and ``ll_trajectory`` holds the log-likelihood of every point the
    fit moved to, starting point included: it does not decrease.

    Raises:
        InsufficientDataError: fewer than ``10 * k`` values.
        DegenerateComponentError: a component's responsibility mass
            collapsed below 1e-12.
    """
    cfg = cfg or EmConfig()
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    v = _as_values(values)
    n = v.size
    if n < 10 * k:
        raise InsufficientDataError(f"need at least {10 * k} values, got {n}")
    x = np.sort(v)  # the one sort: initial means, then the distinct values
    means = np.percentile(x, 100.0 * np.arange(1, k + 1) / (k + 1))
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    x, counts, within = x[starts], np.diff(starts, append=n), None  # frees the sorted copy
    # A common factor of the counts scales the log-likelihood and nothing
    # else; dividing it out keeps the fit of repeated values bit-equal to
    # that of the values, which extrapolation would not otherwise do.
    scale_ll = int(np.gcd.reduce(counts)) if counts.min() > 1 else 1
    counts //= scale_ll
    n //= scale_ll
    if x.size > _MAX_COLUMNS:
        x, counts, within = _bin_columns(x, counts)
    counts = counts.astype(np.float64)

    centred = x - (counts * x).sum() / n
    spread = (counts * centred * centred).sum()
    if within is not None:
        spread += within.sum()
    variance = spread / n  # np.var(v), but order-free
    variances = np.full(k, max(float(variance) / (k * k), VARIANCE_FLOOR))

    def sweep(theta):
        """E-step at theta, then the M-step.

        Returns the log-likelihood of theta, its count-weighted
        posterior and F(theta), or None for F(theta) when a component's
        mass collapsed.
        """
        resp, log_evidence = _posterior(_component_log_prob(*theta, x))
        ll = scale_ll * float(log_evidence @ counts)
        resp *= counts
        mass = resp.sum(axis=1)
        if np.any(mass < _MASS_FLOOR):
            return ll, resp, None
        mapped_means = (resp * x).sum(axis=1) / mass
        diff = x - mapped_means[:, None]
        diff *= diff
        mapped_variances = np.maximum((resp * diff).sum(axis=1) / mass, VARIANCE_FLOOR)
        return ll, resp, np.array((mass / n, mapped_means, mapped_variances))

    theta = np.array((np.full(k, 1.0 / k), means, variances))
    ll, resp, mapped = sweep(theta)
    trajectory = [ll]
    anchor, step_max, refused = theta, _STEP_MAX0, False
    evaluations, converged = 0, False
    while not converged and evaluations < cfg.max_iter:
        if mapped is None:
            mass = resp.sum(axis=1)
            dead = int(np.argmin(mass))
            raise DegenerateComponentError(
                f"component {dead} responsibility mass {mass[dead]:.3e} collapsed"
            )
        jumped = False
        # Mid-cycle, theta = F(anchor) and mapped = F(theta). Jump only
        # when a refused jump leaves room for the fallback's E-step.
        if len(trajectory) % 3 == 2 and cfg.max_iter - evaluations >= 2:
            candidate, alpha = _squarem_point(anchor, theta, mapped, step_max)
            if alpha == step_max:
                step_max *= _STEP_GROWTH
            refused = alpha > 1.0
            if candidate is not None:
                evaluations += 1
                jump = sweep(candidate)
                if jump[0] >= ll and jump[2] is not None:
                    theta, jumped, refused = candidate, True, False
                    ll, resp, mapped = jump
        if not jumped:
            evaluations += 1
            theta = mapped
            ll, resp, mapped = sweep(theta)
        trajectory.append(ll)
        if len(trajectory) % 3 == 1:  # a plain step closed the cycle
            start = trajectory[-4]
            converged = not refused and ll - start < cfg.tol * max(1.0, abs(start))
            anchor, refused = theta, False

    weights, means, variances = theta
    if within is not None:  # resp holds the weighted posterior of the returned parameters
        variances = variances + (resp @ (within / counts)) / resp.sum(axis=1)
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
