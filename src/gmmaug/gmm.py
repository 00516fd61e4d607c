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

Fitting is fully deterministic for a given (values, config) pair, and
on data with repeated values, or binned data, it does not depend on
their order: initial means sit at equally spaced sample quantiles,
initial variances at sample variance / k^2, initial weights uniform.
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


@dataclass(frozen=True)
class EmConfig:
    """Convergence knobs for :func:`fit_em`.

    ``tol`` bounds the relative log-likelihood change between
    iterations (denominator ``max(1, |previous|)``); ``max_iter`` caps
    the EM sweeps. No fitted variance falls below ``VARIANCE_FLOOR``.
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
    convention. ``converged`` says whether the last EM step changed the
    log-likelihood by less than the tolerance, and ``final_rel_change``
    is that relative change; parameters not made by :func:`fit_em` (or
    read from JSON without these keys) count as converged with change 0.
    ``ll_trajectory`` keeps the per-iteration log-likelihood for
    monotonicity checks; it is not serialized. For a binned fit (more
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
        except (KeyError, TypeError, ValueError) as exc:
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


def fit_em(values, k: int = 3, cfg: EmConfig | None = None) -> GmmParams:
    """Fit a k-component mixture to 1-D samples by EM.

    Each sweep runs over the distinct values weighted by their counts;
    when no value repeats, over the values in their given order. Above
    ``_MAX_COLUMNS`` distinct values it runs over equal-width bins
    instead (see the module docstring): the same EM on the bin means,
    so the trajectory stays monotone, then each component's variance
    gains its responsibility-weighted within-bin variance. It iterates
    until the relative log-likelihood change drops below ``cfg.tol`` or
    ``cfg.max_iter`` sweeps have run; ``converged`` on the result tells
    the two apart. The reported ``log_likelihood`` refers to the
    returned means and weights (for a binned fit, on the bin-mean
    columns with the variances before the within-bin term), and
    ``ll_trajectory`` holds every evaluation in order.

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
    if x.size > _MAX_COLUMNS:
        x, counts, within = _bin_columns(x, counts)
    elif x.size == n:  # nothing to group: keep the given order
        x, counts = v, np.ones(n)

    centred = x - (counts * x).sum() / n
    spread = (counts * centred * centred).sum()
    if within is not None:
        spread += within.sum()
    variance = spread / n  # np.var(v), but order-free
    variances = np.full(k, max(float(variance) / (k * k), VARIANCE_FLOOR))
    weights = np.full(k, 1.0 / k)

    trajectory: list[float] = []
    for sweeps in range(cfg.max_iter + 1):
        resp, log_evidence = _posterior(_component_log_prob(weights, means, variances, x))
        log_evidence *= counts
        trajectory.append(float(log_evidence.sum()))
        if sweeps:
            scale = max(1.0, abs(trajectory[-2]))
            change = abs(trajectory[-1] - trajectory[-2])
            converged = change < cfg.tol * scale
            if converged or sweeps == cfg.max_iter:
                break

        resp *= counts
        mass = resp.sum(axis=1)
        if np.any(mass < _MASS_FLOOR):
            dead = int(np.argmin(mass))
            raise DegenerateComponentError(
                f"component {dead} responsibility mass {mass[dead]:.3e} collapsed"
            )
        weights = mass / n
        means = (resp * x[None, :]).sum(axis=1) / mass
        diff = x[None, :] - means[:, None]
        variances = np.maximum((resp * diff * diff).sum(axis=1) / mass, VARIANCE_FLOOR)

    if within is not None:  # resp holds the posterior of the returned parameters
        variances = variances + (resp @ within) / (resp @ counts)
    order = np.lexsort((variances, means))  # stable tie-break on variance
    return GmmParams(
        k=k,
        weights=weights[order],
        means=means[order],
        variances=variances[order],
        log_likelihood=trajectory[-1],
        iterations=sweeps,
        converged=converged,
        final_rel_change=change / scale,
        ll_trajectory=tuple(trajectory),
    )
