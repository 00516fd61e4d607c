"""Contrast augmentation by perturbing a fitted mixture and remapping voxels.

One augmentation draw shifts every component's mean and variance by
uniform offsets bounded by the population spreads, then rewrites each
voxel so its standardised offset from every component is preserved:

    v'_k = mu'_k + sigma'_k * (v - mu_k) / sigma_k

The per-component values are blended with the voxel's posterior
responsibilities gamma_k under the original fit (or assigned hard from
the argmax component, a one-hot gamma), which keeps tissue geometry
intact while the contrast between tissues changes. The blend is linear
in the perturbed parameters:

    v' = sum_k gamma_k * mu'_k + sum_k (gamma_k * D_k) * sigma'_k,
    D_k = (v - mu_k) / sigma_k

gamma and D depend only on the fit, so :func:`augment_draws` builds the
(2k, n) basis [gamma; gamma * D] once per volume, and each draw is one
matrix-vector product [mu', sigma'] @ basis, scattered into a zero
background (clip-normalization zeroes every voxel outside the mask).
While it draws, the generator holds only the foreground mask, one byte
per voxel, and the basis, 2k * n * 8 bytes for n foreground voxels:
about 17 MB for the 360 k foreground voxels of a 96^3 volume and 80 MB
at 160x192x160 (k = 3). ``gmmaug augment`` adds one output volume at a
time; on a 160x192x160 phantom with 1.67 M foreground voxels, ``augment
--n 2`` peaks at 205 MB resident (2-core Xeon, one BLAS thread) in the
first draw; the fit, on the normalized masked values alone, peaks at 162 MB.

Randomness comes from a Philox (counter-based) generator keyed with the
caller's seed; the draw order is fixed as q_mu then q_var for component
0, then component 1, and so on, so a seed identifies one augmentation
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import gmm
from .errors import InputError, NumericalError
from .gmm import VARIANCE_FLOOR, EmConfig, GmmParams
from .population import PopulationStats
from .preprocess import fit_volume
from .volume import Volume

# Bound on order-inversion rejection retries before giving up.
_MAX_REDRAWS = 10_000


@dataclass(frozen=True)
class Perturbation:
    """Sampled per-component offsets (q_mu, q_var) for one draw."""

    q_mu: np.ndarray
    q_var: np.ndarray
    seed: int

    def __post_init__(self):
        q_mu = np.asarray(self.q_mu, dtype=np.float64).ravel()
        q_var = np.asarray(self.q_var, dtype=np.float64).ravel()
        if q_mu.size != q_var.size:
            raise InputError("q_mu and q_var must have the same length")
        q_mu.setflags(write=False)
        q_var.setflags(write=False)
        object.__setattr__(self, "q_mu", q_mu)
        object.__setattr__(self, "q_var", q_var)


@dataclass(frozen=True)
class PerturbedGmm:
    """Mixture after applying a perturbation; variances floor-clamped."""

    base: GmmParams
    means: np.ndarray
    variances: np.ndarray
    clamped: tuple[int, ...] = ()

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64).ravel()
        variances = np.asarray(self.variances, dtype=np.float64).ravel()
        if means.size != self.base.k or variances.size != self.base.k:
            raise InputError("perturbed parameter sizes disagree with base k")
        if np.any(variances < VARIANCE_FLOOR):
            raise InputError(f"perturbed variances must be >= {VARIANCE_FLOOR}")
        means.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)


def sample_perturbation(stats: PopulationStats, seed: int,
                        means: np.ndarray | None = None) -> Perturbation:
    """Draw q_mu[i] ~ U(-mu_std[i], +mu_std[i]) and likewise q_var.

    Philox keyed with ``seed``; the same seed always reproduces the
    same draw, on any platform. Given the fitted component ``means``,
    draws that would leave ``means + q_mu`` out of ascending order are
    discarded and redrawn from the same stream.
    """
    rng = np.random.Generator(np.random.Philox(int(seed)))
    for _ in range(_MAX_REDRAWS):
        # one (mu, var) pair per component, component-major order
        unit = 2.0 * rng.random((stats.k, 2)) - 1.0
        q_mu = unit[:, 0] * stats.mu_std
        if means is None or np.all(np.diff(means + q_mu) >= 0):
            return Perturbation(q_mu=q_mu, q_var=unit[:, 1] * stats.var_std, seed=int(seed))
    raise NumericalError(f"no order-preserving perturbation found in {_MAX_REDRAWS} draws")


def apply_perturbation(params: GmmParams, pert: Perturbation) -> PerturbedGmm:
    """Shift means and variances; clamp negative variances to the floor.

    Clamped component indices are reported on the result. Perturbed
    means may leave ascending order; unrealistic contrasts are allowed
    by design.
    """
    if pert.q_mu.size != params.k:
        raise InputError(f"perturbation has {pert.q_mu.size} components, fit has {params.k}")
    means = params.means + pert.q_mu
    raw_vars = params.variances + pert.q_var
    clamped = tuple(int(i) for i in np.flatnonzero(raw_vars < VARIANCE_FLOOR))
    return PerturbedGmm(
        base=params,
        means=means,
        variances=np.maximum(raw_vars, VARIANCE_FLOOR),
        clamped=clamped,
    )


def _remap_basis(values: np.ndarray, params: GmmParams, hard_assign: bool) -> np.ndarray:
    """(2k, n) rows [gamma; gamma * D] of the remap's linear form.

    ``gamma`` is the posterior of ``params`` (one-hot at its argmax under
    ``hard_assign``) and ``D_k = (v - mu_k) / sigma_k``. Every row is
    written in place, so the basis is the only (k, n)-sized array made.
    """
    k = params.k
    basis = np.empty((2 * k, values.size))
    gamma, scaled = basis[:k], basis[k:]
    gmm._posterior(gmm._component_log_prob(
        params.weights, params.means, params.variances, values, out=gamma))
    if hard_assign:
        # Running maximum over the rows; ">" keeps the first maximum on
        # ties, as np.argmax does, without its strided reduction.
        best, winner = gamma[0].copy(), np.zeros(values.size, dtype=np.intp)
        for j in range(1, k):
            np.copyto(winner, j, where=gamma[j] > best)
            np.maximum(best, gamma[j], out=best)
        gamma[...] = np.arange(k)[:, None] == winner
    np.subtract(values, params.means[:, None], out=scaled)
    scaled /= np.sqrt(params.variances)[:, None]
    scaled *= gamma
    return basis


def _draw(basis: np.ndarray, background: np.ndarray, mask: np.ndarray, pert: PerturbedGmm,
          clip: bool) -> np.ndarray:
    """Write one perturbed mixture through ``basis`` into the masked voxels of ``background``.

    ``background`` is a writable flat array owned by the caller; it is
    filled in place and returned.
    """
    remapped = np.concatenate([pert.means, np.sqrt(pert.variances)]) @ basis
    if clip:
        np.clip(remapped, 0.0, 1.0, out=remapped)
    background[mask] = remapped
    return background


def remap(
    vol: Volume,
    mask: np.ndarray,
    params: GmmParams,
    pert: PerturbedGmm,
    hard_assign: bool = False,
    clip: bool = True,
) -> Volume:
    """Rewrite masked voxels under the perturbed mixture.

    Per-component values are mixed with the posterior responsibilities
    of the original fit; ``hard_assign`` instead takes the single
    argmax-responsibility component. Output is clipped to [0, 1] unless
    ``clip`` is disabled. Voxels outside the mask are untouched. This
    builds the basis and applies one draw; :func:`augment_draws` keeps
    the basis for every seed.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != vol.n_voxels:
        raise InputError(f"mask length {mask.size} != voxel count {vol.n_voxels}")
    basis = _remap_basis(vol.data[mask], params, hard_assign)
    return Volume(vol.dims, vol.spacing, _draw(basis, vol.data.copy(), mask, pert, clip))


def augment_draws(
    vol: Volume,
    stats: PopulationStats,
    seeds: Iterable[int],
    cfg: EmConfig | None = None,
    *,
    hard_assign: bool = False,
    reject_order_inversion: bool = False,
    clip: bool = True,
) -> Iterator[tuple[Volume, Perturbation, PerturbedGmm]]:
    """Mask, normalize and fit ``vol`` once, then yield one draw per seed.

    The volume must be skull-stripped (foreground derivable from
    positive intensities); normalization uses the percentiles recorded
    in ``stats``. Each draw is (remapped volume, perturbation, perturbed
    mixture), and ``perturbed.base`` is the fit. With
    ``reject_order_inversion`` perturbations that would invert the order
    of the fitted means are redrawn from the same seed's stream. The
    remap basis is built once, after the fit, and each seed costs one
    matrix-vector product over it.

    After the fit the generator keeps only the mask and the basis: it
    drops ``vol`` before building the basis and the normalized values
    after, and each draw starts from a zero background. A caller that
    keeps no other reference to ``vol`` and releases each draw before
    asking for the next holds one output volume at a time.
    """
    mask, values, params = fit_volume(vol, stats.k, cfg, stats.clip_lo_pct, stats.clip_hi_pct)
    dims, spacing = vol.dims, vol.spacing
    del vol
    basis = _remap_basis(values, params, hard_assign)
    del values
    for seed in seeds:
        pert = sample_perturbation(stats, seed, params.means if reject_order_inversion else None)
        perturbed = apply_perturbation(params, pert)
        # no local keeps the draw, so the caller's release frees it
        yield (Volume(dims, spacing, _draw(basis, np.zeros(mask.size), mask, perturbed, clip)),
               pert, perturbed)


def augment_volume(
    vol: Volume,
    stats: PopulationStats,
    seed: int,
    cfg: EmConfig | None = None,
    *,
    hard_assign: bool = False,
    reject_order_inversion: bool = False,
    clip: bool = True,
) -> tuple[Volume, GmmParams, Perturbation]:
    """:func:`augment_draws` for one seed: (remapped volume, fit, perturbation)."""
    draws = augment_draws(vol, stats, (seed,), cfg, hard_assign=hard_assign,
                          reject_order_inversion=reject_order_inversion, clip=clip)
    out, pert, perturbed = next(draws)
    return out, perturbed.base, pert


def provenance_dict(pert: Perturbation, perturbed: PerturbedGmm) -> dict:
    """Sidecar payload describing one augmentation draw."""
    return {
        "seed": pert.seed,
        "fit": perturbed.base.to_json_dict(),
        "perturbation": {
            "q_mu": pert.q_mu.tolist(),
            "q_var": pert.q_var.tolist(),
        },
        "clamped_variances": list(perturbed.clamped),
    }
