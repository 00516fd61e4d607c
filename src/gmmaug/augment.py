"""Contrast augmentation by perturbing a fitted mixture and remapping voxels.

One augmentation draw shifts every component's mean and variance by
uniform offsets bounded by the population spreads, then rewrites each
voxel so its standardised offset from every component is preserved:

    v'_k = mu'_k + sigma'_k * (v - mu_k) / sigma_k

The per-component values are blended with the voxel's posterior
responsibilities gamma_k under the original fit (or the argmax
component's value is taken alone under hard assignment), which keeps
tissue geometry intact while the contrast between tissues changes:

    v' = sum_k gamma_k * (D_k * sigma'_k + mu'_k),  D_k = (v - mu_k) / sigma_k

gamma and D depend only on the fit and the normalized value v, so each
draw's remap is one function of v. :func:`remap` evaluates it exactly
on the masked voxels, component by component, with no basis and no
matrix product. :func:`augment_draws` instead codes each foreground
voxel once as an index and an optional weight, at most 9 bytes, and
every draw is the one expression a[index] + b[index] * weight over two
small tables (a, b) built from the perturbation. One kernel,
:meth:`_Coded.draw_into`, samples a seed's perturbation, builds and
bounds its tables and reads the voxels off them a block of the grid at
a time, into buffers it reuses.
Either way the result lands in a zero background (clip-normalization
zeroes every voxel outside the mask). While it draws, the generator
holds only the foreground mask, one byte per voxel, the codes and the
kernel's block buffers, and each draw is a fresh float64 volume;
``gmmaug augment`` instead runs the kernel into one float32 body,
allocated once and written after each draw.

Randomness comes from a Philox (counter-based) generator keyed with the
caller's seed; the draw order is fixed as q_mu then q_var for component
0, then component 1, and so on, so a seed identifies one perturbation
(q_mu, q_var) on every machine. The remapped voxels also depend on the
fit, which repeats bit for bit only under the same numpy build, SIMD
target and BLAS kernel. Given the fit, no draw calls BLAS; the
posterior still follows numpy's exp and log, whose last bits can change
with the SIMD target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import gmm
from .errors import InputError, NumericalError
from .gmm import VARIANCE_FLOOR, EmConfig, GmmParams
from .population import PopulationStats
from .preprocess import _apply_window, fit_volume
from .volume import _BLOCK, Volume, _finite_volume, _flat_float64, _foreground, _freeze, _is_seed

# Bound on order-inversion rejection retries before giving up.
_MAX_REDRAWS = 10_000

# Soft draws on continuous data interpolate the remap between these
# uniform knots on [0, 1], where normalized values lie.
_KNOT_INTERVALS = 4096
_UNIT_KNOTS = np.linspace(0.0, 1.0, _KNOT_INTERVALS + 1)


@dataclass(frozen=True)
class Perturbation:
    """Sampled per-component offsets (q_mu, q_var) for one draw."""

    q_mu: np.ndarray
    q_var: np.ndarray
    seed: int

    def __post_init__(self):
        q_mu, q_var = _flat_float64(self, "q_mu", "q_var")
        if q_mu.size != q_var.size:
            raise InputError("q_mu and q_var must have the same length")
        _freeze(self, q_mu=q_mu, q_var=q_var)


@dataclass(frozen=True)
class PerturbedGmm:
    """Mixture after applying a perturbation; variances floor-clamped."""

    base: GmmParams
    means: np.ndarray
    variances: np.ndarray
    clamped: tuple[int, ...] = ()

    def __post_init__(self):
        means, variances = _flat_float64(self, "means", "variances")
        if means.size != self.base.k or variances.size != self.base.k:
            raise InputError("perturbed parameter sizes disagree with base k")
        if np.any(variances < VARIANCE_FLOOR):
            raise InputError(f"perturbed variances must be >= {VARIANCE_FLOOR}")
        _freeze(self, means=means, variances=variances)


def sample_perturbation(stats: PopulationStats, seed: int,
                        means: np.ndarray | None = None) -> Perturbation:
    """Draw q_mu[i] ~ U(-mu_std[i], +mu_std[i]) and likewise q_var.

    Philox keyed with ``seed``, a Python or numpy integer >= 0 (anything
    else, a bool included, raises InputError); the same seed always
    reproduces the same draw, on any platform. Given the fitted component
    ``means``, draws that would leave ``means + q_mu`` out of ascending
    order are discarded and redrawn from the same stream.
    """
    if not _is_seed(seed):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")
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


def _winners(log_prob: np.ndarray) -> np.ndarray:
    """Each column's argmax row of (k, n) ``log_prob``, as the smallest unsigned dtype allows.

    A running maximum: ">" keeps the first maximum on ties, as np.argmax
    does, without its strided reduction. For k up to 256 the rows fit in
    uint8.
    """
    k, n = log_prob.shape
    best, winner = log_prob[0].copy(), np.zeros(n, dtype=np.min_scalar_type(k - 1))
    for j in range(1, k):
        np.copyto(winner, j, where=log_prob[j] > best)
        np.maximum(best, log_prob[j], out=best)
    return winner


def _remapped(values: np.ndarray, pert: PerturbedGmm, hard_assign: bool = False) -> np.ndarray:
    """Each of ``values`` remapped under ``pert``, unclipped.

    Each value v is mapped along component j as
    ``((v - mu_j) / sigma_j) * sigma'_j + mu'_j``, the operation order of
    the hard draw's ``a[j] + b[j] * D``. ``hard_assign`` takes j as the
    argmax of the posterior of ``pert.base``; otherwise every component's
    map is weighted by that posterior and summed.
    """
    params = pert.base
    log_prob = gmm._component_log_prob(params.weights, params.means, params.variances, values)
    j = _winners(log_prob) if hard_assign else np.arange(params.k)[:, None]
    mapped = np.subtract(values, params.means[j])
    mapped /= np.sqrt(params.variances)[j]
    mapped *= np.sqrt(pert.variances)[j]
    mapped += pert.means[j]
    if hard_assign:
        return mapped
    mapped *= gmm._posterior(log_prob)[0]
    return mapped.sum(axis=0)


def remap(
    vol: Volume,
    mask: np.ndarray,
    pert: PerturbedGmm,
    hard_assign: bool = False,
    clip: bool = True,
) -> Volume:
    """Rewrite masked voxels under the perturbed mixture ``pert``.

    Per-component values are mixed with the posterior responsibilities
    of the original fit, ``pert.base``; ``hard_assign`` instead takes the
    single argmax-responsibility component. Output is clipped to [0, 1]
    unless ``clip`` is disabled. Voxels outside the mask are untouched.
    This is the exact remap, evaluated on every masked voxel.
    :func:`augment_draws` draws from a small per-voxel code instead; its
    hard and integer draws equal this one in float64.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != vol.n_voxels:
        raise InputError(f"mask length {mask.size} != voxel count {vol.n_voxels}")
    remapped = _remapped(vol.data[mask], pert, hard_assign)
    if clip:
        np.clip(remapped, 0.0, 1.0, out=remapped)
    data = vol.data.copy()
    data[mask] = remapped
    return Volume(vol.dims, vol.spacing, data)


def _voxel_code(values, window: tuple[float, float], params: GmmParams,
                hard_assign: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None, float]:
    """(knots, index, weight, reach) of raw foreground ``values``.

    No knots under hard assignment, no weight for integers; ``reach`` is
    the largest weight magnitude, 0 without weights. The codes are laid
    out in :func:`augment_draws`. A foreground of integers comes from
    the reader as (knots, index) (see :func:`gmmaug.volume._as_integers`),
    and its code is those knots, normalized, and that index. Float values
    are widened, windowed and coded a block at a time, hard or soft.
    """
    if isinstance(values, tuple):
        knots, index = values
        return _apply_window(knots, window), index, None, 0.0
    index = np.empty(values.size, np.min_scalar_type(params.k - 1) if hard_assign else np.int32)
    weight = np.empty(values.size, np.float64 if hard_assign else np.float32)
    for lo in range(0, values.size, _BLOCK):
        position = _apply_window(values[lo:lo + _BLOCK].astype(np.float64), window)
        at, offset = index[lo:lo + _BLOCK], weight[lo:lo + _BLOCK]
        if hard_assign:
            at[:] = _winners(gmm._component_log_prob(params.weights, params.means,
                                                     params.variances, position))
            np.subtract(position, params.means[at], out=offset)
            offset /= np.sqrt(params.variances)[at]
        else:
            position *= _KNOT_INTERVALS
            # 1.0 ends the last interval
            np.minimum(position.astype(np.int32), _KNOT_INTERVALS - 1, out=at)
            offset[:] = np.subtract(position, at, out=position)
    knots = None if hard_assign else _UNIT_KNOTS
    return knots, index, weight, float(max(weight.max(), -weight.min()))


class _Coded:
    """A volume fitted once and coded, and the one kernel that draws from its code by seed.

    Built as :func:`augment_draws` describes: of ``vol`` it keeps the mask, the fit and
    the code (``knots``, ``index``, ``weight`` and ``reach``, see :func:`_voxel_code`),
    and ``stats``, with three block buffers that every draw reuses.
    """

    def __init__(self, vol, stats: PopulationStats, cfg: EmConfig | None = None, *,
                 hard_assign: bool = False, reject_order_inversion: bool = False,
                 clip: bool = True):
        self.dims, self.spacing, self.mask, values = _foreground(vol)
        # the fit sorts float values in place and leaves knots and index as they are
        window, self.params = fit_volume(values if isinstance(values, tuple) else values.copy(),
                                         stats.k, cfg, stats.clip_lo_pct, stats.clip_hi_pct)
        self.knots, self.index, self.weight, self.reach = _voxel_code(values, window,
                                                                      self.params, hard_assign)
        self.stats, self.hard_assign, self.clip = stats, hard_assign, clip
        self.reject_order_inversion = reject_order_inversion
        size = min(_BLOCK, self.index.size)
        self._at, self._a, self._b = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size)

    def _tables(self, pert: PerturbedGmm) -> tuple[np.ndarray, np.ndarray | None, bool]:
        """The tables (a, b) of a draw under ``pert``, and whether they prove it finite.

        (a, b) is the remap on the knots and its steps, or (mu', sigma')
        without knots; there is no ``b`` without a weight. Each voxel is
        a[index] + b[index] * weight, or a[index], so its magnitude is at
        most |a[i]| + |b[i]| * reach, or |a[i]|, and rounding, being
        monotone, keeps the computed voxel within the computed bound: so
        a finite bound table proves the draw finite without a pass over
        its voxels.
        """
        if self.knots is None:
            a, b = pert.means, np.sqrt(pert.variances)
        else:
            a = _remapped(self.knots, pert, self.hard_assign)
            b = None if self.weight is None else np.diff(a)
        bound = np.abs(a)
        if self.weight is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                bound[:b.size] += np.abs(b) * self.reach
        return a, b, bool(np.isfinite(bound).all())

    def draw_into(self, out: np.ndarray, seed: int) -> tuple[Perturbation, PerturbedGmm, bool]:
        """Store the draw of ``seed`` in the masked voxels of the flat ``out``.

        Returns (perturbation, perturbed fit, whether the draw fits
        ``out``'s dtype); the perturbation is ``seed``'s, redrawn under
        ``reject_order_inversion`` (see :func:`sample_perturbation`). The
        grid is walked :data:`~gmmaug.volume._BLOCK` voxels at a time; the
        masked voxels of a block advance the offset into the code, and
        their index, a[index] and b[index] are gathered into the reused
        buffers. Each block is a[index] + b[index] * weight (a[index]
        without a weight) in float64, clipped to [0, 1] unless clipping is
        off, and stored into ``out``, cast to its dtype. A draw its tables
        do not prove finite is scanned block by block, and the first
        block holding NaN or an infinity raises InputError. A value that
        overflows ``out``'s dtype (float32 can) does not fit; the draw
        goes on, so that a later NaN or infinity is still the error
        raised. Voxels outside the mask are not touched.
        """
        pert = sample_perturbation(self.stats, seed,
                                   self.params.means if self.reject_order_inversion else None)
        perturbed = apply_perturbation(self.params, pert)
        a, b, proved = self._tables(perturbed)
        fits, start = True, 0
        for lo in range(0, out.size, _BLOCK):
            held = self.mask[lo:lo + _BLOCK]
            stop = start + np.count_nonzero(held)
            if stop == start:
                continue
            at = self._at[:stop - start]
            np.copyto(at, self.index[start:stop])
            # every index is in range; under mode="raise" np.take would buffer its out
            drawn = np.take(a, at, out=self._a[:at.size], mode="clip")
            if self.weight is not None:
                step = np.take(b, at, out=self._b[:at.size], mode="clip")
                step *= self.weight[start:stop]
                drawn += step
            if self.clip:
                np.clip(drawn, 0.0, 1.0, out=drawn)
            if not (proved or np.isfinite(drawn).all()):
                raise InputError("volume data contains NaN or Inf")
            try:
                with np.errstate(over="raise"):
                    out[lo:lo + _BLOCK][held] = drawn
            except FloatingPointError:
                fits = False
            start = stop
        return pert, perturbed, fits

    def draw(self, seed: int) -> tuple[Volume, Perturbation, PerturbedGmm]:
        """The draw of ``seed`` as a fresh float64 volume on a zero background, as
        :func:`augment_draws` yields it: (volume, perturbation, perturbed mixture)."""
        data = np.zeros(self.mask.size)
        pert, perturbed, _ = self.draw_into(data, seed)
        # the kernel has scanned every draw its tables do not prove finite
        return _finite_volume(self.dims, self.spacing, data), pert, perturbed


def augment_draws(
    vol: Volume | str | os.PathLike,
    stats: PopulationStats,
    seeds: Iterable[int],
    cfg: EmConfig | None = None,
    *,
    hard_assign: bool = False,
    reject_order_inversion: bool = False,
    clip: bool = True,
) -> Iterator[tuple[Volume, Perturbation, PerturbedGmm]]:
    """Mask, normalize and fit ``vol`` once, then yield one draw per seed.

    ``vol`` is a :class:`Volume` or the path of a volume file. A path is
    read for its positive voxels alone (see
    :func:`gmmaug.volume._foreground`), with the values of
    ``read_volume`` bit for bit, so either input yields the same draws.
    A foreground of integers comes as float64 knots, the integers from
    its minimum to its maximum, and each voxel's int32 index among them:
    the fit counts the index (see :func:`gmmaug.preprocess.fit_volume`)
    and the code is that index, with no float64 copy of the values and
    no sort. A float foreground is sorted as stored for the fit and
    coded a block at a time, soft or hard. The volume must be
    skull-stripped (foreground derivable from positive intensities);
    normalization uses the percentiles recorded in ``stats``. Each draw
    is (remapped volume, perturbation, perturbed mixture), and
    ``perturbed.base`` is the fit. With ``reject_order_inversion``
    perturbations that would invert the order of the fitted means are
    redrawn from the same seed's stream.

    After the fit each foreground voxel is reduced to a code, an index
    and an optional weight (:func:`_voxel_code`), and every draw reads
    it off two small tables (a, b) of the perturbation:
    ``a[index] + b[index] * weight``, or ``a[index]`` without a weight.
    When the foreground comes as integers, as from int16 scans, the
    index is the reader's, there is no weight, and ``a`` is the exact
    remap, soft or hard, on the integer knots (4 bytes). Otherwise a
    soft draw's ``a`` is the exact remap at 4097 uniform knots on
    [0, 1] and ``b`` its steps, and a voxel keeps its int32 interval
    and float32 fraction (8 bytes; within 1e-7 of :func:`remap`).
    Under ``hard_assign`` (a, b) is (mu', sigma'), and a voxel keeps
    its uint8 component j and float64 offset D (9 bytes). The integer
    and hard codes equal :func:`remap` in float64.

    :meth:`_Coded.draw_into` is the one draw kernel: it samples a
    seed's perturbation, builds and bounds its tables (a, b) and walks
    the grid in blocks of 65536 voxels, reading each block's voxels off the tables into
    buffers it reuses, so beyond its output a draw allocates only its
    tables and a few block-sized arrays. A draw whose tables bound
    every voxel's magnitude by a finite number is not scanned for NaN
    and infinities; any other draw is scanned block by block.
    ``gmmaug augment`` runs the same kernel into one float32 body that
    it reuses for every draw.

    The generator keeps only the mask and these codes: it drops ``vol``
    before the fit, and each draw is a fresh float64 volume on a zero
    background; from a path it never holds the whole volume as float64.
    A caller that keeps no other reference to ``vol`` and releases each
    draw before asking for the next holds one output volume at a time.
    """
    coded = _Coded(vol, stats, cfg, hard_assign=hard_assign,
                   reject_order_inversion=reject_order_inversion, clip=clip)
    del vol
    for seed in seeds:
        yield coded.draw(seed)  # no local keeps the draw, so the caller's release frees it


def augment_volume(
    vol: Volume | str | os.PathLike,
    stats: PopulationStats,
    seed: int,
    cfg: EmConfig | None = None,
    *,
    hard_assign: bool = False,
    reject_order_inversion: bool = False,
    clip: bool = True,
) -> tuple[Volume, GmmParams, Perturbation]:
    """:func:`augment_draws` for one seed: (remapped volume, fit, perturbation).

    ``vol`` is a :class:`Volume` or a path, read as :func:`augment_draws` reads it.
    """
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
