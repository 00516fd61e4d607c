"""Intensity conditioning applied before mixture fitting.

Percentiles everywhere in this package use numpy's default linear
interpolation between order statistics, and are always computed over
the masked voxels only (background zeros would otherwise dominate the
low percentile on skull-stripped images). The clip window is read off
the sorted masked values by index, with the bits ``np.percentile``
would give: :func:`fit_volume` sorts the float values it fits as
stored, and reads the window of integer values off their counts, the
running totals of a histogram of their index among the integer knots;
and :func:`clip_normalize` sorts a copy.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIntensityError, EmptyMaskError, InputError
from .gmm import EmConfig, GmmParams, _fit_counted, _fit_sorted, _sorted_percentiles
from .volume import _BLOCK, Volume

# The default clip window, as (low, high) percentiles of the masked values.
_CLIP_PCT = (1.0, 99.0)


def check_clip_window(lo_pct: float, hi_pct: float,
                      error: type[InputError] = InputError) -> None:
    """Raise ``error`` unless ``0 <= lo_pct < hi_pct <= 100``."""
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise error(f"need 0 <= lo_pct < hi_pct <= 100, got ({lo_pct}, {hi_pct})")


def _clip_window(ordered: np.ndarray, lo_pct: float, hi_pct: float,
                 cumulative: np.ndarray | None = None) -> tuple[float, float]:
    """The raw window (p_low, p_high) of ascending masked values, as np.percentile gives it.

    Given ``cumulative``, ``ordered`` holds the distinct values and
    ``cumulative`` the running totals of their counts (see
    :func:`gmmaug.gmm._sorted_percentiles`).

    A window whose width overflows float64 (values spanning more than
    about 1.8e308) cannot be mapped onto [0, 1] and raises
    DegenerateIntensityError, as a window of width 0 does.
    """
    check_clip_window(lo_pct, hi_pct)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        p_low, p_high = _sorted_percentiles(ordered, [lo_pct, hi_pct], cumulative)
        width = p_high - p_low
    if not np.isfinite(width):
        raise DegenerateIntensityError(
            f"percentiles {lo_pct} and {hi_pct} span ({p_low}, {p_high}), wider than float64 holds")
    if p_low == p_high:
        raise DegenerateIntensityError(f"percentiles {lo_pct} and {hi_pct} coincide at {p_low}")
    return p_low, p_high


def _apply_window(values: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Clip ``values`` in place to ``window``, mapped onto [0, 1].

    Clipping, subtracting and dividing by a positive number are each
    monotone in floating point, so sorted values stay sorted.
    """
    p_low, p_high = window
    np.clip(values, p_low, p_high, out=values)
    return np.divide(np.subtract(values, p_low, out=values), p_high - p_low, out=values)


def clip_normalize(
    vol: Volume,
    mask: np.ndarray,
    lo_pct: float = _CLIP_PCT[0],
    hi_pct: float = _CLIP_PCT[1],
) -> Volume:
    """Clip masked intensities to a percentile window and map it to [0, 1].

    Percentiles are taken over masked voxels; masked values are clipped
    to ``[p_low, p_high]`` then mapped affinely so ``p_low -> 0`` and
    ``p_high -> 1``. Voxels outside the mask are set to 0.

    Raises:
        DegenerateIntensityError: the two percentiles coincide
            (constant image), or their distance overflows float64.
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != vol.n_voxels:
        raise InputError(f"mask length {mask.size} != voxel count {vol.n_voxels}")
    if not mask.any():
        raise EmptyMaskError("mask selects no voxels")
    values = vol.data[mask]
    out = np.zeros(vol.n_voxels)
    out[mask] = _apply_window(values, _clip_window(np.sort(values), lo_pct, hi_pct))
    return Volume(vol.dims, vol.spacing, out)


def fit_volume(
    values: np.ndarray | tuple[np.ndarray, np.ndarray],
    k: int,
    cfg: EmConfig | None,
    lo_pct: float,
    hi_pct: float,
) -> tuple[tuple[float, float], GmmParams]:
    """Clip-normalize and fit the masked ``values``: (raw clip window, params).

    ``fit``, ``stats`` and ``augment`` all fit through here, so the spreads
    a corpus yields and the fits they perturb come from one procedure.
    ``values`` are float32 or float64, or (knots, index), as the reader
    hands over every foreground of integers (see :func:`gmmaug.volume._as_integers`).
    Float values are sorted in place as stored, then widened to float64
    (a copy only for float32; widening is exact and keeps the order) and
    normalized in place: the window is read off them by index, and
    normalizing keeps them sorted, for the fit.
    Knots and index are left as they are, and the index is counted
    :data:`~gmmaug.volume._BLOCK` values at a time (``np.bincount``
    widens what it counts to intp, 8 bytes a value) and the counts
    summed: the window is read off the running totals of the counts,
    only the knots present are normalized, and the fit runs on them and
    their counts. Both give the window and fit of the values
    widened to float64, bit for bit, errors included.
    ``_apply_window(vol.data[mask], window)`` gives the normalized
    values in voxel order.
    """
    if isinstance(values, tuple):
        knots, index = values
        counts = np.zeros(knots.size, dtype=np.intp)
        for lo in range(0, index.size, _BLOCK):
            counts += np.bincount(index[lo:lo + _BLOCK], minlength=knots.size)
        present = np.flatnonzero(counts)
        distinct, counts = knots[present], counts[present]
        window = _clip_window(distinct, lo_pct, hi_pct, np.cumsum(counts))
        return window, _fit_counted(_apply_window(distinct, window), counts, k, cfg)
    values.sort()
    values = values.astype(np.float64, copy=False)
    window = _clip_window(values, lo_pct, hi_pct)
    return window, _fit_sorted(_apply_window(values, window), k, cfg)
