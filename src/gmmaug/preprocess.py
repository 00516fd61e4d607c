"""Intensity conditioning applied before mixture fitting.

Percentiles everywhere in this package use numpy's default linear
interpolation between order statistics, and are always computed over
the masked voxels only (background zeros would otherwise dominate the
low percentile on skull-stripped images).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateIntensityError, EmptyMaskError, InputError
from .gmm import EmConfig, GmmParams, fit_em
from .volume import LabelVolume, Volume, foreground_mask


def check_clip_window(lo_pct: float, hi_pct: float) -> None:
    """Raise InputError unless ``0 <= lo_pct < hi_pct <= 100``."""
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise InputError(f"need 0 <= lo_pct < hi_pct <= 100, got ({lo_pct}, {hi_pct})")


def _normalized(values: np.ndarray, lo_pct: float, hi_pct: float) -> np.ndarray:
    """Clip ``values`` in place to their percentile window, mapped onto [0, 1]."""
    check_clip_window(lo_pct, hi_pct)
    p_low, p_high = np.percentile(values, [lo_pct, hi_pct])
    if p_low == p_high:
        raise DegenerateIntensityError(f"percentiles {lo_pct} and {hi_pct} coincide at {p_low}")
    np.clip(values, p_low, p_high, out=values)
    return np.divide(np.subtract(values, p_low, out=values), p_high - p_low, out=values)


def clip_normalize(
    vol: Volume,
    mask: np.ndarray,
    lo_pct: float = 1.0,
    hi_pct: float = 99.0,
) -> Volume:
    """Clip masked intensities to a percentile window and map it to [0, 1].

    Percentiles are taken over masked voxels; masked values are clipped
    to ``[p_low, p_high]`` then mapped affinely so ``p_low -> 0`` and
    ``p_high -> 1``. Voxels outside the mask are set to 0.

    Raises:
        DegenerateIntensityError: the two percentiles coincide
            (constant image).
    """
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != vol.n_voxels:
        raise InputError(f"mask length {mask.size} != voxel count {vol.n_voxels}")
    if not mask.any():
        raise EmptyMaskError("mask selects no voxels")
    out = np.zeros(vol.n_voxels)
    out[mask] = _normalized(vol.data[mask], lo_pct, hi_pct)
    return Volume(vol.dims, vol.spacing, out)


def fit_volume(
    vol: Volume,
    k: int,
    cfg: EmConfig | None,
    lo_pct: float,
    hi_pct: float,
    explicit_mask: LabelVolume | None = None,
) -> tuple[np.ndarray, np.ndarray, GmmParams]:
    """Mask, clip-normalize and fit one volume: (mask, normalized masked values, params).

    ``fit``, ``stats`` and ``augment`` all fit through here, so the spreads
    a corpus yields and the fits they perturb come from one procedure.
    """
    mask = foreground_mask(vol, explicit_mask)
    values = _normalized(vol.data[mask], lo_pct, hi_pct)
    return mask, values, fit_em(values, k, cfg)
