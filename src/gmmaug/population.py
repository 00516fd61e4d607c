"""Corpus-level spread of mixture parameters across many volumes.

Each volume is masked, clip-normalized and fitted independently; the
per-component mean and sample standard deviation (n-1 denominator) of
the fitted means and variances across the corpus quantify how much a
tissue's intensity statistics vary between scanners. Component columns
are sorted before reduction so the result is bit-identical under any
permutation of the input corpus.
"""

from __future__ import annotations

import json
import logging
import numbers
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GmmAugError, InputError, InsufficientDataError, InvalidStatsError
from .gmm import _DEFAULT_K, EmConfig, GmmParams
from .preprocess import _CLIP_PCT, check_clip_window, fit_volume
from .volume import Volume, _field, _flat_float64, _foreground, _freeze, _read_json_object

logger = logging.getLogger(__name__)

# The only normalization implemented (percentile clip mapped to [0, 1]);
# stats files that name another are rejected.
NORMALIZE_MODE = "minmax01"


@dataclass(frozen=True)
class PopulationStats:
    """Per-component spread of fitted means/variances across a corpus."""

    k: int
    mu_mean: np.ndarray
    mu_std: np.ndarray
    var_mean: np.ndarray
    var_std: np.ndarray
    n_images: int
    clip_lo_pct: float = _CLIP_PCT[0]
    clip_hi_pct: float = _CLIP_PCT[1]

    def __post_init__(self):
        if self.k < 1:
            raise InvalidStatsError(f"k must be >= 1, got {self.k}")
        names = ("mu_mean", "mu_std", "var_mean", "var_std")
        arrays = dict(zip(names, _flat_float64(self, *names)))
        for name, arr in arrays.items():
            if arr.size != self.k:
                raise InvalidStatsError(f"{name} must hold {self.k} values")
            if not np.all(np.isfinite(arr)):
                raise InvalidStatsError(f"{name} contains non-finite values")
        if np.any(arrays["mu_std"] < 0) or np.any(arrays["var_std"] < 0):
            raise InvalidStatsError("spreads must be non-negative")
        if np.any(np.diff(arrays["mu_mean"]) < 0):
            raise InvalidStatsError("mu_mean must be ascending")
        if self.n_images < 2:
            raise InvalidStatsError("n_images must be >= 2")
        check_clip_window(self.clip_lo_pct, self.clip_hi_pct, InvalidStatsError)
        _freeze(self, **arrays)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "components": [
                {
                    "mu_mean": float(self.mu_mean[i]),
                    "mu_std": float(self.mu_std[i]),
                    "var_mean": float(self.var_mean[i]),
                    "var_std": float(self.var_std[i]),
                }
                for i in range(self.k)
            ],
            "n_images": self.n_images,
            "preprocessing": {
                "clip_lo_pct": self.clip_lo_pct,
                "clip_hi_pct": self.clip_hi_pct,
                "normalize": NORMALIZE_MODE,
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PopulationStats":
        """Build stats from their JSON object.

        ``k`` and ``n_images`` must be integers and every other value a
        real number: bools, numeric strings and floats standing in for
        integers are refused, not coerced.
        """
        try:
            k = _field(obj, "k", numbers.Integral)
            comps = obj["components"]
            if not isinstance(comps, list) or len(comps) != k:
                raise InvalidStatsError(f"'components' must list exactly {k} entries")
            pre = obj["preprocessing"]
            if pre["normalize"] != NORMALIZE_MODE:
                raise InvalidStatsError(
                    f"normalize must be {NORMALIZE_MODE!r}, the only mode implemented; "
                    f"got {pre['normalize']!r}"
                )
            columns = {name: np.array([_field(c, name) for c in comps], dtype=np.float64)
                       for name in ("mu_mean", "mu_std", "var_mean", "var_std")}
            return cls(
                k=k,
                n_images=_field(obj, "n_images", numbers.Integral),
                clip_lo_pct=float(_field(pre, "clip_lo_pct")),
                clip_hi_pct=float(_field(pre, "clip_hi_pct")),
                **columns,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidStatsError(f"malformed stats object: {exc!r}") from exc


def save_stats(stats: PopulationStats, path) -> None:
    """Write stats as JSON (floats keep full round-trip precision)."""
    with open(path, "w") as fh:
        json.dump(stats.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_stats(path) -> PopulationStats:
    """Read stats written by :func:`save_stats`; every InvalidStatsError names ``path``."""
    obj = _read_json_object(path, InvalidStatsError)
    try:
        return PopulationStats.from_json_dict(obj)
    except InvalidStatsError as exc:
        raise InvalidStatsError(f"{path}: {exc}") from exc


def report_fit(name: str, params: GmmParams) -> None:
    """Log ``unconverged <name>: ...`` on this module's logger if EM's cap stopped the fit.

    The fit is still used. ``fit``, ``stats`` and ``augment`` report every
    fit through here; outside a logging configuration, Python prints the
    bare message to stderr.
    """
    if not params.converged:
        logger.warning("unconverged %s: EM stopped at max_iter after %d E-steps, "
                       "final_rel_change %.3g", name, params.iterations, params.final_rel_change)


def estimate_population(
    volumes: Iterable[Volume | str | os.PathLike],
    k: int = _DEFAULT_K,
    cfg: EmConfig | None = None,
    lo_pct: float = _CLIP_PCT[0],
    hi_pct: float = _CLIP_PCT[1],
) -> PopulationStats:
    """Fit every volume and aggregate per-component spreads.

    Each item of ``volumes`` is a ``Volume`` or a path, read in its turn.
    A path is read for its positive voxels alone, the only ones fitted
    (see :func:`gmmaug.volume._foreground`); the values are those of
    ``read_volume`` bit for bit, and a foreground of integers comes as
    knots and an index into them, so either item gives the same fit.
    An item whose read, preprocessing or fit fails is skipped with a
    warning on this module's logger, ``skipping <name>: <Error>:
    <message>``, naming its path or else its position (``volume 1``).
    A fit that ``cfg.max_iter`` stopped is kept, with one ``unconverged
    <name>: ...`` warning naming its E-steps and final relative change.
    Needs at least two successful fits; the error says how many items
    were skipped. A ``k`` below 1 or a bad percentile window would fail
    every volume alike, so it raises InputError before the first read.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    check_clip_window(lo_pct, hi_pct)
    fitted_means: list[np.ndarray] = []
    fitted_vars: list[np.ndarray] = []
    skipped = 0
    for index, item in enumerate(volumes):
        name = f"volume {index}" if isinstance(item, Volume) else str(item)
        try:
            params = fit_volume(_foreground(item)[3], k, cfg, lo_pct, hi_pct)[1]
        except (GmmAugError, OSError) as exc:  # OSError: e.g. a directory named *.nii
            skipped += 1
            # the reader's messages, and an OSError's, already name the file
            reason = getattr(exc, "strerror", None) or str(exc).removeprefix(f"{name}: ")
            logger.warning("skipping %s: %s: %s", name, type(exc).__name__, reason)
            continue
        report_fit(name, params)
        fitted_means.append(params.means)
        fitted_vars.append(params.variances)

    if len(fitted_means) < 2:
        raise InsufficientDataError(
            f"only {len(fitted_means)} volumes fitted successfully ({skipped} skipped)"
        )
    means = np.vstack(fitted_means)
    variances = np.vstack(fitted_vars)
    mu_mean, mu_std = _sorted_column_stats(means)
    var_mean, var_std = _sorted_column_stats(variances)
    return PopulationStats(
        k=k,
        mu_mean=mu_mean,
        mu_std=mu_std,
        var_mean=var_mean,
        var_std=var_std,
        n_images=means.shape[0],
        clip_lo_pct=float(lo_pct),
        clip_hi_pct=float(hi_pct),
    )


def _sorted_column_stats(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sorting each column first makes the reduction independent of
    # corpus order down to the last bit.
    ordered = np.sort(table, axis=0)
    return ordered.mean(axis=0), ordered.std(axis=0, ddof=1)
