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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GmmAugError, InputError, InsufficientDataError, InvalidStatsError
from .gmm import EmConfig
from .preprocess import check_clip_window, fit_volume
from .volume import Volume

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
    clip_lo_pct: float = 1.0
    clip_hi_pct: float = 99.0

    def __post_init__(self):
        arrays = {}
        for name in ("mu_mean", "mu_std", "var_mean", "var_std"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if arr.size != self.k:
                raise InvalidStatsError(f"{name} must hold {self.k} values")
            if not np.all(np.isfinite(arr)):
                raise InvalidStatsError(f"{name} contains non-finite values")
            arrays[name] = arr
        if np.any(arrays["mu_std"] < 0) or np.any(arrays["var_std"] < 0):
            raise InvalidStatsError("spreads must be non-negative")
        if np.any(np.diff(arrays["mu_mean"]) < 0):
            raise InvalidStatsError("mu_mean must be ascending")
        if self.n_images < 2:
            raise InvalidStatsError("n_images must be >= 2")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
        try:
            k = int(obj["k"])
            comps = obj["components"]
            if not isinstance(comps, list) or len(comps) != k:
                raise InvalidStatsError(f"'components' must list exactly {k} entries")
            pre = obj["preprocessing"]
            if pre["normalize"] != NORMALIZE_MODE:
                raise InvalidStatsError(
                    f"normalize must be {NORMALIZE_MODE!r}, the only mode implemented; "
                    f"got {pre['normalize']!r}"
                )
            return cls(
                k=k,
                mu_mean=np.array([c["mu_mean"] for c in comps], dtype=np.float64),
                mu_std=np.array([c["mu_std"] for c in comps], dtype=np.float64),
                var_mean=np.array([c["var_mean"] for c in comps], dtype=np.float64),
                var_std=np.array([c["var_std"] for c in comps], dtype=np.float64),
                n_images=int(obj["n_images"]),
                clip_lo_pct=float(pre["clip_lo_pct"]),
                clip_hi_pct=float(pre["clip_hi_pct"]),
            )
        except InvalidStatsError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidStatsError(f"malformed stats object: {exc!r}") from exc


def save_stats(stats: PopulationStats, path) -> None:
    """Write stats as JSON (floats keep full round-trip precision)."""
    with open(path, "w") as fh:
        json.dump(stats.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_stats(path) -> PopulationStats:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidStatsError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise InvalidStatsError(f"{path}: top-level JSON value must be an object")
    return PopulationStats.from_json_dict(obj)


def estimate_population(
    volumes: Iterable[Volume],
    k: int = 3,
    cfg: EmConfig | None = None,
    lo_pct: float = 1.0,
    hi_pct: float = 99.0,
) -> PopulationStats:
    """Fit every volume and aggregate per-component spreads.

    Volumes whose preprocessing or fit fails are skipped with a warning
    rather than aborting the corpus run. Needs at least two successful
    fits. A ``k`` below 1 or a bad percentile window would fail every
    volume alike, so it raises InputError before the first volume is read.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    check_clip_window(lo_pct, hi_pct)
    fitted_means: list[np.ndarray] = []
    fitted_vars: list[np.ndarray] = []
    skipped = 0
    for index, vol in enumerate(volumes):
        try:
            params = fit_volume(vol, k, cfg, lo_pct, hi_pct)[2]
        except GmmAugError as exc:
            skipped += 1
            logger.warning("skipping volume %d: %s: %s", index, type(exc).__name__, exc)
            continue
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
