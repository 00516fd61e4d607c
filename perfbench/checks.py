"""Correctness checks on the outputs of one CLI call.

Every check returns a list of failure messages; an empty list means the
call passed. Expected values come from ``inputs`` (plain numpy on the
generated data), never from the package's preprocessing or fitting. The
package is used only to parse outputs back (``load_stats``,
``read_volume``), which is itself one of the things checked.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Largest accepted |fitted - generating| tissue mean, normalised units.
# Tissue means sit about 0.3 apart after normalisation; fits on the
# benchmark phantoms land within about 0.035.
MEAN_TOL = 0.1


def digest(paths) -> str:
    """SHA-256 over the bytes of ``paths`` in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code!r}"]


def check_replay(seen: dict, key, paths) -> list[str]:
    """The first call under ``key`` records a digest; later ones must match it."""
    try:
        value = digest(paths)
    except OSError as exc:
        return [f"replay: cannot read outputs: {exc}"]
    first = seen.setdefault(key, value)
    return [] if value == first else [f"replay of {key!r} is not byte-identical"]


def _mean_error(label: str, fitted, expected) -> tuple[list[str], float]:
    fitted = np.asarray(fitted, dtype=np.float64)
    if fitted.shape != expected.shape or not np.all(np.isfinite(fitted)):
        return [f"{label}: means {fitted.tolist()} do not match {len(expected)} tissues"], float("nan")
    err = float(np.max(np.abs(fitted - expected)))
    if not err <= MEAN_TOL:
        return [f"{label}: tissue mean error {err:.4f} > {MEAN_TOL}"], err
    return [], err


def check_stats(gm, path, corpus) -> tuple[list[str], float]:
    """A stats file must parse and its ``mu_mean`` match the corpus.

    The expected mean of tissue k is the corpus average of the volumes'
    normalised generating means. Returns (failures, max mean error).
    """
    try:
        gm.load_stats(path)
        obj = json.loads(Path(path).read_text())
        mu_mean = [c["mu_mean"] for c in obj["components"]]
        n_images = obj["n_images"]
    except (OSError, ValueError, KeyError, TypeError, gm.GmmAugError) as exc:
        return [f"{path}: does not parse: {exc!r}"], float("nan")
    failures = []
    if n_images != len(corpus):
        failures.append(f"{path}: n_images {n_images} != corpus size {len(corpus)}")
    expected = np.mean([s.expected_means for s in corpus], axis=0)
    errs, err = _mean_error(str(path), mu_mean, expected)
    return failures + errs, err


def check_augment(gm, prefix: str, n: int, base_seed: int, subject) -> tuple[list[str], float]:
    """``n`` augmented volumes and sidecars written under ``prefix``.

    Each volume must read back, hold only finite voxels in [0, 1] and
    leave every background voxel of the input as it was; each sidecar
    must parse, carry its draw's seed and a fit whose means match the
    subject. Returns (failures, max mean error over the sidecars).
    """
    failures, errs = [], []
    background = subject.data <= 0
    for i in range(n):
        nii, side = f"{prefix}_{i}.nii", f"{prefix}_{i}.json"
        try:
            data = gm.read_volume(nii).data
            car = json.loads(Path(side).read_text())
            seed, means = car["seed"], car["fit"]["means"]
        except (OSError, ValueError, KeyError, TypeError, gm.GmmAugError) as exc:
            failures.append(f"draw {i}: output does not parse: {exc!r}")
            continue
        if data.shape != subject.data.shape:
            failures.append(f"{nii}: {data.size} voxels, input has {subject.data.size}")
            continue
        if not np.all(np.isfinite(data)) or data.min() < 0.0 or data.max() > 1.0:
            failures.append(f"{nii}: voxel non-finite or outside [0, 1]")
        if np.any(data[background] != subject.data[background]):
            failures.append(f"{nii}: background voxel changed")
        if seed != base_seed + i:
            failures.append(f"{side}: seed {seed!r} != {base_seed + i}")
        found, err = _mean_error(side, means, subject.expected_means)
        failures += found
        errs.append(err)
    return failures, max(errs, default=float("nan"))
