"""Seeded inputs for the benchmark workloads.

Everything here is derived from the benchmark's ``--seed`` argument: the
same seed writes byte-identical files. Phantoms come from the package's
``generate_phantom`` (timed as the ``phantom`` layer of set-up); the
NIfTI files are written by this module's own writer so set-up does not
depend on the package's ``write_volume``. The expected normalised
tissue means used by the correctness checks are computed here with plain
numpy, never through ``clip_normalize`` or ``fit_em``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Generating tissue statistics (CSF, GM, WM): the package's phantom
# defaults with the means raised by 0.05, so that the phantom's clip at
# 1e-6 touches almost no CSF voxel. With the defaults about 1% of CSF
# lands in that spike, and where EM stops on continuous data then moves
# the CSF fit by +-0.01 from one noise draw to the next.
BASE_MEANS = np.array([0.15, 0.25, 0.35])
BASE_VARIANCES = np.array([0.002, 0.001, 0.001])

# Relative half-widths of the per-volume jitter: a scanner-to-scanner
# contrast spread that keeps the tissue means strictly ascending.
MEAN_JITTER = 0.03
VARIANCE_JITTER = 0.15

# The contrast design is drawn once from this fixed seed, so every
# benchmark seed exercises the same spread of contrasts and only the
# noise changes with the seed. EM iteration counts and fit bias depend
# strongly on the contrasts; a seeded design would make the per-seed
# work and error swing far more than any bound worth enforcing.
DESIGN_SEED = 20210323

# Integer intensities as scanners store them: 1/700 steps give about 340
# distinct foreground values on a phantom, a distinct share near 0.003.
QUANT_SCALE = 700.0

# The clip window the CLI applies by default (--clip-lo / --clip-hi).
CLIP_PCT = (1.0, 99.0)

# Spreads written into the augment-batch stats file, in normalised units.
AUG_MU_STD = 0.02
AUG_VAR_REL_STD = 0.2

_NIFTI_DTYPES = {"<i2": (4, 16), "<f4": (16, 32)}


def write_nifti(path, data: np.ndarray, dims, dtype: str) -> None:
    """Single-file NIfTI-1, little-endian, data at offset 352.

    ``dtype`` is ``"<i2"`` or ``"<f4"``; ``data`` is flat in x-fastest order.
    """
    code, bitpix = _NIFTI_DTYPES[dtype]
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *dims, 1, 1, 1, 1)
    struct.pack_into("<hh", hdr, 70, code, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<fff", hdr, 108, 352.0, 1.0, 0.0)  # vox_offset, slope, intercept
    hdr[344:348] = b"n+1\x00"
    Path(path).write_bytes(bytes(hdr) + b"\x00" * 4 + np.asarray(data, dtype=dtype).tobytes())


def expected_normalised_means(data: np.ndarray, means) -> np.ndarray:
    """Generating tissue means mapped through the CLI's clip window.

    The window is the 1st-99th percentile of the positive voxels, as
    stored on disk, mapped to [0, 1].
    """
    positive = data[data > 0]
    lo, hi = np.percentile(positive, CLIP_PCT)
    return (np.asarray(means, dtype=np.float64) - lo) / (hi - lo)


def latin_hypercube(rng: np.random.Generator, n: int, k: int, half_width: float) -> np.ndarray:
    """(n, k) relative jitters in [-half_width, half_width].

    Each column puts exactly one volume in each of n equal strata, so
    every corpus spans the same spread of contrasts and the corpus-wide
    EM work moves less from seed to seed than with independent draws.
    """
    strata = np.stack([rng.permutation(n) for _ in range(k)], axis=1)
    return half_width * (2.0 * (strata + rng.random((n, k))) / n - 1.0)


@dataclass(frozen=True)
class Subject:
    """One written volume with what the checks need to know about it."""

    path: Path
    expected_means: np.ndarray  # normalised generating means
    data: np.ndarray | None = None  # voxels as stored, kept where a check needs them


def _phantom_data(gm, dims, means, variances, seed: int) -> np.ndarray:
    spec = gm.PhantomSpec(
        dims=dims, means=tuple(means), variances=tuple(variances), seed=seed
    )
    vol, _ = gm.generate_phantom(spec)
    return vol.data


def make_corpora(gm, root: Path, seed: int, slots: int, per_slot: int, dims, quantised: bool):
    """Write ``slots`` corpus directories of ``per_slot`` jittered phantoms.

    Every directory holds the same fixed contrast design (``DESIGN_SEED``)
    with its own noise, so every call fits the same spread of contrasts.
    Quantised corpora store ``rint(v * QUANT_SCALE)`` as int16, continuous
    ones float32; both kinds drawn with the same seed hold the same
    phantoms. Returns one list of Subjects per slot.
    """
    design = np.random.default_rng(DESIGN_SEED)
    mean_jitter = latin_hypercube(design, per_slot, len(BASE_MEANS), MEAN_JITTER)
    var_jitter = latin_hypercube(design, per_slot, len(BASE_MEANS), VARIANCE_JITTER)
    rng = np.random.default_rng(seed)
    corpora = []
    for slot in range(slots):
        directory = root / f"corpus{slot}"
        directory.mkdir(parents=True, exist_ok=True)
        subjects = []
        for i in range(per_slot):
            means = BASE_MEANS * (1.0 + mean_jitter[i])
            data = _phantom_data(gm, dims, means, BASE_VARIANCES * (1.0 + var_jitter[i]),
                                 int(rng.integers(2**32)))
            if quantised:
                stored = np.rint(data * QUANT_SCALE).astype("<i2")
                means = means * QUANT_SCALE
            else:
                stored = data.astype("<f4")
            path = directory / f"vol{i:02d}.nii"
            write_nifti(path, stored, dims, stored.dtype.str)
            subjects.append(Subject(path, expected_normalised_means(stored, means)))
        corpora.append(subjects)
    return corpora


def make_augment_inputs(gm, root: Path, seed: int, dims):
    """Write one continuous subject and a stats file for it.

    The subject uses the base tissue statistics; the seed drives its
    noise. The stats file is written with the package's ``save_stats``:
    means at the subject's expected normalised means, fixed spreads.
    Returns the Subject and the stats path.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    stored = _phantom_data(gm, dims, BASE_MEANS, BASE_VARIANCES,
                           int(rng.integers(2**32))).astype("<f4")
    path = root / "subject.nii"
    write_nifti(path, stored, dims, "<f4")
    expected = expected_normalised_means(stored, BASE_MEANS)
    lo, hi = np.percentile(stored[stored > 0], CLIP_PCT)
    var_mean = BASE_VARIANCES / float(hi - lo) ** 2
    stats = gm.PopulationStats(
        k=len(BASE_MEANS),
        mu_mean=expected,
        mu_std=np.full(len(BASE_MEANS), AUG_MU_STD),
        var_mean=var_mean,
        var_std=AUG_VAR_REL_STD * var_mean,
        n_images=8,  # recorded only; any value >= 2 is valid
        clip_lo_pct=CLIP_PCT[0],
        clip_hi_pct=CLIP_PCT[1],
    )
    stats_path = root / "stats.json"
    gm.save_stats(stats, stats_path)
    return Subject(path, expected, stored.astype(np.float64)), stats_path
