"""Deterministic synthetic three-tissue phantoms.

A phantom is a stack of concentric spherical regions centred in the
grid: the innermost region takes the brightest tissue, working outward
to the darkest rim, which mimics the WM core / GM / CSF layering of a
T1w brain. Voxel values are Gaussian draws per tissue, clipped to
(0, 1] so the foreground stays strictly positive and the implicit
intensity > 0 mask holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import InputError, InvalidSpecError
from .volume import (MAX_DIM, LabelVolume, Volume, _check_geometry, _is_number, _is_seed,
                     _read_json_object)

# Keeps clipped samples strictly positive.
POSITIVE_FLOOR = 1e-6


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry, tissue statistics and seed for one phantom.

    ``radius_fractions`` are region boundaries as fractions of half the
    smallest grid extent, innermost boundary first; region ``i`` (from
    the centre out) is filled with tissue ``k - i`` so labels read
    1 = darkest rim .. k = brightest core.
    """

    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    means: tuple[float, ...] = (0.1, 0.2, 0.3)
    variances: tuple[float, ...] = (0.002, 0.001, 0.001)
    radius_fractions: tuple[float, ...] = (0.637, 0.803, 0.92)
    seed: int = 0

    def __post_init__(self):
        tissue = (self.means, self.variances, self.radius_fractions)
        if not all(isinstance(field, (tuple, list)) and all(map(_is_number, field))
                   for field in tissue):
            raise InvalidSpecError("means, variances, radius_fractions must be lists of "
                                   "finite numbers")
        k = len(self.means)
        if k < 1 or len(self.variances) != k or len(self.radius_fractions) != k:
            raise InvalidSpecError("means, variances, radius_fractions sizes disagree")
        if any(np.diff(self.means) <= 0):
            raise InvalidSpecError("tissue means must be strictly ascending")
        if any(m <= 0 or m > 1 for m in self.means):
            raise InvalidSpecError("tissue means must lie in (0, 1]")
        if any(v < 0 for v in self.variances):
            raise InvalidSpecError("variances must be non-negative")
        fr = self.radius_fractions
        if any(f <= 0 or f > 1 for f in fr) or any(np.diff(fr) <= 0):
            raise InvalidSpecError("radius fractions must be ascending within (0, 1]")
        try:
            dims, _ = _check_geometry(self.dims, self.spacing)
        except InputError as exc:
            raise InvalidSpecError(str(exc)) from exc
        if max(dims) > MAX_DIM:
            raise InvalidSpecError(f"dims must be at most {MAX_DIM}, got {dims}")
        if not _is_seed(self.seed):
            raise InvalidSpecError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def k(self) -> int:
        return len(self.means)

    def with_seed(self, seed: int) -> "PhantomSpec":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PhantomSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise InvalidSpecError(f"unknown phantom spec fields: {sorted(unknown)}")
        kwargs = {
            key: tuple(val) if isinstance(val, list) else val for key, val in obj.items()
        }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidSpecError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path) -> "PhantomSpec":
        return cls.from_json_dict(_read_json_object(path, InvalidSpecError))


def _region_labels(spec: PhantomSpec) -> np.ndarray:
    """Flat int32 labels, 0 background, 1..k tissues, x-fastest order."""
    nx, ny, nz = spec.dims
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    x = (np.arange(nx) - cx)[:, None, None]
    y = (np.arange(ny) - cy)[None, :, None]
    z = (np.arange(nz) - cz)[None, None, :]
    radius = np.sqrt(x * x + y * y + z * z)

    # A voxel's label is k less the number of boundaries inside its
    # radius: the innermost region, from radius 0 (the centre voxel of an
    # all-odd grid) to the first boundary, takes the brightest tissue k,
    # and voxels past the last boundary take 0.
    half_extent = min(spec.dims) / 2.0
    labels = np.full(spec.dims, spec.k, dtype=np.int32)
    for frac in spec.radius_fractions:
        labels -= radius > frac * half_extent
    return labels.ravel(order="F")


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, LabelVolume]:
    """Render a phantom and its ground-truth labels.

    Deterministic for a given spec: the same seed yields bit-identical
    voxels. Background is exactly 0; each tissue region is empty only
    if the spec's geometry makes it so, which raises.
    """
    labels = _region_labels(spec)
    counts = np.bincount(labels, minlength=spec.k + 1)
    if np.any(counts[1:] == 0):
        empty = int(np.argmin(counts[1:])) + 1
        raise InvalidSpecError(f"tissue region {empty} contains no voxels")

    fg = labels > 0
    tissue = labels[fg] - 1
    rng = np.random.Generator(np.random.Philox(spec.seed))
    draws = rng.standard_normal(int(fg.sum()))
    means = np.asarray(spec.means, dtype=np.float64)
    sigmas = np.sqrt(np.asarray(spec.variances, dtype=np.float64))
    values = np.zeros(labels.size)
    values[fg] = np.clip(means[tissue] + sigmas[tissue] * draws, POSITIVE_FLOOR, 1.0)

    vol = Volume(spec.dims, spec.spacing, values)
    lab = LabelVolume(spec.dims, spec.spacing, labels)
    return vol, lab
