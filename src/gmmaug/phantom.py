"""Deterministic synthetic three-tissue phantoms.

A phantom is a stack of concentric spherical regions centred in the
grid: the innermost region takes the brightest tissue, working outward
to the darkest rim, which mimics the WM core / GM / CSF layering of a
T1w brain. Voxel values are Gaussian draws per tissue, clipped to
(0, 1] so the foreground stays strictly positive and the implicit
intensity > 0 mask holds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import InvalidSpecError
from .volume import MAX_DIM, LabelVolume, Volume

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
        if len(self.dims) != 3 or any(not 1 <= int(d) <= MAX_DIM for d in self.dims):
            raise InvalidSpecError(f"dims must be 3 integers in [1, {MAX_DIM}], got {self.dims}")

    @property
    def k(self) -> int:
        return len(self.means)

    def with_seed(self, seed: int) -> "PhantomSpec":
        return replace(self, seed=int(seed))

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
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidSpecError(f"{path}: {exc}") from exc
        return cls.from_json_dict(obj)


def _region_labels(spec: PhantomSpec) -> np.ndarray:
    """Flat int32 labels, 0 background, 1..k tissues, x-fastest order."""
    nx, ny, nz = spec.dims
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    x = (np.arange(nx) - cx)[:, None, None]
    y = (np.arange(ny) - cy)[None, :, None]
    z = (np.arange(nz) - cz)[None, None, :]
    radius = np.sqrt(x * x + y * y + z * z)

    half_extent = min(spec.dims) / 2.0
    labels = np.zeros(spec.dims, dtype=np.int32)
    k = spec.k
    # Walk outward: innermost region gets the brightest tissue (label k).
    inner = 0.0
    for i, frac in enumerate(spec.radius_fractions):
        outer = frac * half_extent
        labels[(radius > inner) & (radius <= outer)] = k - i
        inner = outer
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
    means = np.asarray(spec.means)
    sigmas = np.sqrt(np.asarray(spec.variances))
    values = np.zeros(labels.size)
    values[fg] = np.clip(means[tissue] + sigmas[tissue] * draws, POSITIVE_FLOOR, 1.0)

    vol = Volume(spec.dims, spec.spacing, values)
    lab = LabelVolume(spec.dims, spec.spacing, labels)
    return vol, lab
