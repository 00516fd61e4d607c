"""In-memory 3-D volumes and single-file NIfTI-1 I/O.

The reader handles the plain ``.nii`` single-file layout: 348-byte
header, magic ``n+1\\0``, datatypes uint8/int16/float32/float64, up to
three spatial dims, either endianness (detected via ``sizeof_hdr``).
Extension blocks are skipped by honouring ``vox_offset``. Orientation
matrices are ignored; only ``pixdim`` is kept as voxel spacing.

The writer always emits float32 little-endian with the data block at
offset 352. Paths ending in ``.gz`` are compressed/decompressed
transparently; gzip input is also auto-detected from its magic bytes.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFileError,
    EmptyMaskError,
    InputError,
    NotNiftiError,
    ShapeMismatchError,
    UnsupportedDatatypeError,
)

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
WRITE_VOX_OFFSET = 352
MAX_DIM = 32767  # NIfTI-1 stores each dim as an int16

# NIfTI-1 datatype code -> numpy dtype character (without byte order)
_DTYPE_CODES = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}


def _check_geometry(dims, spacing):
    dims = tuple(int(d) for d in dims)
    spacing = tuple(float(s) for s in spacing)
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise InputError(f"dims must be 3 positive integers, got {dims}")
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise InputError(f"spacing must be 3 positive reals, got {spacing}")
    return dims, spacing


@dataclass(frozen=True)
class Volume:
    """A 3-D scalar grid with voxel spacing.

    ``data`` is a flat float64 array in x-fastest order of length
    ``dims[0] * dims[1] * dims[2]``. Instances are immutable and the
    data buffer is marked read-only, so they are safe to share.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        dims, spacing = _check_geometry(self.dims, self.spacing)
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64).ravel())
        if data.size != dims[0] * dims[1] * dims[2]:
            raise ShapeMismatchError(
                f"data length {data.size} != product of dims {dims}"
            )
        if not np.all(np.isfinite(data)):
            raise InputError("volume data contains NaN or Inf")
        data.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", data)

    @property
    def n_voxels(self) -> int:
        return self.data.size

    def grid(self) -> np.ndarray:
        """Data viewed as a (nx, ny, nz) array (x-fastest storage)."""
        return self.data.reshape(self.dims, order="F")


@dataclass(frozen=True)
class LabelVolume:
    """Integer-labelled grid with the same geometry conventions as Volume."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    labels: np.ndarray

    def __post_init__(self):
        dims, spacing = _check_geometry(self.dims, self.spacing)
        labels = np.ascontiguousarray(np.asarray(self.labels).ravel())
        if not np.issubdtype(labels.dtype, np.integer):
            raise InputError("labels must be integers")
        labels = labels.astype(np.int32)
        if labels.size != dims[0] * dims[1] * dims[2]:
            raise ShapeMismatchError(
                f"labels length {labels.size} != product of dims {dims}"
            )
        if labels.min(initial=0) < 0:
            raise InputError("labels must be non-negative")
        labels.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "labels", labels)

    def grid(self) -> np.ndarray:
        return self.labels.reshape(self.dims, order="F")


def _read_file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise CorruptFileError(f"{path}: damaged gzip stream: {exc}") from exc
    return raw


def read_volume(path) -> Volume:
    """Read a single-file NIfTI-1 volume into 64-bit reals.

    Values are scaled by ``scl_slope``/``scl_inter`` when the slope is
    finite and nonzero; a zero or non-finite slope (NaN is a common
    writer default) means unscaled. Non-positive ``pixdim`` entries fall
    back to 1.0 mm.

    Raises:
        NotNiftiError: bad sizeof_hdr or magic.
        UnsupportedDatatypeError: datatype outside {2, 4, 16, 64} or
            more than three spatial dims.
        CorruptFileError: a damaged gzip stream, truncated header/body,
            a non-finite or header-overlapping ``vox_offset``, a
            non-finite ``scl_inter`` under a valid slope, or non-finite
            values.
    """
    raw = _read_file_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise CorruptFileError(f"{path}: file shorter than the 348-byte header")

    byteorder = None
    for candidate in ("<", ">"):
        if struct.unpack_from(candidate + "i", raw, 0)[0] == HEADER_SIZE:
            byteorder = candidate
            break
    if byteorder is None:
        raise NotNiftiError(f"{path}: sizeof_hdr is not 348 in either byte order")
    if raw[344:348] != MAGIC_SINGLE:
        raise NotNiftiError(f"{path}: magic is not 'n+1'")

    dim = struct.unpack_from(byteorder + "8h", raw, 40)
    datatype = struct.unpack_from(byteorder + "h", raw, 70)[0]
    pixdim = struct.unpack_from(byteorder + "8f", raw, 76)
    vox_offset = struct.unpack_from(byteorder + "f", raw, 108)[0]
    scl_slope = struct.unpack_from(byteorder + "f", raw, 112)[0]
    scl_inter = struct.unpack_from(byteorder + "f", raw, 116)[0]

    if datatype not in _DTYPE_CODES:
        raise UnsupportedDatatypeError(f"{path}: datatype code {datatype}")
    ndim = dim[0]
    if not 1 <= ndim <= 3:
        raise UnsupportedDatatypeError(
            f"{path}: dim[0]={ndim}, only 1-3 spatial dims are supported"
        )
    dims = tuple(dim[1 : 1 + ndim]) + (1,) * (3 - ndim)
    if any(d < 1 for d in dims):
        raise CorruptFileError(f"{path}: non-positive dim entries {dims}")

    spacing = tuple(p if p > 0 else 1.0 for p in pixdim[1:4])

    if not math.isfinite(vox_offset):
        raise CorruptFileError(f"{path}: vox_offset {vox_offset} is not finite")
    offset = int(round(vox_offset))
    if offset < HEADER_SIZE:
        raise CorruptFileError(f"{path}: vox_offset {vox_offset} overlaps the header")
    dtype = np.dtype(byteorder + _DTYPE_CODES[datatype])
    n = dims[0] * dims[1] * dims[2]
    if len(raw) < offset + n * dtype.itemsize:
        raise CorruptFileError(f"{path}: body holds fewer than {n} voxels")

    data = np.frombuffer(raw, dtype, count=n, offset=offset).astype(np.float64)
    if scl_slope != 0.0 and math.isfinite(scl_slope):
        if not math.isfinite(scl_inter):
            raise CorruptFileError(f"{path}: scl_inter {scl_inter} is not finite")
        data *= float(scl_slope)
        data += float(scl_inter)
    if not np.all(np.isfinite(data)):
        raise CorruptFileError(f"{path}: non-finite voxel values after scaling")
    return Volume(dims, spacing, data)


def _pack_header(dims, spacing) -> bytes:
    if max(dims) > MAX_DIM:
        raise InputError(f"dims {dims} exceed the NIfTI-1 limit of {MAX_DIM} per axis")
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")  # "regular" byte, ANALYZE legacy
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)  # bits per voxel
    struct.pack_into(
        "<8f", hdr, 76, 1.0, spacing[0], spacing[1], spacing[2], 0.0, 0.0, 0.0, 0.0
    )
    struct.pack_into("<f", hdr, 108, float(WRITE_VOX_OFFSET))
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    struct.pack_into("<B", hdr, 123, 2)  # xyzt_units: millimetres
    struct.pack_into("<4s", hdr, 344, MAGIC_SINGLE)
    return bytes(hdr)


def write_volume(vol: Volume, path) -> None:
    """Write ``vol`` as float32 little-endian single-file NIfTI-1.

    The data block starts at offset 352 (header + empty extension
    flag), so ``read_volume(write_volume(v))`` round-trips data within
    float32 precision. ``.gz`` paths are gzip-compressed. The float32
    body is written straight from its array, the one copy of the data
    made here. A dim above 32767 raises InputError before the file opens.
    """
    path, header = Path(path), _pack_header(vol.dims, vol.spacing)
    # mtime pinned so identical volumes produce identical bytes
    with (gzip.GzipFile(path, "wb", mtime=0) if path.suffix == ".gz" else open(path, "wb")) as fh:
        fh.write(header + b"\x00\x00\x00\x00")
        fh.write(vol.data.astype("<f4"))


def write_label_volume(labels: LabelVolume, path) -> None:
    """Write labels through the float32 writer (exact for small ints)."""
    write_volume(Volume(labels.dims, labels.spacing, labels.labels.astype(np.float64)), path)


def read_label_volume(path) -> LabelVolume:
    """Read a volume and interpret its values as integer labels."""
    vol = read_volume(path)
    rounded = np.rint(vol.data)
    if np.max(np.abs(vol.data - rounded), initial=0.0) > 1e-6:
        raise InputError(f"{path}: voxel values are not integer labels")
    if np.max(np.abs(rounded), initial=0.0) > np.iinfo(np.int32).max:
        raise InputError(f"{path}: label values exceed the int32 range")
    return LabelVolume(vol.dims, vol.spacing, rounded.astype(np.int32))


def foreground_mask(vol: Volume, explicit_mask: LabelVolume | None = None) -> np.ndarray:
    """Boolean flat array marking brain voxels.

    With an explicit mask, voxels where the label is positive; otherwise
    voxels with positive intensity (skull-stripped convention).
    """
    if explicit_mask is not None:
        if explicit_mask.dims != vol.dims:
            raise ShapeMismatchError(
                f"mask dims {explicit_mask.dims} != volume dims {vol.dims}"
            )
        mask = explicit_mask.labels > 0
    else:
        mask = vol.data > 0
    if not mask.any():
        raise EmptyMaskError("mask selects no voxels")
    return mask
