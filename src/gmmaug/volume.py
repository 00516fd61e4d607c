"""In-memory 3-D volumes and single-file NIfTI-1 I/O.

The reader handles the plain ``.nii`` single-file layout: 348-byte
header, magic ``n+1\\0``, datatypes uint8/int8/int16/uint16/float32/
float64, up to three spatial dims, either endianness (detected via
``sizeof_hdr``). Extension blocks are skipped by honouring
``vox_offset``. Orientation matrices are ignored; only ``pixdim`` is
kept as voxel spacing.

One parser checks the header and the body and decides once whether the
body is decoded: a file whose ``scl_slope`` and ``scl_inter`` change no
value (no valid slope, or slope 1 with intercept 0, which nibabel
applies as no scaling either) keeps its stored body and dtype, so a
stored -0.0 stays -0.0; any other is decoded to float64. Either way
every voxel is checked finite. :func:`read_volume` widens that body to
float64, :func:`read_label_volume` widens it a block at a time, and
the fits of ``fit``, ``stats`` and ``augment``, which need only the
foreground, mask it through one private reader, :func:`_foreground`,
which takes a Volume or a path, with or without a label mask.
:func:`_as_integers` then decides once per volume whether the
foreground is integers, handed over as float64 knots and an int32
index into them, for the fit to count and the draws to code on, or
float values as stored, in native byte order.

The writer always emits float32 little-endian with the data block at
offset 352. Paths ending in ``.gz`` are compressed/decompressed
transparently; gzip input is also auto-detected from its magic bytes.
"""

from __future__ import annotations

import gzip
import json
import math
import numbers
import struct
import sys
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
MAX_SPACING = float(np.finfo(np.float32).max)  # and each pixdim as a float32
_INT32_MAX = int(np.iinfo(np.int32).max)  # labels are stored as int32

# NIfTI-1 datatype code -> numpy dtype character (without byte order)
_DTYPE_CODES = {2: "u1", 4: "i2", 16: "f4", 64: "f8", 256: "i1", 512: "u2"}

# Foreground integers within this span (max - min) are handed over as
# integers; float values are checked this many at a time.
_MAX_INTEGER_SPAN, _CHECK_BLOCK = 2**16, 8192

# Passes that would otherwise make temporaries the size of a volume (the
# draw kernel, the count of an integer index, the label check) walk it
# this many values at a time.
_BLOCK = 2**16


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind`` within the finite float64 range.

    Bools and numeric strings are not numbers here; NaN, infinities and
    ints too large for a float are out of range.
    """
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _field(obj: dict, name: str, kind=numbers.Real):
    """``obj[name]`` if it is a ``kind`` (see :func:`_is_number`), else TypeError.

    A ``bool`` field takes only true or false. Nothing is coerced; an
    integer comes back as ``int``.
    """
    value = obj[name]
    if not (isinstance(value, bool) if kind is bool else _is_number(value, kind)):
        what = {bool: "a bool", numbers.Integral: "an integer"}.get(kind, "a real number")
        raise TypeError(f"{name} must be {what}, got {value!r}")
    return int(value) if kind is numbers.Integral else value


def _is_seed(value) -> bool:
    """Whether ``value`` is a Python or numpy integer >= 0; a bool is not a seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _flat_float64(record, *names) -> list[np.ndarray]:
    """The named fields of ``record`` as flat, C-contiguous float64 arrays."""
    return [np.asarray(getattr(record, name), dtype=np.float64).ravel() for name in names]


def _freeze(record, **fields) -> None:
    """Set the fields of the frozen dataclass ``record``; each array becomes read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


def _read_json_object(path, error: type[InputError]) -> dict:
    """The JSON object in the file at ``path``.

    Bytes that are not UTF-8, invalid or too deeply nested JSON, and any
    other top-level value raise ``error``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: top-level JSON value must be an object, got {type(obj).__name__}")
    return obj


def _check_geometry(dims, spacing):
    """Return dims as 3 ints >= 1 and spacing as 3 floats in (0, MAX_SPACING].

    A dim must be an integer (8.5 is not rounded) and a spacing a
    number; anything else raises InputError.
    """
    dims, spacing = tuple(dims), tuple(spacing)
    if len(dims) != 3 or not all(_is_number(d, numbers.Integral) and d >= 1 for d in dims):
        raise InputError(f"dims must be 3 positive integers, got {dims}")
    if len(spacing) != 3 or not all(_is_number(s) and 0 < s <= MAX_SPACING for s in spacing):
        raise InputError(f"spacing must be 3 reals in (0, {MAX_SPACING:.4g}], got {spacing}")
    return tuple(int(d) for d in dims), tuple(float(s) for s in spacing)


def _check_grid(grid, name: str, size: int):
    """The checked (dims, spacing) of ``grid``, whose flat ``name`` array holds ``size`` values.

    A ``size`` other than the product of the dims raises ShapeMismatchError.
    """
    dims, spacing = _check_geometry(grid.dims, grid.spacing)
    if size != dims[0] * dims[1] * dims[2]:
        raise ShapeMismatchError(f"{name} length {size} != product of dims {dims}")
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

    def __post_init__(self, scan: bool = True):
        (data,) = _flat_float64(self, "data")
        dims, spacing = _check_grid(self, "data", data.size)
        if scan and not np.all(np.isfinite(data)):
            raise InputError("volume data contains NaN or Inf")
        _freeze(self, dims=dims, spacing=spacing, data=data)

    @property
    def n_voxels(self) -> int:
        return self.data.size

    def grid(self) -> np.ndarray:
        """Data viewed as a (nx, ny, nz) array (x-fastest storage)."""
        return self.data.reshape(self.dims, order="F")


def _finite_volume(dims, spacing, data: np.ndarray) -> Volume:
    """A Volume over ``data``, which the caller has proved finite.

    Every check of the constructor runs but its finiteness scan, the one
    pass over all the voxels; a Volume built by its constructor keeps it.
    """
    vol = object.__new__(Volume)
    _freeze(vol, dims=dims, spacing=spacing, data=data)
    vol.__post_init__(scan=False)
    return vol


@dataclass(frozen=True)
class LabelVolume:
    """Integer-labelled grid with the same geometry conventions as Volume.

    ``labels`` are stored as int32; integer input outside [0, int32 max]
    is refused, never wrapped.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    labels: np.ndarray

    def __post_init__(self, copy: bool = True):
        labels = np.asarray(self.labels).ravel()
        dims, spacing = _check_grid(self, "labels", labels.size)
        if not np.issubdtype(labels.dtype, np.integer):
            raise InputError("labels must be integers")
        if labels.min(initial=0) < 0:
            raise InputError("labels must be non-negative")
        if labels.max(initial=0) > _INT32_MAX:
            raise InputError(f"labels must be at most {_INT32_MAX}, the int32 maximum")
        _freeze(self, dims=dims, spacing=spacing, labels=labels.astype(np.int32, copy=copy))

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


def _parse_nifti(path):
    """(dims, spacing, body) of the single-file NIfTI-1 volume at ``path``.

    ``body`` is every voxel checked finite: when ``scl_slope`` and
    ``scl_inter`` change no value, the stored body in its file dtype and
    byte order, a read-only view of the file bytes; else the body decoded
    to float64. Every check of the header and body is made here; see
    :func:`read_volume` for what each raises.
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

    spacing = tuple(p if 0 < p < math.inf else 1.0 for p in pixdim[1:4])

    if not math.isfinite(vox_offset):
        raise CorruptFileError(f"{path}: vox_offset {vox_offset} is not finite")
    offset = int(round(vox_offset))
    if offset < HEADER_SIZE:
        raise CorruptFileError(f"{path}: vox_offset {vox_offset} overlaps the header")
    dtype = np.dtype(byteorder + _DTYPE_CODES[datatype])
    n = dims[0] * dims[1] * dims[2]
    if len(raw) < offset + n * dtype.itemsize:
        raise CorruptFileError(f"{path}: body holds fewer than {n} voxels")

    body = np.frombuffer(raw, dtype, count=n, offset=offset)
    # a zero or non-finite slope means no scaling, and slope 1 with
    # intercept +-0 changes no value: either way the body is the stored one
    if scl_slope != 0.0 and math.isfinite(scl_slope) and (scl_slope, scl_inter) != (1.0, 0.0):
        if not math.isfinite(scl_inter):
            raise CorruptFileError(f"{path}: scl_inter {scl_inter} is not finite")
        body = body.astype(np.float64)
        with np.errstate(over="ignore"):  # an overflow to inf is reported below
            body *= scl_slope
            body += scl_inter
    if body.dtype.kind == "f" and not np.all(np.isfinite(body)):  # integers are finite
        raise CorruptFileError(f"{path}: non-finite voxel values after scaling")
    return dims, spacing, body


def read_volume(path) -> Volume:
    """Read a single-file NIfTI-1 volume into 64-bit reals.

    Values are scaled by ``scl_slope``/``scl_inter`` when the slope is
    finite and nonzero; a zero or non-finite slope (NaN is a common
    writer default) means unscaled. Slope 1 with intercept 0 counts as
    no scaling, as in nibabel, so a stored -0.0 stays -0.0. Non-positive
    or non-finite ``pixdim`` entries fall back to 1.0 mm.

    Raises:
        NotNiftiError: bad sizeof_hdr or magic.
        UnsupportedDatatypeError: datatype outside {2, 4, 16, 64, 256,
            512} or more than three spatial dims.
        CorruptFileError: a damaged gzip stream, truncated header/body,
            non-positive dims, a non-finite or header-overlapping
            ``vox_offset``, a non-finite ``scl_inter`` under a valid
            slope, or non-finite values.
    """
    dims, spacing, body = _parse_nifti(path)
    return _finite_volume(dims, spacing, body.astype(np.float64, copy=False))


def _as_integers(values: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Foreground ``values`` as (knots, index) if they are integers within 2**16, else as stored.

    ``knots`` holds the float64 integers from the minimum to the maximum,
    and ``index`` each value's int32 position among them, so
    ``knots[index]`` is the values widened to float64. Integer-typed
    values (a uint8, int8, int16 or uint16 body) span at most 2**16.
    Float values qualify if all are integers, span at most 2**16 and stay
    below 2**53 in magnitude, where float64 holds every integer. The
    check stops at the first block holding a non-integer, so a
    continuous foreground pays for one block. Other values keep their
    float dtype, in native byte order.
    """
    blocks = (values[i:i + _CHECK_BLOCK] for i in range(0, values.size, _CHECK_BLOCK))
    if values.dtype.kind == "f" and not all(np.array_equal(b, np.rint(b)) for b in blocks):
        return values.astype(values.dtype.newbyteorder("="), copy=False)
    lo, hi = float(values.min()) + 0.0, float(values.max())  # + 0.0: no knot is -0.0
    if hi - lo > _MAX_INTEGER_SPAN or max(-lo, hi) >= 2.0**53:
        return values.astype(values.dtype.newbyteorder("="), copy=False)
    # each offset from the minimum is an integer within 2**16: exact as a
    # difference of floats, and formed in int32 from integer dtypes
    index = np.subtract(values, int(lo), dtype=np.int32 if values.dtype.kind in "iu" else None)
    return np.arange(lo, hi + 1.0), index.astype(np.int32, copy=False)


def _foreground(source, labels: LabelVolume | None = None):
    """(dims, spacing, mask, values) of the foreground of a Volume or of the file at a path.

    The mask is :func:`foreground_mask`'s, and ``values`` the masked
    values through :func:`_as_integers`: new arrays, ``read_volume``'s
    values bit for bit once widened to float64. A file is masked on the
    body :func:`_parse_nifti` returns, so one it does not decode is
    never widened.
    """
    if isinstance(source, Volume):
        dims, spacing, data = source.dims, source.spacing, source.data
    else:
        dims, spacing, data = _parse_nifti(source)
    mask = _mask(dims, data, labels)
    return dims, spacing, mask, _as_integers(data[mask])


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


def _beyond_float32(path) -> InputError:
    """The error for a volume holding values beyond the float32 range, to be written at ``path``."""
    return InputError(f"{Path(path)}: values beyond the float32 range (about 3.4e38) "
                      "cannot be written")


def _write_float32(path, header: bytes, body: np.ndarray) -> None:
    """Write ``header`` (see :func:`_pack_header`) and the little-endian float32 ``body`` at ``path``.

    The body is written straight from its array. ``.gz`` paths are
    gzip-compressed, with the mtime pinned so identical volumes produce
    identical bytes.
    """
    path = Path(path)
    with (gzip.GzipFile(path, "wb", mtime=0) if path.suffix == ".gz" else open(path, "wb")) as fh:
        fh.write(header + b"\x00\x00\x00\x00")
        fh.write(body)


def write_volume(vol: Volume, path) -> None:
    """Write ``vol`` as float32 little-endian single-file NIfTI-1.

    The data block starts at offset 352 (header + empty extension
    flag), so ``read_volume(write_volume(v))`` round-trips data within
    float32 precision. ``.gz`` paths are gzip-compressed. The float32
    body is cast before the file opens and written by
    :func:`_write_float32`, the one copy of the data made here. A dim
    above 32767, or a value beyond the float32 range (about 3.4e38),
    raises InputError before the file opens.
    """
    header = _pack_header(vol.dims, vol.spacing)
    try:
        with np.errstate(over="raise"):
            body = vol.data.astype("<f4")
    except FloatingPointError as exc:
        raise _beyond_float32(path) from exc
    _write_float32(path, header, body)


def write_label_volume(labels: LabelVolume, path) -> None:
    """Write labels through the float32 writer.

    float32 holds every integer up to 2**24 exactly but not all above it,
    where two labels could read back as one; a label above 2**24 raises
    InputError before the file opens.
    """
    if labels.labels.max() > 2**24:
        raise InputError(f"labels above 2**24 = {2**24} may change in a float32 label file")
    write_volume(Volume(labels.dims, labels.spacing, labels.labels.astype(np.float64)), path)


def read_label_volume(path) -> LabelVolume:
    """Read a volume and interpret its values as integer labels.

    Values more than 1e-6 from an integer, then integers beyond the
    int32 range, raise InputError. Both are checked on the body of
    :func:`_parse_nifti`, widened to float64 :data:`_BLOCK` values at a
    time, so beyond that body and its int32 labels the check holds only
    a few block-sized temporaries; the labels are frozen without a copy.
    """
    dims, spacing, body = _parse_nifti(path)
    labels, in_range = np.empty(body.size, dtype=np.int32), True
    for lo in range(0, body.size, _BLOCK):
        block = body[lo:lo + _BLOCK].astype(np.float64)
        rounded = np.rint(block)
        block -= rounded
        if np.max(np.abs(block, out=block), initial=0.0) > 1e-6:
            raise InputError(f"{path}: voxel values are not integer labels")
        # a later block that is not integers still names that fault first
        in_range = in_range and np.max(np.abs(rounded), initial=0.0) <= _INT32_MAX
        if in_range:
            labels[lo:lo + _BLOCK] = rounded
    if not in_range:
        raise InputError(f"{path}: label values exceed the int32 range")
    vol = object.__new__(LabelVolume)  # every check of the constructor, but not its copy
    _freeze(vol, dims=dims, spacing=spacing, labels=labels)
    vol.__post_init__(copy=False)
    return vol


def _mask(dims, data: np.ndarray, labels: LabelVolume | None) -> np.ndarray:
    """The voxels of ``data`` on ``dims`` where ``labels`` are positive, or else ``data`` is."""
    if labels is not None and labels.dims != dims:
        raise ShapeMismatchError(f"mask dims {labels.dims} != volume dims {dims}")
    mask = data > 0 if labels is None else labels.labels > 0
    if not mask.any():
        raise EmptyMaskError("mask selects no voxels")
    return mask


def foreground_mask(vol: Volume, explicit_mask: LabelVolume | None = None) -> np.ndarray:
    """Boolean flat array marking brain voxels.

    With an explicit mask, voxels where the label is positive; otherwise
    voxels with positive intensity (skull-stripped convention).
    """
    return _mask(vol.dims, vol.data, explicit_mask)
