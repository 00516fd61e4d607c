import dataclasses
import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from gmmaug import (
    CorruptFileError,
    EmptyMaskError,
    GmmParams,
    InputError,
    LabelVolume,
    NotNiftiError,
    Perturbation,
    PerturbedGmm,
    PopulationStats,
    ShapeMismatchError,
    UnsupportedDatatypeError,
    Volume,
    foreground_mask,
    read_label_volume,
    read_volume,
    write_label_volume,
    write_volume,
)

from gmmaug.volume import _BLOCK, _pack_header, _parse_nifti

from conftest import build_nifti_bytes


def write_file(tmp_path, raw, name="vol.nii"):
    path = tmp_path / name
    path.write_bytes(raw)
    return path


class TestReadVolume:
    def test_zero_float32_body(self, tmp_path):
        body = struct.pack("<8f", *([0.0] * 8))
        path = write_file(tmp_path, build_nifti_bytes((2, 2, 2), body, datatype=16))
        vol = read_volume(path)
        assert vol.dims == (2, 2, 2)
        assert np.all(vol.data == 0.0)

    def test_slope_inter_scaling(self, tmp_path):
        body = struct.pack("<8f", *([0.0] * 8))
        raw = build_nifti_bytes((2, 2, 2), body, datatype=16, scl_slope=2.0, scl_inter=1.0)
        vol = read_volume(write_file(tmp_path, raw))
        assert np.all(vol.data == 1.0)

    def test_zero_slope_means_unscaled(self, tmp_path):
        body = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        raw = build_nifti_bytes((4, 1, 1), body, datatype=16, scl_slope=0.0, scl_inter=5.0)
        vol = read_volume(write_file(tmp_path, raw))
        assert np.array_equal(vol.data, [1.0, 2.0, 3.0, 4.0])

    def test_big_endian_int16_byte_swap(self, tmp_path):
        values = list(range(8))
        big = build_nifti_bytes((2, 2, 2), struct.pack(">8h", *values), datatype=4, byteorder=">")
        little = build_nifti_bytes((2, 2, 2), struct.pack("<8h", *values), datatype=4, byteorder="<")
        vol_big = read_volume(write_file(tmp_path, big, "big.nii"))
        vol_little = read_volume(write_file(tmp_path, little, "little.nii"))
        assert np.array_equal(vol_big.data, np.arange(8, dtype=np.float64))
        assert np.array_equal(vol_big.data, vol_little.data)

    def test_uint8_and_float64_datatypes(self, tmp_path):
        raw8 = build_nifti_bytes((3, 1, 1), bytes([7, 8, 9]), datatype=2)
        assert np.array_equal(read_volume(write_file(tmp_path, raw8, "u8.nii")).data, [7, 8, 9])
        raw64 = build_nifti_bytes((2, 1, 1), struct.pack("<2d", 0.25, -1.5), datatype=64)
        assert np.array_equal(read_volume(write_file(tmp_path, raw64, "f8.nii")).data, [0.25, -1.5])

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("datatype, fmt, values", [
        (256, "b", [-128, -1, 0, 1, 127]),  # int8
        (512, "H", [0, 1, 255, 256, 65535]),  # uint16
    ], ids=["int8", "uint16"])
    def test_int8_and_uint16_datatypes(self, tmp_path, byteorder, datatype, fmt, values):
        body = struct.pack(f"{byteorder}5{fmt}", *values)
        raw = build_nifti_bytes((5, 1, 1), body, datatype=datatype, byteorder=byteorder)
        vol = read_volume(write_file(tmp_path, raw))
        assert np.array_equal(vol.data, values) and vol.data.dtype == np.float64

    def test_vox_offset_skips_extension(self, tmp_path):
        body = struct.pack("<2f", 3.5, 4.5)
        raw = build_nifti_bytes((2, 1, 1), body, datatype=16, vox_offset=368)
        raw = raw[:352] + b"\xff" * 16 + raw[368:]
        vol = read_volume(write_file(tmp_path, raw))
        assert np.array_equal(vol.data, [3.5, 4.5])

    def test_minimal_layout_body_right_after_header(self, tmp_path):
        body = struct.pack("<8f", *([0.0] * 8))
        raw = build_nifti_bytes((2, 2, 2), body, datatype=16, vox_offset=348)
        vol = read_volume(write_file(tmp_path, raw))
        assert vol.dims == (2, 2, 2)
        assert np.all(vol.data == 0.0)

    def test_pixdim_read_as_spacing(self, tmp_path):
        body = struct.pack("<1f", 1.0)
        raw = build_nifti_bytes((1, 1, 1), body, datatype=16, pixdim=(0.5, 2.0, 3.0))
        vol = read_volume(write_file(tmp_path, raw))
        assert vol.spacing == (0.5, 2.0, 3.0)

    def test_nonpositive_pixdim_defaults_to_one(self, tmp_path):
        body = struct.pack("<1f", 1.0)
        raw = build_nifti_bytes((1, 1, 1), body, datatype=16, pixdim=(0.0, -2.0, 3.0))
        assert read_volume(write_file(tmp_path, raw)).spacing == (1.0, 1.0, 3.0)

    @pytest.mark.parametrize("pixdim, spacing", [((np.inf, 2.0, 3.0), (1.0, 2.0, 3.0)),
                                                 ((np.nan, -np.inf, np.inf), (1.0, 1.0, 1.0))])
    def test_non_finite_pixdim_defaults_to_one(self, tmp_path, pixdim, spacing):
        body = struct.pack("<1f", 1.0)
        raw = build_nifti_bytes((1, 1, 1), body, datatype=16, pixdim=pixdim)
        assert read_volume(write_file(tmp_path, raw)).spacing == spacing

    def test_fewer_than_three_dims(self, tmp_path):
        raw = build_nifti_bytes((5,), struct.pack("<5f", *range(5)), datatype=16, ndim=1)
        vol = read_volume(write_file(tmp_path, raw))
        assert vol.dims == (5, 1, 1)

    def test_truncated_header(self, tmp_path):
        path = write_file(tmp_path, b"\x00" * 200)
        with pytest.raises(CorruptFileError):
            read_volume(path)

    def test_truncated_body(self, tmp_path):
        body = struct.pack("<4f", *([1.0] * 4))  # 8 voxels declared, 4 present
        raw = build_nifti_bytes((2, 2, 2), body, datatype=16)
        with pytest.raises(CorruptFileError):
            read_volume(write_file(tmp_path, raw))

    def test_bad_magic(self, tmp_path):
        raw = build_nifti_bytes((1, 1, 1), struct.pack("<f", 0.0), datatype=16, magic=b"ni1\x00")
        with pytest.raises(NotNiftiError):
            read_volume(write_file(tmp_path, raw))

    def test_bad_sizeof_hdr(self, tmp_path):
        raw = build_nifti_bytes((1, 1, 1), struct.pack("<f", 0.0), datatype=16, sizeof_hdr=350)
        with pytest.raises(NotNiftiError):
            read_volume(write_file(tmp_path, raw))

    def test_unsupported_datatype(self, tmp_path):
        raw = build_nifti_bytes((1, 1, 1), struct.pack("<i", 0), datatype=8)
        with pytest.raises(UnsupportedDatatypeError):
            read_volume(write_file(tmp_path, raw))

    def test_four_dims_rejected(self, tmp_path):
        raw = build_nifti_bytes((2, 2, 2), struct.pack("<8f", *([0.0] * 8)), datatype=16, ndim=4)
        with pytest.raises(UnsupportedDatatypeError):
            read_volume(write_file(tmp_path, raw))

    def test_nan_body_rejected(self, tmp_path):
        raw = build_nifti_bytes((1, 1, 1), struct.pack("<f", float("nan")), datatype=16)
        with pytest.raises(CorruptFileError):
            read_volume(write_file(tmp_path, raw))

    def test_voxels_scanned_once(self, tmp_path, monkeypatch):
        raw = build_nifti_bytes((4, 3, 2), struct.pack("<24f", *range(24)), datatype=16)
        path = write_file(tmp_path, raw)
        scanned = []
        isfinite = np.isfinite

        def spy(x, *args, **kwargs):
            scanned.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        vol = read_volume(path)
        assert scanned.count(24) == 1
        assert not vol.data.flags.writeable and np.array_equal(vol.data, np.arange(24.0))

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_slope_means_unscaled(self, tmp_path, slope):
        raw = build_nifti_bytes((1, 1, 2), struct.pack("<2f", 0.0, -1.0), datatype=16,
                                scl_slope=slope, scl_inter=float("nan"))
        assert np.array_equal(read_volume(write_file(tmp_path, raw)).data, [0.0, -1.0])

    @pytest.mark.parametrize("inter", [float("nan"), float("inf")])
    def test_non_finite_inter_with_slope_rejected(self, tmp_path, inter):
        raw = build_nifti_bytes((1, 1, 2), struct.pack("<2f", 0.0, -1.0), datatype=16,
                                scl_slope=2.0, scl_inter=inter)
        with pytest.raises(CorruptFileError, match="scl_inter"):
            read_volume(write_file(tmp_path, raw))

    @pytest.mark.parametrize("dim2", [0, -3])
    def test_non_positive_dim_rejected(self, tmp_path, dim2):
        path = write_file(tmp_path, build_nifti_bytes((2, dim2, 2), b"", datatype=16))
        with pytest.raises(CorruptFileError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: non-positive dim entries (2, {dim2}, 2)"

    @pytest.mark.parametrize("offset", [0, 347])
    def test_vox_offset_inside_the_header_rejected(self, tmp_path, offset):
        raw = build_nifti_bytes((2, 1, 1), struct.pack("<2f", 1.0, 2.0), datatype=16,
                                vox_offset=offset)
        path = write_file(tmp_path, raw)
        with pytest.raises(CorruptFileError) as info:
            read_volume(path)
        assert str(info.value) == f"{path}: vox_offset {float(offset)} overlaps the header"

    @pytest.mark.parametrize("slope, inter, body, values", [
        (1.0, 0.0, "<f4", [-0.0, 0.5, 1.0]),  # changes no value: the stored -0.0 stays
        (1.0, -0.0, "<f4", [-0.0, 0.5, 1.0]),
        (0.0, 3.0, "<f4", [-0.0, 0.5, 1.0]),  # no valid slope
        (2.0, 0.0, "float64", [0.0, 1.0, 2.0]),  # -0.0 * 2 + 0 decodes to 0.0
        (1.0, 3.0, "float64", [3.0, 3.5, 4.0]),
    ])
    def test_identity_scaling_is_no_scaling(self, tmp_path, slope, inter, body, values):
        raw = build_nifti_bytes((3, 1, 1), struct.pack("<3f", -0.0, 0.5, 1.0), datatype=16,
                                scl_slope=slope, scl_inter=inter)
        path = write_file(tmp_path, raw)
        assert _parse_nifti(path)[2].dtype == np.dtype(body)
        assert read_volume(path).data.tobytes() == np.array(values).tobytes()

    def test_peak_memory_is_file_bytes_plus_output(self, tmp_path):
        # the body is a view of the file bytes, cast to float64 once and
        # scaled in place: no body slice and no second float64 array
        n = 48**3
        path = tmp_path / "v.nii"
        write_volume(Volume((48, 48, 48), (1, 1, 1), np.linspace(0.0, 1.0, n)), path)
        file_bytes = path.stat().st_size
        tracemalloc.start()
        try:
            vol = read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vol.n_voxels == n
        assert peak <= file_bytes + 8 * n + 2 * n + 64 * 1024

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_volume(tmp_path / "absent.nii")


class TestWriteVolume:
    def test_round_trip_ramp(self, tmp_path):
        data = np.linspace(0.0, 1.0, 64)
        vol = Volume((4, 4, 4), (0.977, 1.25, 3.1), data)
        path = tmp_path / "ramp.nii"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.dims == vol.dims
        assert np.max(np.abs(back.data - vol.data)) <= 1e-6
        assert np.allclose(back.spacing, vol.spacing, rtol=1e-6, atol=0)

    def test_smallest_volume_file_size(self, tmp_path):
        path = tmp_path / "one.nii"
        write_volume(Volume((1, 1, 1), (1, 1, 1), [0.0]), path)
        assert path.stat().st_size == 352 + 4

    def test_header_dim_field_bytes(self, tmp_path):
        path = tmp_path / "d.nii"
        write_volume(Volume((2, 3, 4), (1, 1, 1), np.zeros(24)), path)
        raw = path.read_bytes()
        assert struct.unpack_from("<8h", raw, 40) == (3, 2, 3, 4, 1, 1, 1, 1)
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert raw[344:348] == b"n+1\x00"
        assert struct.unpack_from("<h", raw, 70)[0] == 16  # float32
        assert struct.unpack_from("<f", raw, 108)[0] == 352.0

    def test_gzip_round_trip(self, tmp_path):
        vol = Volume((2, 2, 2), (1, 1, 1), np.arange(8) / 8.0)
        path = tmp_path / "z.nii.gz"
        write_volume(vol, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        back = read_volume(path)
        assert np.max(np.abs(back.data - vol.data)) <= 1e-6

    def test_bytes_are_header_then_float32_body(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(4))
        vol = Volume((40, 30, 20), (0.9, 1.0, 1.2), rng.random(24_000))
        expected = (_pack_header(vol.dims, vol.spacing) + b"\x00\x00\x00\x00"
                    + vol.data.astype("<f4").tobytes())
        write_volume(vol, tmp_path / "v.nii")
        assert (tmp_path / "v.nii").read_bytes() == expected
        packed = []
        for _ in range(2):
            write_volume(vol, tmp_path / "v.nii.gz")
            packed.append((tmp_path / "v.nii.gz").read_bytes())
        assert gzip.decompress(packed[0]) == expected
        assert packed[0] == packed[1]

    def test_gzip_content_detected_without_extension(self, tmp_path):
        vol = Volume((2, 1, 1), (1, 1, 1), [0.5, 0.25])
        plain = tmp_path / "p.nii"
        write_volume(vol, plain)
        disguised = tmp_path / "q.nii"
        disguised.write_bytes(gzip.compress(plain.read_bytes()))
        assert np.max(np.abs(read_volume(disguised).data - vol.data)) <= 1e-6

    def test_damaged_gzip_rejected(self, tmp_path):
        path = tmp_path / "v.nii.gz"
        write_volume(Volume((8, 8, 8), (1, 1, 1), np.linspace(0.0, 1.0, 512)), path)
        packed = path.read_bytes()
        flipped = bytearray(packed)
        flipped[20] ^= 0xFF
        for damaged in (packed[: len(packed) // 2], bytes(flipped), packed[:2]):
            path.write_bytes(damaged)
            with pytest.raises(CorruptFileError, match="gzip"):
                read_volume(path)

    def test_unwritable_path_raises_oserror(self, tmp_path):
        vol = Volume((1, 1, 1), (1, 1, 1), [0.0])
        with pytest.raises(OSError):
            write_volume(vol, tmp_path / "no" / "such" / "dir.nii")

    def test_dims_beyond_int16_rejected_before_open(self, tmp_path):
        path = tmp_path / "wide.nii"
        with pytest.raises(InputError, match="32767"):
            write_volume(Volume((32768, 1, 1), (1, 1, 1), np.zeros(32768)), path)
        assert not path.exists()
        write_volume(Volume((32767, 1, 1), (1, 1, 1), np.zeros(32767)), path)
        assert read_volume(path).dims == (32767, 1, 1)

    def test_values_beyond_float32_rejected_before_open(self, tmp_path):
        path = tmp_path / "big.nii"
        with pytest.raises(InputError, match="float32 range"):
            write_volume(Volume((2, 1, 1), (1, 1, 1), np.array([0.5, 1e39])), path)
        assert not path.exists()

    def test_round_trip_random_volumes(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(9))
        for i in range(5):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
            vol = Volume(dims, (1, 1, 1), rng.random(dims[0] * dims[1] * dims[2]))
            path = tmp_path / f"r{i}.nii"
            write_volume(vol, path)
            back = read_volume(path)
            assert back.dims == vol.dims
            assert np.max(np.abs(back.data - vol.data)) <= 1e-6


class TestLabelVolumeIO:
    def test_label_round_trip_exact(self, tmp_path):
        labels = LabelVolume((2, 2, 2), (1, 1, 1), np.array([0, 1, 2, 3, 0, 1, 2, 3]))
        path = tmp_path / "lab.nii"
        write_label_volume(labels, path)
        back = read_label_volume(path)
        assert np.array_equal(back.labels, labels.labels)

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "f.nii"
        write_volume(Volume((2, 1, 1), (1, 1, 1), [0.5, 1.0]), path)
        with pytest.raises(InputError):
            read_label_volume(path)

    def test_labels_beyond_int32_rejected(self, tmp_path):
        raw = build_nifti_bytes((2, 1, 1), struct.pack("<2f", 0.0, 1.0), datatype=16,
                                scl_slope=3e9)
        with pytest.raises(InputError, match="int32"):
            read_label_volume(write_file(tmp_path, raw))

    @pytest.mark.parametrize("top", [2**24 + 1, 2**24 + 3, 2**31 - 1])
    def test_labels_float32_would_change_rejected_before_open(self, tmp_path, top):
        # 16777217 would read back as 16777216, and 16777219 as 16777220
        path = tmp_path / "lab.nii"
        with pytest.raises(InputError, match="float32"):
            write_label_volume(LabelVolume((2, 1, 1), (1, 1, 1), np.array([top, 1])), path)
        assert not path.exists()

    @pytest.mark.parametrize("first, later, error", [
        (3e9, 0.5, "not integer labels"),  # a fault in a later block still comes first
        (0.5, 3e9, "not integer labels"),
        (1.0, 3e9, "exceed the int32 range"),
        (3e9, 1.0, "exceed the int32 range"),
    ])
    def test_labels_checked_a_block_at_a_time_fail_as_a_whole(self, tmp_path, first, later, error):
        dims = (4, _BLOCK // 4 + 1, 1)  # a few voxels into the second block
        values = np.zeros(dims[0] * dims[1], dtype="<f4")
        values[0], values[-1] = first, later
        raw = build_nifti_bytes(dims, values.tobytes(), datatype=16)
        with pytest.raises(InputError, match=error):
            read_label_volume(write_file(tmp_path, raw))

    def test_label_read_peak_memory_is_the_volume_and_its_labels(self, tmp_path):
        n = 96**3
        path = tmp_path / "lab.nii"
        labels = LabelVolume((96, 96, 96), (1, 1, 1), np.arange(n) % 4)
        write_label_volume(labels, path)
        tracemalloc.start()
        try:
            back = read_label_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.labels.tobytes() == labels.labels.tobytes()
        # the file's float32 body, its int32 labels and four float64
        # temporaries of one block; a float64 grid or whole-volume
        # temporaries exceed it
        assert peak <= 8 * n + 4 * 8 * _BLOCK + 64 * 1024

    def test_uint8_label_read_holds_one_int32_grid(self, tmp_path):
        n = 96**3
        values = (np.arange(n) % 4).astype(np.uint8)
        path = write_file(tmp_path, build_nifti_bytes((96, 96, 96), values.tobytes(), datatype=2))
        tracemalloc.start()
        try:
            back = read_label_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.labels, values) and not back.labels.flags.writeable
        # the file's bytes, one int32 grid and four float64 temporaries of
        # one block; measured: 6.8 bytes a voxel, and 8.0 when the labels
        # were copied into a second int32 grid
        assert peak <= 5 * n + 4 * 8 * _BLOCK + 64 * 1024
        # the constructor still copies, so a caller's int32 array stays writable
        own = np.zeros(8, dtype=np.int32)
        assert LabelVolume((2, 2, 2), (1, 1, 1), own).labels is not own and own.flags.writeable

    def test_label_file_is_cast_straight_to_float32(self, tmp_path, default_phantom):
        # the bytes of write_volume over the labels widened to float64, without that float64
        # grid: the labels, their float32 body and one block's worth of small objects
        _, phantom_labels = default_phantom
        edges = LabelVolume((3, 1, 1), (1, 1, 1), np.array([0, 1, 2**24]))
        for labels in (phantom_labels, edges):
            direct, widened = tmp_path / "direct.nii", tmp_path / "widened.nii"
            write_volume(Volume(labels.dims, labels.spacing, labels.labels.astype(np.float64)),
                         widened)
            tracemalloc.start()
            try:
                write_label_volume(labels, direct)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert direct.read_bytes() == widened.read_bytes()
            assert peak <= 4 * labels.labels.size + 8 * _BLOCK

    def test_largest_float32_exact_label_round_trips(self, tmp_path):
        labels = LabelVolume((3, 1, 1), (1, 1, 1), np.array([2**24, 2**24 - 1, 0]))
        path = tmp_path / "lab.nii"
        write_label_volume(labels, path)
        assert read_label_volume(path).labels.tolist() == [2**24, 2**24 - 1, 0]


class TestVolumeInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Volume((2, 2, 2), (1, 1, 1), np.zeros(7))

    def test_bad_spacing(self):
        with pytest.raises(InputError):
            Volume((1, 1, 1), (0.0, 1, 1), [0.0])

    @pytest.mark.parametrize("dims", [(8.5, 8, 8), (8, 8.0, 8), (True, 8, 8), ("8", 8, 8)])
    def test_non_integer_dims_rejected(self, dims):
        with pytest.raises(InputError, match="dims must be"):
            Volume(dims, (1, 1, 1), np.zeros(512))

    @pytest.mark.parametrize("spacing", [(1, 1, "a"), (1, 1, "2"), (1, True, 1), (1, 1, np.nan),
                                         (1, 1, np.inf), (1, 1, 1e39), (1, 1, 10**400)])
    def test_non_numeric_or_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(InputError, match="spacing must be"):
            Volume((8, 8, 8), spacing, np.zeros(512))

    def test_non_finite_data(self):
        with pytest.raises(InputError):
            Volume((1, 1, 1), (1, 1, 1), [np.nan])

    def test_data_read_only(self):
        vol = Volume((1, 1, 1), (1, 1, 1), [0.5])
        with pytest.raises(ValueError):
            vol.data[0] = 1.0

    def test_negative_labels_rejected(self):
        with pytest.raises(InputError):
            LabelVolume((1, 1, 1), (1, 1, 1), [-1])

    @pytest.mark.parametrize("labels", [[2**32, 1], [2**32 + 5, 1], [2**31, 0], [2**32 - 1, 1],
                                        np.array([2**63, 1], dtype=np.uint64)],
                             ids=["2**32", "2**32+5", "2**31", "2**32-1", "uint64-2**63"])
    def test_labels_beyond_int32_refused_not_wrapped(self, labels):
        # cast unchecked, 2**32 became background 0 and 2**32 + 5 became 5
        with pytest.raises(InputError, match="at most 2147483647"):
            LabelVolume((2, 1, 1), (1, 1, 1), np.array(labels))

    def test_int32_extremes_kept(self):
        lab = LabelVolume((2, 1, 1), (1, 1, 1), np.array([2**31 - 1, 0], dtype=np.uint64))
        assert lab.labels.dtype == np.int32 and lab.labels.tolist() == [2**31 - 1, 0]

    def test_float_labels_rejected(self):
        with pytest.raises(InputError, match="labels must be integers"):
            LabelVolume((2, 1, 1), (1, 1, 1), np.array([1.0, 2.0]))

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="labels length 3 != product of dims"):
            LabelVolume((2, 1, 1), (1, 1, 1), [0, 1, 2])

    def test_frozen_records_hold_read_only_flat_arrays(self):
        source = np.arange(4.0).reshape(2, 2)
        params = GmmParams(k=2, weights=[[0.5, 0.5]], means=(0.2, 0.8), variances=[0.01, 0.01],
                           log_likelihood=0.0, iterations=1)
        records = [
            (Volume((2, 2, 1), (1, 1, 1), source.T), ["data"]),
            (LabelVolume((2, 2, 1), (1, 1, 1), np.arange(4).reshape(2, 2).T), ["labels"]),
            (params, ["weights", "means", "variances"]),
            (Perturbation(q_mu=[[0.1, 0.2]], q_var=[0.0, 0.0], seed=0), ["q_mu", "q_var"]),
            (PerturbedGmm(base=params, means=[0.1, 0.9], variances=[0.02, 0.02]),
             ["means", "variances"]),
            (PopulationStats(k=2, mu_mean=[0.2, 0.8], mu_std=[0.01, 0.01], var_mean=[0.01, 0.01],
                             var_std=[0.0, 0.0], n_images=2),
             ["mu_mean", "mu_std", "var_mean", "var_std"]),
        ]
        for record, names in records:
            for name in names:
                arr = getattr(record, name)
                assert arr.ndim == 1 and arr.flags.c_contiguous and not arr.flags.writeable
                assert arr.dtype == (np.int32 if name == "labels" else np.float64)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, names[0], None)
        assert records[0][0].data.tolist() == [0.0, 2.0, 1.0, 3.0]
        assert source.flags.writeable  # the caller's array stays writable

    def test_k_length_records_copy_the_caller_arrays(self):
        # writing the caller's array afterwards cannot unsort the means or unbalance the
        # weights of a record that has checked them
        weights, means, variances = np.array([0.5, 0.5]), np.array([0.2, 0.8]), np.full(2, 0.01)
        params = GmmParams(k=2, weights=weights, means=means, variances=variances,
                           log_likelihood=0.0, iterations=1)
        q_mu, q_var = np.array([0.1, 0.2]), np.zeros(2)
        pert = Perturbation(q_mu=q_mu, q_var=q_var, seed=0)
        shifted, spread = np.array([0.1, 0.9]), np.full(2, 0.02)
        perturbed = PerturbedGmm(base=params, means=shifted, variances=spread)
        mu_mean, mu_std = np.array([0.2, 0.8]), np.full(2, 0.01)
        var_mean, var_std = np.full(2, 0.01), np.zeros(2)
        stats = PopulationStats(k=2, mu_mean=mu_mean, mu_std=mu_std, var_mean=var_mean,
                                var_std=var_std, n_images=2)
        records = [
            (params, [weights, means, variances], ["weights", "means", "variances"]),
            (pert, [q_mu, q_var], ["q_mu", "q_var"]),
            (perturbed, [shifted, spread], ["means", "variances"]),
            (stats, [mu_mean, mu_std, var_mean, var_std],
             ["mu_mean", "mu_std", "var_mean", "var_std"]),
        ]
        for record, sources, names in records:
            kept = [getattr(record, name).tolist() for name in names]
            for source in sources:
                assert source.flags.writeable
                source[0] = 0.9
            assert [getattr(record, name).tolist() for name in names] == kept

    def test_volume_wraps_a_float64_array_without_a_copy(self):
        # the one record that does not copy: a copy would cost 8 bytes a voxel
        data = np.zeros(8)
        vol = Volume((2, 2, 2), (1, 1, 1), data)
        data[0] = 1.0
        assert vol.data[0] == 1.0 and not vol.data.flags.writeable

    def test_grid_view_is_x_fastest(self):
        vol = Volume((2, 3, 4), (1, 1, 1), np.arange(24, dtype=float))
        grid = vol.grid()
        assert grid[1, 0, 0] == 1.0
        assert grid[0, 1, 0] == 2.0
        assert grid[0, 0, 1] == 6.0


class TestForegroundMask:
    def test_all_zero_volume_raises(self):
        vol = Volume((2, 2, 2), (1, 1, 1), np.zeros(8))
        with pytest.raises(EmptyMaskError):
            foreground_mask(vol)

    def test_single_positive_voxel(self):
        data = np.zeros(8)
        data[3] = 0.7
        mask = foreground_mask(Volume((2, 2, 2), (1, 1, 1), data))
        assert mask.sum() == 1 and mask[3]

    def test_explicit_mask_overrides_positivity(self):
        vol = Volume((2, 1, 1), (1, 1, 1), [-5.0, 3.0])
        labels = LabelVolume((2, 1, 1), (1, 1, 1), [1, 0])
        mask = foreground_mask(vol, labels)
        assert mask.tolist() == [True, False]

    def test_explicit_mask_dim_mismatch(self):
        vol = Volume((2, 1, 1), (1, 1, 1), [1.0, 2.0])
        labels = LabelVolume((1, 2, 1), (1, 1, 1), [1, 1])
        with pytest.raises(ShapeMismatchError):
            foreground_mask(vol, labels)

    def test_empty_explicit_mask(self):
        vol = Volume((2, 1, 1), (1, 1, 1), [1.0, 2.0])
        labels = LabelVolume((2, 1, 1), (1, 1, 1), [0, 0])
        with pytest.raises(EmptyMaskError):
            foreground_mask(vol, labels)

    def test_count_invariant_under_monotone_transforms(self):
        rng = np.random.Generator(np.random.Philox(31))
        data = rng.random(60)
        data[rng.random(60) < 0.4] = 0.0
        if not data.any():
            data[0] = 0.5
        base = foreground_mask(Volume((3, 4, 5), (1, 1, 1), data)).sum()
        for transform in (lambda v: 3.0 * v, lambda v: v**1.7, lambda v: np.expm1(v)):
            transformed = foreground_mask(Volume((3, 4, 5), (1, 1, 1), transform(data))).sum()
            assert transformed == base
