"""The foreground reader: a path gives the fits and draws of the Volume read from it.

``stats``, ``augment`` and ``fit`` read a file's foreground alone: its
positive voxels, or under ``fit --mask`` its labelled ones. Every
storage kind must give the mask and the values of ``read_volume`` bit
for bit, and so the same stats, fits, draws and sidecars as the Volume
route.
"""

import gzip
import json
import logging
import tracemalloc

import numpy as np
import pytest

from gmmaug import (
    CorruptFileError,
    EmptyMaskError,
    LabelVolume,
    PhantomSpec,
    PopulationStats,
    Volume,
    augment_draws,
    clip_normalize,
    estimate_population,
    foreground_mask,
    generate_phantom,
    provenance_dict,
    read_volume,
    remap,
    save_stats,
    write_label_volume,
    write_volume,
)
import gmmaug.augment
import gmmaug.gmm
import gmmaug.preprocess
import gmmaug.volume
from gmmaug.cli import main
from gmmaug.gmm import EmConfig
from gmmaug.preprocess import fit_volume
from gmmaug.volume import _foreground

from conftest import build_nifti_bytes

DIMS = (24, 24, 24)
_CODES = {"u1": 2, "i2": 4, "f4": 16, "f8": 64, "i1": 256, "u2": 512}

# name: (stored dtype, byte order, scale applied to the phantom before storing,
#        scl_slope, scl_inter, gzip)
KINDS = {
    "uint8": ("u1", "<", 250.0, 0.0, 0.0, False),
    "int16_le": ("i2", "<", 700.0, 1.0, 0.0, False),
    "int16_unscaled": ("i2", "<", 700.0, 0.0, 0.0, False),
    "int16_be": ("i2", ">", 700.0, 1.0, 0.0, False),
    "float32": ("f4", "<", 1.0, 1.0, 0.0, False),  # the layout write_volume writes
    "float64": ("f8", "<", 1.0, 0.0, 0.0, False),
    "nii_gz": ("i2", "<", 700.0, 1.0, 0.0, True),
    "unscaled": ("f4", ">", 1.0, 0.0, 0.0, False),  # slope 0: the values as stored
    "nan_slope": ("f4", "<", 1.0, float("nan"), 0.0, False),
    "scaled": ("i2", "<", 350.0, 2.0, -5.0, False),
    "negative_slope": ("i2", "<", -350.0, -2.0, 0.0, False),
    "uint16": ("u2", "<", 700.0, 0.0, 0.0, False),
    "uint16_be": ("u2", ">", 700.0, 1.0, 0.0, False),
    "int8": ("i1", "<", 120.0, 1.0, 0.0, False),
}

# every kind masked by its positive voxels, then by phantom_labels
EVERY_MASK = pytest.mark.parametrize(
    "kind, labelled", [(kind, labelled) for labelled in (False, True) for kind in KINDS],
    ids=[*KINDS, *(f"{kind}-labels" for kind in KINDS)])

STATS = PopulationStats(k=3, mu_mean=(0.2, 0.5, 0.8), mu_std=(0.03, 0.06, 0.08),
                        var_mean=(2e-3, 1e-3, 1e-3), var_std=(1e-3, 1e-3, 3e-3), n_images=2)


def phantom_data(seed):
    """A phantom's voxels, with a few background voxels below 0 and at -0.0."""
    data = generate_phantom(PhantomSpec(dims=DIMS, seed=seed))[0].data.copy()
    background = np.flatnonzero(data == 0.0)
    data[background[:40]] = -0.25
    data[background[40:50]] = -0.0
    return data


def phantom_labels(seed):
    """A phantom's tissue labels, also covering background voxels at -0.25, -0.0 and 0.0."""
    labels = generate_phantom(PhantomSpec(dims=DIMS, seed=seed))[1].labels.copy()
    data = phantom_data(seed)
    labels[np.flatnonzero(data <= 0.0)[30:60]] = 1  # ten each of -0.25, -0.0 and 0.0
    covered = data[labels > 0]
    assert (covered < 0.0).any() and np.signbit(covered[covered == 0.0]).any()
    return LabelVolume(DIMS, (1.0, 1.0, 1.0), labels)


def write_kind(path, kind, data):
    dtype, order, scale, slope, inter, gz = KINDS[kind]
    stored = data * scale
    if dtype[0] in "iu":  # integers within the dtype's range
        info = np.iinfo(dtype)
        stored = np.clip(np.rint(stored), info.min, info.max)
    raw = build_nifti_bytes(DIMS, stored.astype(order + dtype).tobytes(), _CODES[dtype],
                            byteorder=order, scl_slope=slope, scl_inter=inter)
    path.write_bytes(gzip.compress(raw, mtime=0) if gz else raw)
    return path


def file_name(kind, seed):
    return f"{kind}_{seed}.nii" + (".gz" if KINDS[kind][5] else "")


@EVERY_MASK
def test_mask_and_values_are_read_volumes(tmp_path, kind, labelled):
    path = write_kind(tmp_path / file_name(kind, 1), kind, phantom_data(1))
    labels = phantom_labels(1) if labelled else None
    vol = read_volume(path)
    mask = foreground_mask(vol, labels)
    dims, spacing, got_mask, values = _foreground(path, labels)
    assert (dims, spacing) == (vol.dims, vol.spacing)
    assert np.array_equal(got_mask, mask)
    # integral values come as float64 knots, the integers from their
    # minimum to their maximum, and each voxel's int32 index among them,
    # for the fit to count; other values, here all stored as unscaled
    # floats, keep their stored dtype in native byte order, and widen to
    # read_volume's values
    expected = vol.data[mask]
    if np.array_equal(expected, np.rint(expected)):
        knots, index = values
        assert knots.dtype == np.float64 and index.dtype == np.int32
        assert knots.tobytes() == np.arange(expected.min(), expected.max() + 1.0).tobytes()
        widened = knots[index]
    else:
        assert values.dtype == np.dtype(KINDS[kind][0]) and values.flags.writeable
        widened = values.astype(np.float64)
    assert widened.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_stats_from_paths_are_stats_from_volumes(tmp_path, kind):
    paths = [write_kind(tmp_path / file_name(kind, seed), kind, phantom_data(seed))
             for seed in (1, 2, 3)]
    save_stats(estimate_population(paths), tmp_path / "paths.json")
    save_stats(estimate_population([read_volume(p) for p in paths]), tmp_path / "volumes.json")
    assert (tmp_path / "paths.json").read_bytes() == (tmp_path / "volumes.json").read_bytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("options", [{}, {"hard_assign": True}, {"clip": False}],
                         ids=["soft", "hard_assign", "no_clip"])
def test_draws_from_a_path_are_draws_from_its_volume(tmp_path, kind, options):
    path = write_kind(tmp_path / file_name(kind, 4), kind, phantom_data(4))
    seeds = (7, 8)
    from_path = list(augment_draws(path, STATS, seeds, **options))
    from_volume = list(augment_draws(read_volume(path), STATS, seeds, **options))
    for (out, pert, perturbed), (ref, ref_pert, ref_perturbed) in zip(from_path, from_volume):
        assert (out.dims, out.spacing) == (ref.dims, ref.spacing)
        assert out.data.tobytes() == ref.data.tobytes()
        assert (json.dumps(provenance_dict(pert, perturbed))
                == json.dumps(provenance_dict(ref_pert, ref_perturbed)))


@EVERY_MASK
def test_fit_of_a_path_is_the_fit_of_its_volume(tmp_path, kind, labelled):
    path = write_kind(tmp_path / file_name(kind, 5), kind, phantom_data(5))
    argv = ["fit", str(path), "--out", str(tmp_path / "fit.json")]
    labels = None
    if labelled:
        labels = phantom_labels(5)
        write_label_volume(labels, tmp_path / "labels.nii")
        argv += ["--mask", str(tmp_path / "labels.nii")]
    assert main(argv) == 0
    vol = read_volume(path)
    params = fit_volume(vol.data[foreground_mask(vol, labels)], 3, EmConfig(), 1.0, 99.0)[1]
    assert (tmp_path / "fit.json").read_text() == params.dumps() + "\n"


def test_integer_file_is_counted_not_sorted(tmp_path, monkeypatch):
    # integer foregrounds on every route to the fit: files stored as
    # int16, under scl_slope 2 or -2, or as float32, a Volume, and an
    # int16 file under --mask. With at most 4096 distinct values neither
    # the fit nor the codes sort them, and the reader decides once per
    # volume that they are integers. Fits, stats and sidecars are those
    # of the float64 route, and draws its exact remap
    data = phantom_data(6)
    sources = {kind: write_kind(tmp_path / file_name(kind, 6), kind, data)
               for kind in ("int16_le", "scaled", "negative_slope")}
    sources["float32"] = tmp_path / "float32_integers.nii"
    sources["float32"].write_bytes(build_nifti_bytes(
        DIMS, np.rint(data * 700.0).astype("<f4").tobytes(), 16, scl_slope=1.0))
    sources["volume"] = read_volume(sources["float32"])
    knots, index = _foreground(sources["int16_le"])[3]
    assert np.unique(index).size <= gmmaug.gmm._MAX_COLUMNS
    labels = tmp_path / "labels.nii"
    write_label_volume(generate_phantom(PhantomSpec(dims=DIMS, seed=6))[1], labels)

    def outputs(source, exact=False):
        vol = source if isinstance(source, Volume) else read_volume(source)
        mask = foreground_mask(vol)
        normalized = clip_normalize(vol, mask, STATS.clip_lo_pct, STATS.clip_hi_pct)
        draws = []
        for out, pert, perturbed in augment_draws(source, STATS, (3, 4)):
            data = remap(normalized, mask, perturbed).data if exact else out.data
            draws.append((data.tobytes(), json.dumps(provenance_dict(pert, perturbed))))
        return draws, estimate_population([source, source]).to_json_dict()

    def fit_masked():
        out = tmp_path / "fit.json"
        assert main(["fit", str(sources["int16_le"]), "--mask", str(labels),
                     "--out", str(out)]) == 0
        return out.read_text()

    as_integers = gmmaug.volume._as_integers
    with monkeypatch.context() as widened:  # every foreground as float64: sorted
        widened.setattr(gmmaug.volume, "_as_integers", lambda values: values.astype(np.float64))
        expected = {name: outputs(source, exact=True) for name, source in sources.items()}
        expected_masked = fit_masked()

    decided = []

    def spy(values):
        integers = as_integers(values)
        decided.append(isinstance(integers, tuple))
        return integers

    def refuse(*args, **kwargs):
        raise AssertionError("the integer route sorted its values")

    monkeypatch.setattr(gmmaug.volume, "_as_integers", spy)
    monkeypatch.setattr(gmmaug.preprocess, "_fit_sorted", refuse)
    monkeypatch.setattr(gmmaug.gmm, "_fit_sorted", refuse)
    for name, source in sources.items():
        decided.clear()
        assert outputs(source) == expected[name], name
        # one decision per volume: the draws' and the two of the corpus
        assert decided == [True] * 3, (name, decided)
    decided.clear()
    assert fit_masked() == expected_masked
    assert decided == [True]


def test_no_positive_voxel_raises_empty_mask(tmp_path):
    body = np.linspace(-1.0, 0.0, 27).astype("<f4").tobytes()
    path = tmp_path / "under.nii"
    path.write_bytes(build_nifti_bytes((3, 3, 3), body, 16, scl_slope=1.0))
    with pytest.raises(EmptyMaskError, match="^mask selects no voxels$"):
        _foreground(path)


@pytest.mark.parametrize("slope", [0.0, 1.0])
def test_nan_in_the_background_is_still_refused(tmp_path, slope, caplog, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in (1, 2):
        write_kind(corpus / file_name("float32", seed), "float32", phantom_data(seed))
    data = phantom_data(3).astype("<f4")
    data[np.flatnonzero(data == 0.0)[-1]] = np.nan  # outside the positive-voxel mask
    bad = corpus / "nan.nii"
    bad.write_bytes(build_nifti_bytes(DIMS, data.tobytes(), 16, scl_slope=slope))
    line = f"CorruptFileError: {bad}: non-finite voxel values after scaling"
    with pytest.raises(CorruptFileError, match="non-finite voxel values after scaling"):
        _foreground(bad)

    with caplog.at_level(logging.WARNING, logger="gmmaug.population"):
        assert main(["stats", str(corpus), "--out", str(tmp_path / "stats.json")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping {bad}: CorruptFileError: non-finite voxel values after scaling"]

    save_stats(STATS, tmp_path / "spread.json")
    capsys.readouterr()
    assert main(["augment", str(bad), "--stats", str(tmp_path / "spread.json"), "--seed", "0",
                 "--out-prefix", str(tmp_path / "aug")]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "aug_0.nii").exists()


def test_fit_of_a_float32_file_sorts_it_as_stored(tmp_path):
    # beyond the file bytes and the mask, the masked float32 values,
    # about 4 bytes per foreground value at the peak, which is the read:
    # the fit sorts them in place and widens them after the file bytes
    # are freed; widened in the reader, as float64 values, they took 12
    path = tmp_path / "phantom.nii"
    vol = generate_phantom(PhantomSpec(dims=(96, 96, 96), seed=1))[0]
    write_volume(vol, path)
    foreground = int(np.count_nonzero(vol.data > 0))
    del vol
    argv = ["fit", str(path), "--out", str(tmp_path / "fit.json")]
    assert main(argv) == 0  # lazy imports happen here
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + 96**3 + 6 * foreground


def test_unit_scaled_float_file_is_not_widened_whole(tmp_path):
    # masked on the stored float32 body: the mask and the masked float32
    # voxels (the bound leaves room for a float64 copy of them), never a
    # float64 copy of the grid
    n = 48**3
    data = np.linspace(-1.0, 1.0, n).astype("<f4")
    path = tmp_path / "v.nii"
    path.write_bytes(build_nifti_bytes((48, 48, 48), data.tobytes(), 16, scl_slope=1.0))
    file_bytes = path.stat().st_size
    positive = int(np.count_nonzero(data > 0))
    tracemalloc.start()
    try:
        values = _foreground(path)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == positive
    assert peak <= file_bytes + n + 12 * positive + 64 * 1024 < file_bytes + 8 * n
