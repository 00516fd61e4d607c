"""Property tests of the command-line contract under malformed input.

Whatever header a volume carries, whatever numbers the options take,
whatever bytes a stats file or phantom spec holds and whatever JSON
value one of their fields holds, every subcommand ends in exit code 0,
2 or 3, writes nothing to stdout
and at most one diagnostic line to stderr; ``stats`` may add one line
for each volume of its corpus: "skipping" for one it could not use, or
"unconverged" for one whose fit EM's cap stopped. Options are passed as
``--flag=value`` so that values such as ``-inf`` reach the program
instead of argparse, and every value has the option's type: usage
errors of argparse itself are outside this contract. A switch such as
``--no-clip`` is passed bare or left out.
"""

import contextlib
import copy
import gzip
import io
import json
import logging
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gmmaug import PhantomSpec, generate_phantom, read_volume, write_label_volume, write_volume
from gmmaug.cli import main

from conftest import build_nifti_bytes

# (byte offset, little-endian struct format) of the header fields the
# reader interprets: sizeof_hdr, dim[0..3], datatype, bitpix,
# pixdim[1..3], vox_offset, scl_slope, scl_inter and the magic.
HEADER_FIELDS = (
    [(0, "<i")]
    + [(40 + 2 * i, "<h") for i in range(4)]
    + [(70, "<h"), (72, "<h")]
    + [(76 + 4 * i, "<f") for i in range(1, 4)]
    + [(108, "<f"), (112, "<f"), (116, "<f"), (344, "4s")]
)

SPEC = json.loads(json.dumps(PhantomSpec(dims=(16, 16, 16)).to_json_dict()))  # tuples to lists
STATS = {
    "k": 3,
    "components": [
        {"mu_mean": mu, "mu_std": 0.02, "var_mean": var, "var_std": 1e-4}
        for mu, var in zip((0.1, 0.2, 0.3), (2e-3, 1e-3, 1e-3))
    ],
    "n_images": 2,
    "preprocessing": {"clip_lo_pct": 1.0, "clip_hi_pct": 99.0, "normalize": "minmax01"},
}
CORPUS_SIZE = 3


def _field_value(field):
    offset, fmt = field
    if fmt == "<i":
        values = st.integers(-(2**31), 2**31 - 1)
    elif fmt == "<h":
        values = st.integers(-(2**15), 2**15 - 1)
    elif fmt == "<f":
        values = st.floats(width=32)
    else:
        values = st.binary(min_size=4, max_size=4)
    return values.map(lambda value: (offset, fmt, value))


# None leaves the file intact; an int truncates it to that many bytes;
# ("gzip", cut, flip) gzips it, cuts the stream to ``cut`` bytes and
# inverts byte ``flip`` (none when negative); ("float64", lo, hi, slope)
# stores each value v as the float64 lo * (1 - v) + hi * v, with that
# scl_slope, so the values can reach the float64 limits.
extremes = st.sampled_from([-1.7e308, -1.0, 0.0, 1.0, 1e300, 1.7e308])
mutations = st.one_of(
    st.none(),
    st.sampled_from(HEADER_FIELDS).flatmap(_field_value),
    st.integers(0, 400),
    st.tuples(st.just("gzip"), st.integers(0, 8_000), st.integers(-40, 200)),
    st.tuples(st.just("float64"), extremes, extremes, st.sampled_from([0.0, 1.0, 1e10])),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
K = {"--k": st.integers(-1, 5)}
EM = {"--tol": st.one_of(floats, st.sampled_from([1e-6, 1e-3])),
      "--max-iter": st.integers(-2, 40)}
CLIP = {"--clip-lo": st.one_of(floats, st.sampled_from([0.0, 1.0, 50.0])),
        "--clip-hi": st.one_of(floats, st.sampled_from([99.0, 100.0, 50.0]))}
SEED = {"--seed": st.integers(-3, 2**70)}
# switches: True passes the bare flag, False leaves it out
AUGMENT_FLAGS = {flag: st.booleans()
                 for flag in ("--no-clip", "--hard-assign", "--reject-order-inversion")}

commands = st.one_of(
    # "--mask": True fits under the phantom's label mask
    st.tuples(st.just("fit"), st.fixed_dictionaries({**K, **EM, **CLIP},
                                                    optional={"--mask": st.booleans()})),
    st.tuples(st.just("stats"), st.fixed_dictionaries({**K, **EM, **CLIP})),
    st.tuples(st.just("augment"), st.fixed_dictionaries(
        {**EM, **SEED, "--n": st.integers(-2, 2), **AUGMENT_FLAGS})),
    st.tuples(st.just("hist"), st.fixed_dictionaries(
        {"--bins": st.one_of(st.integers(-2, 300), st.integers(10**6 + 1, 10**18))})),
    st.tuples(st.just("metrics"), st.fixed_dictionaries(
        {}, optional={"--labels": st.text(alphabet="012,a -", max_size=5)})),
    st.tuples(st.just("phantom"), st.fixed_dictionaries(SEED)),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 24^3 phantom, its labels, a stats file and a phantom spec.

    The phantom's ~5.5 k distinct foreground values exceed the 4096
    above which fits are binned, so fits on an intact copy are binned.
    """
    root = tmp_path_factory.mktemp("fuzz_inputs")
    vol, labels = generate_phantom(PhantomSpec(dims=(24, 24, 24), seed=3))
    write_volume(vol, root / "volume.nii")
    write_label_volume(labels, root / "labels.nii")
    (root / "stats.json").write_text(json.dumps(STATS))
    (root / "spec.json").write_text(json.dumps(SPEC))
    return root


def _mutated_copy(source: Path, dest: Path, mutation) -> Path:
    raw = bytearray(source.read_bytes())
    if isinstance(mutation, int):
        raw = raw[:mutation]
    elif mutation and mutation[0] == "gzip":
        _, cut, flip = mutation
        raw = bytearray(gzip.compress(bytes(raw), mtime=0)[:cut])
        if 0 <= flip < len(raw):
            raw[flip] ^= 0xFF
    elif mutation and mutation[0] == "float64":
        _, lo, hi, slope = mutation
        vol = read_volume(source)
        with np.errstate(over="ignore", invalid="ignore"):
            body = lo * (1.0 - vol.data) + hi * vol.data
        raw = build_nifti_bytes(vol.dims, body.astype("<f8").tobytes(), 64, scl_slope=slope)
    elif mutation is not None:
        offset, fmt, value = mutation
        struct.pack_into(fmt, raw, offset, value)
    dest.write_bytes(bytes(raw))
    return dest


def _options(options):
    """``--flag=value`` tokens; a True switch is passed bare and a False one left out."""
    return [flag if value is True else f"{flag}={value}"
            for flag, value in options.items() if value is not False]


def _argv(command, options, inputs: Path, work: Path, mutation):
    volume = _mutated_copy(inputs / "volume.nii", work / "volume.nii", mutation)
    options = dict(options)
    if command == "fit":
        positional = [str(volume), "--out", str(work / "fit.json")]
        if options.pop("--mask", False):
            positional += ["--mask", str(inputs / "labels.nii")]
    elif command == "stats":
        corpus = work / "corpus"
        corpus.mkdir()
        for i in range(CORPUS_SIZE - 1):  # enough good volumes that one bad one is skipped
            shutil.copy(inputs / "volume.nii", corpus / f"{i}.nii")
        shutil.copy(volume, corpus / "bad.nii")
        positional = [str(corpus), "--out", str(work / "stats.json")]
    elif command == "augment":
        positional = [str(volume), "--stats", str(inputs / "stats.json"),
                      "--out-prefix", str(work / "aug")]
    elif command == "hist":
        positional = [str(volume), "--out", str(work / "hist.csv")]
    elif command == "metrics":
        labels = _mutated_copy(inputs / "labels.nii", work / "labels.nii", mutation)
        positional = [str(labels), str(inputs / "labels.nii"), "--out", str(work / "m.json")]
    else:
        positional = ["--spec", str(inputs / "spec.json"), "--out", str(work / "p.nii")]
    return [command, *positional, *_options(options)]


def _assert_contract(argv, max_volume_lines=0):
    """Run ``main(argv)`` and check its exit code and output streams."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # Outside pytest, package log records reach stderr through logging's
    # last-resort handler; count them as stderr lines here too.
    log_handler = logging.StreamHandler(stderr)
    logging.getLogger("gmmaug").addHandler(log_handler)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    finally:
        logging.getLogger("gmmaug").removeHandler(log_handler)
    assert code in (0, 2, 3), argv
    assert stdout.getvalue() == "", argv
    lines = stderr.getvalue().splitlines()
    # a fit or augment run's "unconverged" line is its one diagnostic line
    per_volume = ("skipping ", "unconverged ") if max_volume_lines else ("skipping ",)
    volume_lines = [line for line in lines if line.startswith(per_volume)]
    assert len(lines) - len(volume_lines) <= 1, (argv, lines)
    assert len(volume_lines) <= max_volume_lines, (argv, lines)
    assert not caught, (argv, [str(w.message) for w in caught])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=commands, mutation=mutations)
# a clip window wider than float64 holds
@example(command=("fit", {"--mask": True}), mutation=("float64", -1.7e308, 1.7e308, 0.0))
# scl_slope overflows float64 on read
@example(command=("hist", {}), mutation=("float64", 0.0, 1e300, 1e10))
# the float32 body read as int8 or uint16 integers (datatype 256, 512)
@example(command=("stats", {}), mutation=(70, "<h", 256))
@example(command=("augment", {"--seed": 0, "--hard-assign": True}), mutation=(70, "<h", 256))
@example(command=("fit", {"--mask": True}), mutation=(70, "<h", 512))
@example(command=("augment", {"--seed": 0, "--n": 2}), mutation=(70, "<h", 512))
# a non-positive dim[2], and a vox_offset inside the header
@example(command=("fit", {"--mask": True}), mutation=(44, "<h", 0))
@example(command=("stats", {}), mutation=(44, "<h", -3))
@example(command=("hist", {}), mutation=(108, "<f", 0.0))
@example(command=("metrics", {}), mutation=(108, "<f", 347.0))
def test_cli_exit_codes_and_streams(inputs, command, mutation):
    name, options = command
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        argv = _argv(name, options, inputs, Path(work), mutation)
        _assert_contract(argv, CORPUS_SIZE if name == "stats" else 0)


def _field_paths(doc, prefix=()):
    """Key paths to every value in a JSON document, nested ones included."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


# Small ints keep any phantom grid small; huge ones pass every int64 and
# float bound. JSON has no inf or NaN, but Python's json module reads
# and writes them, and reads a literal such as 1e999 as inf.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.integers(-3, 40),
    st.integers(2**63, 10**400), st.floats(allow_nan=True, allow_infinity=True),
)
json_values = st.one_of(
    json_scalars, st.lists(json_scalars, max_size=4),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)
documents = st.one_of(
    st.tuples(st.just("augment"), st.sampled_from(list(_field_paths(STATS))), json_values,
              st.fixed_dictionaries(AUGMENT_FLAGS)),
    st.tuples(st.just("phantom"), st.sampled_from(list(_field_paths(SPEC))), json_values,
              st.just({})),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=documents)
# an unclipped draw beyond the float32 range of the written file
@example(document=("augment", ("components", 0, "mu_std"), 1e300, {"--no-clip": True}))
def test_cli_json_fields_of_any_type(inputs, document):
    name, path, value, flags = document
    doc = copy.deepcopy(STATS if name == "augment" else SPEC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        work = Path(work)
        (work / "doc.json").write_text(json.dumps(doc))
        if name == "augment":
            argv = [name, str(inputs / "volume.nii"), "--stats", str(work / "doc.json"),
                    "--seed", "0", "--out-prefix", str(work / "aug"), *_options(flags)]
        else:
            argv = [name, "--spec", str(work / "doc.json"), "--seed", "0",
                    "--out", str(work / "p.nii")]
        _assert_contract(argv)


# A whole stats file or phantom spec: any JSON value, text that is
# rarely JSON, or bytes that are rarely UTF-8.
whole_documents = st.one_of(
    json_values.map(lambda value: json.dumps(value).encode()),
    st.text(max_size=8).map(str.encode),
    st.binary(max_size=8),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["augment", "phantom"]), raw=whole_documents)
def test_cli_json_documents_of_any_kind(inputs, name, raw):
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        doc = Path(work) / "doc.json"
        doc.write_bytes(raw)
        if name == "augment":
            argv = [name, str(inputs / "volume.nii"), "--stats", str(doc),
                    "--seed", "0", "--out-prefix", str(Path(work) / "aug")]
        else:
            argv = [name, "--spec", str(doc), "--seed", "0", "--out", str(Path(work) / "p.nii")]
        _assert_contract(argv)
