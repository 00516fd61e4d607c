import inspect
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gmmaug.augment
import gmmaug.cli
import gmmaug.gmm
import gmmaug.preprocess
from gmmaug import (
    EmConfig,
    InvalidStatsError,
    PhantomSpec,
    PopulationStats,
    Volume,
    clip_normalize,
    estimate_population,
    fit_em,
    foreground_mask,
    generate_phantom,
    load_stats,
    provenance_dict,
    read_volume,
    write_volume,
)
from gmmaug.cli import main
from gmmaug.volume import _BLOCK

from conftest import build_nifti_bytes


@pytest.fixture()
def phantom_spec_file(tmp_path):
    """A 40^3 phantom spec: about 26 k foreground voxels keeps full fits quick."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dims": [40, 40, 40]}))
    return path


@pytest.fixture()
def phantom_file(tmp_path, phantom_spec_file):
    path = tmp_path / "phantom.nii"
    assert main(["phantom", "--spec", str(phantom_spec_file), "--seed", "20",
                 "--out", str(path)]) == 0
    return path


def write_stats(path, mu_std, var_std):
    stats = {
        "k": 3,
        "components": [
            {"mu_mean": mu, "mu_std": s_mu, "var_mean": var, "var_std": s_var}
            for mu, s_mu, var, s_var in zip((0.1, 0.2, 0.3), mu_std, (2e-3, 1e-3, 1e-3), var_std)
        ],
        "n_images": 2,
        "preprocessing": {"clip_lo_pct": 1.0, "clip_hi_pct": 99.0, "normalize": "minmax01"},
    }
    path.write_text(json.dumps(stats))
    return path


def run_cli(*argv, **env):
    """Run the CLI in a child process, whose stderr no pytest capture intercepts.

    Outside pytest, log records reach stderr through logging's last-resort
    handler, as they do for a user.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(gmmaug.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "gmmaug.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)


def unconverged_line(path, fit):
    return (f"unconverged {path}: EM stopped at max_iter after 2 E-steps, "
            f"final_rel_change {fit['final_rel_change']:.3g}")


@pytest.fixture()
def fits(monkeypatch):
    """One entry per fit made through the shared volume-fit path, sorted or counted."""
    calls = []

    def counting(real_fit):
        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)
        return counting_fit

    for name in ("_fit_sorted", "_fit_counted"):
        monkeypatch.setattr(gmmaug.preprocess, name, counting(getattr(gmmaug.preprocess, name)))
    return calls


@pytest.fixture()
def zero_stats_file(tmp_path):
    return write_stats(tmp_path / "zero_stats.json", (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.fixture()
def spread_stats_file(tmp_path):
    return write_stats(tmp_path / "spread_stats.json", (0.03, 0.06, 0.08), (1e-3, 1e-3, 3e-3))


class TestFit:
    def test_phantom_fit_ascending_means(self, tmp_path, phantom_file, capsys):
        out = tmp_path / "params.json"
        assert main(["fit", str(phantom_file), "--out", str(out)]) == 0
        params = json.loads(out.read_text())
        assert params["k"] == 3
        assert np.all(np.diff(params["means"]) > 0)
        assert capsys.readouterr().out == ""  # stdout stays machine-only

    def test_k1_closed_form(self, tmp_path, phantom_file):
        out = tmp_path / "params.json"
        assert main(["fit", str(phantom_file), "--k", "1", "--out", str(out)]) == 0
        params = json.loads(out.read_text())
        vol = read_volume(phantom_file)
        mask = foreground_mask(vol)
        normalized = clip_normalize(vol, mask)
        assert params["means"][0] == pytest.approx(np.mean(normalized.data[mask]), rel=1e-12)
        assert params["variances"][0] == pytest.approx(np.var(normalized.data[mask]), rel=1e-12)

    def test_explicit_mask_option(self, tmp_path, phantom_spec_file, phantom_file):
        labels = tmp_path / "labels.nii"
        assert main(["phantom", "--spec", str(phantom_spec_file), "--seed", "20",
                     "--out", str(tmp_path / "p2.nii"), "--out-labels", str(labels)]) == 0
        out = tmp_path / "params.json"
        assert main(["fit", str(phantom_file), "--mask", str(labels), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == 3

    def test_missing_file_exit_2_ioerror_text(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "absent.nii"), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "IoError" in capsys.readouterr().err

    def test_not_nifti_exit_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.nii"
        junk.write_bytes(b"x" * 400)
        code = main(["fit", str(junk), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "NotNifti" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
    def test_non_finite_vox_offset_exit_2(self, tmp_path, capsys, offset):
        raw = bytearray(build_nifti_bytes((2, 2, 2), struct.pack("<8f", *range(8)), 16))
        struct.pack_into("<f", raw, 108, float(offset))  # after padding to 352
        path = tmp_path / "bad_offset.nii"
        path.write_bytes(bytes(raw))
        assert main(["fit", str(path), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CorruptFile" in err

    def test_non_positive_dim_exit_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "flat.nii"
        path.write_bytes(build_nifti_bytes((2, 0, 2), b"", 16))
        assert main(["fit", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            f"CorruptFileError: {path}: non-positive dim entries (2, 0, 2)\n")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, tmp_path, phantom_file, capsys, tol):
        out = tmp_path / "params.json"
        assert main(["fit", str(phantom_file), "--tol", tol, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "InputError" in err and "tol" in err
        assert not out.exists()

    def test_convergence_state_in_fit_json(self, tmp_path, phantom_file):
        cut, done = tmp_path / "cut.json", tmp_path / "done.json"
        assert main(["fit", str(phantom_file), "--max-iter", "2", "--out", str(cut)]) == 0
        assert main(["fit", str(phantom_file), "--out", str(done)]) == 0
        cut, done = json.loads(cut.read_text()), json.loads(done.read_text())
        assert cut["converged"] is False and cut["iterations"] == 2
        assert cut["final_rel_change"] >= 1e-6
        assert done["converged"] is True and done["final_rel_change"] < 1e-6

    def test_unconverged_fit_warns_and_succeeds(self, tmp_path, phantom_file, caplog):
        cut, done = tmp_path / "cut.json", tmp_path / "done.json"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["fit", str(phantom_file), "--max-iter", "2", "--out", str(cut)]) == 0
        fit = json.loads(cut.read_text())
        assert [record.getMessage() for record in caplog.records] == [
            unconverged_line(phantom_file, fit)]
        caplog.clear()
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["fit", str(phantom_file), "--out", str(done)]) == 0
        assert caplog.records == []

    def test_unconverged_line_reaches_stderr(self, tmp_path, phantom_file):
        cut = tmp_path / "cut.json"
        run = run_cli("fit", phantom_file, "--max-iter", "2", "--out", cut)
        assert run.returncode == 0 and run.stdout == ""
        assert run.stderr == unconverged_line(phantom_file, json.loads(cut.read_text())) + "\n"

    def test_constant_volume_exit_3(self, tmp_path, capsys):
        path = tmp_path / "const.nii"
        write_volume(Volume((8, 8, 8), (1, 1, 1), np.full(512, 0.7)), path)
        code = main(["fit", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 3
        assert "DegenerateIntensity" in capsys.readouterr().err

    def test_window_wider_than_float64_exit_3(self, tmp_path, capsys):
        # values uniform on +-1.7e308 under an all-ones mask: the clip
        # window's width overflows float64
        body = (1.7e308 * np.random.Generator(np.random.Philox(0)).uniform(-1.0, 1.0, 4000))
        path, ones, out = tmp_path / "wide.nii", tmp_path / "ones.nii", tmp_path / "o.json"
        path.write_bytes(build_nifti_bytes((20, 20, 10), body.astype("<f8").tobytes(), 64))
        write_volume(Volume((20, 20, 10), (1, 1, 1), np.ones(4000)), ones)
        assert main(["fit", str(path), "--mask", str(ones), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("DegenerateIntensityError: percentiles 1.0 and 99.0 span (")
        assert not out.exists()

    def test_collapse_at_the_iteration_cap_exit_3(self, tmp_path, capsys):
        # normalised to 30 zeros and 30 ones: a third component's mass
        # collapses on the third E-step, the last one --max-iter 3 allows
        path, out = tmp_path / "two.nii", tmp_path / "o.json"
        write_volume(Volume((3, 4, 5), (1, 1, 1), np.repeat([1.0, 2.0], 30)), path)
        assert main(["fit", str(path), "--max-iter", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("DegenerateComponentError: component 1 ")
        assert not out.exists()

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit"])  # missing required arguments
        assert excinfo.value.code == 2


class TestStats:
    def test_duplicate_corpus_zero_spread(self, tmp_path, phantom_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(phantom_file, corpus / "a.nii")
        shutil.copy(phantom_file, corpus / "b.nii")
        out = tmp_path / "stats.json"
        assert main(["stats", str(corpus), "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["n_images"] == 2
        for comp in stats["components"]:
            assert comp["mu_std"] == 0.0
            assert comp["var_std"] == 0.0

    def test_input_that_is_not_a_directory_exit_2(self, tmp_path, phantom_file, capsys):
        out = tmp_path / "s.json"
        assert main(["stats", str(phantom_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"InputError: {phantom_file} is not a directory\n"
        assert not out.exists()

    def test_empty_dir_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        assert main(["stats", str(corpus), "--out", str(tmp_path / "s.json")]) == 2
        assert "InsufficientData" in capsys.readouterr().err

    def test_unreadable_volume_skipped(self, tmp_path, phantom_file, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(phantom_file, corpus / "a.nii")
        shutil.copy(phantom_file, corpus / "b.nii")
        (corpus / "c.nii").write_bytes(b"junk" * 100)
        out = tmp_path / "stats.json"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["stats", str(corpus), "--out", str(out)]) == 0
        assert "skipping" in caplog.text
        assert json.loads(out.read_text())["n_images"] == 2

    def test_unconverged_fits_logged_per_volume(self, tmp_path, phantom_file, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.nii", "b.nii"):
            shutil.copy(phantom_file, corpus / name)
        out = tmp_path / "stats.json"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["stats", str(corpus), "--max-iter", "2", "--out", str(out)]) == 0
        line = r"unconverged (.+): EM stopped at max_iter after 2 E-steps, final_rel_change \S+"
        named = [re.fullmatch(line, record.getMessage()) for record in caplog.records]
        assert [match and match[1] for match in named] == [str(corpus / "a.nii"),
                                                           str(corpus / "b.nii")]
        assert json.loads(out.read_text())["n_images"] == 2
        caplog.clear()
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["stats", str(corpus), "--out", str(out)]) == 0
        assert caplog.records == []

    def test_unopenable_entry_skipped(self, tmp_path, phantom_file, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.nii", "b.nii", "c.nii"):
            shutil.copy(phantom_file, corpus / name)
        (corpus / "d.nii").mkdir()  # matches the glob, cannot be opened as a file
        out = tmp_path / "stats.json"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["stats", str(corpus), "--out", str(out)]) == 0
        [record] = caplog.records
        assert record.getMessage().startswith(f"skipping {corpus / 'd.nii'}: ")
        assert json.loads(out.read_text())["n_images"] == 3

    def test_skip_lines_name_the_file(self, tmp_path, capsys, caplog):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.nii").write_bytes(b"junk" * 100)  # unreadable
        write_volume(Volume((8, 8, 8), (1, 1, 1), np.full(512, 0.5)), corpus / "b.nii")
        for name, seed in (("c.nii", 1), ("d.nii", 2)):
            vol, _ = generate_phantom(PhantomSpec(dims=(20, 20, 20), seed=seed))
            write_volume(vol, corpus / name)
        out = tmp_path / "stats.json"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main(["stats", str(corpus), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        unreadable, constant = (record.getMessage() for record in caplog.records)
        assert unreadable.startswith(f"skipping {corpus / 'a.nii'}: NotNiftiError: ")
        assert constant.startswith(f"skipping {corpus / 'b.nii'}: DegenerateIntensityError: ")
        assert json.loads(out.read_text())["n_images"] == 2

    def test_skip_lines_name_the_path_once(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.nii").write_bytes(b"junk" * 100)  # unreadable
        write_volume(Volume((8, 8, 8), (1, 1, 1), np.full(512, 0.5)), corpus / "b.nii")
        (corpus / "c.nii").mkdir()  # cannot be opened as a file
        for name, seed in (("d.nii", 1), ("e.nii", 2)):
            vol, _ = generate_phantom(PhantomSpec(dims=(20, 20, 20), seed=seed))
            write_volume(vol, corpus / name)
        run = run_cli("stats", corpus, "--out", tmp_path / "stats.json")
        assert run.returncode == 0 and run.stdout == ""
        assert run.stderr.splitlines() == [
            f"skipping {corpus / 'a.nii'}: NotNiftiError: sizeof_hdr is not 348 in either byte order",
            f"skipping {corpus / 'b.nii'}: DegenerateIntensityError: "
            "percentiles 1.0 and 99.0 coincide at 0.5",
            f"skipping {corpus / 'c.nii'}: IsADirectoryError: Is a directory",
        ]

    def test_error_counts_unreadable_files(self, tmp_path, phantom_file, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.nii", "b.nii", "c.nii"):
            (corpus / name).write_bytes(b"junk" * 100)
        shutil.copy(phantom_file, corpus / "d.nii")
        assert main(["stats", str(corpus), "--out", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err == (
            "InsufficientDataError: only 1 volumes fitted successfully (3 skipped)\n")

    @pytest.mark.parametrize("option", [["--k", "0"], ["--clip-lo", "50", "--clip-hi", "10"]])
    def test_bad_k_or_window_reported_once(self, tmp_path, phantom_file, capsys, option):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.nii", "b.nii"):
            shutil.copy(phantom_file, corpus / name)
        code = main(["stats", str(corpus), "--out", str(tmp_path / "s.json"), *option])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("InputError")

    def test_jittered_corpus_recovers_spread(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.Generator(np.random.Philox(55))
        offsets = rng.normal(0.0, 0.03, size=(10, 3))
        for i, off in enumerate(offsets):
            spec = PhantomSpec(
                dims=(20, 20, 20),
                means=tuple(np.array((0.12, 0.5, 0.88)) + off),
                variances=(4.9e-3, 1.6e-3, 4.9e-3),
                seed=300 + i,
            )
            write_volume(generate_phantom(spec)[0], corpus / f"img{i:02d}.nii")
        out = tmp_path / "stats.json"
        assert main([
            "stats", str(corpus), "--out", str(out),
            "--clip-lo", "0", "--clip-hi", "100",
        ]) == 0
        stats = json.loads(out.read_text())
        injected = offsets.std(axis=0, ddof=1)
        for comp, target in zip(stats["components"], injected):
            assert 0.5 * target < comp["mu_std"] < 1.5 * target

    def test_ingestion_order_is_lexicographic(self, tmp_path):
        # same corpus written under shuffled names gives identical stats
        specs = [PhantomSpec(dims=(16, 16, 16), seed=s) for s in (1, 2, 3)]
        vols = [generate_phantom(s)[0] for s in specs]
        out_a = tmp_path / "a_stats.json"
        out_b = tmp_path / "b_stats.json"
        dir_a = tmp_path / "da"
        dir_b = tmp_path / "db"
        dir_a.mkdir(), dir_b.mkdir()
        for i, vol in enumerate(vols):
            write_volume(vol, dir_a / f"v{i}.nii")
        for i, vol in enumerate(reversed(vols)):  # reversed creation order
            write_volume(vol, dir_b / f"v{2 - i}.nii")
        assert main(["stats", str(dir_a), "--out", str(out_a)]) == 0
        assert main(["stats", str(dir_b), "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()


class TestAugment:
    def test_zero_stats_reproduces_normalized_input(self, tmp_path, phantom_file, zero_stats_file):
        prefix = tmp_path / "aug"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "5", "--out-prefix", str(prefix)]) == 0
        out = read_volume(f"{prefix}_0.nii")
        vol = read_volume(phantom_file)
        mask = foreground_mask(vol)
        expected = clip_normalize(vol, mask)
        assert np.max(np.abs(out.data - expected.data)) <= 1e-6  # float32 write
        sidecar = json.loads((tmp_path / "aug_0.json").read_text())
        assert sidecar["seed"] == 5
        assert sidecar["perturbation"]["q_mu"] == [0.0, 0.0, 0.0]
        assert sidecar["clamped_variances"] == []
        assert sidecar["fit"]["k"] == 3

    def test_byte_reproducible(self, tmp_path, phantom_file, zero_stats_file):
        pa = tmp_path / "ra"
        pb = tmp_path / "rb"
        for prefix in (pa, pb):
            assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                         "--seed", "9", "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / "ra_0.nii").read_bytes() == (tmp_path / "rb_0.nii").read_bytes()
        assert (tmp_path / "ra_0.json").read_text() == (tmp_path / "rb_0.json").read_text()

    def test_n_draws_use_consecutive_seeds(self, tmp_path, phantom_file, zero_stats_file):
        prefix = tmp_path / "multi"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "100", "--n", "3", "--out-prefix", str(prefix)]) == 0
        for i in range(3):
            assert (tmp_path / f"multi_{i}.nii").exists()
            sidecar = json.loads((tmp_path / f"multi_{i}.json").read_text())
            assert sidecar["seed"] == 100 + i

    def test_seed_required(self, tmp_path, phantom_file, zero_stats_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                  "--out-prefix", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_overflowing_stats_field_exit_2(self, tmp_path, phantom_file, zero_stats_file,
                                            capsys):
        raw = zero_stats_file.read_text()
        assert raw.count('"n_images": 2') == 1
        zero_stats_file.write_text(raw.replace('"n_images": 2', '"n_images": 1e999'))
        prefix = tmp_path / "aug"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "0", "--out-prefix", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("InvalidStatsError")
        assert not Path(f"{prefix}_0.nii").exists()

    @pytest.mark.parametrize("path, value", [
        (("k",), 3.7),
        (("n_images",), "5"),
        (("n_images",), 2.0),
        (("components", 0, "mu_std"), "0.02"),
        (("components", 1, "mu_mean"), "0.2"),
        (("components", 2, "var_std"), True),
        (("preprocessing", "clip_lo_pct"), "1"),
        (("preprocessing", "clip_hi_pct"), True),
    ], ids=["k-float", "n_images-string", "n_images-float", "mu_std-string",
            "mu_mean-string", "var_std-bool", "clip_lo-string", "clip_hi-bool"])
    def test_stats_value_that_only_looks_like_a_number_exit_2(
        self, tmp_path, phantom_file, zero_stats_file, capsys, path, value
    ):
        doc = json.loads(zero_stats_file.read_text())
        *parents, leaf = path
        target = doc
        for key in parents:
            target = target[key]
        target[leaf] = value
        with pytest.raises(InvalidStatsError):
            PopulationStats.from_json_dict(doc)
        zero_stats_file.write_text(json.dumps(doc))
        prefix = tmp_path / "aug"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "0", "--out-prefix", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("InvalidStatsError")
        assert not Path(f"{prefix}_0.nii").exists()

    def test_stats_without_components_exit_2(self, tmp_path, phantom_file, zero_stats_file,
                                             capsys):
        doc = json.loads(zero_stats_file.read_text())
        doc.update(k=0, components=[])
        zero_stats_file.write_text(json.dumps(doc))
        prefix = tmp_path / "aug"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "0", "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err == (f"InvalidStatsError: {zero_stats_file}: "
                                           "k must be >= 1, got 0\n")
        assert not Path(f"{prefix}_0.nii").exists()

    def test_stats_with_an_empty_clip_window_exit_2(self, tmp_path, phantom_file,
                                                     zero_stats_file, capsys):
        doc = json.loads(zero_stats_file.read_text())
        doc["preprocessing"].update(clip_lo_pct=50.0, clip_hi_pct=10.0)
        zero_stats_file.write_text(json.dumps(doc))
        prefix = tmp_path / "aug"
        assert main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--seed", "0", "--out-prefix", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err == (f"InvalidStatsError: {zero_stats_file}: "
                       "need 0 <= lo_pct < hi_pct <= 100, got (50.0, 10.0)\n")
        assert not Path(f"{prefix}_0.nii").exists()

    @pytest.mark.parametrize("flags", [[], ["--hard-assign"]])
    def test_batch_fits_once_and_replays_single_seed_runs(
        self, tmp_path, phantom_file, spread_stats_file, fits, flags
    ):
        common = ["augment", str(phantom_file), "--stats", str(spread_stats_file), *flags]
        assert main([*common, "--seed", "40", "--n", "3",
                     "--out-prefix", str(tmp_path / "batch")]) == 0
        assert len(fits) == 1
        for i in range(3):
            single = tmp_path / f"single{i}"
            assert main([*common, "--seed", str(40 + i), "--out-prefix", str(single)]) == 0
            for ext in ("nii", "json"):
                batch_bytes = (tmp_path / f"batch_{i}.{ext}").read_bytes()
                assert batch_bytes == (tmp_path / f"single{i}_0.{ext}").read_bytes()

    @pytest.mark.parametrize("integers, flags", [
        (False, []), (False, ["--hard-assign"]), (True, []),
    ], ids=["soft", "hard", "int16"])
    def test_draw_into_writes_the_augment_draw_of_its_seed(
        self, tmp_path, phantom_file, spread_stats_file, integers, flags
    ):
        # draw i of `augment --seed s0` is the kernel's draw of seed s0 + i, in
        # whatever order the seeds are drawn: the body and the sidecar
        if integers:  # as stored by a scanner: int16 intensities
            vol = read_volume(phantom_file)
            body = np.rint(vol.data * 700.0).astype("<i2").tobytes()
            phantom_file = tmp_path / "int16.nii"
            phantom_file.write_bytes(build_nifti_bytes(vol.dims, body, 4))
        assert main(["augment", str(phantom_file), "--stats", str(spread_stats_file), *flags,
                     "--seed", "40", "--n", "3", "--out-prefix", str(tmp_path / "a")]) == 0
        coded = gmmaug.augment._Coded(phantom_file, load_stats(spread_stats_file),
                                      hard_assign=bool(flags))
        body = np.zeros(coded.mask.size, dtype="<f4")
        for seed in (42, 40, 41):
            pert, perturbed, fits = coded.draw_into(body, seed)
            written = (tmp_path / f"a_{seed - 40}.nii").read_bytes()
            assert fits and written[-body.nbytes:] == body.tobytes()
            sidecar = json.loads((tmp_path / f"a_{seed - 40}.json").read_text())
            assert sidecar == provenance_dict(pert, perturbed)

    @pytest.mark.parametrize("integers, flags", [
        (False, []), (False, ["--hard-assign"]), (True, ["--hard-assign"]),
    ], ids=["flags0", "flags1", "integers-hard"])
    def test_draws_share_one_foreground_posterior(
        self, tmp_path, phantom_file, spread_stats_file, monkeypatch, integers, flags
    ):
        if integers:  # as stored by a scanner: integer intensities
            vol = read_volume(phantom_file)
            phantom_file = tmp_path / "integers.nii"
            write_volume(Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0)), phantom_file)
        widths = []
        real = gmmaug.gmm._component_log_prob

        def spy(weights, means, variances, values):
            widths.append(values.size)
            return real(weights, means, variances, values)

        monkeypatch.setattr(gmmaug.gmm, "_component_log_prob", spy)
        assert main(["augment", str(phantom_file), "--stats", str(spread_stats_file), *flags,
                     "--seed", "40", "--n", "3", "--out-prefix", str(tmp_path / "a")]) == 0
        foreground = int(foreground_mask(read_volume(phantom_file)).sum())
        assert foreground > gmmaug.gmm._MAX_COLUMNS  # wider than any fit column set
        if flags and not integers:  # hard assignment labels each voxel once, for every draw
            assert widths.count(foreground) == 1
        else:  # draws evaluate the posterior on their knots only
            assert widths and widths.count(foreground) == 0

    def test_unconverged_fit_warns_once_and_succeeds(
        self, tmp_path, phantom_file, spread_stats_file, caplog
    ):
        common = ["augment", str(phantom_file), "--stats", str(spread_stats_file),
                  "--seed", "40", "--n", "2"]
        cut = tmp_path / "cut"
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main([*common, "--max-iter", "2", "--out-prefix", str(cut)]) == 0
        fit = json.loads((tmp_path / "cut_1.json").read_text())["fit"]
        assert [record.getMessage() for record in caplog.records] == [
            unconverged_line(phantom_file, fit)]
        caplog.clear()
        with caplog.at_level("WARNING", logger="gmmaug.population"):
            assert main([*common, "--out-prefix", str(tmp_path / "done")]) == 0
        assert caplog.records == []

    def test_unconverged_line_reaches_stderr(self, tmp_path, phantom_file, spread_stats_file):
        run = run_cli("augment", phantom_file, "--stats", spread_stats_file, "--seed", "40",
                      "--n", "2", "--max-iter", "2", "--out-prefix", tmp_path / "cut")
        assert run.returncode == 0 and run.stdout == ""
        fit = json.loads((tmp_path / "cut_1.json").read_text())["fit"]
        assert run.stderr == unconverged_line(phantom_file, fit) + "\n"

    def test_draw_beyond_float32_exit_2_without_a_file(self, tmp_path, capsys):
        # spreads of 1e300 and no clip: the draw overflows float32
        phantom, prefix = tmp_path / "p.nii", tmp_path / "a"
        write_volume(generate_phantom(PhantomSpec(seed=1))[0], phantom)
        stats = write_stats(tmp_path / "huge.json", (1e300,) * 3, (1e-4,) * 3)
        assert main(["augment", str(phantom), "--stats", str(stats), "--seed", "0", "--no-clip",
                     "--out-prefix", str(prefix)]) == 2
        assert capsys.readouterr().err == (f"InputError: {prefix}_0.nii: values beyond the "
                                           "float32 range (about 3.4e38) cannot be written\n")
        assert not list(tmp_path.glob("a_*"))

    @pytest.mark.parametrize("last, first, error", [
        (np.nan, None, "volume data contains NaN or Inf"),
        (np.inf, None, "volume data contains NaN or Inf"),
        (1e300, None, "{path}: values beyond the float32 range (about 3.4e38) cannot be written"),
        # a draw that holds both: the NaN line wins, as when draws were scanned before a write
        (np.nan, 1e300, "volume data contains NaN or Inf"),
    ])
    def test_fault_in_the_last_block_exit_2_without_a_file(
        self, tmp_path, spread_stats_file, capsys, monkeypatch, last, first, error
    ):
        # integer intensities: the one voxel holding the minimum opens the
        # first block of the grid, and the one holding the maximum closes
        # the third
        dims = (64, 64, 33)
        n = dims[0] * dims[1] * dims[2]
        assert 2 * _BLOCK < n <= 3 * _BLOCK
        values = np.random.default_rng(0).integers(100, 800, n).astype(np.float64)
        values[0], values[-1] = 50.0, 900.0
        phantom, prefix = tmp_path / "p.nii", tmp_path / "a"
        write_volume(Volume(dims, (1, 1, 1), values), phantom)
        remapped = gmmaug.augment._remapped

        def poisoned(knots, pert, hard_assign=False):
            a = remapped(knots, pert, hard_assign)
            a[-1] = last
            if first is not None:
                a[0] = first
            return a

        monkeypatch.setattr(gmmaug.augment, "_remapped", poisoned)
        assert main(["augment", str(phantom), "--stats", str(spread_stats_file), "--seed", "0",
                     "--n", "2", "--no-clip", "--out-prefix", str(prefix)]) == 2
        line = error.format(path=f"{prefix}_0.nii")
        assert capsys.readouterr().err == f"InputError: {line}\n"
        assert not list(tmp_path.glob("a_*"))

    def test_holds_one_draw_at_a_time(self, tmp_path, spread_stats_file, monkeypatch):
        spec = tmp_path / "spec48.json"
        spec.write_text(json.dumps({"dims": [48, 48, 48]}))
        phantom = tmp_path / "p48.nii"
        assert main(["phantom", "--spec", str(spec), "--seed", "20", "--out", str(phantom)]) == 0
        vol = read_volume(phantom)
        n_voxels, foreground = vol.n_voxels, int(foreground_mask(vol).sum())
        volume_bytes, code_bytes = vol.data.nbytes, 9 * foreground
        del vol
        common = ["augment", str(phantom), "--stats", str(spread_stats_file), "--seed", "40",
                  "--out-prefix", str(tmp_path / "a")]
        assert main([*common, "--n", "1"]) == 0  # lazy imports happen here
        peaks, draw_into = [], gmmaug.augment._Coded.draw_into

        def traced(coded, out, seed):
            peaks.append(tracemalloc.get_traced_memory()[1])  # of all before this draw
            tracemalloc.reset_peak()
            return draw_into(coded, out, seed)

        monkeypatch.setattr(gmmaug.augment._Coded, "draw_into", traced)
        tracemalloc.start()
        try:
            assert main([*common, "--n", "3"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        coding, draws = peaks[0], peaks[1:]
        assert len(draws) == 3
        # reading, fitting and coding: the per-voxel codes (at most 9 bytes
        # a foreground voxel) and foreground-sized temporaries
        assert coding <= code_bytes + 3 * volume_bytes
        # each draw and its files: the codes, the mask, the kernel's three
        # block buffers and the one float32 body; a float64 output volume,
        # or keeping the source, the normalized volume or the previous draw
        # alive, exceeds it
        buffers = 24 * min(_BLOCK, foreground)
        assert max(draws) <= code_bytes + n_voxels + buffers + volume_bytes // 2 + 512 * 1024

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, phantom_file, spread_stats_file):
        for threads in ("1", "2"):
            assert run_cli("augment", phantom_file, "--stats", spread_stats_file, "--seed", "3",
                           "--n", "2", "--out-prefix", tmp_path / f"t{threads}",
                           OPENBLAS_NUM_THREADS=threads).returncode == 0
        for i in range(2):
            for ext in ("nii", "json"):
                one = (tmp_path / f"t1_{i}.{ext}").read_bytes()
                assert one == (tmp_path / f"t2_{i}.{ext}").read_bytes()

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "-3"), ("--seed", "-1")])
    def test_bad_count_or_seed_exit_2(
        self, tmp_path, phantom_file, zero_stats_file, capsys, flag, value
    ):
        args = {"--seed": "5", "--n": "1", flag: value}
        code = main(["augment", str(phantom_file), "--stats", str(zero_stats_file),
                     "--out-prefix", str(tmp_path / "bad"),
                     *(tok for pair in args.items() for tok in pair)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not list(tmp_path.glob("bad_*"))


@pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"k": 3', b"[" * 100_000, b'["dims"]', b"[[1]]",
                                 b"5", b'"spec"', b"null"],
                         ids=["not-utf8", "invalid", "deeply-nested", "list", "nested-list",
                              "number", "string", "null"])
@pytest.mark.parametrize("command", ["augment", "phantom"])
def test_json_file_that_is_not_an_object_exit_2(tmp_path, phantom_file, capsys, command, raw):
    doc = tmp_path / "doc.json"
    doc.write_bytes(raw)
    out = tmp_path / "out"
    if command == "augment":
        argv = ["augment", str(phantom_file), "--stats", str(doc), "--seed", "0",
                "--out-prefix", str(out)]
    else:
        argv = ["phantom", "--spec", str(doc), "--seed", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    error = "InvalidStatsError" if command == "augment" else "InvalidSpecError"
    assert err.count("\n") == 1 and err.startswith(f"{error}: {doc}: ")
    assert list(tmp_path.glob("out*")) == []


class TestOneFitPath:
    """fit, stats and augment fit a volume through the same procedure."""

    def test_fit_json_is_augment_fit_and_population_mean(
        self, tmp_path, phantom_file, spread_stats_file
    ):
        fit_out = tmp_path / "fit.json"
        assert main(["fit", str(phantom_file), "--out", str(fit_out)]) == 0
        fit = json.loads(fit_out.read_text())
        assert main(["augment", str(phantom_file), "--stats", str(spread_stats_file),
                     "--seed", "3", "--n", "2", "--out-prefix", str(tmp_path / "aug")]) == 0
        for i in range(2):
            assert json.loads((tmp_path / f"aug_{i}.json").read_text())["fit"] == fit
        vol = read_volume(phantom_file)
        assert estimate_population([vol, vol]).mu_mean.tolist() == fit["means"]

    def test_stats_fits_each_volume_once(self, tmp_path, phantom_file, fits):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.nii", "b.nii", "c.nii"):
            shutil.copy(phantom_file, corpus / name)
        assert main(["stats", str(corpus), "--out", str(tmp_path / "stats.json")]) == 0
        assert len(fits) == 3


class TestWorkflow:
    def test_stats_then_augment_chain(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.Generator(np.random.Philox(66))
        for i in range(4):
            spec = PhantomSpec(
                dims=(20, 20, 20),
                means=tuple(np.array((0.15, 0.45, 0.8)) + rng.normal(0, 0.02, 3)),
                variances=(1e-3, 1e-3, 1e-3),
                seed=400 + i,
            )
            write_volume(generate_phantom(spec)[0], corpus / f"s{i}.nii")
        stats_path = tmp_path / "stats.json"
        assert main(["stats", str(corpus), "--out", str(stats_path)]) == 0

        subject = tmp_path / "subject.nii"
        assert main(["phantom", "--seed", "30", "--out", str(subject)]) == 0
        prefix = tmp_path / "aug"
        assert main(["augment", str(subject), "--stats", str(stats_path),
                     "--seed", "12", "--n", "2", "--out-prefix", str(prefix)]) == 0
        stats = json.loads(stats_path.read_text())
        for i in range(2):
            out = read_volume(f"{prefix}_{i}.nii")
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
            sidecar = json.loads((tmp_path / f"aug_{i}.json").read_text())
            for comp, q in zip(stats["components"], sidecar["perturbation"]["q_mu"]):
                assert abs(q) <= comp["mu_std"]
            for comp, q in zip(stats["components"], sidecar["perturbation"]["q_var"]):
                assert abs(q) <= comp["var_std"]


class TestHist:
    def test_constant_image_single_bin(self, tmp_path):
        path = tmp_path / "c.nii"
        write_volume(Volume((6, 6, 6), (1, 1, 1), np.full(216, 0.5)), path)
        out = tmp_path / "h.csv"
        assert main(["hist", str(path), "--bins", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_center,count"
        centers = [float(line.split(",")[0]) for line in lines[1:]]  # plain numerals
        assert centers == pytest.approx([0.05 + 0.1 * i for i in range(10)], abs=1e-12)
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(1 for c in counts if c > 0) == 1
        assert sum(counts) == 216

    def test_single_bin_totals_masked_count(self, tmp_path, phantom_file):
        out = tmp_path / "h.csv"
        assert main(["hist", str(phantom_file), "--bins", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        vol = read_volume(phantom_file)
        assert int(lines[1].split(",")[1]) == int((vol.data > 0).sum())

    def test_three_peak_phantom(self, tmp_path):
        spec = PhantomSpec(means=(0.15, 0.5, 0.85), variances=(1e-3, 1e-3, 1e-3), seed=8)
        path = tmp_path / "p.nii"
        write_volume(generate_phantom(spec)[0], path)
        out = tmp_path / "h.csv"
        assert main(["hist", str(path), "--bins", "60", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        counts = np.array([int(r[1]) for r in rows], dtype=float)
        smoothed = np.convolve(counts, np.ones(5) / 5.0, mode="same")
        peaks = [
            i
            for i in range(1, len(smoothed) - 1)
            if smoothed[i] > smoothed[i - 1]
            and smoothed[i] >= smoothed[i + 1]
            and smoothed[i] > 0.05 * smoothed.max()
        ]
        assert len(peaks) == 3

    def test_values_outside_unit_range_exit_2(self, tmp_path, capsys):
        path = tmp_path / "raw.nii"
        data = np.zeros(216)
        data[:100] = np.linspace(50.0, 900.0, 100)  # a raw scan, not normalized
        data[100:108] = 0.5
        write_volume(Volume((6, 6, 6), (1, 1, 1), data), path)
        out = tmp_path / "h.csv"
        assert main(["hist", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("InputError: 100 of 108 masked voxels lie outside [0, 1]")
        assert not out.exists()

    def test_values_below_0_exit_2(self, tmp_path, capsys):
        path = tmp_path / "under.nii"
        data = np.zeros(216)
        data[:100] = np.linspace(-0.2, 0.8, 100)  # undershot, as an unclipped draw can be
        write_volume(Volume((6, 6, 6), (1, 1, 1), data), path)
        out = tmp_path / "h.csv"
        assert main(["hist", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        below = int(np.count_nonzero(data < 0.0))
        assert err.startswith(f"InputError: {below} of 100 masked voxels lie outside [0, 1]")
        assert not out.exists()

    def test_no_positive_voxel_exit_2_with_the_outside_line(self, tmp_path, capsys):
        path = tmp_path / "negative.nii"
        data = np.zeros(216)
        data[:100] = np.linspace(-0.9, -0.1, 100)
        write_volume(Volume((6, 6, 6), (1, 1, 1), data), path)
        out = tmp_path / "h.csv"
        assert main(["hist", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("InputError: 100 of 100 masked voxels lie outside "
                                           "[0, 1]; hist bins normalized intensities\n")
        assert not out.exists()

    def test_scaling_overflow_exit_2_with_one_line(self, tmp_path, capsys):
        path, out = tmp_path / "slope.nii", tmp_path / "h.csv"
        body = np.array([1e300, 0.5, 0.25, 0.125]).astype("<f8").tobytes()
        path.write_bytes(build_nifti_bytes((2, 2, 1), body, 64, scl_slope=1e10))
        assert main(["hist", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"CorruptFileError: {path}: non-finite voxel values after scaling\n")
        assert not out.exists()

    def test_bad_bins(self, tmp_path, phantom_file, capsys):
        assert main(["hist", str(phantom_file), "--bins", "0",
                     "--out", str(tmp_path / "h.csv")]) == 2

    @pytest.mark.parametrize("bins", [10**6 + 1, 10**15])
    def test_bins_above_cap_exit_2(self, tmp_path, phantom_file, capsys, bins):
        out = tmp_path / "h.csv"
        assert main(["hist", str(phantom_file), "--bins", str(bins), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--bins" in err
        assert not out.exists()


class TestMetrics:
    def test_identical_labels_all_ones(self, tmp_path):
        labels = tmp_path / "l.nii"
        assert main(["phantom", "--seed", "4", "--out", str(tmp_path / "p.nii"),
                     "--out-labels", str(labels)]) == 0
        out = tmp_path / "report.json"
        assert main(["metrics", str(labels), str(labels), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for entry in report["labels"].values():
            assert entry["dice"] == 1.0

    def test_csv_output(self, tmp_path):
        labels = tmp_path / "l.nii"
        assert main(["phantom", "--seed", "4", "--out", str(tmp_path / "p.nii"),
                     "--out-labels", str(labels)]) == 0
        out = tmp_path / "report.csv"
        assert main(["metrics", str(labels), str(labels), "--labels", "1,2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("label,")
        assert len(lines) == 3

    def test_relabel_after_identity_augmentation(self, tmp_path, zero_stats_file):
        from gmmaug import (
            GmmParams,
            LabelVolume,
            read_label_volume,
            responsibilities,
            write_label_volume,
        )

        spec = PhantomSpec(means=(0.1, 0.2, 0.3), variances=(1e-4, 1e-4, 1e-4), seed=21)
        vol, truth = generate_phantom(spec)
        vol_path = tmp_path / "p.nii"
        truth_path = tmp_path / "truth.nii"
        write_volume(vol, vol_path)
        write_label_volume(truth, truth_path)
        prefix = tmp_path / "aug"
        assert main(["augment", str(vol_path), "--stats", str(zero_stats_file),
                     "--seed", "1", "--out-prefix", str(prefix)]) == 0
        fit = GmmParams.from_json_dict(
            json.loads((tmp_path / "aug_0.json").read_text())["fit"]
        )
        augmented = read_volume(f"{prefix}_0.nii")
        mask = foreground_mask(vol)
        pred = np.zeros(vol.n_voxels, dtype=np.int32)
        pred[mask] = np.argmax(responsibilities(fit, augmented.data[mask]), axis=1) + 1
        pred_path = tmp_path / "pred.nii"
        write_label_volume(LabelVolume(vol.dims, vol.spacing, pred), pred_path)
        out = tmp_path / "report.json"
        assert main(["metrics", str(pred_path), str(truth_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for label in ("1", "2", "3"):
            assert report["labels"][label]["dice"] >= 0.99

    def test_non_integer_labels_option_exit_2(self, tmp_path, capsys):
        labels = tmp_path / "l.nii"
        write_volume(Volume((2, 2, 2), (1, 1, 1), np.arange(8) % 3), labels)
        out = tmp_path / "r.json"
        assert main(["metrics", str(labels), str(labels), "--labels", "a,b",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--labels" in err
        assert not out.exists()

    def test_shape_mismatch_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        write_volume(Volume((2, 2, 2), (1, 1, 1), np.ones(8)), a)
        write_volume(Volume((2, 2, 1), (1, 1, 1), np.ones(4)), b)
        assert main(["metrics", str(a), str(b), "--out", str(tmp_path / "r.json")]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err


class TestPhantomCmd:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.nii"
        b = tmp_path / "b.nii"
        assert main(["phantom", "--seed", "6", "--out", str(a)]) == 0
        assert main(["phantom", "--seed", "6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "p.nii"
        assert main(["phantom", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed" in err
        assert not out.exists()

    def test_dims_beyond_nifti_limit_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dims": [33000, 8, 8]}))
        out = tmp_path / "p.nii"
        assert main(["phantom", "--spec", str(spec_path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("InvalidSpecError") and "32767" in err
        assert not out.exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # dims within the NIfTI limit can still ask for more memory than
        # there is; a real allocation that large is unsafe to try
        def no_memory(spec):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(gmmaug.cli, "generate_phantom", no_memory)
        out = tmp_path / "p.nii"
        assert main(["phantom", "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "MemoryError: Unable to allocate 8.00 GiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ['{"dims": [8.5, 8, 8]}', '{"dims": [true, 8, 8]}',
                                      '{"spacing": [1, 1, "a"]}', '{"spacing": [1, 1, NaN]}'])
    def test_bad_geometry_exit_2(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec)
        out = tmp_path / "p.nii"
        assert main(["phantom", "--spec", str(spec_path), "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("InvalidSpecError")
        assert not out.exists()

    def test_spec_override(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "dims": [20, 20, 20],
            "means": [0.2, 0.5, 0.8],
            "variances": [1e-4, 1e-4, 1e-4],
        }))
        out = tmp_path / "p.nii"
        labels = tmp_path / "l.nii"
        assert main(["phantom", "--spec", str(spec_path), "--seed", "3",
                     "--out", str(out), "--out-labels", str(labels)]) == 0
        vol = read_volume(out)
        assert vol.dims == (20, 20, 20)
        fg = vol.data[vol.data > 0]
        assert abs(np.median(fg) - 0.5) < 0.31  # three tissues around 0.2/0.5/0.8

    def test_label_counts_match_geometry(self, tmp_path):
        from gmmaug import read_label_volume

        labels_path = tmp_path / "l.nii"
        assert main(["phantom", "--seed", "11", "--out", str(tmp_path / "p.nii"),
                     "--out-labels", str(labels_path)]) == 0
        labels = read_label_volume(labels_path)
        expected = np.bincount(generate_phantom(PhantomSpec(seed=11))[1].labels)
        assert np.array_equal(np.bincount(labels.labels), expected)


@pytest.mark.parametrize("argv", [["fit", "v.nii", "--out", "o.json"],
                                  ["stats", "corpus", "--out", "o.json"],
                                  ["augment", "v.nii", "--stats", "s.json", "--seed", "0",
                                   "--out-prefix", "a"]])
def test_parsed_defaults_are_the_library_defaults(argv):
    args = gmmaug.cli.build_parser().parse_args(argv)
    assert (args.tol, args.max_iter) == (EmConfig().tol, EmConfig().max_iter)
    window = gmmaug.preprocess._CLIP_PCT
    if argv[0] != "augment":  # augment takes its window and k from the stats file
        assert (args.clip_lo, args.clip_hi) == window
        for func in (fit_em, estimate_population):
            assert inspect.signature(func).parameters["k"].default == args.k == 3
    stats = PopulationStats(k=1, mu_mean=[0.5], mu_std=[0.0], var_mean=[0.01], var_std=[0.0],
                            n_images=2)
    assert (stats.clip_lo_pct, stats.clip_hi_pct) == window
    for func in (estimate_population, clip_normalize):
        params = inspect.signature(func).parameters
        assert (params["lo_pct"].default, params["hi_pct"].default) == window


class TestPrintConfig:
    def test_dumps_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "p.nii"
        assert main(["phantom", "--seed", "2", "--out", str(out), "--print-config"]) == 0
        stdout = capsys.readouterr().out
        config = json.loads(stdout)
        assert config["command"] == "phantom"
        assert config["seed"] == 2
        assert config["out"] == str(out)

    def test_calls_in_one_process_print_only_their_own_arguments(self, tmp_path, capsys):
        # one parser serves every call: no argument of a call leaks into the next
        phantom, fit = tmp_path / "p.nii", tmp_path / "fit.json"
        assert main(["phantom", "--seed", "2", "--out", str(phantom), "--print-config"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["fit", str(phantom), "--out", str(fit), "--k", "2", "--print-config"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == {"command": "phantom", "seed": 2, "out": str(phantom), "spec": None,
                         "out_labels": None}
        assert second == {"command": "fit", "input": str(phantom), "out": str(fit), "k": 2,
                          "mask": None, "clip_lo": 1.0, "clip_hi": 99.0, "tol": EmConfig.tol,
                          "max_iter": EmConfig.max_iter}
