import json
import logging
import re

import numpy as np
import pytest

from gmmaug import (
    EmConfig,
    InsufficientDataError,
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
    read_volume,
    save_stats,
    write_volume,
)
from gmmaug.preprocess import fit_volume

CFG = EmConfig()

# Magnitudes reported for a large multi-scanner T1w corpus; used as the
# canonical hand-written stats fixture.
REFERENCE_STATS = {
    "k": 3,
    "components": [
        {"mu_mean": 0.1, "mu_std": 0.03, "var_mean": 2e-3, "var_std": 1e-3},
        {"mu_mean": 0.2, "mu_std": 0.06, "var_mean": 1e-3, "var_std": 1e-3},
        {"mu_mean": 0.3, "mu_std": 0.08, "var_mean": 1e-3, "var_std": 3e-3},
    ],
    "n_images": 421,
    "preprocessing": {"clip_lo_pct": 1.0, "clip_hi_pct": 99.0, "normalize": "minmax01"},
}


def small_phantom(seed, means=(0.2, 0.5, 0.8)):
    spec = PhantomSpec(dims=(20, 20, 20), means=means, variances=(1e-3, 1e-3, 1e-3), seed=seed)
    return generate_phantom(spec)[0]


class TestEstimatePopulation:
    def test_identical_volumes_zero_spread(self):
        vol = small_phantom(0)
        stats = estimate_population([vol, vol], cfg=CFG)
        assert np.all(stats.mu_std == 0.0)
        assert np.all(stats.var_std == 0.0)
        assert stats.n_images == 2

    def test_permutation_invariance_bit_exact(self):
        volumes = [small_phantom(seed) for seed in range(4)]
        forward = estimate_population(volumes, cfg=CFG)
        backward = estimate_population(volumes[::-1], cfg=CFG)
        for field in ("mu_mean", "mu_std", "var_mean", "var_std"):
            assert np.array_equal(getattr(forward, field), getattr(backward, field))

    def test_matches_direct_recomputation_with_duplicate(self):
        volumes = [small_phantom(seed) for seed in range(3)]
        volumes_dup = volumes + [volumes[0]]
        stats = estimate_population(volumes_dup, cfg=CFG)
        fitted = []
        for vol in volumes_dup:
            mask = foreground_mask(vol)
            normalized = clip_normalize(vol, mask, 1.0, 99.0)
            fitted.append(fit_em(normalized.data[mask], 3, CFG).means)
        table = np.sort(np.vstack(fitted), axis=0)
        assert np.allclose(stats.mu_mean, table.mean(axis=0), rtol=0, atol=0)
        assert np.allclose(stats.mu_std, table.std(axis=0, ddof=1), rtol=0, atol=0)

    def test_failed_fits_skipped_with_warning(self, caplog):
        constant = Volume((10, 10, 10), (1, 1, 1), np.full(1000, 0.5))
        volumes = [small_phantom(0), constant, small_phantom(1)]
        with caplog.at_level(logging.WARNING, logger="gmmaug.population"):
            stats = estimate_population(volumes, cfg=CFG)
        assert stats.n_images == 2
        assert any("skipping volume 1" in rec.getMessage() for rec in caplog.records)

    def test_unconverged_fits_kept_with_warning(self, caplog):
        volumes = [small_phantom(0), small_phantom(1)]
        cut = EmConfig(max_iter=2)
        with caplog.at_level(logging.WARNING, logger="gmmaug.population"):
            stats = estimate_population(volumes, cfg=cut)
        assert stats.n_images == 2
        fits = [fit_volume(vol.data[foreground_mask(vol)], 3, cut, 1.0, 99.0)[1] for vol in volumes]
        assert [record.getMessage() for record in caplog.records] == [
            f"unconverged volume {i}: EM stopped at max_iter after 2 E-steps, "
            f"final_rel_change {fit.final_rel_change:.3g}" for i, fit in enumerate(fits)
        ]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gmmaug.population"):
            estimate_population(volumes, cfg=CFG)
        assert caplog.records == []

    def test_paths_read_in_turn_and_skipped_by_name(self, tmp_path, caplog):
        write_volume(small_phantom(0), tmp_path / "a.nii")
        (tmp_path / "junk.nii").write_bytes(b"junk")
        items = [tmp_path / "a.nii", str(tmp_path / "junk.nii"), small_phantom(1)]
        with caplog.at_level(logging.WARNING, logger="gmmaug.population"):
            stats = estimate_population(items, cfg=CFG)
        [record] = caplog.records
        assert record.getMessage() == (f"skipping {tmp_path / 'junk.nii'}: CorruptFileError: "
                                       "file shorter than the 348-byte header")
        expected = estimate_population([read_volume(tmp_path / "a.nii"), small_phantom(1)],
                                       cfg=CFG)
        assert np.array_equal(stats.mu_mean, expected.mu_mean)
        assert np.array_equal(stats.var_std, expected.var_std)

    def test_unreadable_paths_counted_as_skipped(self, tmp_path):
        (tmp_path / "junk.nii").write_bytes(b"junk")
        with pytest.raises(InsufficientDataError, match=r"only 1 volumes .* \(3 skipped\)"):
            estimate_population([tmp_path / "junk.nii", tmp_path / "missing.nii", tmp_path,
                                 small_phantom(0)], cfg=CFG)

    def test_too_few_successes(self):
        constant = Volume((10, 10, 10), (1, 1, 1), np.full(1000, 0.5))
        with pytest.raises(InsufficientDataError):
            estimate_population([small_phantom(0), constant], cfg=CFG)

    def test_preprocessing_recorded(self):
        volumes = [small_phantom(seed) for seed in range(2)]
        stats = estimate_population(volumes, cfg=CFG, lo_pct=0.0, hi_pct=100.0)
        assert stats.clip_lo_pct == 0.0
        assert stats.clip_hi_pct == 100.0
        assert stats.to_json_dict()["preprocessing"]["normalize"] == "minmax01"

    def test_jitter_recovery_small_corpus(self):
        # per-image tissue means shifted by a known offset table; the
        # between-image spread of fitted means must track the injected
        # spread (fuller Monte Carlo lives in the acceptance suite)
        rng = np.random.Generator(np.random.Philox(99))
        offsets = rng.normal(0.0, 0.03, size=(12, 3))
        volumes = []
        for i, off in enumerate(offsets):
            means = tuple(np.array((0.12, 0.5, 0.88)) + off)
            spec = PhantomSpec(
                dims=(20, 20, 20),
                means=means,
                variances=(4.9e-3, 1.6e-3, 4.9e-3),
                seed=1000 + i,
            )
            volumes.append(generate_phantom(spec)[0])
        stats = estimate_population(volumes, cfg=CFG, lo_pct=0.0, hi_pct=100.0)
        injected = offsets.std(axis=0, ddof=1)
        assert np.all(stats.mu_std > 0.5 * injected)
        assert np.all(stats.mu_std < 1.5 * injected)


@pytest.mark.parametrize("name, value, message", [
    ("mu_mean", [0.1, 0.2], "mu_mean must hold 3 values"),
    ("var_std", [1e-3] * 4, "var_std must hold 3 values"),
    ("mu_std", [0.03, np.nan, 0.08], "mu_std contains non-finite values"),
    ("var_mean", [2e-3, 1e-3, np.inf], "var_mean contains non-finite values"),
])
def test_stats_refuse_arrays_of_the_wrong_length_or_not_finite(name, value, message):
    fields = dict(k=3, mu_mean=[0.1, 0.2, 0.3], mu_std=[0.03, 0.06, 0.08],
                  var_mean=[2e-3, 1e-3, 1e-3], var_std=[1e-3, 1e-3, 3e-3], n_images=2)
    fields[name] = value
    with pytest.raises(InvalidStatsError) as info:
        PopulationStats(**fields)
    assert str(info.value) == message


class TestStatsIO:
    def make_stats(self):
        return PopulationStats(
            k=3,
            mu_mean=(0.1, 0.2, 0.3),
            mu_std=(0.03, 0.06, 0.08),
            var_mean=(2e-3, 1e-3, 1e-3),
            var_std=(1e-3, 1e-3, 3e-3),
            n_images=421,
        )

    def test_round_trip_exact(self, tmp_path):
        stats = self.make_stats()
        path = tmp_path / "stats.json"
        save_stats(stats, path)
        again = load_stats(path)
        for field in ("mu_mean", "mu_std", "var_mean", "var_std"):
            assert np.array_equal(getattr(again, field), getattr(stats, field))
        assert again.n_images == stats.n_images
        assert again.clip_lo_pct == stats.clip_lo_pct

    def test_reference_values_parse(self, tmp_path):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(REFERENCE_STATS))
        stats = load_stats(path)
        assert np.array_equal(stats.mu_mean, [0.1, 0.2, 0.3])
        assert np.array_equal(stats.mu_std, [0.03, 0.06, 0.08])
        assert np.array_equal(stats.var_mean, [2e-3, 1e-3, 1e-3])
        assert np.array_equal(stats.var_std, [1e-3, 1e-3, 3e-3])
        assert stats.n_images == 421

    def test_missing_k_rejected(self, tmp_path):
        broken = {key: val for key, val in REFERENCE_STATS.items() if key != "k"}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(InvalidStatsError):
            load_stats(path)

    def test_component_count_mismatch(self, tmp_path):
        broken = dict(REFERENCE_STATS, components=REFERENCE_STATS["components"][:2])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(InvalidStatsError):
            load_stats(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        with pytest.raises(InvalidStatsError):
            load_stats(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidStatsError):
            load_stats(path)

    @pytest.mark.parametrize("text, value", [('"n_images": 421', '"n_images": 1e999'),
                                             ('"clip_lo_pct": 1.0', '"clip_lo_pct": ' + "9" * 400),
                                             ('"mu_std": 0.03', '"mu_std": ' + "9" * 400)],
                             ids=["n_images", "clip_lo_pct", "mu_std"])
    def test_overflowing_field_rejected(self, tmp_path, text, value):
        path = tmp_path / "huge.json"
        raw = json.dumps(REFERENCE_STATS)
        assert raw.count(text) == 1
        path.write_text(raw.replace(text, value))
        with pytest.raises(InvalidStatsError, match="malformed"):
            load_stats(path)

    def test_unimplemented_normalize_rejected(self, tmp_path):
        broken = dict(REFERENCE_STATS, preprocessing=dict(
            REFERENCE_STATS["preprocessing"], normalize="zscore"))
        path = tmp_path / "zscore.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(InvalidStatsError, match="zscore"):
            load_stats(path)

    @pytest.mark.parametrize("lo, hi", [(50.0, 10.0), (5.0, 5.0), (-1.0, 99.0), (1.0, 100.5)])
    def test_clip_window_validated(self, lo, hi):
        with pytest.raises(InvalidStatsError, match="lo_pct < hi_pct"):
            PopulationStats(k=1, mu_mean=(0.5,), mu_std=(0.0,), var_mean=(1e-3,), var_std=(0.0,),
                            n_images=2, clip_lo_pct=lo, clip_hi_pct=hi)

    def test_no_component_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(dict(REFERENCE_STATS, k=0, components=[])))
        with pytest.raises(InvalidStatsError, match=f"^{re.escape(str(path))}: k must be >= 1, "
                                                    "got 0$"):
            load_stats(path)

    def test_validation(self):
        with pytest.raises(InvalidStatsError):
            PopulationStats(
                k=2, mu_mean=(0.2, 0.1), mu_std=(0, 0), var_mean=(1e-3, 1e-3),
                var_std=(0, 0), n_images=2,
            )
        with pytest.raises(InvalidStatsError):
            PopulationStats(
                k=2, mu_mean=(0.1, 0.2), mu_std=(-0.1, 0), var_mean=(1e-3, 1e-3),
                var_std=(0, 0), n_images=2,
            )
        with pytest.raises(InvalidStatsError):
            PopulationStats(
                k=2, mu_mean=(0.1, 0.2), mu_std=(0, 0), var_mean=(1e-3, 1e-3),
                var_std=(0, 0), n_images=1,
            )
