"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines;
every tolerance is pinned in the assertions below.
"""

import json
import struct
import time

import numpy as np
import pytest

import gmmaug as ga

from conftest import build_nifti_bytes, mixture_sample

TISSUE_WEIGHTS = (0.3, 0.4, 0.3)
TISSUE_MEANS = (0.1, 0.2, 0.3)
TISSUE_VARIANCES = (0.002, 0.001, 0.001)

# Multi-scanner corpus magnitudes used as the canonical stats fixture.
REFERENCE_STATS_JSON = {
    "k": 3,
    "components": [
        {"mu_mean": 0.1, "mu_std": 0.03, "var_mean": 2e-3, "var_std": 1e-3},
        {"mu_mean": 0.2, "mu_std": 0.06, "var_mean": 1e-3, "var_std": 1e-3},
        {"mu_mean": 0.3, "mu_std": 0.08, "var_mean": 1e-3, "var_std": 3e-3},
    ],
    "n_images": 421,
    "preprocessing": {"clip_lo_pct": 1.0, "clip_hi_pct": 99.0, "normalize": "minmax01"},
}


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {text}")


def ks_distance_to_uniform(draws: np.ndarray, bound: float) -> float:
    """Kolmogorov-Smirnov distance of draws to U(-bound, bound)."""
    x = np.sort(draws)
    n = x.size
    cdf = (x + bound) / (2.0 * bound)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


@pytest.fixture(scope="module")
def zero_stats():
    return ga.PopulationStats(
        k=3, mu_mean=TISSUE_MEANS, mu_std=(0.0, 0.0, 0.0),
        var_mean=TISSUE_VARIANCES, var_std=(0.0, 0.0, 0.0), n_images=2,
    )


@pytest.fixture(scope="module")
def em_recovery_fits():
    """Twenty seeded fits on the reference tissue mixture (criteria 2 and 8)."""
    fits = []
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(seed))
        values = mixture_sample(rng, 100_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        fits.append(ga.fit_em(values))
    return fits


def test_criterion_01_identity_invariance(zero_stats):
    spec = ga.PhantomSpec(seed=20)  # 64^3, reference tissue statistics
    vol, _ = ga.generate_phantom(spec)
    mask = ga.foreground_mask(vol)
    normalized = ga.clip_normalize(vol, mask)

    start = time.perf_counter()
    out, params, pert = ga.augment_volume(vol, zero_stats, seed=1)
    elapsed = time.perf_counter() - start

    pipeline_err = float(np.max(np.abs(out.data[mask] - normalized.data[mask])))
    identity = ga.apply_perturbation(params, ga.Perturbation(np.zeros(3), np.zeros(3), 0))
    remapped = ga.remap(normalized, mask, identity)
    remap_err = float(np.max(np.abs(remapped.data[mask] - normalized.data[mask])))

    ok = pipeline_err <= 1e-9 and remap_err <= 1e-9 and elapsed < 5.0
    report(1, ok, f"identity max-abs {pipeline_err:.2e} (remap {remap_err:.2e}), "
                  f"runtime {elapsed:.2f}s on 64^3 phantom")
    assert pipeline_err <= 1e-9
    assert remap_err <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_em_recovery(em_recovery_fits):
    worst_mu = worst_w = 0.0
    failures = 0
    for params in em_recovery_fits:
        err_mu = float(np.max(np.abs(params.means - TISSUE_MEANS)))
        err_w = float(np.max(np.abs(params.weights - TISSUE_WEIGHTS)))
        worst_mu = max(worst_mu, err_mu)
        worst_w = max(worst_w, err_w)
        if err_mu > 0.01 or err_w > 0.05:
            failures += 1
    ok = failures == 0 and len(em_recovery_fits) == 20
    report(2, ok, f"20 seeds x 1e5 draws: worst |dmu| {worst_mu:.4f} (<=0.01), "
                  f"worst |dw| {worst_w:.4f} (<=0.05), failures {failures}")
    assert failures == 0


def component_alone(params, perturbed, j):
    """Component ``j`` of a perturbation, on its fit's component, as a one-component mixture.

    Remapping under it gives every voxel a responsibility of exactly 1
    for ``j``, so the output is component ``j``'s remapped value.
    """
    base = ga.GmmParams(k=1, weights=[1.0], means=params.means[j:j + 1],
                        variances=params.variances[j:j + 1], log_likelihood=0.0, iterations=0)
    return ga.PerturbedGmm(base, perturbed.means[j:j + 1], perturbed.variances[j:j + 1])


def test_criterion_03_distance_preservation():
    rng = np.random.Generator(np.random.Philox(321))
    triples = 0
    worst = 0.0
    for _ in range(20):
        means = np.sort(rng.uniform(0.05, 0.95, 3))
        variances = rng.uniform(1e-4, 5e-3, 3)
        weights = rng.dirichlet(np.ones(3))
        params = ga.GmmParams(k=3, weights=weights, means=means, variances=variances,
                              log_likelihood=0.0, iterations=0)
        pert = ga.Perturbation(
            q_mu=rng.uniform(-0.05, 0.05, 3), q_var=rng.uniform(-9e-5, 9e-5, 3), seed=0
        )
        perturbed = ga.apply_perturbation(params, pert)
        values = rng.random(500)
        vol = ga.Volume((values.size, 1, 1), (1, 1, 1), values)
        mask = np.ones(values.size, dtype=bool)
        new_vals = np.column_stack([
            ga.remap(vol, mask, component_alone(params, perturbed, j), clip=False).data
            for j in range(3)
        ])
        before = (values[:, None] - params.means) / np.sqrt(params.variances)
        after = (new_vals - perturbed.means) / np.sqrt(perturbed.variances)
        scale = np.maximum(1.0, np.maximum(np.abs(before), np.abs(after)))
        worst = max(worst, float(np.max(np.abs(after - before) / scale)))
        triples += values.size * 3
    ok = triples >= 10_000 and worst <= 1e-12
    report(3, ok, f"{triples} (voxel, component, perturbation) triples: "
                  f"worst relative deviation {worst:.2e} (<=1e-12)")
    assert triples >= 10_000
    assert worst <= 1e-12


def test_criterion_04_sampling_law():
    stats = ga.PopulationStats.from_json_dict(REFERENCE_STATS_JSON)
    n = 100_000
    q_mu = np.empty((n, 3))
    q_var = np.empty((n, 3))
    for seed in range(n):
        pert = ga.sample_perturbation(stats, seed)
        q_mu[seed] = pert.q_mu
        q_var[seed] = pert.q_var
    all_within = True
    means_ok = True
    worst_ks = 0.0
    for j in range(3):
        for draws, bound in ((q_mu[:, j], stats.mu_std[j]), (q_var[:, j], stats.var_std[j])):
            all_within &= bool(np.all(np.abs(draws) < bound))
            means_ok &= abs(float(draws.mean())) < 3.0 * bound / np.sqrt(3.0 * n)
            worst_ks = max(worst_ks, ks_distance_to_uniform(draws, bound))
    ok = all_within and means_ok and worst_ks < 0.01
    report(4, ok, f"1e5 draws/component strictly in bounds: {all_within}; "
                  f"means within 3 SE of 0: {means_ok}; worst KS distance {worst_ks:.4f} (<0.01)")
    assert all_within
    assert means_ok
    assert worst_ks < 0.01


def test_criterion_05_structure_preservation():
    spec = ga.PhantomSpec(means=(0.1, 0.2, 0.3), variances=(1e-4, 1e-4, 1e-4), seed=21)
    vol, truth = ga.generate_phantom(spec)  # inter-mean gap is 10 sigma
    mask = ga.foreground_mask(vol)
    normalized = ga.clip_normalize(vol, mask)
    params = ga.fit_em(normalized.data[mask], 3)
    stats = ga.PopulationStats(
        k=3, mu_mean=TISSUE_MEANS, mu_std=(0.015, 0.015, 0.015),
        var_mean=(1.8e-3,) * 3, var_std=(2e-4,) * 3, n_images=2,
    )
    order_preserving = 0
    min_dice = 1.0
    for i in range(100):
        pert = ga.sample_perturbation(stats, 500 + i)
        perturbed = ga.apply_perturbation(params, pert)
        if np.any(np.diff(perturbed.means) < 0):
            continue
        order_preserving += 1
        remapped = ga.remap(normalized, mask, perturbed)
        model = ga.GmmParams(k=3, weights=params.weights, means=perturbed.means,
                             variances=perturbed.variances, log_likelihood=0.0, iterations=0)
        gamma = ga.responsibilities(model, remapped.data[mask])
        pred = np.zeros(vol.n_voxels, dtype=np.int32)
        pred[mask] = np.argmax(gamma, axis=1) + 1
        scored = ga.overlap(ga.LabelVolume(vol.dims, vol.spacing, pred), truth, labels=(1, 2, 3))
        min_dice = min(min_dice, min(scored[label].dice for label in (1, 2, 3)))
    ok = order_preserving == 100 and min_dice >= 0.99
    report(5, ok, f"{order_preserving}/100 order-preserving draws, "
                  f"min per-tissue dice {min_dice:.5f} (>=0.99)")
    assert order_preserving == 100
    assert min_dice >= 0.99


def test_criterion_06_population_round_trip():
    base_means = np.array([0.12, 0.50, 0.88])
    rng = np.random.Generator(np.random.Philox(343))
    offsets = rng.normal(0.0, 0.03, size=(50, 3))
    volumes = []
    for i, off in enumerate(offsets):
        spec = ga.PhantomSpec(
            dims=(48, 48, 48),
            means=tuple(base_means + off),
            variances=(4.9e-3, 1.6e-3, 4.9e-3),
            seed=7000 + i,
        )
        vol, _ = ga.generate_phantom(spec)
        fg = vol.data[vol.data > 0]
        # heavy tails saturate the (0, 1] clip, pinning each image's
        # min/max so the min-max normalization cannot eat the jitter
        assert fg.min() <= 2e-6 and fg.max() == 1.0
        volumes.append(vol)
    stats = ga.estimate_population(volumes, 3, lo_pct=0.0, hi_pct=100.0)
    in_window = np.all((stats.mu_std >= 0.0225) & (stats.mu_std <= 0.0375))
    report(6, bool(in_window),
           f"50-phantom corpus, injected jitter SD 0.03: estimated mu_std "
           f"{np.round(stats.mu_std, 4).tolist()} in [0.0225, 0.0375]")
    assert in_window


def test_criterion_07_contrast_shift_realization():
    spec = ga.PhantomSpec(dims=(48, 48, 48), means=(0.1, 0.2, 0.3),
                          variances=(1e-4, 1e-4, 1e-4), seed=77)
    vol, _ = ga.generate_phantom(spec)
    mask = ga.foreground_mask(vol)
    stats = ga.PopulationStats(
        k=3, mu_mean=TISSUE_MEANS, mu_std=(0.02, 0.02, 0.02),
        var_mean=(1.8e-3,) * 3, var_std=(5e-4,) * 3, n_images=2,
    )
    cfg = ga.EmConfig()
    worst = 0.0
    refit_means = []
    for i in range(100):
        out, params, pert = ga.augment_volume(vol, stats, 700 + i, cfg)
        refit = ga.fit_em(out.data[mask], 3, cfg)
        target = params.means + pert.q_mu
        worst = max(worst, float(np.max(np.abs(refit.means - target))))
        refit_means.append(refit.means)
    spread = np.vstack(refit_means).std(axis=0, ddof=1)
    expected = 0.02 / np.sqrt(3.0)
    rel_dev = float(np.max(np.abs(spread / expected - 1.0)))
    ok = worst <= 0.015 and rel_dev <= 0.20
    report(7, ok, f"100 draws: worst |refit - mu'| {worst:.4f} (<=0.015); "
                  f"spread {np.round(spread, 4).tolist()} vs s/sqrt(3)={expected:.4f}, "
                  f"max rel dev {rel_dev:.3f} (<=0.20)")
    assert worst <= 0.015
    assert rel_dev <= 0.20


def test_criterion_08_em_monotonicity(em_recovery_fits):
    rng = np.random.Generator(np.random.Philox(888))
    extra_fixtures = [
        rng.random(20_000),
        rng.lognormal(0.0, 0.5, 20_000),
        np.array([0.1] * 50 + [0.9] * 50),
        ga.generate_phantom(ga.PhantomSpec(seed=20))[0].data,
    ]
    trajectories = [params.ll_trajectory for params in em_recovery_fits]
    for values in extra_fixtures:
        values = values[values > 0] if values.min() <= 0 else values
        k = 2 if values.size == 100 else 3
        trajectories.append(ga.fit_em(values, k).ll_trajectory)
    worst_drop = min(
        float(np.min(np.diff(traj))) if len(traj) > 1 else 0.0 for traj in trajectories
    )
    ok = worst_drop >= -1e-9
    report(8, ok, f"{len(trajectories)} fits: smallest log-likelihood step "
                  f"{worst_drop:.3e} (>= -1e-9)")
    assert worst_drop >= -1e-9


def test_criterion_09_file_format_conformance(tmp_path):
    # round-trip at float32 precision
    ramp = ga.Volume((4, 4, 4), (0.9, 1.1, 1.3), np.linspace(0.0, 1.0, 64))
    path = tmp_path / "ramp.nii"
    ga.write_volume(ramp, path)
    back = ga.read_volume(path)
    round_trip_err = float(np.max(np.abs(back.data - ramp.data)))
    dims_ok = back.dims == ramp.dims

    # byte-identical values from hand-built big/little endian twins
    body_be = struct.pack(">8h", *range(8))
    body_le = struct.pack("<8h", *range(8))
    (tmp_path / "be.nii").write_bytes(build_nifti_bytes((2, 2, 2), body_be, 4, ">"))
    (tmp_path / "le.nii").write_bytes(build_nifti_bytes((2, 2, 2), body_le, 4, "<"))
    endian_ok = np.array_equal(
        ga.read_volume(tmp_path / "be.nii").data, ga.read_volume(tmp_path / "le.nii").data
    )

    # reference stats JSON drives the pipeline end to end
    stats_path = tmp_path / "stats.json"
    stats_path.write_text(json.dumps(REFERENCE_STATS_JSON))
    stats = ga.load_stats(stats_path)
    vol, _ = ga.generate_phantom(ga.PhantomSpec(dims=(32, 32, 32), seed=9))
    out, params, pert = ga.augment_volume(vol, stats, seed=4)
    sidecar = ga.provenance_dict(pert, ga.apply_perturbation(params, pert))
    drive_ok = (
        out.data.min() >= 0.0
        and out.data.max() <= 1.0
        and json.dumps(sidecar)  # serializable
        and np.all(np.abs(pert.q_mu) <= stats.mu_std)
    )
    ok = round_trip_err <= 1e-6 and dims_ok and endian_ok and bool(drive_ok)
    report(9, ok, f"round-trip err {round_trip_err:.2e} (<=1e-6); cross-endian equal: "
                  f"{endian_ok}; reference stats drive augmentation: {bool(drive_ok)}")
    assert round_trip_err <= 1e-6
    assert dims_ok and endian_ok and drive_ok


def test_criterion_10_metric_definitions():
    pred = ga.LabelVolume((6, 1, 1), (1, 1, 1), [1, 1, 1, 1, 0, 0])
    ref = ga.LabelVolume((6, 1, 1), (1, 1, 1), [1, 1, 0, 0, 0, 0])
    entry = ga.overlap(pred, ref)[1]
    dice_ok = (
        entry.dice == 2 * 2 / (2 * 2 + 2 + 0)
        and entry.sensitivity == 1.0
        and entry.precision == 0.5
    )
    fraction, indices = ga.outlier_fraction([1, 2, 3, 4, 100])
    outlier_ok = fraction == 0.2 and indices.tolist() == [4]
    p50, p10 = ga.summarize(np.arange(101.0))
    interp = ga.summarize([1.0, 2.0, 3.0, 4.0])
    summary_ok = (p50, p10) == (50.0, 10.0) and interp[0] == 2.5
    ok = dice_ok and outlier_ok and summary_ok
    report(10, ok, f"dice/Se/Pr fixture: {dice_ok}; 1.5*IQR outlier fixture: "
                   f"{outlier_ok}; percentile summaries: {summary_ok}")
    assert dice_ok and outlier_ok and summary_ok
