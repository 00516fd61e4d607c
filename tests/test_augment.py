import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import gmmaug.augment
import gmmaug.gmm
import gmmaug.volume
from gmmaug import (
    VARIANCE_FLOOR,
    GmmParams,
    InputError,
    NumericalError,
    Perturbation,
    PerturbedGmm,
    PopulationStats,
    Volume,
    apply_perturbation,
    augment_draws,
    augment_volume,
    clip_normalize,
    fit_em,
    foreground_mask,
    provenance_dict,
    remap,
    responsibilities,
    sample_perturbation,
    write_volume,
)
from gmmaug.augment import _remapped, _voxel_code, _winners
from gmmaug.preprocess import _apply_window
from gmmaug.volume import _BLOCK, _MAX_INTEGER_SPAN, _as_integers
from gmmaug.phantom import generate_phantom

from conftest import mixture_sample


def make_stats(mu_std, var_std, mu_mean=(0.1, 0.2, 0.3), var_mean=(2e-3, 1e-3, 1e-3)):
    return PopulationStats(
        k=len(mu_std), mu_mean=mu_mean, mu_std=mu_std,
        var_mean=var_mean, var_std=var_std, n_images=2,
    )


def make_params(weights, means, variances):
    return GmmParams(k=len(means), weights=weights, means=means, variances=variances,
                     log_likelihood=0.0, iterations=0)


ZERO_STATS = make_stats((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
SPREAD_STATS = make_stats((0.03, 0.06, 0.08), (1e-3, 1e-3, 3e-3))

# Components far enough apart that posteriors are exactly one-hot.
FAR_PARAMS = make_params((1 / 3, 1 / 3, 1 / 3), (0.1, 10.0, 20.0), (0.002, 0.002, 0.002))


def exact_soft_remap(values, perturbed):
    """The soft remap of ``values``, from a basis built here rather than the package's."""
    params = perturbed.base
    gamma = responsibilities(params, values)
    offsets = (values[:, None] - params.means) / np.sqrt(params.variances)
    return np.sum(gamma * (perturbed.means + np.sqrt(perturbed.variances) * offsets), axis=1)


def voxels(values):
    """A (n, 1, 1) volume holding ``values`` and its all-true mask."""
    values = np.asarray(values, dtype=np.float64)
    return Volume((values.size, 1, 1), (1, 1, 1), values), np.ones(values.size, dtype=bool)


class TestSamplePerturbation:
    def test_zero_spread_gives_zero(self):
        pert = sample_perturbation(ZERO_STATS, 12345)
        assert np.all(pert.q_mu == 0.0)
        assert np.all(pert.q_var == 0.0)

    def test_same_seed_reproduces(self):
        stats = make_stats((0.03, 0.06, 0.08), (1e-3, 1e-3, 3e-3))
        a = sample_perturbation(stats, 7)
        b = sample_perturbation(stats, 7)
        assert np.array_equal(a.q_mu, b.q_mu)
        assert np.array_equal(a.q_var, b.q_var)
        c = sample_perturbation(stats, 8)
        assert not np.array_equal(a.q_mu, c.q_mu)

    @pytest.mark.parametrize("seed", [1.5, True, False, "3", -1, None, np.float64(2.0),
                                      np.bool_(True), np.int64(-2)], ids=repr)
    def test_seed_that_is_not_a_non_negative_integer_refused(self, seed):
        with pytest.raises(InputError, match="seed must be a non-negative integer"):
            sample_perturbation(ZERO_STATS, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), 7])
    def test_numpy_integer_seed_draws_as_python_int(self, seed):
        stats = make_stats((0.03, 0.06, 0.08), (1e-3, 1e-3, 3e-3))
        pert = sample_perturbation(stats, seed)
        assert type(pert.seed) is int and pert.seed == 7
        assert np.array_equal(pert.q_mu, sample_perturbation(stats, 7).q_mu)

    def test_pinned_generator_vectors(self):
        # Philox keyed with 0, draw order mu/var per component, q = 2u - 1
        unit = make_stats((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        pert = sample_perturbation(unit, 0)
        expected_mu = (-0.9718659286687046, -0.05686923796942067, 0.9582690001308065)
        expected_var = (-0.48446550875076455, -0.8171606577852626, -0.48783219346132434)
        assert np.array_equal(pert.q_mu, expected_mu)
        assert np.array_equal(pert.q_var, expected_var)

    def test_bounds_and_scaling(self):
        stats = make_stats((0.03, 0.06, 0.08), (1e-3, 1e-3, 3e-3))
        draws_mu = np.array([sample_perturbation(stats, s).q_mu for s in range(20_000)])
        draws_var = np.array([sample_perturbation(stats, s).q_var for s in range(20_000)])
        for j, (s_mu, s_var) in enumerate(zip(stats.mu_std, stats.var_std)):
            assert np.all(np.abs(draws_mu[:, j]) < s_mu)
            assert np.all(np.abs(draws_var[:, j]) < s_var)
            # uniform(-s, s) mean has standard error s / sqrt(3 n)
            tol = 3.0 * s_mu / np.sqrt(3.0 * draws_mu.shape[0])
            assert abs(draws_mu[:, j].mean()) < tol


    def test_order_preserving_redraws_run_out(self):
        # spreads of 1e-6 can never put descending means in order
        stats = make_stats((1e-6, 1e-6, 1e-6), (0.0, 0.0, 0.0))
        with pytest.raises(NumericalError, match="no order-preserving perturbation"):
            sample_perturbation(stats, 0, means=np.array([0.3, 0.2, 0.1]))


class TestApplyPerturbation:
    def test_zero_is_identity(self):
        params = make_params((0.3, 0.4, 0.3), (0.1, 0.2, 0.3), (2e-3, 1e-3, 1e-3))
        pert = Perturbation(q_mu=np.zeros(3), q_var=np.zeros(3), seed=0)
        result = apply_perturbation(params, pert)
        assert np.array_equal(result.means, params.means)
        assert np.array_equal(result.variances, params.variances)
        assert result.clamped == ()

    def test_negative_variance_clamped_and_reported(self):
        params = make_params((0.3, 0.4, 0.3), (0.1, 0.2, 0.3), (2e-3, 1e-3, 1e-3))
        pert = Perturbation(q_mu=np.zeros(3), q_var=np.array([-5e-3, 0.0, 0.0]), seed=0)
        result = apply_perturbation(params, pert)
        assert result.variances[0] == VARIANCE_FLOOR
        assert result.clamped == (0,)
        assert np.array_equal(result.variances[1:], params.variances[1:])

    def test_near_collision_and_inversion_permitted(self):
        params = make_params((0.3, 0.4, 0.3), (0.1, 0.2, 0.3), (2e-3, 1e-3, 1e-3))
        pert = Perturbation(q_mu=np.array([0.03, -0.06, 0.08]), q_var=np.zeros(3), seed=0)
        result = apply_perturbation(params, pert)
        assert np.allclose(result.means, [0.13, 0.14, 0.38], rtol=0, atol=1e-15)
        # an actually order-inverting draw is also accepted without error
        inverting = Perturbation(q_mu=np.array([0.08, -0.06, 0.0]), q_var=np.zeros(3), seed=0)
        swapped = apply_perturbation(params, inverting)
        assert swapped.means[0] > swapped.means[1]

    def test_length_mismatch(self):
        params = make_params((0.5, 0.5), (0.1, 0.9), (1e-3, 1e-3))
        pert = Perturbation(q_mu=np.zeros(3), q_var=np.zeros(3), seed=0)
        with pytest.raises(InputError, match="perturbation has 3 components, fit has 2"):
            apply_perturbation(params, pert)


_BASE = make_params((0.5, 0.5), (0.1, 0.9), (1e-3, 1e-3))


@pytest.mark.parametrize("build, message", [
    (lambda: Perturbation(q_mu=np.zeros(2), q_var=np.zeros(3), seed=0),
     "q_mu and q_var must have the same length"),
    (lambda: PerturbedGmm(_BASE, means=np.zeros(3), variances=np.full(2, 1e-3)),
     "perturbed parameter sizes disagree with base k"),
    (lambda: PerturbedGmm(_BASE, means=np.zeros(2), variances=np.full(3, 1e-3)),
     "perturbed parameter sizes disagree with base k"),
    (lambda: PerturbedGmm(_BASE, means=np.zeros(2), variances=[1e-3, VARIANCE_FLOOR / 2]),
     f"perturbed variances must be >= {VARIANCE_FLOOR}"),
], ids=["perturbation-lengths", "perturbed-means", "perturbed-variances", "perturbed-floor"])
def test_records_refuse_inconsistent_fields(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


class TestRemap:
    def test_mask_length_mismatch(self):
        vol, mask = voxels([0.1, 10.0, 20.0])
        pert = apply_perturbation(FAR_PARAMS, Perturbation(np.zeros(3), np.zeros(3), seed=0))
        with pytest.raises(InputError, match="mask length 2 != voxel count 3"):
            remap(vol, mask[:2], pert)

    def test_identity_perturbation(self, separated_phantom):
        vol, _ = separated_phantom
        mask = foreground_mask(vol)
        normalized = clip_normalize(vol, mask)
        params = fit_em(normalized.data[mask], 3)
        pert = Perturbation(q_mu=np.zeros(3), q_var=np.zeros(3), seed=0)
        out = remap(normalized, mask, apply_perturbation(params, pert))
        assert np.max(np.abs(out.data[mask] - normalized.data[mask])) <= 1e-9
        assert np.array_equal(out.data[~mask], normalized.data[~mask])

    def test_pure_component_voxel_formula(self):
        # gamma is exactly (1, 0, 0); offset of one sigma maps to
        # mu' + sigma': 0.12 + sqrt(0.003)
        v = 0.1 + np.sqrt(0.002)
        pert = Perturbation(
            q_mu=np.array([0.02, 0.0, 0.0]), q_var=np.array([1e-3, 0.0, 0.0]), seed=0
        )
        perturbed = apply_perturbation(FAR_PARAMS, pert)
        gamma = responsibilities(FAR_PARAMS, [v])
        assert gamma[0, 0] == 1.0 and gamma[0, 1] == 0.0 and gamma[0, 2] == 0.0
        got = remap(*voxels([v]), perturbed, clip=False).data[0]
        assert got == pytest.approx(0.12 + np.sqrt(0.003), abs=1e-12)

    def test_voxel_at_mean_maps_to_new_mean(self):
        pert = Perturbation(
            q_mu=np.array([0.05, 0.0, 0.0]), q_var=np.array([5e-4, 0.0, 0.0]), seed=0
        )
        perturbed = apply_perturbation(FAR_PARAMS, pert)
        vals = remap(*voxels([0.1]), perturbed, clip=False).data
        assert vals[0] == perturbed.means[0]

    def test_distance_preserved_per_component(self):
        rng = np.random.Generator(np.random.Philox(17))
        params = make_params((0.3, 0.4, 0.3), (0.1, 0.2, 0.3), (2e-3, 1e-3, 1e-3))
        values = rng.random(500)
        pert = Perturbation(
            q_mu=rng.uniform(-0.05, 0.05, 3), q_var=rng.uniform(-5e-4, 5e-4, 3), seed=0
        )
        perturbed = apply_perturbation(params, pert)
        new_vals = remap(*voxels(values), perturbed, hard_assign=True, clip=False).data
        top = np.argmax(responsibilities(params, values), axis=1)  # each voxel's component
        before = (values - params.means[top]) / np.sqrt(params.variances[top])
        after = (new_vals - perturbed.means[top]) / np.sqrt(perturbed.variances[top])
        assert np.allclose(after, before, rtol=1e-12, atol=1e-12)

    def test_matches_scalar_reference_implementation(self):
        # independent voxel-by-voxel recomputation with math.exp/math.sqrt
        import math

        params = make_params((0.25, 0.35, 0.4), (0.15, 0.4, 0.75), (3e-3, 2e-3, 4e-3))
        pert = Perturbation(
            q_mu=np.array([0.02, -0.05, 0.04]), q_var=np.array([1e-3, -5e-4, 2e-3]), seed=0
        )
        perturbed = apply_perturbation(params, pert)
        rng = np.random.Generator(np.random.Philox(77))
        data = rng.random(40)
        vol = Volume((40, 1, 1), (1, 1, 1), data)
        mask = np.ones(40, dtype=bool)
        out = remap(vol, mask, perturbed, clip=False)
        for v, got in zip(data, out.data):
            dens = [
                w * math.exp(-((v - m) ** 2) / (2 * s)) / math.sqrt(2 * math.pi * s)
                for w, m, s in zip(params.weights, params.means, params.variances)
            ]
            total = sum(dens)
            expected = sum(
                (d / total) * (mp + (v - m) / math.sqrt(s) * math.sqrt(sp))
                for d, m, s, mp, sp in zip(
                    dens, params.means, params.variances, perturbed.means, perturbed.variances
                )
            )
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_hard_assignment_picks_argmax_component(self):
        pert = Perturbation(
            q_mu=np.array([0.05, 0.0, 0.0]), q_var=np.zeros(3), seed=0
        )
        perturbed = apply_perturbation(FAR_PARAMS, pert)
        vol = Volume((3, 1, 1), (1, 1, 1), [0.1, 10.0, 20.0])
        mask = np.ones(3, dtype=bool)
        hard = remap(vol, mask, perturbed, hard_assign=True, clip=False)
        soft = remap(vol, mask, perturbed, hard_assign=False, clip=False)
        assert hard.data[0] == pytest.approx(0.15, abs=1e-12)
        # one-hot posteriors make both paths agree
        assert np.allclose(hard.data, soft.data, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("means, tie", [((0.5, 0.5, 0.5), 3), ((0.2, 0.2, 0.8), 2),
                                            ((0.2, 0.8, 0.8), 2)])
    def test_hard_assignment_ties_match_argmax(self, means, tie):
        # identical components have bit-equal posteriors: exact two- and three-way ties
        params = make_params((1 / 3, 1 / 3, 1 / 3), means, (0.01, 0.01, 0.01))
        values = np.linspace(-0.5, 1.5, 401)
        soft = responsibilities(params, values).T
        assert np.any(np.sum(soft == soft.max(axis=0), axis=0) == tie)
        log_prob = gmmaug.gmm._component_log_prob(params.weights, params.means,
                                                  params.variances, values)
        assert np.array_equal(_winners(log_prob), np.argmax(soft, axis=0))

    def test_remap_does_not_depend_on_the_blas_kernel(self):
        # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it loaded on a "Core:" line
        env = dict(os.environ, OPENBLAS_VERBOSE="2",
                   PYTHONPATH=str(Path(gmmaug.augment.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)  # the first child runs the default kernel
        runs = [subprocess.run([sys.executable, "-c", REMAP_HASH], env=dict(env, **kernel),
                               capture_output=True, text=True, check=True)
                for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"},
                               {"OPENBLAS_CORETYPE": "Prescott"})]
        cores = [re.findall(r"^Core: (.+)$", run.stderr, re.MULTILINE) for run in runs]
        if not all(cores):
            pytest.skip("the BLAS prints no Core: line, so no kernel switch can be seen")
        if len({core[-1] for core in cores}) < 3:
            pytest.skip(f"OPENBLAS_CORETYPE did not switch the kernel: {cores}")
        assert len({run.stdout for run in runs}) == 1

    @pytest.mark.parametrize("hard_assign", [False, True])
    def test_basis_peak_memory_is_capped(self, default_phantom, hard_assign):
        # at most what a (2k, n) basis [gamma; gamma * D] and 2.5 n
        # float64s more took: the remap holds the (k, n) log-densities,
        # (k, n) component maps or the hard assignment's n, and the
        # posterior's running maximum and sum or the winners
        vol, _ = default_phantom
        mask = foreground_mask(vol)
        values = clip_normalize(vol, mask).data[mask]
        params = fit_em(values, 3)
        perturbed = apply_perturbation(params, sample_perturbation(SPREAD_STATS, 0))
        _remapped(values, perturbed, hard_assign)  # lazy imports happen here
        tracemalloc.start()
        try:
            _remapped(values, perturbed, hard_assign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 * params.k + 2.5) * values.nbytes

    def test_output_clipped_to_unit_interval(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.4, 0.4, 0.4), (5e-4, 5e-4, 5e-4))
        out, _, _ = augment_volume(vol, stats, seed=0)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_no_clip_can_overshoot(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.4, 0.4, 0.4), (5e-4, 5e-4, 5e-4))
        out, _, _ = augment_volume(vol, stats, seed=0, clip=False)
        assert out.data.min() < 0.0 or out.data.max() > 1.0


# Hashes the remap over the soft knots and over a fixed sample, soft and
# hard, for ten perturbations of one fixed fit; run in a child process.
REMAP_HASH = """
import hashlib
import numpy as np
from gmmaug import GmmParams, PopulationStats, apply_perturbation, sample_perturbation
from gmmaug.augment import _UNIT_KNOTS, _remapped

params = GmmParams(k=3, weights=(0.2, 0.45, 0.35), means=(0.3, 0.55, 0.75),
                   variances=(6e-3, 3e-3, 2e-3), log_likelihood=0.0, iterations=0)
stats = PopulationStats(k=3, mu_mean=(0.3, 0.55, 0.75), mu_std=(0.03, 0.06, 0.08),
                        var_mean=(6e-3, 3e-3, 2e-3), var_std=(1e-3, 1e-3, 3e-3), n_images=2)
sample = np.random.Generator(np.random.Philox(5)).uniform(-0.25, 1.25, 300_000)
digest = hashlib.sha256()
for seed in range(10):
    perturbed = apply_perturbation(params, sample_perturbation(stats, seed))
    for hard_assign in (False, True):
        for values in (_UNIT_KNOTS, sample):
            digest.update(_remapped(values, perturbed, hard_assign).tobytes())
print(digest.hexdigest())
"""


class TestAugmentVolume:
    def test_deterministic(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.02, 0.02, 0.02), (2e-4, 2e-4, 2e-4))
        a, params_a, pert_a = augment_volume(vol, stats, seed=99)
        b, params_b, pert_b = augment_volume(vol, stats, seed=99)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(pert_a.q_mu, pert_b.q_mu)
        assert np.array_equal(params_a.means, params_b.means)

    def test_first_draw_matches_sample_perturbation(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.02, 0.02, 0.02), (2e-4, 2e-4, 2e-4))
        _, _, pert = augment_volume(vol, stats, seed=41)
        direct = sample_perturbation(stats, 41)
        assert np.array_equal(pert.q_mu, direct.q_mu)
        assert np.array_equal(pert.q_var, direct.q_var)

    def test_geometry_and_background_untouched(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.02, 0.02, 0.02), (2e-4, 2e-4, 2e-4))
        out, _, _ = augment_volume(vol, stats, seed=5)
        assert out.dims == vol.dims
        assert out.spacing == vol.spacing
        mask = foreground_mask(vol)
        assert np.all(out.data[~mask] == 0.0)

    def test_refit_recovers_perturbed_means(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.02, 0.02, 0.02), (5e-4, 5e-4, 5e-4))
        out, params, pert = augment_volume(vol, stats, seed=3)
        mask = foreground_mask(vol)
        refit = fit_em(out.data[mask], 3)
        target = params.means + pert.q_mu
        assert np.all(np.abs(refit.means - target) <= 0.015)

    def test_order_inversion_rejection(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.4, 0.4, 0.4), (5e-4, 5e-4, 5e-4))
        # seed 15 naturally inverts the fitted order for these spreads
        _, params, natural = augment_volume(vol, stats, seed=15)
        assert np.any(np.diff(params.means + natural.q_mu) < 0)
        _, params2, redrawn = augment_volume(
            vol, stats, seed=15, reject_order_inversion=True
        )
        assert np.all(np.diff(params2.means + redrawn.q_mu) >= 0)
        assert not np.array_equal(redrawn.q_mu, natural.q_mu)

    def test_order_inversion_redraw_in_sample_perturbation(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.4, 0.4, 0.4), (5e-4, 5e-4, 5e-4))
        _, params, redrawn = augment_volume(vol, stats, seed=15, reject_order_inversion=True)
        # reference: scalar draws, component-major, first ascending draw wins
        rng = np.random.Generator(np.random.Philox(15))
        for _ in range(100):
            pairs = [(2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0) for _ in range(3)]
            q_mu = np.array([u for u, _ in pairs]) * stats.mu_std
            if np.all(np.diff(params.means + q_mu) >= 0):
                break
        else:
            pytest.fail("reference found no order-preserving draw")
        q_var = np.array([u for _, u in pairs]) * stats.var_std
        direct = sample_perturbation(stats, 15, params.means)
        assert np.array_equal(direct.q_mu, q_mu) and np.array_equal(direct.q_var, q_var)
        assert np.array_equal(redrawn.q_mu, q_mu) and np.array_equal(redrawn.q_var, q_var)
        assert not np.array_equal(sample_perturbation(stats, 15).q_mu, q_mu)

    def test_provenance_payload(self, separated_phantom):
        vol, _ = separated_phantom
        stats = make_stats((0.02, 0.02, 0.02), (2e-4, 2e-4, 2e-4))
        out, params, pert = augment_volume(vol, stats, seed=11)
        perturbed = apply_perturbation(params, pert)
        payload = provenance_dict(pert, perturbed)
        assert payload["seed"] == 11
        assert payload["fit"]["k"] == 3
        assert payload["perturbation"]["q_mu"] == pert.q_mu.tolist()
        assert payload["perturbation"]["q_var"] == pert.q_var.tolist()
        assert payload["clamped_variances"] == list(perturbed.clamped)


class TestAugmentDraws:
    @pytest.mark.parametrize("integers, hard_assign, code_bytes", [
        (False, False, 8), (False, True, 9), (True, False, 4), (True, True, 4),
    ], ids=["soft", "hard", "int16-soft", "int16-hard"])
    def test_generator_holds_only_mask_and_voxel_codes(self, separated_spec, integers,
                                                       hard_assign, code_bytes):
        spec = dataclasses.replace(separated_spec, dims=(32, 32, 32))
        stats = make_stats((0.02, 0.02, 0.02), (2e-4, 2e-4, 2e-4))

        def phantom():
            vol = generate_phantom(spec)[0]
            if integers:  # as stored by a scanner: integer intensities
                vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0).astype(np.int16))
            return vol

        augment_volume(phantom(), stats, seed=0,  # lazy imports happen here
                       hard_assign=hard_assign)
        vol = phantom()
        n_voxels, foreground = vol.n_voxels, int(foreground_mask(vol).sum())
        source = weakref.ref(vol)
        tracemalloc.start()
        try:
            draws = augment_draws(vol, stats, range(3), hard_assign=hard_assign)
            del vol
            out, _, _ = next(draws)
            held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert source() is None
        # each foreground voxel's code (soft: int32 knot interval and
        # float32 fraction; hard: uint8 component and float64 offset;
        # integer intensities, soft or hard: an int32 index among their
        # few hundred integer knots), the bool mask, the draw kernel's
        # three 8-byte buffers of one block, and small objects
        buffers = 24 * min(_BLOCK, foreground)
        assert held <= code_bytes * foreground + n_voxels + buffers + 64 * 1024

    def test_soft_draws_within_1e7_of_exact_basis(self, default_phantom):
        vol, _ = default_phantom
        mask = foreground_mask(vol)
        values = clip_normalize(vol, mask).data[mask]
        assert np.unique(values).size > 0.9 * values.size  # continuous: the knots interpolate
        for out, _, perturbed in augment_draws(vol, SPREAD_STATS, range(20), clip=False):
            assert np.max(np.abs(out.data[mask] - exact_soft_remap(values, perturbed))) <= 1e-7

    def test_zero_spread_soft_draw_reproduces_normalized_volume(self, default_phantom):
        vol, _ = default_phantom
        normalized = clip_normalize(vol, foreground_mask(vol))
        out, _, _ = next(augment_draws(vol, ZERO_STATS, [0], clip=False))
        # the identity table holds every knot to the last bit; between
        # knots a voxel is off by its float32 fraction's rounding, at most
        # 2**-25, times the knot spacing 2**-12
        assert np.max(np.abs(out.data - normalized.data)) <= 2.0**-37 + 1e-15

    @pytest.mark.parametrize("integers, hard_assign", [
        (False, False), (False, True), (True, False), (True, True),
    ], ids=["soft", "hard", "int16-soft", "int16-hard"])
    def test_draws_are_proved_finite_without_a_scan(self, default_phantom, monkeypatch,
                                                    integers, hard_assign):
        vol, _ = default_phantom
        if integers:
            vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0))
        scanned = []
        isfinite = np.isfinite

        def spy(x, *args, **kwargs):
            scanned.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        draws = list(augment_draws(vol, SPREAD_STATS, range(3), hard_assign=hard_assign,
                                   clip=False))
        # the tables are scanned, never the voxels
        assert scanned and max(scanned) <= gmmaug.augment._KNOT_INTERVALS + 1
        for out, _, _ in draws:
            assert isfinite(out.data).all() and not out.data.flags.writeable

    def test_draw_the_tables_do_not_prove_finite_is_scanned(self, default_phantom, monkeypatch):
        vol, _ = default_phantom
        vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0))  # integer knots
        n_voxels = vol.n_voxels
        held = vol.data[foreground_mask(vol)]
        lo, knots = held.min(), np.arange(held.min(), held.max() + 1.0)
        unheld = int(knots[~np.isin(knots, held)][0] - lo)  # an integer no voxel holds
        remapped = gmmaug.augment._remapped
        scanned = []
        isfinite = np.isfinite

        def spy(x, *args, **kwargs):
            scanned.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        def unread(values, pert, hard_assign=False):
            a = remapped(values, pert, hard_assign)
            a[unheld] = np.inf
            return a

        def infinite(values, pert, hard_assign=False):
            return np.full_like(remapped(values, pert, hard_assign), np.inf)

        monkeypatch.setattr(gmmaug.augment, "_remapped", unread)
        draws = augment_draws(vol, SPREAD_STATS, [0, 1], clip=False)
        next(draws)  # the read and the fit happen here
        monkeypatch.setattr(np, "isfinite", spy)
        out, _, _ = next(draws)
        # the bound table, then every foreground voxel once, a block at a time
        assert scanned[0] == knots.size and max(scanned[1:]) <= _BLOCK < n_voxels
        assert sum(scanned[1:]) == held.size and isfinite(out.data).all()
        monkeypatch.setattr(gmmaug.augment, "_remapped", infinite)
        with pytest.raises(InputError, match="volume data contains NaN or Inf"):
            next(augment_draws(vol, SPREAD_STATS, [0], clip=False))

    @pytest.mark.parametrize("case", ["hard_assign", "int16", "int16_hard"])
    def test_exact_paths_write_the_bytes_of_remap(self, default_phantom, tmp_path, case):
        # hard assignment on continuous values, and soft or hard draws on
        # integer intensities, whose stored integers are the knots
        vol, _ = default_phantom
        hard_assign = "hard" in case
        if case.startswith("int16"):
            vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0).astype(np.int16))
        mask = foreground_mask(vol)
        normalized = clip_normalize(vol, mask)
        drawn_path, exact_path = tmp_path / "drawn.nii", tmp_path / "exact.nii"
        for out, _, perturbed in augment_draws(vol, SPREAD_STATS, range(20),
                                               hard_assign=hard_assign):
            exact = remap(normalized, mask, perturbed, hard_assign=hard_assign)
            assert np.array_equal(out.data, exact.data)
            write_volume(out, drawn_path)
            write_volume(exact, exact_path)
            assert drawn_path.read_bytes() == exact_path.read_bytes()

    @pytest.mark.parametrize("clip", [True, False], ids=["clip", "no_clip"])
    @pytest.mark.parametrize("hard_assign", [False, True], ids=["soft", "hard"])
    @pytest.mark.parametrize("integers", [False, True], ids=["float", "integers"])
    @pytest.mark.parametrize("spread", [1e300, 1.7e308])
    def test_extreme_spreads_draw_without_a_warning(self, default_phantom, spread, integers,
                                                    hard_assign, clip):
        # means shifted to near the float64 limit: the suite turns any
        # numpy overflow warning on the way into an error
        vol, _ = default_phantom
        if integers:  # as stored by a scanner: integer intensities
            vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0))
        stats = make_stats((spread,) * 3, SPREAD_STATS.var_std)
        for out, _, _ in augment_draws(vol, stats, range(5), hard_assign=hard_assign,
                                       clip=clip):
            assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("hard_assign", [False, True], ids=["soft", "hard"])
    def test_integers_within_their_span_become_knots(self, hard_assign):
        # the reader's one decision: values that are all integers, span
        # at most 2**16 and stay below 2**53 come as (knots, index), the
        # float64 integers from their minimum to their maximum and each
        # value's int32 position among them; the code is those knots,
        # normalized, and that index. Other float values keep their
        # stored dtype, in native byte order, and widen to the same bytes
        values = np.array([3.0, 3.0 + _MAX_INTEGER_SPAN, 7.0])
        stored = [np.array([0, 1, 100], dtype=dtype) for dtype in ("u1", "i1", "i2", "u2")]
        stored += [np.array([np.iinfo(dtype).max, np.iinfo(dtype).min], dtype=dtype)
                   for dtype in ("i1", "i2", "u2")]  # as a file stores them: their span fits
        for integral in (values, values + 2.0**40, values - 2.0**40, values - 20.0,
                         values.astype(np.float32), *stored):
            knots, index = _as_integers(integral)
            lo, hi = float(integral.min()), float(integral.max())
            assert knots.dtype == np.float64 and index.dtype == np.int32
            assert knots.tobytes() == np.arange(lo, hi + 1.0).tobytes()
            assert knots[index].tobytes() == integral.astype(np.float64).tobytes()
            normalized = _apply_window(integral.astype(np.float64), (lo, hi))
            code = _voxel_code((knots, index), (lo, hi), FAR_PARAMS, hard_assign)
            assert code[1] is index and code[2:] == (None, 0.0)
            assert code[0][index].tobytes() == normalized.tobytes()
        knots, _ = _as_integers(np.array([-0.0, 2.0]))
        assert not np.signbit(knots).any()  # -0.0 widens to the knot 0.0, as an integer does
        for floats in (values + np.array([0.0, 1.0, 0.0]),  # too wide
                       values + np.array([0.0, 0.0, 0.5]),  # not integers
                       np.array([0.5, 1.5, 2.0], dtype=np.float32),
                       np.array([0.5, 1.5, 2.0], dtype=">f4"),
                       values + 2.0**53, values - 2.0**60):  # float64 skips integers there
            decided = _as_integers(floats)
            assert decided.dtype == floats.dtype.newbyteorder("=")
            assert decided.astype(np.float64).tobytes() == floats.astype(np.float64).tobytes()

    def test_a_continuous_foreground_is_checked_on_one_block(self, monkeypatch):
        values = np.linspace(0.1, 2.0, 10 * gmmaug.volume._CHECK_BLOCK)
        checked = []
        rint = np.rint

        def spy(x, *args, **kwargs):
            checked.append(np.size(x))
            return rint(x, *args, **kwargs)

        monkeypatch.setattr(np, "rint", spy)
        assert _as_integers(values) is values
        assert checked == [gmmaug.volume._CHECK_BLOCK]


def whole_draw(coded, perturbed):
    """A draw the way the kernel's blocks replaced: every foreground voxel gathered at once,
    clipped, and scattered into a float64 zero background."""
    a, b, _ = coded._tables(perturbed)
    drawn = np.take(a, coded.index)
    if coded.weight is not None:
        step = np.take(b, coded.index)
        step *= coded.weight
        drawn += step
    if coded.clip:
        np.clip(drawn, 0.0, 1.0, out=drawn)
    data = np.zeros(coded.mask.size)
    data[coded.mask] = drawn
    return data


def block_volume(foreground, background, integers):
    """A (n, 1, 1) three-tissue volume of ``foreground`` positive voxels; with ``background``,
    a zero after every third voxel shifts the blocks of the grid against those of the code."""
    rng = np.random.default_rng(foreground)
    values = mixture_sample(rng, foreground, (0.3, 0.3, 0.4), (0.2, 0.5, 0.8), (4e-4,) * 3)
    values = np.clip(values, 0.01, None)
    if integers:
        values = np.rint(values * 700.0)
    if background:
        data = np.zeros(foreground + foreground // 3)
        data[np.arange(data.size) % 4 != 3] = values
        values = data
    return Volume((values.size, 1, 1), (1, 1, 1), values)


def assert_blocks_write_the_whole_draw(vol, stats, integers, reject_order_inversion=False):
    """Every code of ``vol``, clipped or not: the kernel's float64 and float32 draws of each
    seed are the whole-foreground draw under that seed's perturbation, byte for byte."""
    for hard_assign in (False, True):
        for clip in (True, False):
            flags = dict(hard_assign=hard_assign, reject_order_inversion=reject_order_inversion,
                         clip=clip)
            coded = gmmaug.augment._Coded(vol, stats, **flags)
            assert coded.index.size == np.count_nonzero(foreground_mask(vol))
            assert (coded.knots is None) == (hard_assign and not integers)
            body, outside, redrawn = np.zeros(vol.n_voxels, dtype="<f4"), 0, 0
            for seed, (out, pert, perturbed) in enumerate(augment_draws(vol, stats, range(3),
                                                                        **flags)):
                expected = whole_draw(coded, perturbed)
                assert out.data.tobytes() == expected.tobytes()
                *kernel_draw, fits = coded.draw_into(body, seed)
                assert fits and provenance_dict(*kernel_draw) == provenance_dict(pert, perturbed)
                # write_volume writes the float64 draw cast to float32
                assert body.tobytes() == expected.astype("<f4").tobytes()
                outside += np.count_nonzero((expected < 0.0) | (expected > 1.0))
                redrawn += pert.q_mu.tobytes() != sample_perturbation(stats, seed).q_mu.tobytes()
            assert clip or outside  # the clip has something to do
            assert bool(redrawn) == reject_order_inversion  # and so has the redraw


def whole_soft_code(values, window):
    """The soft code formed over all of ``values`` widened at once, as blocks replaced it:
    (int32 interval, float32 fraction)."""
    position = _apply_window(values.astype(np.float64), window)
    position *= gmmaug.augment._KNOT_INTERVALS
    index = position.astype(np.int32)
    np.minimum(index, gmmaug.augment._KNOT_INTERVALS - 1, out=index)
    return index, np.subtract(position, index, out=position).astype(np.float32)


def whole_hard_code(values, window, params):
    """The hard code formed over all of ``values`` widened at once, as blocks replaced it:
    (uint8 argmax component, float64 offset D)."""
    normalized = _apply_window(values.astype(np.float64), window)
    log_prob = gmmaug.gmm._component_log_prob(params.weights, params.means, params.variances,
                                              normalized)
    index = np.argmax(log_prob, axis=0).astype(np.uint8)
    offset = np.subtract(normalized, params.means[index])
    offset /= np.sqrt(params.variances)[index]
    return index, offset


class TestDrawKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_soft_code_is_built_a_block_at_a_time(self, dtype):
        # a window whose edges are exact in both dtypes; values on them and
        # beyond them normalize to exactly 0 and 1
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, 8 * _BLOCK + 77).astype(dtype)
        edges = [3, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 5]
        values[edges] = (0.25, 0.75, 0.0, 1.0)
        window = (0.25, 0.75)
        expected_index, expected_weight = whole_soft_code(values, window)
        assert expected_index[edges].tolist() == [0, gmmaug.augment._KNOT_INTERVALS - 1] * 2
        assert expected_weight[edges].tolist() == [0.0, 1.0] * 2
        knots, index, weight, reach = _voxel_code(values.copy(), window, FAR_PARAMS, False)
        assert knots is gmmaug.augment._UNIT_KNOTS
        assert index.dtype == np.int32 and weight.dtype == np.float32
        assert index.tobytes() == expected_index.tobytes()
        assert weight.tobytes() == expected_weight.tobytes()
        assert reach == float(max(expected_weight.max(), -expected_weight.min())) == 1.0
        # the hard code too, in blocks that hold no foreground-sized temporary
        params = make_params((0.3, 0.3, 0.4), (0.2, 0.5, 0.8), (0.01, 0.02, 0.01))
        expected_index, expected_weight = whole_hard_code(values, window, params)
        assert len(set(expected_index.tolist())) == 3
        stored = values.copy()
        tracemalloc.start()
        try:
            knots, index, weight, reach = _voxel_code(values, window, params, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert knots is None and index.dtype == np.uint8 and weight.dtype == np.float64
        assert index.tobytes() == expected_index.tobytes()
        assert weight.tobytes() == expected_weight.tobytes()
        assert reach == float(np.abs(expected_weight).max())
        assert peak - index.nbytes - weight.nbytes <= 64 * _BLOCK
        assert values.tobytes() == stored.tobytes()  # the values are read, not overwritten

    @pytest.mark.parametrize("background", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("foreground", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_blocks_write_the_bytes_of_the_whole_draw(self, foreground, background):
        stats = make_stats((0.2, 0.2, 0.2), (1e-3, 1e-3, 3e-3))
        for integers in (False, True):
            vol = block_volume(foreground, background, integers)
            assert np.count_nonzero(foreground_mask(vol)) == foreground
            assert_blocks_write_the_whole_draw(vol, stats, integers)

    @pytest.mark.parametrize("integers", [False, True], ids=["float", "integer"])
    def test_redrawn_seeds_write_the_bytes_of_the_whole_draw(self, integers):
        # spreads wider than the gaps between the fitted means: some seeds
        # invert their order and are redrawn under reject_order_inversion
        stats = make_stats((0.5, 0.5, 0.5), (1e-3, 1e-3, 3e-3))
        vol = block_volume(_BLOCK + 1, True, integers)
        assert_blocks_write_the_whole_draw(vol, stats, integers, reject_order_inversion=True)

    @pytest.mark.parametrize("integers", [False, True], ids=["float", "integer"])
    def test_empty_blocks_write_the_bytes_of_the_whole_draw(self, integers):
        # empty first, middle and last blocks, as a brain's edge slices leave them
        stats = make_stats((0.2, 0.2, 0.2), (1e-3, 1e-3, 3e-3))
        tissue = block_volume(2 * _BLOCK - 5, False, integers).data
        data = np.zeros(5 * _BLOCK - 7)
        data[_BLOCK + 5:2 * _BLOCK], data[3 * _BLOCK:4 * _BLOCK] = np.split(tissue, [_BLOCK - 5])
        vol = Volume((data.size, 1, 1), (1, 1, 1), data)
        held = [foreground_mask(vol)[lo:lo + _BLOCK].any() for lo in range(0, data.size, _BLOCK)]
        assert held == [False, True, False, True, False]
        assert_blocks_write_the_whole_draw(vol, stats, integers)

    @pytest.mark.parametrize("hard_assign", [False, True], ids=["soft", "hard"])
    def test_next_draw_allocates_only_its_volume(self, default_phantom, hard_assign):
        vol, _ = default_phantom
        for dims in ((48, 48, 48), (96, 96, 96)):
            grid = Volume(dims, (1, 1, 1), np.resize(vol.data, np.prod(dims)))
            for source in (grid, Volume(dims, (1, 1, 1), np.rint(grid.data * 700.0))):
                draws = augment_draws(source, SPREAD_STATS, range(3), hard_assign=hard_assign)
                next(draws)
                tracemalloc.start()
                try:
                    out, _, _ = next(draws)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # the tables and a few small arrays, whatever the grid size
                assert peak - out.data.nbytes <= 1024 * 1024
