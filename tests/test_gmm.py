import math

import numpy as np
import pytest

import gmmaug.gmm
from gmmaug import (
    VARIANCE_FLOOR,
    DegenerateComponentError,
    EmConfig,
    GmmParams,
    InputError,
    InsufficientDataError,
    PhantomSpec,
    Volume,
    clip_normalize,
    fit_em,
    foreground_mask,
    generate_phantom,
    responsibilities,
)

from conftest import mixture_sample

TISSUE_WEIGHTS = (0.3, 0.4, 0.3)
TISSUE_MEANS = (0.1, 0.2, 0.3)
TISSUE_VARIANCES = (0.002, 0.001, 0.001)


def make_params(weights, means, variances):
    return GmmParams(
        k=len(means),
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood=0.0,
        iterations=0,
    )


class TestFitEm:
    def test_recovers_tissue_scale_mixture(self):
        rng = np.random.Generator(np.random.Philox(0))
        values = mixture_sample(rng, 100_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        params = fit_em(values)
        assert np.all(np.abs(params.means - TISSUE_MEANS) <= 0.01)
        assert np.all(np.abs(params.weights - TISSUE_WEIGHTS) <= 0.05)
        assert np.all(np.abs(params.variances / TISSUE_VARIANCES - 1.0) <= 0.30)
        assert params.iterations < 500

    def test_k1_is_exact_closed_form(self):
        rng = np.random.Generator(np.random.Philox(1))
        values = rng.normal(0.4, 0.07, 4000)
        params = fit_em(values, k=1)
        assert params.means[0] == np.mean(np.sort(values))
        assert params.variances[0] == np.var(np.sort(values))
        assert params.weights[0] == 1.0

    def test_point_masses_hit_variance_floor(self):
        values = np.array([0.1] * 50 + [0.9] * 50)
        params = fit_em(values, k=2)
        assert params.means == pytest.approx([0.1, 0.9], abs=1e-12)
        assert np.all(params.variances == VARIANCE_FLOOR)
        assert params.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_monotone_log_likelihood(self):
        rng = np.random.Generator(np.random.Philox(2))
        fixtures = [
            mixture_sample(rng, 20_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES),
            rng.random(5_000),
            rng.lognormal(0.0, 0.4, 8_000),
        ]
        for values in fixtures:
            params = fit_em(values)
            assert np.all(np.diff(params.ll_trajectory) >= -1e-9)

    def test_reported_ll_matches_returned_params(self):
        rng = np.random.Generator(np.random.Philox(12))
        values = rng.random(2_000)
        params = fit_em(values, cfg=EmConfig(max_iter=7))  # forced max_iter exit
        direct = 0.0
        for v in values:
            density = sum(
                w * math.exp(-((v - m) ** 2) / (2 * s)) / math.sqrt(2 * math.pi * s)
                for w, m, s in zip(params.weights, params.means, params.variances)
            )
            direct += math.log(density)
        assert params.log_likelihood == pytest.approx(direct, rel=1e-12)

    def test_deterministic_bit_identical(self):
        rng = np.random.Generator(np.random.Philox(3))
        values = mixture_sample(rng, 30_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        a = fit_em(values)
        b = fit_em(values)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.weights, b.weights)
        assert a.log_likelihood == b.log_likelihood
        assert a.iterations == b.iterations

    def test_means_sorted_ascending(self):
        rng = np.random.Generator(np.random.Philox(4))
        for seed in range(3):
            rng = np.random.Generator(np.random.Philox(seed))
            values = mixture_sample(rng, 10_000, (0.5, 0.5), (0.3, 0.5), (0.01, 0.01))
            params = fit_em(values, k=2)
            assert np.all(np.diff(params.means) > 0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_em(np.linspace(0, 1, 29), k=3)

    def test_degenerate_component_collapse(self):
        values = np.array([0.0] * 30 + [1.0] * 30)
        with pytest.raises(DegenerateComponentError):
            fit_em(values, k=3, cfg=EmConfig(tol=1e-12))

    def test_non_finite_values_rejected(self):
        with pytest.raises(InputError):
            fit_em(np.array([0.1] * 30 + [np.inf]), k=1)

    def test_repeated_values_fit_like_their_distinct_values(self):
        rng = np.random.Generator(np.random.Philox(5))
        values = mixture_sample(rng, 3_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        assert np.unique(values).size == values.size
        single = fit_em(values)
        tripled = fit_em(np.repeat(values, 3))  # grouped path, counts of 3
        assert tripled.iterations == single.iterations
        for name in ("weights", "means", "variances"):
            assert np.max(np.abs(getattr(tripled, name) - getattr(single, name))) <= 1e-12
        assert tripled.log_likelihood == pytest.approx(3.0 * single.log_likelihood, rel=1e-12)

    def test_quantised_values_run_on_distinct_columns(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(6))
        values = np.rint(300.0 * mixture_sample(
            rng, 50_000, TISSUE_WEIGHTS, (0.2, 0.5, 0.8), (4e-3, 4e-3, 4e-3)
        ))
        n_distinct = np.unique(values).size
        assert 250 <= n_distinct <= 350
        widths = []
        real = gmmaug.gmm._component_log_prob

        def spy(weights, means, variances, x):
            widths.append(x.size)
            return real(weights, means, variances, x)

        monkeypatch.setattr(gmmaug.gmm, "_component_log_prob", spy)
        fit_em(values)
        assert widths and set(widths) == {n_distinct}

        widths.clear()
        continuous = mixture_sample(rng, 50_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        fit_em(continuous)
        assert widths and max(widths) <= gmmaug.gmm._MAX_COLUMNS

    def test_order_of_repeated_values_is_irrelevant(self):
        rng = np.random.Generator(np.random.Philox(7))
        values = np.rint(200.0 * mixture_sample(
            rng, 20_000, (0.5, 0.5), (0.3, 0.7), (2e-3, 2e-3)
        )) / 200.0
        a = fit_em(values, 2)
        b = fit_em(rng.permutation(values), 2)
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.log_likelihood == b.log_likelihood
        assert a.ll_trajectory == b.ll_trajectory

    def test_order_of_distinct_values_is_irrelevant(self):
        # no value repeats and there are too few to bin: the exact path
        rng = np.random.Generator(np.random.Philox(8))
        values = mixture_sample(rng, 3000, (0.5, 0.5), (0.3, 0.7), (2e-3, 2e-3))
        assert np.unique(values).size == values.size <= gmmaug.gmm._MAX_COLUMNS
        a = fit_em(values, 2)
        for _ in range(5):
            b = fit_em(rng.permutation(values), 2)
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            assert a.ll_trajectory == b.ll_trajectory

    def test_binned_fit_matches_exact_fit(self, monkeypatch, default_phantom):
        rng = np.random.Generator(np.random.Philox(11))
        vol, _ = default_phantom
        mask = foreground_mask(vol)
        samples = [
            mixture_sample(rng, 30_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES),
            clip_normalize(vol, mask).data[mask],
        ]
        for values in samples:
            assert np.unique(values).size > gmmaug.gmm._MAX_COLUMNS
            binned = fit_em(values)
            with monkeypatch.context() as patch:
                patch.setattr(gmmaug.gmm, "_MAX_COLUMNS", values.size)
                exact = fit_em(values)
            assert binned.iterations == exact.iterations
            for name in ("weights", "means", "variances"):
                assert np.max(np.abs(getattr(binned, name) - getattr(exact, name))) <= 1e-6
            shuffled = fit_em(rng.permutation(values))
            for name in ("weights", "means", "variances"):
                assert np.array_equal(getattr(shuffled, name), getattr(binned, name))
            assert shuffled.ll_trajectory == binned.ll_trajectory

    def test_convergence_state_reported(self):
        rng = np.random.Generator(np.random.Philox(10))
        values = mixture_sample(rng, 5_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        cfg = EmConfig()
        done = fit_em(values, cfg=cfg)
        assert done.converged and done.iterations < cfg.max_iter
        assert 0.0 <= done.final_rel_change < cfg.tol
        cut = fit_em(values, cfg=EmConfig(max_iter=2))
        assert not cut.converged and cut.iterations == 2
        ll = cut.ll_trajectory
        assert cut.final_rel_change == abs(ll[-1] - ll[-2]) / max(1.0, abs(ll[-2]))


def plain_em(values, x, counts, k, tol, max_iter=100_000):
    """Count-weighted EM without acceleration on columns ``x`` with ``counts``.

    Starts where ``fit_em`` starts (means at equally spaced percentiles
    of ``values``, variances at their variance / k^2, uniform weights)
    and stops when one step raises the log-likelihood by less than
    ``tol`` relative to the previous value. Returns (means, log-likelihood).
    """
    n = counts.sum()
    means = np.percentile(values, 100.0 * np.arange(1, k + 1) / (k + 1))
    variances = np.full(k, max(np.var(values) / k ** 2, VARIANCE_FLOOR))
    weights = np.full(k, 1.0 / k)
    previous = None
    for _ in range(max_iter):
        diff = x - means[:, None]
        log_p = np.log(weights)[:, None] - 0.5 * (
            np.log(2.0 * math.pi * variances)[:, None] + diff * diff / variances[:, None]
        )
        top = log_p.max(axis=0)
        density = np.exp(log_p - top)
        total = density.sum(axis=0)
        ll = float(counts @ (top + np.log(total)))
        if previous is not None and ll - previous < tol * max(1.0, abs(previous)):
            break
        previous = ll
        resp = density / total * counts
        mass = resp.sum(axis=1)
        weights = mass / n
        means = resp @ x / mass
        variances = np.maximum(((x - means[:, None]) ** 2 * resp).sum(axis=1) / mass,
                               VARIANCE_FLOOR)
    order = np.argsort(means)
    return means[order], ll


def perfbench_like_values():
    """Masked, clip-normalized values of a 64^3 phantom stored as integers.

    Tissue means and variances as the benchmark's corpora use them, stored
    at 1/700 steps as its quantised workload does: about 240 distinct
    values. Plain EM takes 277 sweeps on it.
    """
    vol, _ = generate_phantom(PhantomSpec(means=(0.15, 0.25, 0.35),
                                          variances=(0.002, 0.001, 0.001), seed=5))
    mask = foreground_mask(vol)
    stored = Volume(vol.dims, vol.spacing, np.rint(700.0 * vol.data))
    return clip_normalize(stored, mask).data[mask]


class TestSquarem:
    def test_iterations_never_exceed_the_cap(self):
        rng = np.random.Generator(np.random.Philox(13))
        values = mixture_sample(rng, 5_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        full = fit_em(values)
        assert full.converged and full.iterations > 12
        for max_iter in range(1, 13):
            cut = fit_em(values, cfg=EmConfig(max_iter=max_iter))
            assert cut.iterations == max_iter
            assert not cut.converged
            assert len(cut.ll_trajectory) <= max_iter + 1
            assert np.all(np.diff(cut.ll_trajectory) >= 0.0)

    def test_criterion_2_fixtures_reach_the_maximum(self):
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(seed))
            values = mixture_sample(rng, 100_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
            # the bin-mean columns the binned fit maximises over
            x, counts, _ = gmmaug.gmm._bin_columns(*np.unique(values, return_counts=True))
            fit = fit_em(values)
            _, plain_ll = plain_em(values, x, counts, 3, EmConfig().tol)
            best_means, _ = plain_em(values, x, counts, 3, 1e-12)
            assert fit.converged
            assert fit.log_likelihood >= plain_ll
            assert np.max(np.abs(fit.means - best_means)) <= 1e-4

    def test_phantom_reaches_the_maximum_in_few_sweeps(self):
        values = perfbench_like_values()
        x, counts = np.unique(values, return_counts=True)
        fit = fit_em(values)
        _, plain_ll = plain_em(values, x, counts, 3, EmConfig().tol)
        best_means, _ = plain_em(values, x, counts, 3, 1e-12)
        assert fit.converged and fit.iterations <= 100
        assert fit.log_likelihood >= plain_ll
        assert np.max(np.abs(fit.means - best_means)) <= 1e-4

    def test_invalid_jump_falls_back(self, monkeypatch):
        # two tight clusters and three components: the first extrapolation
        # proposes a variance below the floor
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0.2, 0.01, 200), rng.normal(0.8, 0.01, 24)])
        proposals = []
        real = gmmaug.gmm._squarem_point

        def spy(theta0, theta1, theta2, step_max):
            candidate, alpha = real(theta0, theta1, theta2, step_max)
            if alpha > 1.0:
                r = theta1 - theta0
                raw = theta0 + 2.0 * alpha * r + alpha * alpha * (theta2 - theta1 - r)
                proposals.append((raw, candidate))
            return candidate, alpha

        monkeypatch.setattr(gmmaug.gmm, "_squarem_point", spy)
        params = fit_em(values, k=3)
        raw, candidate = proposals[0]
        assert np.any(raw[0] <= 0) or np.any(raw[2] < VARIANCE_FLOOR)
        assert candidate is None
        assert np.all(np.diff(params.ll_trajectory) >= -1e-9)
        assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(params.weights > 0) and np.all(params.variances >= VARIANCE_FLOOR)
        again = GmmParams.from_json_dict(params.to_json_dict())
        assert np.array_equal(again.means, params.means)

class TestResponsibilities:
    def test_rows_sum_to_one(self):
        params = make_params((0.3, 0.7), (0.2, 0.6), (0.01, 0.02))
        rng = np.random.Generator(np.random.Philox(8))
        gamma = responsibilities(params, rng.random(1000))
        assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) <= 1e-12

    def test_dominant_component_at_far_mean(self):
        params = make_params((0.5, 0.5), (0.0, 10.0), (0.01, 0.01))
        gamma = responsibilities(params, [10.0])
        assert gamma[0, 1] > 0.999

    def test_symmetric_midpoint_splits_evenly(self):
        params = make_params((0.5, 0.5), (0.0, 1.0), (0.01, 0.01))
        gamma = responsibilities(params, [0.5])
        assert gamma[0, 0] == gamma[0, 1]
        assert gamma[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_extreme_value_rows_still_normalized(self):
        # both densities underflow linearly; log-space keeps the row sane
        params = make_params((0.5, 0.5), (0.0, 1.0), (1e-6, 1e-6))
        gamma = responsibilities(params, [500.0])
        assert gamma[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_component_gets_nothing(self):
        params = make_params((0.0, 1.0), (0.0, 1.0), (0.01, 0.01))
        gamma = responsibilities(params, [0.0, 0.5, 1.0])
        assert np.all(gamma[:, 0] == 0.0)

    def test_in_place_log_prob_matches_expression(self):
        rng = np.random.Generator(np.random.Philox(8))
        weights = np.array([0.0, 0.25, 0.75])  # a zero weight gives a -inf row
        means = np.array([0.1, 0.4, 0.7])
        variances = np.array([2e-3, 1e-4, 5e-2])
        values = rng.uniform(-0.5, 1.5, 1_000)
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        diff = values[None, :] - means[:, None]
        expected = log_w[:, None] - 0.5 * (
            math.log(2.0 * math.pi) + np.log(variances)[:, None] + diff * diff / variances[:, None]
        )
        buf = np.empty((3, values.size))
        got = gmmaug.gmm._component_log_prob(weights, means, variances, values, out=buf)
        assert got is buf
        assert np.array_equal(buf, expected)
        assert np.all(buf[0] == -np.inf)
        fresh = gmmaug.gmm._component_log_prob(weights, means, variances, values)
        assert np.array_equal(fresh, expected)


class TestGmmParams:
    def test_json_round_trip(self):
        rng = np.random.Generator(np.random.Philox(9))
        values = mixture_sample(rng, 5_000, (0.5, 0.5), (0.2, 0.8), (1e-3, 1e-3))
        params = fit_em(values, k=2)
        again = GmmParams.from_json_dict(params.to_json_dict())
        assert np.array_equal(again.means, params.means)
        assert np.array_equal(again.variances, params.variances)
        assert np.array_equal(again.weights, params.weights)
        assert again.log_likelihood == params.log_likelihood
        assert again.converged == params.converged
        assert again.final_rel_change == params.final_rel_change

    def test_json_without_convergence_state_loads(self):
        obj = make_params((0.5, 0.5), (0.2, 0.8), (1e-3, 1e-3)).to_json_dict()
        del obj["converged"], obj["final_rel_change"]
        again = GmmParams.from_json_dict(obj)
        assert again.converged and again.final_rel_change == 0.0

    def test_validation_rejects_bad_weights(self):
        with pytest.raises(InputError):
            make_params((0.5, 0.6), (0.0, 1.0), (0.01, 0.01))

    def test_validation_rejects_unsorted_means(self):
        with pytest.raises(InputError):
            make_params((0.5, 0.5), (1.0, 0.0), (0.01, 0.01))

    def test_validation_rejects_sub_floor_variance(self):
        with pytest.raises(InputError):
            make_params((0.5, 0.5), (0.0, 1.0), (1e-12, 0.01))

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError):
            GmmParams.from_json_dict({"k": 2, "weights": [1.0]})

    @pytest.mark.parametrize("field, value", [("iterations", math.inf), ("k", -math.inf),
                                              ("log_likelihood", 10**400)],
                             ids=["iterations", "k", "log_likelihood"])
    def test_overflowing_json_field_rejected(self, field, value):
        obj = make_params((0.5, 0.5), (0.2, 0.8), (1e-3, 1e-3)).to_json_dict()
        obj[field] = value
        with pytest.raises(InputError, match="malformed"):
            GmmParams.from_json_dict(obj)

    def test_config_validation(self):
        with pytest.raises(InputError):
            EmConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_config_rejects_non_finite_tol(self, tol):
        with pytest.raises(InputError, match="tol"):
            EmConfig(tol=tol)
