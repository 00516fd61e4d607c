import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmmaug.gmm
import gmmaug.volume
from gmmaug import (
    VARIANCE_FLOOR,
    DegenerateComponentError,
    DegenerateIntensityError,
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
from gmmaug.preprocess import fit_volume

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

    def test_collapse_on_the_last_allowed_e_step_raises(self):
        # the third E-step finds a mass of about 4e-13: with max_iter=3 the
        # cap stops the fit on that same sweep, which must not hide it
        values = np.array([0.0] * 30 + [1.0] * 30)
        assert not fit_em(values, k=3, cfg=EmConfig(max_iter=2)).converged
        for max_iter in (3, 4):
            with pytest.raises(DegenerateComponentError, match="component 1 .* collapsed"):
                fit_em(values, k=3, cfg=EmConfig(max_iter=max_iter))

    def test_non_finite_values_rejected(self):
        with pytest.raises(InputError):
            fit_em(np.array([0.1] * 30 + [np.inf]), k=1)

    def test_k_below_one_rejected(self):
        with pytest.raises(InputError, match="k must be >= 1, got 0"):
            fit_em(np.linspace(0.0, 1.0, 30), k=0)

    @pytest.mark.parametrize("values", [
        np.r_[np.full(30, 1e200), np.full(30, 2e200)],  # the squared offsets overflow
        np.linspace(1e200, 2e200, 5000),  # binned, likewise
        1.7e308 * np.linspace(-1.0, 1.0, 5000),  # the bins' range itself overflows
    ], ids=["columns", "bins", "range"])
    def test_spread_beyond_float64_rejected(self, values):
        with pytest.raises(DegenerateIntensityError, match="overflows float64"):
            fit_em(values, k=1)

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

    def test_repeated_values_fit_like_their_values_when_binned(self):
        rng = np.random.Generator(np.random.Philox(5))
        values = mixture_sample(rng, 20_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        assert np.unique(values).size == values.size > gmmaug.gmm._MAX_COLUMNS
        single = fit_em(values)
        tripled = fit_em(np.repeat(values, 3))  # binned path, every run 3 long
        assert tripled.iterations == single.iterations
        for name in ("weights", "means", "variances"):
            assert np.array_equal(getattr(tripled, name), getattr(single, name))
        assert tripled.log_likelihood == 3.0 * single.log_likelihood

    def test_quantised_values_run_on_distinct_columns(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(6))
        values = np.rint(300.0 * mixture_sample(
            rng, 50_000, TISSUE_WEIGHTS, (0.2, 0.5, 0.8), (4e-3, 4e-3, 4e-3)
        ))
        n_distinct = np.unique(values).size
        assert 250 <= n_distinct <= 350
        widths = []
        real = gmmaug.gmm._posterior

        def spy(log_prob):  # each E-step normalizes its (k, columns) log-densities
            widths.append(log_prob.shape[1])
            return real(log_prob)

        monkeypatch.setattr(gmmaug.gmm, "_posterior", spy)
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


# Percentile inputs: unit-scale floats or small integers, repeated up to
# three times each, at magnitudes from 1e-5 to 1e5; percentiles anywhere
# in [0, 100], the ends and integers included.
SAMPLES = st.tuples(
    st.lists(st.floats(-1.0, 1.0) | st.integers(-20, 20).map(float), min_size=1, max_size=40),
    st.integers(1, 3),
    st.sampled_from((1e-5, 1e-2, 1.0, 1e3, 1e5)),
).map(lambda t: np.repeat(np.array(t[0]), t[1]) * t[2])
PERCENTILES = st.lists(st.floats(0.0, 100.0) | st.sampled_from((0.0, 100.0)) | st.integers(0, 100),
                       min_size=1, max_size=4)


def whole_bins(x):
    """``gmm._bin_sorted`` with the deviations formed over all of ``x`` at once: the reference."""
    bins = gmmaug.gmm._MAX_COLUMNS
    edges = x[0] + (x[-1] - x[0]) * (np.arange(1, bins) / bins)
    cuts = np.concatenate(([0], np.searchsorted(x, edges), [x.size]))
    sizes = np.diff(cuts)
    starts, counts = cuts[:-1][sizes > 0], sizes[sizes > 0]
    means = np.add.reduceat(x, starts) / counts
    dev = np.repeat(means, counts)
    np.subtract(x, dev, out=dev)
    dev *= dev
    return means, counts.astype(np.float64), np.add.reduceat(dev, starts)


class TestSortedInput:
    """The helpers that read percentiles and bins off sorted values by index."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=SAMPLES, pct=PERCENTILES)
    def test_percentiles_are_numpys_bits(self, values, pct):
        got = gmmaug.gmm._sorted_percentiles(np.sort(values), pct)
        assert got.tobytes() == np.percentile(values, pct).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=SAMPLES, pct=PERCENTILES)
    def test_percentiles_from_cumulative_counts_are_numpys_bits(self, values, pct):
        # the distinct values and the running totals of their counts, as
        # integer-stored scans are counted
        distinct, counts = np.unique(values, return_counts=True)
        got = gmmaug.gmm._sorted_percentiles(distinct, pct, np.cumsum(counts))
        assert got.tobytes() == np.percentile(values, pct).tobytes()

    def test_percentiles_of_one_value(self):
        got = gmmaug.gmm._sorted_percentiles(np.array([-0.0]), [0.0, 37.5, 100.0])
        assert got.tobytes() == np.percentile(np.array([-0.0]), [0.0, 37.5, 100.0]).tobytes()

    def test_value_on_an_edge_falls_in_the_upper_bin(self):
        # over [0, 1] the interior edges are j / 4096 exactly, and every
        # even value of the ramp sits on one
        bins = gmmaug.gmm._MAX_COLUMNS
        ramp = np.arange(2 * bins + 1) / (2 * bins)
        means, counts, within = gmmaug.gmm._bin_sorted(ramp)
        assert np.array_equal(counts, [2.0] * (bins - 1) + [3.0])  # 1.0 joins the last bin
        assert np.array_equal(means[:-1], (4 * np.arange(bins - 1) + 1) / (4 * bins))
        assert means[-1] == np.mean(ramp[-3:])
        assert within[0] == 2 * (1 / (4 * bins)) ** 2

    @pytest.mark.parametrize("case", ["across-zero", "float32-repeats", "far-from-zero",
                                      "run-below-its-bin", "run-above-its-bin", "unit-range"])
    def test_bins_follow_the_bin_formula(self, case):
        rng = np.random.Generator(np.random.Philox(14))

        def run_across_an_edge(lo, hi, value):
            # a long run of a value that sits by the edge lo + (hi - lo) *
            # (j / 4096) but on the other side of it by the rounding of
            # floor((v - lo) / (hi - lo) * 4096): the edge decides, and
            # the run stays whole
            return np.concatenate([np.linspace(lo, hi, 10_000), np.full(100_000, value)])

        values = {
            "across-zero": lambda: rng.normal(0.05, 0.1, 50_000),
            "float32-repeats": lambda: rng.normal(0.4, 0.1, 200_000).astype(np.float32),
            "far-from-zero": lambda: 1000.0 + 1e-6 * rng.random(30_000),
            "run-below-its-bin": lambda: run_across_an_edge(
                0.9470809631292422, 222.63088059102, 62.429697266177065),  # edge 1136
            "run-above-its-bin": lambda: run_across_an_edge(
                -0.535669373161111, 3.4469531906089648, -0.46955161575477183),  # edge 68
            # normalised data as the fit path sees it, a value on every edge
            "unit-range": lambda: np.concatenate([rng.random(50_000), np.arange(4097) / 4096]),
        }[case]().astype(np.float64)
        assert np.unique(values).size > gmmaug.gmm._MAX_COLUMNS
        # each sorted value's bin is the number of interior edges at or
        # below it; each bin's columns are summed over its values in
        # ascending order
        bins = gmmaug.gmm._MAX_COLUMNS
        x = np.sort(values)
        edges = x[0] + (x[-1] - x[0]) * (np.arange(1, bins) / bins)
        index = np.searchsorted(edges, x, side="right")
        if case == "unit-range":
            # over [0, 1] the edges are j / 4096 exactly, so on the fit
            # path's data the edges give the bins of the formula
            assert x[0] == 0.0 and x[-1] == 1.0
            assert np.array_equal(index, np.minimum(np.floor(bins * x), bins - 1))
        starts = np.flatnonzero(np.diff(index, prepend=-1))
        expected_counts = np.diff(starts, append=x.size).astype(np.float64)
        expected_means = np.add.reduceat(x, starts) / expected_counts
        dev = x - np.repeat(expected_means, np.diff(starts, append=x.size))
        expected_within = np.add.reduceat(dev * dev, starts)
        means, got_counts, within = gmmaug.gmm._bin_sorted(x)
        assert got_counts.tobytes() == expected_counts.tobytes()
        assert means.tobytes() == expected_means.tobytes()
        assert within.tobytes() == expected_within.tobytes()

    @pytest.mark.parametrize("case", ["straddling", "one-large-bin", "long-runs", "strided"])
    def test_bins_in_blocks_are_the_whole_array_bins(self, case):
        # groups of whole bins end where no multiple of the block does; a
        # bin, or a run of equal values, larger than a block is a group of
        # its own; the fit path hands over every third value of repeats
        block = gmmaug.volume._BLOCK
        rng = np.random.Generator(np.random.Philox(15))
        values = {
            "straddling": lambda: rng.random(5 * block + 123),
            "one-large-bin": lambda: np.concatenate([rng.random(3 * block),
                                                     rng.normal(0.5, 1e-6, 2 * block)]),
            "long-runs": lambda: np.concatenate([np.repeat(rng.random(6000),
                                                           rng.integers(1, 200, 6000)),
                                                 np.full(3 * block, 0.25)]),
            "strided": lambda: np.repeat(rng.normal(0.4, 0.1, 3 * block), 3),
        }[case]()
        x = np.sort(values)[::3] if case == "strided" else np.sort(values)
        expected = whole_bins(x)
        assert (expected[1].max() > block) == (case in ("one-large-bin", "long-runs"))
        for got, want in zip(gmmaug.gmm._bin_sorted(x), expected):
            assert got.tobytes() == want.tobytes()

    def test_bins_keep_the_total_moments(self):
        rng = np.random.Generator(np.random.Philox(12))
        values = np.sort(rng.normal(0.4, 0.1, 20_000))
        means, counts, within = gmmaug.gmm._bin_sorted(values)
        assert counts.sum() == values.size and np.all(counts > 0)
        assert np.all(np.diff(means) > 0)
        mean = (counts * means).sum() / values.size
        assert mean == pytest.approx(values.mean(), rel=1e-13)
        spread = (counts * (means - mean) ** 2).sum() + within.sum()
        assert spread / values.size == pytest.approx(values.var(), rel=1e-11)


class TestJumps:
    def test_iterations_never_exceed_the_cap(self):
        # Newton's steps fit the tissue sample in 12 E-steps; a stress
        # sample, where steps on the trust region's sphere carry the fit,
        # takes 59, so every cut from 1 to 12 falls inside it
        rng = np.random.Generator(np.random.Philox(13))
        tissue = mixture_sample(rng, 5_000, TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
        stress = two_cluster_stress_values()[0]
        full = fit_em(stress)
        assert full.converged and full.iterations > 12
        cuts = [(stress, max_iter) for max_iter in range(1, 13)]
        full = fit_em(tissue)
        assert full.converged
        cuts += [(tissue, max_iter) for max_iter in range(1, full.iterations)]
        for values, max_iter in cuts:
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
            ordered = np.sort(values)
            x, counts, _ = gmmaug.gmm._bin_sorted(ordered)
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
        assert fit.converged and fit.iterations <= 20
        assert fit.log_likelihood >= plain_ll
        assert np.max(np.abs(fit.means - best_means)) <= 1e-4

    def test_invalid_jump_falls_back(self, monkeypatch):
        # two tight clusters and three components: the model is not
        # concave at the first jumps, and its steps on the sphere of
        # radius 1, then on the shrunk spheres, are refused
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0.2, 0.01, 200), rng.normal(0.8, 0.01, 24)])
        proposals = []
        real = gmmaug.gmm._newton_point

        def spy(theta, resp, table, centre, radius):
            candidate, length = real(theta, resp, table, centre, radius)
            proposals.append((radius, length))
            return candidate, length

        monkeypatch.setattr(gmmaug.gmm, "_newton_point", spy)
        params = fit_em(values, k=3)
        # each refusal sets the radius to a quarter of the refused step's length
        assert proposals[1:4] == [(np.inf, 1.0), (0.25, 0.25), (0.0625, 0.0625)]
        assert np.all(np.diff(params.ll_trajectory) >= -1e-9)
        assert params.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(params.weights > 0) and np.all(params.variances >= VARIANCE_FLOOR)
        again = GmmParams.from_json_dict(params.to_json_dict())
        assert np.array_equal(again.means, params.means)
        # three tight pairs of values under variances just above the floor:
        # Newton's step divides the variances by about e^199, so no point
        x = (np.array([0.2, 0.5, 0.8])[:, None] + [-1e-5, 1e-5]).ravel()
        counts = np.full(x.size, 20.0)
        centre = float(x.mean())
        table = (counts * (x - centre) ** np.arange(5)[:, None]).T
        theta = np.array(((0.3, 0.4, 0.3), (0.2, 0.5, 0.8), (2e-8, 2e-8, 2e-8)))
        resp = gmmaug.gmm._posterior(gmmaug.gmm._component_log_prob(*theta, x))[0]
        point, length = gmmaug.gmm._newton_point(theta, resp, table, centre, np.inf)
        assert point is None and length > 0

    def test_stress_fits_converge_no_lower_than_without_jumps(self, monkeypatch):
        # the no-jump reference proposes nothing, so its cycles are plain EM
        fits = [fit_em(values) for values in two_cluster_stress_values()]
        with monkeypatch.context() as patch:
            patch.setattr(gmmaug.gmm, "_newton_point", lambda *args: (None, 0.0))
            reference = [fit_em(values) for values in two_cluster_stress_values()]
        assert all(fit.converged for fit in fits)  # the reference stops 4 at the cap
        # measured: 19653.4 against 19642.9
        total = sum(fit.log_likelihood for fit in fits)
        assert total >= sum(ref.log_likelihood for ref in reference)
        # a fit may end on another local maximum; measured: at worst 1.6e-5 |ll| lower
        for fit, ref in zip(fits, reference):
            ll = ref.log_likelihood
            assert fit.log_likelihood >= ll - 1e-4 * abs(ll)

    def test_two_tissue_phantoms_converge_with_three_components(self):
        # separated tissues and overlapping ones; k = 3 overfits both
        for means, variance in (((0.3, 0.7), 1e-4), ((0.3, 0.5), 4e-3)):
            for seed in range(10):
                vol, _ = generate_phantom(PhantomSpec(
                    dims=(40, 40, 40), means=means, variances=(variance, variance),
                    radius_fractions=(0.6, 0.9), seed=seed))
                params = fit_volume(vol.data[foreground_mask(vol)], 3, EmConfig(), 1.0, 99.0)[1]
                assert params.converged

    @pytest.mark.parametrize("seed", range(8))
    def test_model_step_solves_the_trust_region_problem(self, seed):
        # concave models for even seeds, indefinite ones for odd seeds
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 8))
        curvature = a @ a.T if seed % 2 == 0 else a + a.T
        grad = rng.normal(size=8)
        scale = np.max(np.abs(np.linalg.eigvalsh(curvature)))
        for radius in (1e-3, 0.1, 1.0, 10.0, np.inf):
            step, mu, length = gmmaug.gmm._model_step(curvature, grad, radius)
            shifted = curvature + mu * np.eye(8)
            assert mu >= 0.0
            assert np.linalg.eigvalsh(shifted)[0] >= -1e-14 * scale
            # measured: residuals below 8e-16 (scale + mu) |step|, gaps below 6e-16 |step|
            assert np.max(np.abs(shifted @ step - grad)) <= 1e-13 * (scale + mu) * length
            assert mu * abs(math.hypot(*step) - length) <= 1e-14 * mu * length
            if mu > 0:
                assert length == (1.0 if radius == np.inf else radius)
        # a concave model whose Newton step fits: the Cholesky solve, bit for bit
        curvature = a @ a.T + np.eye(8)
        factor = np.linalg.cholesky(curvature)
        newton = np.linalg.solve(factor.T, np.linalg.solve(factor, grad))
        for radius in (math.hypot(*newton), 2 * math.hypot(*newton), np.inf):
            step, mu, length = gmmaug.gmm._model_step(curvature, grad, radius)
            assert step.tobytes() == newton.tobytes() and mu == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_newton_point_from_fixed_layouts_is_the_assembled_one(self, k):
        # points from Newton's step and from the trust region's sphere,
        # each bit for bit
        rng = np.random.default_rng(k)
        x = np.sort(rng.random(300))
        counts = rng.integers(1, 50, x.size).astype(np.float64)
        centre = (counts * x).sum() / counts.sum()
        u = x - centre
        table = (counts * np.array((np.ones_like(u), u, u * u, u * u * u, u * u * u * u))).T
        on_sphere = set()
        for trial in range(40):
            weights = rng.dirichlet(np.ones(k))
            theta = np.array((weights, np.sort(rng.random(k)), rng.uniform(1e-3, 0.05, k)))
            resp = gmmaug.gmm._posterior(gmmaug.gmm._component_log_prob(*theta, x))[0]
            for radius in (np.inf, 0.05):
                point, length = gmmaug.gmm._newton_point(theta, resp, table, centre, radius)
                expected, expected_length = assembled_newton_point(theta, resp, table, centre,
                                                                   radius)
                assert length == expected_length
                assert (point is None) == (expected is None)
                if point is not None:
                    assert point.tobytes() == expected.tobytes()
                on_sphere.add(length == radius)
        assert on_sphere == {False, True}

    @pytest.mark.parametrize("column", [0, 4], ids=["gradient", "hessian"])
    def test_no_newton_point_from_a_non_finite_gradient_or_hessian(self, column):
        # the counts times u^0 enter the gradient; u^4 only the Hessian
        x = np.linspace(0.1, 0.9, 9)
        centre = float(x.mean())
        table = (x - centre) ** np.arange(5)[:, None]
        table[column, 4] = np.inf
        theta = np.array(((0.3, 0.4, 0.3), (0.2, 0.5, 0.8), (0.01, 0.01, 0.01)))
        resp = gmmaug.gmm._posterior(gmmaug.gmm._component_log_prob(*theta, x))[0]
        point, _ = gmmaug.gmm._newton_point(theta, resp, table.T, centre, np.inf)
        assert point is None

    def test_newton_point_is_newtons_step_on_the_log_likelihood(self):
        # central differences of the log-likelihood in the means, log
        # variances and logits log(w_j / w_0), near the maximum
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(mu, 0.05, 100) for mu in (0.2, 0.5, 0.8)])
        x, counts = np.unique(np.round(values, 3), return_counts=True)
        counts = counts.astype(np.float64)
        centre = (counts * x).sum() / counts.sum()
        table = (counts * (x - centre) ** np.arange(5)[:, None]).T
        k = 3

        def theta_of(phi):
            logits = np.concatenate(([0.0], phi[2 * k:]))
            return np.array((np.exp(logits) / np.exp(logits).sum(), phi[:k], np.exp(phi[k:2 * k])))

        def phi_of(theta):
            weights, means, variances = theta
            return np.concatenate((means, np.log(variances), np.log(weights[1:] / weights[0])))

        def log_likelihood(phi):
            lp = gmmaug.gmm._component_log_prob(*theta_of(phi), x)
            top = lp.max(axis=0)
            return float(counts @ (top + np.log(np.exp(lp - top).sum(axis=0))))

        phi = np.array([0.202, 0.497, 0.803, *np.log([0.0027, 0.0024, 0.0026]), 0.1, -0.05])
        h, eye = 1e-5, np.eye(phi.size)
        grad = np.array([log_likelihood(phi + h * e) - log_likelihood(phi - h * e)
                         for e in eye]) / (2 * h)
        hess = np.array([[log_likelihood(phi + h * (a + b)) - log_likelihood(phi + h * (a - b))
                          - log_likelihood(phi - h * (a - b)) + log_likelihood(phi - h * (a + b))
                          for b in eye] for a in eye]) / (4 * h * h)
        theta = theta_of(phi)
        resp = gmmaug.gmm._posterior(gmmaug.gmm._component_log_prob(*theta, x))[0]
        point, _ = gmmaug.gmm._newton_point(theta, resp, table, centre, np.inf)
        # measured: 2.9e-7
        assert np.max(np.abs(point / theta_of(phi - np.linalg.solve(hess, grad)) - 1.0)) <= 1e-5
        assert log_likelihood(phi_of(point)) > log_likelihood(phi)


def assembled_newton_point(theta, resp, table, centre, radius):
    """``gmm._newton_point`` with its score, Hankel and Hessian matrices assembled piece by
    piece, entry block by entry block: the reference for the fixed layouts."""
    weights, means, variances = theta
    k = weights.size
    own = np.arange(k)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = resp @ table
        cov = np.zeros((k, k, 5))
        row = np.empty(resp.shape[1])
        for j, l in itertools.combinations(range(k), 2):
            pair = table.T @ np.multiply(resp[j], resp[l], out=row)
            cov[j, l] = cov[l, j] = -pair
            cov[j, j] += pair
            cov[l, l] += pair
        offset, inv = means - centre, 1.0 / variances
        score = np.zeros((k, 3, 3 * k - 1))
        score[own, 0, own] = -offset * inv
        score[own, 1, own] = inv
        score[own, 0, k + own] = 0.5 * (offset * offset * inv - 1.0)
        score[own, 1, k + own] = -offset * inv
        score[own, 2, k + own] = 0.5 * inv
        score[:, 0, 2 * k:] = np.eye(k)[:, 1:] - weights[1:]
        score = score.reshape(3 * k, 3 * k - 1)
        grad = sums[:, :3].ravel() @ score
        hankel = np.add.outer(np.arange(3), np.arange(3))  # u^(p + q)
        hankel = cov[..., hankel].transpose(0, 2, 1, 3).reshape(3 * k, 3 * k)
        hess = score.T @ hankel @ score
        first = sums[:, 1] - offset * sums[:, 0]
        second = sums[:, 2] - offset * (sums[:, 1] + first)
        hess[own, own] -= sums[:, 0] * inv
        hess[own, k + own] -= first * inv
        hess[k + own, own] -= first * inv
        hess[k + own, k + own] -= 0.5 * second * inv
        tail = weights[1:]
        hess[2 * k:, 2 * k:] -= sums[:, 0].sum() * (np.diag(tail) - np.outer(tail, tail))
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            return None, 0.0
        step, _, length = gmmaug.gmm._model_step(-hess, grad, radius)
        weights = weights * np.exp(np.concatenate(([0.0], step[2 * k:])))
        candidate = np.array((weights / weights.sum(), means + step[:k],
                              variances * np.exp(step[k:2 * k])))
    if not (np.isfinite(candidate).all() and np.all(candidate[0] > 0)
            and np.all(candidate[2] >= VARIANCE_FLOOR)):
        return None, length
    return candidate, length


def two_pass_sweep(x, counts, centre, scale_ll):
    """``gmm._em_sweep``'s contract, computed pass by pass over (k, n) arrays.

    The reference formulation: log-densities from the squared distances
    to each mean, then the M-step's weighted means and, in a second
    pass, the weighted squared deviations from them. It needs no centre.
    """
    n = counts.sum()

    def sweep(theta):
        resp, top, total = gmmaug.gmm._posterior(gmmaug.gmm._component_log_prob(*theta, x))
        ll = scale_ll * float((top + np.log(total)) @ counts)
        weighted = resp * counts
        mass = weighted.sum(axis=1)
        if np.any(mass < gmmaug.gmm._MASS_FLOOR):
            return ll, resp, None
        means = (weighted * x).sum(axis=1) / mass
        diff = x - means[:, None]
        diff *= diff
        variances = np.maximum((weighted * diff).sum(axis=1) / mass, VARIANCE_FLOOR)
        return ll, resp, np.array((mass / n, means, variances))

    return sweep


def two_cluster_stress_values():
    """200 draws at N(0.2, 0.01^2) plus 20-49 at N(0.8, 0.01^2): k = 3 overfits them."""
    rng = np.random.default_rng(1)
    return [np.concatenate([rng.normal(0.2, 0.01, 200), rng.normal(0.8, 0.01, m)])
            for m in range(20, 50)]


class TestMomentSweep:
    """The sweep's two products against the pass-by-pass reference."""

    def assert_matches_reference(self, monkeypatch, samples, k, mu_tol, var_tol):
        for values in samples:
            fit = fit_em(values, k)
            with monkeypatch.context() as patch:
                patch.setattr(gmmaug.gmm, "_em_sweep", two_pass_sweep)
                reference = fit_em(values, k)
            assert (fit.iterations, fit.converged) == (reference.iterations, reference.converged)
            assert np.max(np.abs(fit.means - reference.means)) <= mu_tol
            assert np.max(np.abs(fit.variances / reference.variances - 1.0)) <= var_tol

    def test_quantised_phantom(self, monkeypatch):
        # measured: 2.0e-14 and 1.7e-12
        self.assert_matches_reference(monkeypatch, [perfbench_like_values()], 3, 1e-12, 1e-10)

    def test_criterion_2_fixtures(self, monkeypatch):
        samples = (mixture_sample(np.random.Generator(np.random.Philox(seed)), 100_000,
                                  TISSUE_WEIGHTS, TISSUE_MEANS, TISSUE_VARIANCES)
                   for seed in range(20))
        # measured: 1.5e-13 and 1.1e-11
        self.assert_matches_reference(monkeypatch, samples, 3, 1e-12, 1e-10)

    def test_two_cluster_stress_set(self, monkeypatch):
        # the fits take 19-98 E-steps, equal on both sides; measured: 1.7e-12 and 1.9e-10
        self.assert_matches_reference(monkeypatch, two_cluster_stress_values(), 3, 1e-10, 2e-8)

    def test_k1_is_the_sample_mean_and_variance(self):
        for seed in range(10):
            rng = np.random.Generator(np.random.Philox(seed))
            for values in (rng.normal(0.4, 0.07, 4000),  # distinct values
                           np.rint(rng.normal(300.0, 20.0, 5000)),  # repeats
                           rng.normal(0.4, 0.07, 30_000)):  # bins
                params = fit_em(values, k=1)
                ordered = np.sort(values)
                # measured: 2.2e-16 and 8.9e-16
                assert params.means[0] == pytest.approx(np.mean(ordered), rel=1e-15)
                assert params.variances[0] == pytest.approx(np.var(ordered), rel=4e-15)
                assert params.weights[0] == 1.0

    def test_point_mass_far_from_the_centre_sits_at_the_floor(self, monkeypatch):
        # 0.05 lies 0.43 from the data's centre: its second moment about
        # the centre and its squared mean offset cancel to below the floor
        rng = np.random.default_rng(0)
        values = np.concatenate([np.full(60, 0.05), rng.normal(0.9, 0.05, 60)])
        fit = fit_em(values, 2)
        assert fit.means[0] == pytest.approx(0.05, abs=1e-15)
        assert fit.variances[0] == VARIANCE_FLOOR
        self.assert_matches_reference(monkeypatch, [values], 2, 1e-15, 1e-12)
        lone = fit_em(np.full(40, 0.37), k=1)
        assert lone.means[0] == 0.37 and lone.variances[0] == VARIANCE_FLOOR


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
        got = gmmaug.gmm._component_log_prob(weights, means, variances, values)
        assert np.array_equal(got, expected)
        assert np.all(got[0] == -np.inf)


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

    @pytest.mark.parametrize("k, weights, means, variances", [
        (3, (0.5, 0.5), (0.2, 0.8), (1e-3, 1e-3)),
        (2, (0.5, 0.5), (0.2, 0.5, 0.8), (1e-3, 1e-3)),
        (2, (0.5, 0.5), (0.2, 0.8), (1e-3,)),
        (2, (1.0,), (0.2, 0.8), (1e-3, 1e-3)),
    ], ids=["k", "means", "variances", "weights"])
    def test_validation_rejects_sizes_that_disagree(self, k, weights, means, variances):
        with pytest.raises(InputError) as info:
            GmmParams(k=k, weights=weights, means=means, variances=variances,
                      log_likelihood=0.0, iterations=0)
        assert str(info.value) == "k, weights, means, variances sizes disagree"

    def test_validation_rejects_sub_floor_variance(self):
        with pytest.raises(InputError):
            make_params((0.5, 0.5), (0.0, 1.0), (1e-12, 0.01))

    @pytest.mark.parametrize("field, value", [
        ("weights", [math.nan]), ("means", [math.nan]), ("means", [math.inf]),
        ("variances", [math.inf]), ("log_likelihood", math.nan), ("final_rel_change", math.inf),
    ], ids=["weights-nan", "means-nan", "means-inf", "variances-inf", "log_likelihood-nan",
            "final_rel_change-inf"])
    def test_validation_rejects_non_finite_fields(self, field, value):
        fields = dict(k=1, weights=[1.0], means=[0.5], variances=[1e-3], log_likelihood=0.0,
                      iterations=0)
        fields[field] = value
        with pytest.raises(InputError, match="NaN or Inf"):
            GmmParams(**fields)

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

    @pytest.mark.parametrize("field, value", [
        ("k", 2.0), ("k", 2.7), ("iterations", "5"), ("converged", "false"), ("converged", 1),
        ("log_likelihood", "12"), ("final_rel_change", True), ("means", ["0.2", "0.8"]),
        ("weights", 0.5),
    ], ids=["k-integral-float", "k-float", "iterations-string", "converged-string",
            "converged-int", "log_likelihood-string", "final_rel_change-bool",
            "means-strings", "weights-scalar"])
    def test_json_value_that_only_looks_right_rejected(self, field, value):
        obj = make_params((0.5, 0.5), (0.2, 0.8), (1e-3, 1e-3)).to_json_dict()
        obj[field] = value
        with pytest.raises(InputError, match=f"malformed mixture parameters: {field} must be"):
            GmmParams.from_json_dict(obj)

    def test_config_validation(self):
        with pytest.raises(InputError):
            EmConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_config_rejects_non_finite_tol(self, tol):
        with pytest.raises(InputError, match="tol"):
            EmConfig(tol=tol)

    @pytest.mark.parametrize("options", [{"max_iter": 1.5}, {"max_iter": True}, {"tol": True}],
                             ids=["max_iter-float", "max_iter-bool", "tol-bool"])
    def test_config_rejects_values_that_only_look_right(self, options):
        # tol is a real number and max_iter an integer, neither a bool
        with pytest.raises(InputError, match="tol must be a finite real > 0 and max_iter an "):
            EmConfig(**options)
