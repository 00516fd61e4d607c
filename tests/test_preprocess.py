import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmmaug.augment
import gmmaug.gmm
from gmmaug import (
    DegenerateIntensityError,
    EmConfig,
    EmptyMaskError,
    InputError,
    LabelVolume,
    PopulationStats,
    Volume,
    augment_draws,
    clip_normalize,
    fit_em,
    foreground_mask,
)
from gmmaug.errors import GmmAugError
from gmmaug.preprocess import _apply_window, fit_volume
from gmmaug.volume import _as_integers


def volume_with_mask(values, pad_zeros=0):
    """Flat volume holding `values` plus optional unmasked zero padding."""
    data = np.concatenate([np.asarray(values, dtype=float), np.zeros(pad_zeros)])
    mask = np.zeros(data.size, dtype=bool)
    mask[: len(values)] = True
    return Volume((data.size, 1, 1), (1, 1, 1), data), mask


class TestClipNormalize:
    def test_uniform_ramp_percentiles(self):
        vol, mask = volume_with_mask(np.arange(1000.0))
        out = clip_normalize(vol, mask)
        # linear-interpolation percentiles of 0..999: (n-1) * q
        p_low, p_high = 9.99, 989.01
        masked = out.data[mask]
        window = np.clip((np.arange(1000.0) - p_low) / (p_high - p_low), 0.0, 1.0)
        assert masked == pytest.approx(window, abs=1e-9)
        assert np.count_nonzero(masked == 0.0) == np.count_nonzero(masked == 1.0) == 10
        assert masked.min() == 0.0
        assert masked.max() == 1.0

    def test_constant_image_degenerate(self):
        vol, mask = volume_with_mask(np.full(50, 3.3))
        with pytest.raises(DegenerateIntensityError):
            clip_normalize(vol, mask)

    def test_order_preserved_weakly(self):
        rng = np.random.Generator(np.random.Philox(2))
        vol, mask = volume_with_mask(rng.normal(10.0, 4.0, 500))
        out = clip_normalize(vol, mask)
        order = np.argsort(vol.data[mask], kind="stable")
        assert np.all(np.diff(out.data[mask][order]) >= 0)

    def test_output_bounded(self):
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(5):
            vol, mask = volume_with_mask(rng.lognormal(1.0, 1.0, 400), pad_zeros=100)
            out = clip_normalize(vol, mask)
            masked = out.data[mask]
            assert masked.min() >= 0.0 and masked.max() <= 1.0

    def test_idempotent_at_existing_extremes(self):
        rng = np.random.Generator(np.random.Philox(4))
        vol, mask = volume_with_mask(rng.random(300) * 700.0)
        once = clip_normalize(vol, mask)
        twice = clip_normalize(once, mask, lo_pct=0.0, hi_pct=100.0)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-12

    def test_outside_mask_zeroed(self):
        vol, mask = volume_with_mask([5.0, 6.0, 7.0], pad_zeros=3)
        out = clip_normalize(vol, mask)
        assert np.all(out.data[~mask] == 0.0)

    def test_percentiles_masked_only(self):
        # an extreme voxel outside the mask must not move the window
        data = np.array([1.0, 2.0, 3.0, 4.0, 1e9])
        mask = np.array([True, True, True, True, False])
        vol = Volume((5, 1, 1), (1, 1, 1), data)
        out = clip_normalize(vol, mask, lo_pct=0.0, hi_pct=100.0)
        assert np.array_equal(out.data[mask], (data[mask] - 1.0) / 3.0)  # window [1, 4]

    def test_bad_percentile_args(self):
        vol, mask = volume_with_mask([1.0, 2.0])
        for lo, hi in ((-1.0, 99.0), (5.0, 5.0), (10.0, 101.0), (99.0, 1.0)):
            with pytest.raises(InputError):
                clip_normalize(vol, mask, lo, hi)

    def test_empty_mask(self):
        vol, _ = volume_with_mask([1.0, 2.0])
        with pytest.raises(EmptyMaskError):
            clip_normalize(vol, np.zeros(2, dtype=bool))

    def test_mask_length_mismatch(self):
        vol, _ = volume_with_mask([1.0, 2.0])
        with pytest.raises(InputError):
            clip_normalize(vol, np.ones(3, dtype=bool))


class TestFitVolume:
    @pytest.mark.parametrize("case, lo_pct, hi_pct", [
        ("positive", 1.0, 99.0),
        ("int16", 1.0, 99.0),
        ("label_mask", 2.5, 97.5),
    ])
    def test_values_are_clip_normalize_bits(self, default_phantom, monkeypatch, case, lo_pct,
                                            hi_pct):
        # the fit path sorts and normalizes only the masked values: its
        # window must be np.percentile's, its fit that of clip_normalize's
        # masked voxels, and the voxel-order values augment_draws codes
        # must be those voxels, bit for bit, once the window normalizes
        # them; integer intensities must be coded on their own integer
        # knots, which read at each voxel's index give them back
        vol, labels = default_phantom
        explicit = None
        if case == "int16":  # as stored by a scanner: integer intensities
            vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0).astype(np.int16))
        elif case == "label_mask":  # a --mask box that takes in background zeros
            box = np.zeros(labels.dims, dtype=np.int32)
            box[4:-4, 4:-4, 4:-4] = 1
            explicit = LabelVolume(labels.dims, labels.spacing, box.ravel(order="F"))
        mask = foreground_mask(vol, explicit)
        window, params = fit_volume(vol.data[mask], 3, None, lo_pct, hi_pct)
        if explicit is not None:
            assert np.count_nonzero(vol.data[mask] == 0.0) > 0
        assert np.array(window).tobytes() == np.percentile(vol.data[mask], [lo_pct, hi_pct]).tobytes()
        expected = clip_normalize(vol, mask, lo_pct, hi_pct).data[mask]
        assert params.dumps() == fit_em(expected, 3).dumps()
        if explicit is None:  # augment masks by positive intensity only
            coded = []
            voxel_code = gmmaug.augment._voxel_code

            def spy(values, window, params, hard_assign):
                widened = values[0][values[1]] if isinstance(values, tuple) else values.copy()
                normalized = _apply_window(widened, window)
                code = voxel_code(values, window, params, hard_assign)
                knots, index = code[:2]
                uniform = knots is gmmaug.augment._UNIT_KNOTS
                coded.append(("uniform" if uniform else "integer", normalized, knots[index]))
                return code

            monkeypatch.setattr(gmmaug.augment, "_voxel_code", spy)
            stats = PopulationStats(k=3, mu_mean=params.means, mu_std=(0.0,) * 3,
                                    var_mean=params.variances, var_std=(0.0,) * 3, n_images=2,
                                    clip_lo_pct=lo_pct, clip_hi_pct=hi_pct)
            next(augment_draws(vol, stats, [0]))
            [(route, values, on_knots)] = coded
            assert route == ("integer" if case == "int16" else "uniform")
            assert values.dtype == np.float64
            assert values.tobytes() == expected.tobytes()
            if route == "integer":
                assert on_knots.tobytes() == expected.tobytes()

    def test_peak_memory_is_capped(self, default_phantom):
        # continuous values, so the fit bins them: the values sorted in
        # place and one deviation array stay under three times the values
        vol, _ = default_phantom
        mask = foreground_mask(vol)
        values_bytes = vol.data[mask].nbytes
        assert np.unique(vol.data[mask]).size > gmmaug.gmm._MAX_COLUMNS
        fit_volume(vol.data[mask], 3, None, 1.0, 99.0)  # lazy imports happen here
        tracemalloc.start()
        try:
            fit_volume(vol.data[mask], 3, None, 1.0, 99.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * values_bytes


def fit_outcome(values, k, cfg, lo_pct, hi_pct):
    """The window, fit and trajectory of ``fit_volume``, or its error's type and text."""
    try:
        window, params = fit_volume(values, k, cfg, lo_pct, hi_pct)
    except GmmAugError as exc:
        return type(exc), str(exc)
    return np.array(window).tobytes(), params.dumps(), np.array(params.ll_trajectory).tobytes()


def assert_routes_agree(values, k=3, cfg=None, lo_pct=1.0, hi_pct=99.0):
    """Integer-typed ``values`` fit as (knots, index) as their float64 widening does.

    The fit leaves the knots and the index as they were.
    """
    knots, index = _as_integers(values)
    kept = knots.tobytes(), index.tobytes()
    counted = fit_outcome((knots, index), k, cfg, lo_pct, hi_pct)
    assert (knots.tobytes(), index.tobytes()) == kept
    assert counted == fit_outcome(values.astype(np.float64), k, cfg, lo_pct, hi_pct)
    return counted


@st.composite
def integer_samples(draw):
    """uint8 or int16 samples: narrow or wide ranges, tiny to large, counts with a factor."""
    dtype = np.dtype(draw(st.sampled_from(("u1", "i2"))))
    info = np.iinfo(dtype)
    lo = draw(st.integers(int(info.min), int(info.max)))
    hi = min(lo + draw(st.sampled_from((0, 1, 7, 300, 40_000, 40_000))), int(info.max))
    size = draw(st.sampled_from((3, 29, 30, 31, 500, 6000, 6000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(lo, hi, size, endpoint=True).astype(dtype)
    return np.repeat(values, draw(st.sampled_from((1, 1, 2, 3))))


class TestIntegerRoute:
    """Integer-stored values are counted as (knots, index), not sorted, with the same fit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(values=integer_samples(), k=st.sampled_from((1, 2, 3)),
           max_iter=st.sampled_from((4, 100)),
           window=st.sampled_from(((1.0, 99.0), (0.0, 100.0), (0.0, 37.5), (12.5, 100.0))))
    def test_counted_fit_is_the_sorted_fit(self, values, k, max_iter, window):
        assert_routes_agree(values, k, EmConfig(max_iter=max_iter), *window)

    @pytest.mark.parametrize("case", ["wide", "constant", "too_few", "common_factor",
                                      "whole_range", "phantom"])
    def test_counted_fit_is_the_sorted_fit_on(self, case, default_phantom):
        rng = np.random.Generator(np.random.Philox(25))
        window = (1.0, 99.0)
        if case == "wide":  # more than 4096 distinct normalized values: the binned fit
            values = rng.integers(1, 30_000, 20_000).astype(np.int16)
            assert np.unique(values).size > 2 * gmmaug.gmm._MAX_COLUMNS
        elif case == "constant":  # a window of width 0 is refused before the size
            values = np.full(12, 300, dtype=np.int16)
        elif case == "too_few":
            values = rng.integers(1, 255, 29).astype(np.uint8)
        elif case == "common_factor":  # every count a multiple of 6
            values = np.repeat(rng.integers(1, 90, 400).astype(np.uint8), 6)
        elif case == "whole_range":
            values, window = rng.integers(-5, 200, 3000).astype(np.int16), (0.0, 100.0)
        else:  # integer intensities, as an int16 scan stores them
            vol = default_phantom[0]
            values = np.rint(vol.data[vol.data > 0] * 700.0).astype(np.int16)
        counted = assert_routes_agree(values, 3, None, *window)
        raised = {"constant": DegenerateIntensityError, "too_few": gmmaug.InsufficientDataError}
        assert counted[0] is raised[case] if case in raised else isinstance(counted[0], bytes)
