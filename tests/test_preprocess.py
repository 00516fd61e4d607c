import numpy as np
import pytest

from gmmaug import (
    DegenerateIntensityError,
    EmptyMaskError,
    InputError,
    LabelVolume,
    Volume,
    clip_normalize,
    foreground_mask,
)
from gmmaug.preprocess import fit_volume


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
    def test_values_are_clip_normalize_bits(self, default_phantom, case, lo_pct, hi_pct):
        # the fit path normalizes only the masked values; it must give
        # the masked voxels of the public full-grid clip_normalize exactly
        vol, labels = default_phantom
        explicit = None
        if case == "int16":  # as stored by a scanner: integer intensities
            vol = Volume(vol.dims, vol.spacing, np.rint(vol.data * 700.0).astype(np.int16))
        elif case == "label_mask":  # a --mask box that takes in background zeros
            box = np.zeros(labels.dims, dtype=np.int32)
            box[4:-4, 4:-4, 4:-4] = 1
            explicit = LabelVolume(labels.dims, labels.spacing, box.ravel(order="F"))
        mask, values, _ = fit_volume(vol, 3, None, lo_pct, hi_pct, explicit)
        assert np.array_equal(mask, foreground_mask(vol, explicit))
        if explicit is not None:
            assert np.count_nonzero(vol.data[mask] == 0.0) > 0
        expected = clip_normalize(vol, mask, lo_pct, hi_pct).data[mask]
        assert values.dtype == np.float64 and values.tobytes() == expected.tobytes()
