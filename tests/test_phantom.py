import json

import numpy as np
import pytest

from gmmaug import InvalidSpecError, PhantomSpec, fit_em, generate_phantom
from gmmaug.phantom import POSITIVE_FLOOR


class TestGeneratePhantom:
    def test_same_seed_bit_identical(self):
        spec = PhantomSpec(seed=123)
        vol_a, lab_a = generate_phantom(spec)
        vol_b, lab_b = generate_phantom(spec)
        assert np.array_equal(vol_a.data, vol_b.data)
        assert np.array_equal(lab_a.labels, lab_b.labels)

    def test_seed_changes_values_not_labels(self):
        vol_a, lab_a = generate_phantom(PhantomSpec(seed=1))
        vol_b, lab_b = generate_phantom(PhantomSpec(seed=2))
        assert not np.array_equal(vol_a.data, vol_b.data)
        assert np.array_equal(lab_a.labels, lab_b.labels)

    def test_labels_partition_foreground(self, default_phantom):
        vol, lab = default_phantom
        assert np.array_equal(lab.labels > 0, vol.data > 0)
        assert set(np.unique(lab.labels)) == {0, 1, 2, 3}
        assert np.all(np.bincount(lab.labels)[1:] > 0)

    def test_background_exactly_zero(self, default_phantom):
        vol, lab = default_phantom
        assert np.all(vol.data[lab.labels == 0] == 0.0)

    def test_foreground_strictly_positive(self, default_phantom):
        vol, lab = default_phantom
        assert vol.data[lab.labels > 0].min() >= POSITIVE_FLOOR

    def test_zero_variance_regions_constant(self):
        spec = PhantomSpec(variances=(0.0, 0.0, 0.0), seed=3)
        vol, lab = generate_phantom(spec)
        for label, mean in zip((1, 2, 3), spec.means):
            assert np.all(vol.data[lab.labels == label] == mean)

    def test_brightest_tissue_innermost(self):
        spec = PhantomSpec(variances=(0.0, 0.0, 0.0), seed=0)
        vol, lab = generate_phantom(spec)
        centre = lab.grid()[32, 32, 32]
        assert centre == 3  # label of the highest mean

    def test_label_counts_match_lattice_oracle(self):
        spec = PhantomSpec(dims=(24, 24, 24), seed=5)
        _, lab = generate_phantom(spec)
        # brute-force sphere-shell membership, voxel by voxel
        half = min(spec.dims) / 2.0
        radii = [f * half for f in spec.radius_fractions]
        counts = np.zeros(4, dtype=int)
        cx = cy = cz = (24 - 1) / 2.0
        for x in range(24):
            for y in range(24):
                for z in range(24):
                    r = ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) ** 0.5
                    if r <= radii[0]:
                        counts[3] += 1
                    elif r <= radii[1]:
                        counts[2] += 1
                    elif r <= radii[2]:
                        counts[1] += 1
                    else:
                        counts[0] += 1
        assert np.array_equal(np.bincount(lab.labels, minlength=4), counts)

    def test_default_spec_em_recovery(self, default_phantom):
        vol, lab = default_phantom
        mask = vol.data > 0
        params = fit_em(vol.data[mask], 3)
        assert np.all(np.abs(params.means - np.asarray(PhantomSpec().means)) <= 0.01)

    def test_empty_region_rejected(self):
        spec = PhantomSpec(dims=(8, 8, 8), radius_fractions=(0.02, 0.05, 0.9))
        with pytest.raises(InvalidSpecError):
            generate_phantom(spec)


class TestPhantomSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec(means=(0.3, 0.2, 0.1))
        with pytest.raises(InvalidSpecError):
            PhantomSpec(means=(0.0, 0.2, 0.3))
        with pytest.raises(InvalidSpecError):
            PhantomSpec(variances=(0.1, -0.1, 0.1))
        with pytest.raises(InvalidSpecError):
            PhantomSpec(radius_fractions=(0.9, 0.8, 0.7))
        with pytest.raises(InvalidSpecError):
            PhantomSpec(radius_fractions=(0.5, 0.9))
        with pytest.raises(InvalidSpecError):
            PhantomSpec(dims=(0, 4, 4))
        with pytest.raises(InvalidSpecError):  # NIfTI-1 dims are int16
            PhantomSpec(dims=(4, 32768, 4))

    def test_json_round_trip(self):
        spec = PhantomSpec(dims=(16, 16, 16), means=(0.2, 0.4, 0.9), seed=77)
        again = PhantomSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidSpecError):
            PhantomSpec.from_json_dict({"radius": 3})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"means": [0.2, 0.5, 0.8], "variances": [0.001, 0.001, 0.001]}))
        spec = PhantomSpec.from_json_file(path)
        assert spec.means == (0.2, 0.5, 0.8)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{broken")
        with pytest.raises(InvalidSpecError):
            PhantomSpec.from_json_file(path)

    def test_with_seed(self):
        assert PhantomSpec().with_seed(9).seed == 9
