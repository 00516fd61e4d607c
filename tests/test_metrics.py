import numpy as np
import pytest

from gmmaug import (
    InsufficientDataError,
    LabelVolume,
    ShapeMismatchError,
    outlier_fraction,
    overlap,
    summarize,
)


def lab(values, dims=None):
    values = np.asarray(values)
    dims = dims or (values.size, 1, 1)
    return LabelVolume(dims, (1, 1, 1), values)


class TestOverlap:
    def test_identical_inputs_score_one(self):
        a = lab([0, 1, 1, 2, 2, 2, 3, 0])
        report = overlap(a, a)
        for label in (1, 2, 3):
            entry = report[label]
            assert entry.dice == 1.0
            assert entry.sensitivity == 1.0
            assert entry.precision == 1.0
            assert entry.fp == entry.fn == 0

    def test_disjoint_supports(self):
        pred = lab([1, 1, 0, 0])
        ref = lab([0, 0, 1, 1])
        entry = overlap(pred, ref)[1]
        assert entry.dice == 0.0
        assert entry.sensitivity == 0.0
        assert entry.precision == 0.0

    def test_hand_computed_counts(self):
        # pred covers 4 voxels, ref 2, overlap 2
        pred = lab([1, 1, 1, 1, 0, 0])
        ref = lab([1, 1, 0, 0, 0, 0])
        entry = overlap(pred, ref)[1]
        assert (entry.tp, entry.fp, entry.fn) == (2, 2, 0)
        assert entry.dice == pytest.approx(2 * 2 / (4 + 2), abs=0)
        assert entry.sensitivity == 1.0
        assert entry.precision == 0.5

    def test_absent_label_undefined_not_zero(self):
        pred = lab([1, 0])
        ref = lab([1, 0])
        entry = overlap(pred, ref, labels=[7])[7]
        assert entry.dice is None
        assert entry.sensitivity is None
        assert entry.precision is None

    def test_label_only_in_ref(self):
        pred = lab([0, 0, 1])
        ref = lab([2, 2, 1])
        entry = overlap(pred, ref)[2]
        assert entry.dice == 0.0
        assert entry.sensitivity == 0.0
        assert entry.precision is None

    def test_dims_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            overlap(lab([1, 0]), lab([1, 0], dims=(1, 2, 1)))

    def test_default_labels_are_nonzero_union(self):
        report = overlap(lab([0, 1, 5]), lab([0, 2, 5]))
        assert [e.label for e in report.entries] == [1, 2, 5]

    def test_dice_symmetric_and_se_pr_duality(self):
        rng = np.random.Generator(np.random.Philox(23))
        a = lab(rng.integers(0, 4, 500))
        b = lab(rng.integers(0, 4, 500))
        ab = overlap(a, b)
        ba = overlap(b, a)
        for label in (1, 2, 3):
            assert ab[label].dice == ba[label].dice
            assert ab[label].sensitivity == ba[label].precision
            assert ab[label].precision == ba[label].sensitivity

    def test_invariant_under_shared_permutation(self):
        rng = np.random.Generator(np.random.Philox(24))
        a = rng.integers(0, 4, 500)
        b = rng.integers(0, 4, 500)
        perm = rng.permutation(500)
        before = overlap(lab(a), lab(b))
        after = overlap(lab(a[perm]), lab(b[perm]))
        assert before == after

    def test_json_and_csv_forms(self):
        report = overlap(lab([1, 0, 2]), lab([1, 0, 0]))
        payload = report.to_json_dict()["labels"]
        assert payload["1"]["dice"] == 1.0
        assert payload["2"]["precision"] == 0.0
        assert payload["2"]["sensitivity"] is None
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "label,tp,fp,fn,dice,sensitivity,precision"
        assert lines[2].startswith("2,0,1,0,0.0,,")  # empty cell for undefined


@pytest.mark.parametrize("label", [0, 2, 7])
def test_report_refuses_a_label_it_does_not_hold(label):
    report = overlap(lab([0, 1, 1, 3]), lab([1, 1, 0, 3]))
    assert [entry.label for entry in report.entries] == [1, 3]
    with pytest.raises(KeyError) as info:
        report[label]
    assert info.value.args == (label,)


class TestOutlierFraction:
    def test_constant_values_have_no_outliers(self):
        fraction, indices = outlier_fraction(np.full(10, 3.0))
        assert fraction == 0.0 and indices.size == 0

    def test_hand_computed_case(self):
        fraction, indices = outlier_fraction([1, 2, 3, 4, 100])
        assert fraction == pytest.approx(0.2, abs=0)
        assert indices.tolist() == [4]

    def test_symmetric_data_symmetric_outliers(self):
        values = [-100, -1, -1, 0, 0, 0, 1, 1, 100]
        fraction, indices = outlier_fraction(values)
        assert indices.tolist() == [0, 8]
        assert fraction == pytest.approx(2 / 9, abs=0)

    def test_fence_is_strict(self):
        # Q1=1.5, Q3=2.5, IQR=1: fences at exactly 0 and 4
        fraction, indices = outlier_fraction([0, 2, 2, 4])
        assert fraction == 0.0 and indices.size == 0

    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            outlier_fraction([1.0, 2.0, 3.0])


class TestSummarize:
    def test_ramp(self):
        p50, p10 = summarize(np.arange(101.0))
        assert (p50, p10) == (50.0, 10.0)

    def test_single_repeated_value(self):
        assert summarize([7.0, 7.0, 7.0]) == (7.0, 7.0)

    def test_interpolated_median(self):
        p50, p10 = summarize([1.0, 2.0, 3.0, 4.0])
        assert p50 == 2.5
        assert p10 == pytest.approx(1.3, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            summarize([])
