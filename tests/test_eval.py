"""Tests for metrics, significance testing, throughput, and reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    accuracy,
    binary_f1,
    confusion,
    format_table,
    measure_throughput,
    micro_f1,
    one_tailed_t_test,
    precision_recall_f1,
    significance_stars,
)


class TestBinaryMetrics:
    def test_confusion_counts(self):
        t = np.array([1, 1, 0, 0, 1])
        p = np.array([1, 0, 0, 1, 1])
        assert confusion(t, p) == (2, 1, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([1]), np.array([1, 0]))

    def test_perfect_f1(self):
        t = np.array([1, 0, 1])
        assert binary_f1(t, t) == 1.0

    def test_all_wrong_f1(self):
        assert binary_f1(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_no_predictions_f1_zero_not_nan(self):
        assert binary_f1(np.array([1, 1]), np.array([0, 0])) == 0.0
        assert binary_f1(np.array([0, 0]), np.array([0, 0])) == 0.0

    def test_precision_recall_known(self):
        t = np.array([1, 1, 1, 0, 0])
        p = np.array([1, 1, 0, 1, 0])
        precision, recall, f1 = precision_recall_f1(t, p)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50),
           st.lists(st.integers(0, 1), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_f1_bounded(self, t, p):
        n = min(len(t), len(p))
        f1 = binary_f1(np.array(t[:n]), np.array(p[:n]))
        assert 0.0 <= f1 <= 1.0


class TestMulticlassMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_micro_f1_equals_accuracy_single_label(self):
        t = np.array([0, 1, 2, 2, 1])
        p = np.array([0, 2, 2, 2, 1])
        assert micro_f1(t, p) == accuracy(t, p)


class TestSignificance:
    def test_clear_difference(self):
        a = [0.95, 0.96, 0.94, 0.95, 0.96]
        b = [0.80, 0.81, 0.79, 0.80, 0.82]
        assert one_tailed_t_test(a, b) < 0.001

    def test_no_difference(self):
        a = [0.9, 0.91, 0.89]
        assert one_tailed_t_test(a, a) > 0.4

    def test_wrong_direction(self):
        a = [0.5, 0.51, 0.52]
        b = [0.9, 0.91, 0.92]
        assert one_tailed_t_test(a, b) > 0.95

    def test_small_sample_raises(self):
        with pytest.raises(ValueError):
            one_tailed_t_test([0.5], [0.4, 0.5])

    # p-values recorded once from SciPy 1.17's stats.ttest_ind(a, b,
    # equal_var=False, alternative="greater") over the shapes Table 2
    # produces: 2-5 seeds per side, one side constant (a model stuck at
    # F1 0), and the degenerate cases.
    @pytest.mark.parametrize("a,b,expected", [
        ([0.4, 0.55], [0.3, 0.35], 0.13629480321012818),
        ([0.5, 0.5218], [0.3182, 0.35], 0.008477464012858961),
        ([0.81, 0.86, 0.84], [0.78, 0.8, 0.83], 0.0900385345667116),
        ([0.9, 0.91, 0.89, 0.93], [0.88, 0.9, 0.87, 0.91],
         0.10562573432120965),
        ([0.95, 0.96, 0.94, 0.95, 0.96], [0.8, 0.81, 0.79, 0.8, 0.82],
         1.826923022520644e-08),
        ([0.72, 0.75, 0.7, 0.74, 0.73], [0.69, 0.74, 0.7],
         0.18687534825008847),
        ([0.5, 0.51, 0.52], [0.9, 0.91, 0.92], 0.9999994806102674),
        # One side constant.
        ([0.6667, 0.7273], [0.0, 0.0], 0.013828867722812601),
        ([0.0, 0.0], [0.0, 0.2222], 0.75),
        ([0.4, 0.45, 0.5, 0.42], [0.3, 0.3, 0.3], 0.0036133414904790696),
        # Both constant: equal means give NaN, different means 0 or 1.
        ([0.0, 0.0], [0.0, 0.0], float("nan")),
        ([0.5, 0.5], [0.25, 0.25], 0.0),
        ([0.25, 0.25, 0.25], [0.5, 0.5], 1.0),
        # NaN in either sample propagates.
        ([float("nan"), 0.5], [0.1, 0.2], float("nan")),
        ([0.4, 0.5], [0.1, float("nan")], float("nan")),
    ])
    def test_matches_recorded_reference_p_values(self, a, b, expected):
        p = one_tailed_t_test(a, b)
        if np.isnan(expected):
            assert np.isnan(p)
        else:
            assert p == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_unconverged_tail_raises(self, monkeypatch):
        from repro.eval import significance
        monkeypatch.setattr(significance, "_MAX_TERMS", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            one_tailed_t_test([0.4, 0.55], [0.3, 0.35])

    @pytest.mark.parametrize("p,stars", [
        (0.5, "ns"), (0.04, "*"), (0.009, "**"), (0.0009, "***"),
        (0.00005, "****"), (float("nan"), "ns"),
    ])
    def test_stars(self, p, stars):
        assert significance_stars(p) == stars


class TestThroughput:
    def test_measures_rate(self):
        result = measure_throughput(lambda: 10, min_seconds=0.01, min_items=20)
        assert result.items >= 20
        assert result.items_per_second > 0

    def test_zero_seconds_guard(self):
        from repro.eval.efficiency import ThroughputResult
        assert ThroughputResult(items=5, seconds=0.0).items_per_second == float("inf")


class TestReporting:
    def test_basic_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out
        assert "x" in out

    def test_column_count_validation(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_alignment(self):
        out = format_table(["name", "v"], [["longer-name", 1], ["s", 22]])
        lines = out.splitlines()
        assert len(lines[1]) == len(lines[2].rstrip()) or len(lines) == 4
