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
