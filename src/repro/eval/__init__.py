"""repro.eval — metrics, significance testing, throughput, and reporting."""

from repro.eval.efficiency import (
    ThroughputResult,
    measure_engine_throughput,
    measure_throughput,
)
from repro.eval.metrics import (
    accuracy,
    binary_f1,
    confusion,
    micro_f1,
    precision_recall_f1,
)
from repro.eval.reporting import format_table
from repro.eval.significance import one_tailed_t_test, significance_stars
from repro.eval.threshold import (
    best_f1_threshold,
    calibrate_model,
)

__all__ = [
    "ThroughputResult",
    "accuracy",
    "best_f1_threshold",
    "binary_f1",
    "calibrate_model",
    "confusion",
    "format_table",
    "measure_engine_throughput",
    "measure_throughput",
    "micro_f1",
    "one_tailed_t_test",
    "precision_recall_f1",
    "significance_stars",
]
