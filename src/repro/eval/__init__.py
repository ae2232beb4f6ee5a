"""repro.eval — metrics, significance testing, throughput, and reporting."""

from repro.eval.consistency import (
    ConsistencyReport,
    consistency_report,
    id_equality_as_matcher_f1,
)
from repro.eval.efficiency import (
    ThroughputResult,
    measure_engine_throughput,
    measure_throughput,
)
from repro.eval.metrics import (
    accuracy,
    binary_f1,
    confusion,
    macro_f1,
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
    "ConsistencyReport",
    "ThroughputResult",
    "accuracy",
    "best_f1_threshold",
    "binary_f1",
    "calibrate_model",
    "confusion",
    "consistency_report",
    "id_equality_as_matcher_f1",
    "format_table",
    "macro_f1",
    "measure_engine_throughput",
    "measure_throughput",
    "micro_f1",
    "one_tailed_t_test",
    "precision_recall_f1",
    "significance_stars",
]
