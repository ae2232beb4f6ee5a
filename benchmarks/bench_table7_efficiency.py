"""Table 7 — computational efficiency (pairs per second).

Paper claims checked in shape: EMBA (FT) is by far the fastest model;
EMBA (SB) is faster than every full-size transformer; inference is
faster than training for every model; EMBA's overhead relative to
JointBERT is small.  Every rate is the median of alternated readings
(``table7``), so one noisy reading cannot flip an ordering.
"""

from benchmarks.helpers import RESULTS_DIR, run_once
from repro.experiments.tables import table7


def test_table7_efficiency(benchmark):
    result = run_once(benchmark, lambda: table7(progress=True))
    result.save(RESULTS_DIR)

    rates = {row[0]: (row[1], row[2]) for row in result.rows}

    # Inference beats training throughput for every model.
    for model, (train, infer) in rates.items():
        assert infer > train, f"{model}: inference {infer} <= training {train}"

    # fastText variant is the fastest at inference (paper: 121 pairs/s vs
    # 19-52 for the transformer models).
    ft_infer = rates["emba_ft"][1]
    for model, (_, infer) in rates.items():
        if model != "emba_ft":
            assert ft_infer > infer

    # The small encoder beats the full-size encoders.
    assert rates["emba_sb"][1] > rates["emba"][1]
    assert rates["emba_sb"][1] > rates["jointbert"][1]

    # EMBA's AoA overhead vs JointBERT is modest (paper: 19 vs 20 pairs/s).
    assert rates["emba"][1] > 0.4 * rates["jointbert"][1]
