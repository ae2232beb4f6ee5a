"""Benchmark session support.

At the end of a benchmark session, every table/figure rendering saved
under ``RESULTS_DIR`` (``results/`` by default, see ``benchmarks.helpers``)
is echoed into the terminal report so the rendered reproductions appear
in ``bench_output.txt`` alongside the timing table.
"""

from benchmarks.helpers import RESULTS_DIR


def pytest_addoption(parser):
    parser.addoption(
        "--record", action="store_true", default=False,
        help="register benchmark results as kind='bench' runs in the "
             "repro run store (REPRO_RUNS_DIR or the default cache root)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = sorted(RESULTS_DIR.glob("*.txt")) if RESULTS_DIR.exists() else []
    reports = [p for p in reports if not p.name.endswith("_log.txt")]
    if not reports:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for path in reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"----- {path.name} -----")
        for line in path.read_text(encoding="utf-8").splitlines():
            terminalreporter.write_line(line)

    # Assemble the consolidated markdown report from everything saved.
    try:
        from repro.experiments.report import write_report

        out = write_report(RESULTS_DIR, RESULTS_DIR / "REPORT.md")
        terminalreporter.write_line("")
        terminalreporter.write_line(f"consolidated report: {out}")
    except Exception as error:  # report assembly must never fail the bench
        terminalreporter.write_line(f"report assembly skipped: {error}")
