"""``repro selfcheck`` — one-shot numerical certification of the stack.

Prints the allocator state (see :data:`repro.ALLOCATOR`), then runs, in
order:

1. **registry discovery** — every op/layer must be gradient-checked or
   explicitly exempt (and no case may target something deleted);
2. the **gradcheck sweep** in float64, with the runtime invariant guards
   installed so every forward/backward of the sweep is also invariant-
   checked;
3. the **golden digests** against ``tests/golden/``;
4. **engine-vs-naive parity** on randomized workloads over three seeds
   and both encoder kinds.

Exit status is non-zero on any violation, so the command is directly
usable as a CI gate (see ``scripts/check.sh``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import repro
from repro.verify import golden
from repro.verify.gradcheck import GradcheckResult
from repro.verify.invariants import InvariantViolation, guard_report, guarded
from repro.verify.registry import all_cases, discover, run_case


def run_selfcheck(quick: bool = False, seed: int = 0,
                  out: Callable[[str], None] = print) -> int:
    """Run every verification layer; returns a process exit code."""
    failures: list[str] = []
    out(f"allocator: {repro.ALLOCATOR}")

    # 1. Discovery ------------------------------------------------------
    report = discover()
    out(f"discovery: {report.summary()}")
    for target in report.missing:
        failures.append(f"discovery: {target} has no gradcheck case "
                        f"(register one in repro/verify/registry.py or add "
                        f"it to EXEMPT with a reason)")
    for target in report.stale:
        failures.append(f"discovery: case targets nonexistent {target}")

    # 2. Gradcheck sweep under invariant guards -------------------------
    cases = all_cases(quick=quick)
    out(f"gradcheck: {len(cases)} cases ({'quick' if quick else 'full'} "
        f"sweep, float64, invariant guards installed)")
    worst = 0.0
    with guarded():
        for case in cases:
            try:
                result = run_case(case, seed=seed)
            except InvariantViolation as exc:
                failures.append(f"gradcheck {case.name}: {exc}")
                out(f"  [FAIL] {case.name}: {exc}")
                continue
            worst = max(worst, result.max_rel_error)
            if result.passed:
                out(f"  {result}")
            else:
                failures.append(f"gradcheck {case.name}: "
                                f"{len(result.failures)} element(s) off, "
                                f"max_rel={result.max_rel_error:.3e}")
                out(f"  {result}")
                for line in result.failures[:5]:
                    out(f"      {line}")
        fired = guard_report()
    out(f"gradcheck: max relative error {worst:.3e}; "
        f"{sum(fired.values())} invariant checks fired across "
        f"{len(fired)} guards")
    if not fired:
        failures.append("invariants: no guard fired during the sweep "
                        "(install() is broken)")

    # 3. Golden digests -------------------------------------------------
    for name, mismatches in golden.check().items():
        if mismatches:
            failures.append(f"golden {name}: {len(mismatches)} mismatch(es)")
            out(f"golden: [FAIL] {name}")
            for line in mismatches[:5]:
                out(f"      {line}")
        else:
            out(f"golden: [ok] {name}")

    # 4. Engine-vs-naive parity -----------------------------------------
    try:
        gaps = golden.run_parity()
    except AssertionError as exc:
        failures.append(f"parity: {exc}")
        out(f"parity: [FAIL] {exc}")
    else:
        for key, gap in gaps.items():
            status = "ok" if gap <= golden.PARITY_TOLERANCE else "FAIL"
            out(f"parity: [{status}] {key} max|engine-naive| = {gap:.2e}")
            if gap > golden.PARITY_TOLERANCE:
                failures.append(f"parity {key}: gap {gap:.2e} exceeds "
                                f"{golden.PARITY_TOLERANCE:.0e}")

    # Verdict -----------------------------------------------------------
    if failures:
        out(f"selfcheck: FAILED ({len(failures)} violation(s))")
        for line in failures:
            out(f"  - {line}")
        return 1
    out("selfcheck: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro selfcheck",
        description="Gradcheck sweep + invariants + golden digests + parity.")
    parser.add_argument("--quick", action="store_true",
                        help="skip the heavy full-model gradcheck cases")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for gradcheck inputs and subsampling")
    args = parser.parse_args(argv)
    return run_selfcheck(quick=args.quick, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
