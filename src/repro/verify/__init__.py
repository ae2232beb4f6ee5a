"""repro.verify — the numerical-correctness subsystem.

Three layers of guardrails over the hand-rolled autodiff stack:

- :mod:`repro.verify.gradcheck` — a universal finite-difference gradient
  checker working on any differentiable computation expressed as a thunk
  over float64 leaf tensors.
- :mod:`repro.verify.registry` — per-op/per-module check cases plus
  auto-discovery asserting that every op in ``repro.nn.functional`` /
  ``repro.nn.losses`` and every layer in ``repro.nn.layers``,
  ``repro.bert`` and ``repro.models`` is gradient-checked.
- :mod:`repro.verify.invariants` — runtime invariant guards (softmax
  rows, attention-mask leaks, AoA gamma, layer-norm standardization,
  NaN/Inf in forward and backward) installable globally via the
  ``REPRO_VERIFY=1`` environment flag or ``repro selfcheck``, and with
  strictly zero cost when not installed.
- :mod:`repro.verify.golden` — seeded forward/backward golden digests
  for BERT, EMBA and the inference engine's bucketed scoring path, with
  a ``--regen`` flow.

``repro selfcheck`` (see :mod:`repro.verify.selfcheck`) runs all three.
"""

from repro.verify.gradcheck import GradcheckResult, gradcheck, to_float64
from repro.verify.invariants import (
    InvariantViolation,
    guard_report,
    guarded,
    install,
    installed,
    uninstall,
)
from repro.verify.registry import all_cases, discover, run_case

__all__ = [
    "GradcheckResult",
    "InvariantViolation",
    "all_cases",
    "discover",
    "gradcheck",
    "guard_report",
    "guarded",
    "install",
    "installed",
    "run_case",
    "to_float64",
    "uninstall",
]
