"""repro — a from-scratch reproduction of EMBA (EDBT 2024).

EMBA: Entity Matching using Multi-Task Learning of BERT with
Attention-over-Attention (Zhang, Sun, Ho; EDBT 2024).

Subpackages
-----------
- :mod:`repro.nn` — numpy autodiff + neural-network framework
- :mod:`repro.text` — WordPiece tokenizer, vocabularies, subword hashing
- :mod:`repro.bert` — transformer encoder + MLM pre-training
- :mod:`repro.fasttext` — subword-hash embeddings (EMBA (FT))
- :mod:`repro.data` — synthetic EM benchmarks + loading machinery
- :mod:`repro.models` — EMBA, JointBERT, baselines, ablations, trainer
- :mod:`repro.eval` — metrics, significance tests, throughput
- :mod:`repro.explain` — LIME and attention visualization
- :mod:`repro.experiments` — tables 1-7 and figures 5-6 harness
- :mod:`repro.verify` — gradcheck, runtime invariants, golden digests

Importing the package pins glibc's malloc thresholds so that freed
numpy temporaries stay in the process instead of being page-faulted in
again by every forward; :data:`ALLOCATOR` says whether that happened.

Setting ``REPRO_VERIFY=1`` in the environment installs the runtime
invariant guards (see :mod:`repro.verify.invariants`) for every
subsequent forward/backward pass in the process.

Setting ``REPRO_TRACE=1`` enables the telemetry subsystem (see
:mod:`repro.obs`): hierarchical spans and metrics over the engine,
trainer, checkpointer, blocking, and experiments runner.  Any other
non-empty value is treated as a path and additionally streams the
trace there as JSON lines (read it back with ``repro trace <path>``).
"""

import os as _os

__version__ = "1.0.0"

# Part of every on-disk cache key (pre-trained encoders, fine-tuned
# checkpoints, cached results), so weights and scores produced by older
# numerics are never reused.  Bump it with every intentional numerical
# change, the same change that regenerates a golden digest.
# 2: GELU's cube is two multiplies instead of float32 ``pow``.
NUMERICS_VERSION = 2

__all__ = ["ALLOCATOR", "NUMERICS_VERSION", "__version__"]


def _keep_freed_heap() -> str:
    """Keep glibc's freed heap in the process; return the allocator state.

    Both thresholds are pinned at the ceilings of glibc's own dynamic
    rule on 64-bit: setting either one alone switches that rule off and
    faults more (see docs/architecture.md).
    """
    try:
        libc = _os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        libc = ""
    if not libc.startswith("glibc"):
        return "default (not glibc)"
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1; mallopt returns 1 on success.
    if mallopt(-3, 32 << 20) != 1 or mallopt(-1, 64 << 20) != 1:
        return "default (mallopt refused the thresholds)"
    return "glibc heap kept (mmap threshold 32 MiB, trim threshold 64 MiB)"


# Shown by ``repro selfcheck``.
ALLOCATOR = _keep_freed_heap()

if _os.environ.get("REPRO_VERIFY", "").strip() not in ("", "0"):
    from repro.verify.invariants import install as _install_invariants

    _install_invariants()

_trace = _os.environ.get("REPRO_TRACE", "").strip()
if _trace not in ("", "0"):
    from repro import obs as _obs

    _obs.enable(trace_path=None if _trace == "1" else _trace)
del _trace
