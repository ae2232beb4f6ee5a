"""The heap kept by ``import repro``: no page faults in a steady forward."""

import os
import resource

import numpy as np
import pytest

import repro
from repro.bert.config import PRESETS
from repro.bert.model import BertModel
from repro.data.loader import Batch
from repro.models import Emba
from repro.nn.tensor import no_grad

GLIBC_LINE = "glibc heap kept (mmap threshold 32 MiB, trim threshold 64 MiB)"


def _on_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _batch(rng, rows=16, length=54, vocab=1000):
    segments = np.zeros((rows, length), dtype=np.int64)
    segments[:, length // 2:] = 1
    first = (segments == 0).astype(np.float32)
    return Batch(
        input_ids=rng.integers(5, vocab, size=(rows, length)),
        segment_ids=segments,
        attention_mask=np.ones((rows, length), dtype=np.float32),
        mask1=first,
        mask2=1.0 - first,
        labels=np.zeros(rows, dtype=np.float32),
        id1=np.zeros(rows, dtype=np.int64),
        id2=np.zeros(rows, dtype=np.int64),
    )


@pytest.mark.skipif(not _on_glibc(),
                    reason="the malloc thresholds are pinned only under glibc")
def test_steady_forward_does_not_page_fault():
    rng = np.random.default_rng(0)
    config = PRESETS["mini-base"].with_vocab(1000)
    model = Emba(BertModel(config, rng), config.hidden_size, 16, rng)
    model.eval()
    batch = _batch(rng)
    with no_grad():
        for _ in range(3):
            model(batch)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            model(batch)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # Under glibc's default thresholds this reads about 1,100 per forward.
    assert faults / 10 < 50, f"{faults / 10:.0f} minor page faults per forward"


def test_non_glibc_platform_reports_default(monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", no_glibc, raising=False)
    assert repro._keep_freed_heap() == "default (not glibc)"


def test_selfcheck_prints_allocator_line(monkeypatch):
    from repro.verify import golden, selfcheck

    monkeypatch.setattr(golden, "check", lambda names=None: {})
    monkeypatch.setattr(golden, "run_parity", lambda seeds=(0,): {})
    monkeypatch.setattr(selfcheck, "all_cases", lambda quick=False: [])
    lines = []
    selfcheck.run_selfcheck(quick=True, out=lines.append)
    expected = GLIBC_LINE if _on_glibc() else "default (not glibc)"
    assert lines[0] == f"allocator: {expected}"
