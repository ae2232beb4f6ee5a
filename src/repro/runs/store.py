"""Persistent run registry: every training/inference run, on disk.

A *run* is one directory under the store root::

    <root>/run-000042/
        manifest.json     atomic: model, dataset, seed, config hash,
                          argv, status, wall time, final metrics
        series.jsonl      per-step metric time series (loss, lr,
                          valid_f1, probe.* channels) + discrete events
        artifacts/        attached files (reports, rendered tables, ...)

The manifest is written atomically (tmp + ``os.replace``) at every
status transition, so a crashed run is visible as ``status="running"``
with whatever series it got out before dying — never a torn JSON file.
The series is append-only JSON lines flushed per write, so a ``kill -9``
loses at most the final line.

:class:`RunStore` is the query side (list/get/prune/resolve);
:class:`RunWriter` is the write side handed to the code doing the work.
A module-level *active run* (:func:`activate` / :func:`active` /
:func:`record_step`) lets deeply nested instrumentation sites — the
trainer's batch loop, the engine — log into the current run without
threading a handle through every signature, with the same
zero-cost-when-off discipline as :mod:`repro.obs`: no active run means
one ``is None`` check per call site.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

from repro.jsonl import iter_jsonl, read_jsonl_payloads

_RUN_ID_RE = re.compile(r"^run-(\d{6})$")
_FORMAT = 1


def _config_hash(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def default_root() -> Path:
    """``REPRO_RUNS_DIR`` if set, else ``<cache>/runs``."""
    env = os.environ.get("REPRO_RUNS_DIR", "").strip()
    if env:
        return Path(env)
    from repro.bert.cache import cache_dir

    return cache_dir() / "runs"


@dataclass
class RunRecord:
    """One run as read back from the store (manifest + lazy series)."""

    id: str
    path: Path
    manifest: dict

    @property
    def name(self) -> str:
        return self.manifest.get("name") or ""

    @property
    def status(self) -> str:
        return self.manifest.get("status", "unknown")

    @property
    def metrics(self) -> dict:
        return self.manifest.get("metrics", {})

    def series(self) -> list[dict]:
        """All step records (lines with a ``step`` key), in file order."""
        return [line for line in self._lines() if "step" in line]

    def events(self) -> list[dict]:
        """All discrete event records (``kind == "event"``)."""
        return [line for line in self._lines() if line.get("kind") == "event"]

    def _lines(self) -> list[dict]:
        path = self.path / "series.jsonl"
        if not path.exists():
            return []
        # Torn final line from a killed run is expected debris; interior
        # damage in a human-inspectable series file is skipped, not fatal.
        return read_jsonl_payloads(path, corrupt="skip", tail="tolerate")

    def channel(self, key: str) -> tuple[list[float], list[float]]:
        """(steps, values) for one series channel, e.g. ``"loss"``."""
        steps, values = [], []
        for line in self.series():
            if key in line:
                steps.append(float(line["step"]))
                values.append(float(line[key]))
        return steps, values

    def channels(self) -> list[str]:
        """Every channel name appearing in the series, sorted."""
        keys: set[str] = set()
        for line in self.series():
            keys.update(k for k in line if k not in ("step", "kind"))
        return sorted(keys)

    def artifacts(self) -> list[Path]:
        directory = self.path / "artifacts"
        return sorted(directory.iterdir()) if directory.is_dir() else []


class RunWriter:
    """Write side of one run directory (create or reattach)."""

    def __init__(self, path: Path, manifest: dict, fresh: bool = True):
        self.path = Path(path)
        self.manifest = manifest
        self._start = time.perf_counter()
        self._handle: IO[str] | None = None
        if fresh:
            self.path.mkdir(parents=True, exist_ok=True)
            self._write_manifest()

    @property
    def id(self) -> str:
        return self.manifest["id"]

    # -- manifest -------------------------------------------------------
    def _write_manifest(self) -> None:
        target = self.path / "manifest.json"
        tmp = target.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(self.manifest, indent=2, sort_keys=True,
                                      default=str) + "\n", encoding="utf-8")
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)

    # -- series ---------------------------------------------------------
    def _series_handle(self) -> IO[str]:
        if self._handle is None:
            self._handle = open(self.path / "series.jsonl", "a",
                                encoding="utf-8")
        return self._handle

    def log_step(self, step: int, **values) -> None:
        """Append one time-series point: ``{"step": N, **values}``."""
        handle = self._series_handle()
        handle.write(json.dumps({"step": int(step), **values}) + "\n")
        handle.flush()

    def log_event(self, name: str, **values) -> None:
        """Append one discrete event (engine stats, stage markers, ...)."""
        handle = self._series_handle()
        handle.write(json.dumps({"kind": "event", "name": name, **values})
                     + "\n")
        handle.flush()

    def truncate(self, step: int) -> int:
        """Drop series points with ``step >= step``; returns lines kept.

        A resumed run restarts from its last checkpointed epoch boundary
        and replays the steps after it; truncating first keeps the time
        series contiguous (each step appears exactly once) instead of
        recording the replayed span twice.  Events are kept.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        path = self.path / "series.jsonl"
        if not path.exists():
            return 0
        kept = []
        for line in iter_jsonl(path, corrupt="skip", tail="tolerate"):
            if "step" in line.payload and int(line.payload["step"]) >= step:
                continue
            kept.append(line.raw)
        tmp = path.with_suffix(".jsonl.tmp")
        try:
            tmp.write_text("\n".join(kept) + ("\n" if kept else ""),
                           encoding="utf-8")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return len(kept)

    # -- artifacts ------------------------------------------------------
    def artifact_dir(self) -> Path:
        """The run's artifact directory, created on first use.

        For artifacts that are not plain text/bytes (e.g. the npz
        weights the serving daemon hot-swaps), writers build the file
        in here themselves instead of going through
        :meth:`add_artifact`.
        """
        directory = self.path / "artifacts"
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def add_artifact(self, name: str, content: str | bytes) -> Path:
        directory = self.artifact_dir()
        target = directory / name
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")
        return target

    # -- lifecycle ------------------------------------------------------
    def set_metrics(self, **metrics) -> None:
        """Merge final metrics into the manifest (persisted immediately)."""
        self.manifest.setdefault("metrics", {}).update(metrics)
        self._write_manifest()

    def finish(self, status: str = "completed", **metrics) -> None:
        """Seal the run: final status, wall time, and metrics."""
        if metrics:
            self.manifest.setdefault("metrics", {}).update(metrics)
        self.manifest["status"] = status
        self.manifest["wall_seconds"] = (
            self.manifest.get("wall_seconds", 0.0)
            + time.perf_counter() - self._start)
        self._start = time.perf_counter()
        self._write_manifest()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def fail(self, error: BaseException | str) -> None:
        self.manifest["error"] = repr(error) if isinstance(
            error, BaseException) else str(error)
        self.finish(status="failed")


class RunStore:
    """Name-/id-keyed registry of run directories under one root."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_root()

    # -- create / attach ------------------------------------------------
    def _next_id(self) -> str:
        highest = 0
        if self.root.is_dir():
            for entry in self.root.iterdir():
                match = _RUN_ID_RE.match(entry.name)
                if match:
                    highest = max(highest, int(match.group(1)))
        return f"run-{highest + 1:06d}"

    def create(self, name: str = "", kind: str = "train",
               config: dict | None = None, argv: list[str] | None = None,
               **fields) -> RunWriter:
        """Open a fresh run directory with a ``status="running"`` manifest.

        ``fields`` land in the manifest verbatim (model, dataset, seed,
        ...); ``config`` is stored alongside its hash so runs are
        comparable by configuration identity.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        run_id = self._next_id()
        config = dict(config or {})
        manifest = {
            "format": _FORMAT,
            "id": run_id,
            "name": name,
            "kind": kind,
            "status": "running",
            "created": time.time(),
            "config": config,
            "config_hash": _config_hash(config),
            "argv": list(argv) if argv is not None else [],
            "wall_seconds": 0.0,
            "metrics": {},
            **fields,
        }
        return RunWriter(self.root / run_id, manifest)

    def attach(self, run_id: str) -> RunWriter:
        """Reopen an existing run for appending (resume path)."""
        record = self.get(run_id)
        writer = RunWriter(record.path, record.manifest, fresh=False)
        writer.manifest["status"] = "running"
        writer._write_manifest()
        return writer

    def reattach_incomplete(self, config: dict) -> RunWriter | None:
        """Newest non-completed run with this exact config, if any.

        This is how ``repro resume`` finds the run a crashed invocation
        was recording into, so the resumed training appends to the same
        time series instead of opening a sibling run.
        """
        wanted = _config_hash(dict(config))
        for record in self.list(newest_first=True):
            if (record.manifest.get("config_hash") == wanted
                    and record.status != "completed"):
                return self.attach(record.id)
        return None

    # -- query ----------------------------------------------------------
    def list(self, kind: str | None = None,
             newest_first: bool = False) -> list[RunRecord]:
        records = []
        if self.root.is_dir():
            for entry in sorted(self.root.iterdir()):
                if not _RUN_ID_RE.match(entry.name):
                    continue
                manifest_path = entry / "manifest.json"
                if not manifest_path.exists():
                    continue
                try:
                    manifest = json.loads(
                        manifest_path.read_text(encoding="utf-8"))
                except json.JSONDecodeError:
                    continue
                if kind is not None and manifest.get("kind") != kind:
                    continue
                records.append(RunRecord(id=entry.name, path=entry,
                                         manifest=manifest))
        if newest_first:
            records.reverse()
        return records

    def get(self, run_id: str) -> RunRecord:
        path = self.root / run_id
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise KeyError(f"no such run: {run_id!r} under {self.root}")
        return RunRecord(id=run_id, path=path, manifest=json.loads(
            manifest_path.read_text(encoding="utf-8")))

    def resolve(self, ref: str) -> RunRecord:
        """``ref`` may be a run id, a run name (newest wins), or "latest"."""
        if ref == "latest":
            records = self.list(newest_first=True)
            if not records:
                raise KeyError(f"no runs under {self.root}")
            return records[0]
        if (self.root / ref / "manifest.json").exists():
            return self.get(ref)
        for record in self.list(newest_first=True):
            if record.name == ref:
                return record
        raise KeyError(f"no run with id or name {ref!r} under {self.root}")

    # -- retention ------------------------------------------------------
    def prune(self, keep_last: int) -> list[str]:
        """Delete all but the newest ``keep_last`` runs; returns removed ids."""
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        import shutil

        removed = []
        records = self.list()
        for record in records[:max(0, len(records) - keep_last)]:
            shutil.rmtree(record.path, ignore_errors=True)
            removed.append(record.id)
        return removed


# ----------------------------------------------------------------------
# Active-run plumbing (the trainer/engine-facing fast path)
# ----------------------------------------------------------------------

_ACTIVE: RunWriter | None = None

# Series-file handles inherited across a fork are parked here (child
# side) and never closed: closing could re-flush parent-buffered bytes
# into series.jsonl.  See _deactivate_in_child.
_ABANDONED: list = []


def _deactivate_in_child() -> None:
    """Fork hook: a forked child (serve shard worker) must never append
    to the parent's run — its events would interleave into the parent's
    series.jsonl through the inherited descriptor.  The child abandons
    the inherited handle (kept alive so GC cannot close/flush it) and
    drops the active run; ``record_step``/``record_event`` become no-ops
    in the child."""
    global _ACTIVE
    if _ACTIVE is not None:
        if _ACTIVE._handle is not None:
            _ABANDONED.append(_ACTIVE._handle)
            _ACTIVE._handle = None
        _ACTIVE = None


os.register_at_fork(after_in_child=_deactivate_in_child)


def active() -> RunWriter | None:
    """The run currently recording, or None (the common, free case)."""
    return _ACTIVE


def activate(writer: RunWriter) -> None:
    global _ACTIVE
    _ACTIVE = writer


def record_step(step: int, **values) -> None:
    """Log one step into the active run; no-op when none is recording."""
    if _ACTIVE is not None:
        _ACTIVE.log_step(step, **values)


def record_event(name: str, **values) -> None:
    """Log one event into the active run; no-op when none is recording."""
    if _ACTIVE is not None:
        _ACTIVE.log_event(name, **values)


def truncate_active(step: int) -> None:
    """Truncate the active run's series at ``step``; no-op when none.

    Called by the trainer when it rewinds (resume, divergence rollback)
    so the replayed steps overwrite rather than duplicate their span of
    the time series.
    """
    if _ACTIVE is not None:
        _ACTIVE.truncate(step)


@contextmanager
def recording(writer: RunWriter) -> Iterator[RunWriter]:
    """Make ``writer`` the active run for the block; fail it on exception.

    The caller still owns :meth:`RunWriter.finish` on success — the
    context manager only guarantees a crashed block is sealed as
    ``failed`` and the active slot is restored either way.
    """
    previous = _ACTIVE
    activate(writer)
    try:
        yield writer
    except BaseException as exc:
        writer.fail(exc)
        raise
    finally:
        globals()["_ACTIVE"] = previous
