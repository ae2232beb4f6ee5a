"""Append-only, fsync-batched, checksummed write-ahead log.

Durability model
----------------
Every state mutation of the streaming pipeline is journaled as one
CRC-32-enveloped JSON line (:mod:`repro.jsonl`) carrying a strictly
increasing sequence number.  Appends are buffered in *user space* and
written + fsynced together at explicit :meth:`WriteAheadLog.sync`
points (group commit), so the durability contract is:

- an op is **durable** once the ``sync()`` covering it returns;
- a ``kill -9`` loses at most the un-synced buffered suffix plus,
  under power loss, a torn final line — both recovered from by
  truncating at the tail;
- a bad record *before* the tail is real corruption and refused
  (:class:`WALCorruptError`), never silently skipped.

Snapshot + compaction
---------------------
:meth:`WriteAheadLog.snapshot` persists a full-state payload atomically
(checksummed tmp file, fsync, ``os.replace``, directory fsync), stamped
with the last journaled sequence number after a ``sync()``, so the
snapshot covers every line in the log.  Compaction then truncates the
log to zero bytes in place, through the open append handle.  Recovery
is ``snapshot.state`` + replay of ops with ``seq > snapshot.seq``,
which must run exactly ``snapshot.seq + 1, + 2, ...`` — a crash
between the snapshot commit and the truncation merely leaves
already-covered ops in the log, which replay skips by sequence number.

Fault sites (see :mod:`repro.ft.faults`): ``wal.append``,
``wal.fsync``, ``wal.snapshot.write``, ``wal.snapshot.commit``,
``wal.compact`` — one at every boundary where a crash could
plausibly lose or duplicate work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.ft.faults import fault_point
from repro.jsonl import (
    ChecksumError,
    JsonlError,
    decode_line,
    encode_line,
    iter_jsonl,
)

_LOG_NAME = "wal.jsonl"
_SNAPSHOT_NAME = "snapshot.json"


class WALError(RuntimeError):
    """Any write-ahead-log failure."""


class WALCorruptError(WALError):
    """Corruption before the tail; recovery must not proceed.

    A bad checksum, bad JSON, a non-monotonic sequence number, or a gap
    in the ops newer than the snapshot."""


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class WALStats:
    """Observable counters for tests and the obs gauges."""

    appended: int = 0          # ops journaled this process
    syncs: int = 0             # fsync batches
    snapshots: int = 0
    compactions: int = 0
    replayed: int = 0          # tail ops recovered at open
    dropped_tail: int = 0      # torn final lines discarded at open

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class WriteAheadLog:
    """One journal directory: ``wal.jsonl`` + ``snapshot.json``.

    Parameters
    ----------
    directory:
        Created if missing.  Stale ``*.tmp`` files from a crashed
        snapshot (or an older version's compaction) are removed at open.
    sync_every:
        Auto-``sync()`` after this many buffered appends (group
        commit).  ``0`` means only explicit syncs.
    """

    def __init__(self, directory: str | Path, sync_every: int = 64):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_every = int(sync_every)
        self.stats = WALStats()
        self._pending: list[str] = []
        self._fd: int | None = None
        self._closed = False

        for stale in self.directory.glob("*.tmp"):
            stale.unlink(missing_ok=True)

        self.snapshot_seq = 0
        self.snapshot_state: dict | None = None
        self._load_snapshot()
        self._tail: list[tuple[int, dict]] = []
        self.last_seq = self.snapshot_seq
        self._scan_log()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def log_path(self) -> Path:
        return self.directory / _LOG_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / _SNAPSHOT_NAME

    # ------------------------------------------------------------------
    # Recovery scan
    # ------------------------------------------------------------------
    def _load_snapshot(self) -> None:
        path = self.snapshot_path
        if not path.exists():
            return
        try:
            payload = decode_line(path.read_text(encoding="utf-8").strip(),
                                  checksum=True)
        except ValueError as exc:
            # The snapshot is written atomically, so a bad one is real
            # damage (bit rot, manual edits), not an expected crash state.
            raise WALCorruptError(f"{path}: corrupt snapshot: {exc}") from exc
        self.snapshot_seq = int(payload["seq"])
        self.snapshot_state = payload["state"]

    def _scan_log(self) -> None:
        path = self.log_path
        if not path.exists():
            return
        last_seq = None
        last_good_lineno = 0
        try:
            for line in iter_jsonl(path, checksum=True, corrupt="raise",
                                   tail="tolerate"):
                seq = int(line.payload["seq"])
                if last_seq is not None and seq <= last_seq:
                    raise WALCorruptError(
                        f"{path}:{line.lineno}: sequence regressed "
                        f"({last_seq} -> {seq})")
                if seq > self.snapshot_seq:
                    # Ops newer than the snapshot must follow it without
                    # a hole; covered lines only need to increase.
                    expected = self.snapshot_seq + len(self._tail) + 1
                    if seq != expected:
                        raise WALCorruptError(
                            f"{path}:{line.lineno}: journal gap: ops "
                            f"{expected}..{seq - 1} missing (snapshot at "
                            f"seq {self.snapshot_seq})")
                    self._tail.append((seq, line.payload["op"]))
                last_seq = seq
                last_good_lineno = line.lineno
        except (ChecksumError, JsonlError) as exc:
            raise WALCorruptError(str(exc)) from exc
        if last_seq is not None:
            self.last_seq = max(self.last_seq, last_seq)
        self._truncate_torn_tail(path, last_good_lineno)
        self.stats.replayed = len(self._tail)

    def _truncate_torn_tail(self, path: Path, last_good_lineno: int) -> None:
        """Physically drop a torn final line before appending resumes.

        Merely ignoring the torn tail on read is not enough: the next
        ``os.write`` append would concatenate onto the partial line,
        fusing a valid op into it and turning an expected crash artifact
        into interior corruption at the *following* open.
        """
        raw = path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        good = "\n".join(lines[:last_good_lineno])
        if good:
            good += "\n"
        if good == raw:
            return
        if raw[len(good):].strip():
            self.stats.dropped_tail += 1
        fd = os.open(path, os.O_WRONLY)
        try:
            os.truncate(fd, len(good.encode("utf-8")))
            os.fsync(fd)
        finally:
            os.close(fd)

    def replay(self) -> Iterator[tuple[int, dict]]:
        """Ops newer than the snapshot, oldest first: ``(seq, op)``."""
        return iter(self._tail)

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _handle(self) -> int:
        if self._fd is None:
            self._fd = os.open(self.log_path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        return self._fd

    def append(self, op: dict) -> int:
        """Journal one op; durable only after the covering :meth:`sync`.

        Returns the assigned sequence number.
        """
        if self._closed:
            raise WALError("append on a closed WAL")
        fault_point("wal.append", op)
        self.last_seq += 1
        self._pending.append(
            encode_line({"seq": self.last_seq, "op": op}, checksum=True))
        self.stats.appended += 1
        if self.sync_every and len(self._pending) >= self.sync_every:
            self.sync()
        return self.last_seq

    def sync(self) -> None:
        """Write and fsync every buffered append (group commit)."""
        if not self._pending:
            return
        fault_point("wal.fsync", len(self._pending))
        data = ("\n".join(self._pending) + "\n").encode("utf-8")
        fd = self._handle()
        os.write(fd, data)
        os.fsync(fd)
        self._pending.clear()
        self.stats.syncs += 1
        obs.inc("wal.syncs")

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------
    def snapshot(self, state: dict) -> int:
        """Atomically persist ``state`` as of the last journaled op.

        ``state`` must already reflect every appended op (the caller —
        the pipeline — applies ops before snapshotting).  Returns the
        snapshot's sequence stamp.
        """
        if self._closed:
            raise WALError("snapshot on a closed WAL")
        with obs.span("wal.snapshot"):
            self.sync()
            seq = self.last_seq
            line = encode_line({"seq": seq, "state": state}, checksum=True)
            tmp = self.snapshot_path.with_suffix(".json.tmp")
            fault_point("wal.snapshot.write", seq)
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            fault_point("wal.snapshot.commit", seq)
            os.replace(tmp, self.snapshot_path)
            _fsync_dir(self.directory)
            self.snapshot_seq = seq
            self.stats.snapshots += 1
            obs.inc("wal.snapshots")
            self._compact()
        return seq

    def _compact(self) -> None:
        """Empty the log in place: the committed snapshot covers all of it.

        ``snapshot()`` syncs and stamps ``last_seq`` before calling this,
        so every line in the log is covered and none needs keeping.  The
        truncation runs only after the snapshot's directory fsync; a crash
        before it leaves covered ops, which replay skips by seq.
        """
        fault_point("wal.compact", self.snapshot_seq)
        fd = self._handle()
        os.ftruncate(fd, 0)
        os.fsync(fd)
        self.stats.compactions += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
