"""Checksummed, torn-tail-tolerant JSON-lines primitives.

One durable-file idiom, three consumers.  The run registry's
``series.jsonl``, the telemetry trace sink, and the streaming
write-ahead log all share the same on-disk shape — one JSON object per
line, appended and flushed as the program runs — and the same failure
mode: a process killed mid-append leaves a *torn tail*, a final partial
line that must be dropped on read, while a bad line anywhere *else* in
the file is genuine corruption and must not be silently skipped by
anything that cares about integrity.

:func:`iter_jsonl` implements that policy once:

- ``tail="tolerate"`` drops an undecodable **final** line (the expected
  debris of a kill) while ``tail="raise"`` treats it like any other bad
  line;
- ``corrupt="raise"`` raises :class:`JsonlError` (with ``path:lineno``
  context) on an undecodable **interior** line, ``corrupt="skip"``
  drops it (the forgiving mode the run registry uses for human-edited
  series files).

Writers that need per-record integrity (the WAL) wrap each payload in a
CRC-32 envelope via :func:`encode_line` / ``checksum=True``: the line
becomes ``{"c": "<crc32 of canonical payload JSON>", "d": <payload>}``,
so a torn or bit-flipped record fails loudly instead of decoding to a
plausible-but-wrong op.  The payload is serialized once: the canonical
text the CRC covers is spliced into the envelope as is, which is byte
for byte what ``json.dumps`` of the whole envelope with ``sort_keys``
would write.  Reading (:func:`decode_line`) still re-serializes the
decoded payload to verify the CRC; that re-encode is the integrity
check.

Whole-file JSON documents that are rewritten rather than appended (run
manifests, checkpoint manifests, result-cache entries) are published
with :func:`publish_text`: a reader sees the old file or the new one,
never a torn one.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


class JsonlError(ValueError):
    """An undecodable line, with file/line context for diagnosis."""

    def __init__(self, path, lineno: int, reason: str):
        super().__init__(f"{path}:{lineno}: {reason}")
        self.path = path
        self.lineno = lineno
        self.reason = reason


class ChecksumError(JsonlError):
    """A line whose CRC-32 envelope does not match its payload."""


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_line(payload: dict, checksum: bool = False) -> str:
    """Serialize one payload to a single line (no trailing newline)."""
    if not checksum:
        return json.dumps(payload)
    body = _canonical(payload)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    # The canonical envelope spelled out: sort_keys puts "c" first, and
    # the payload is encoded with the same separators and ensure_ascii.
    return f'{{"c":"{crc:08x}","d":{body}}}'


def decode_line(raw: str, checksum: bool = False) -> dict:
    """Parse one line back to its payload.

    Raises ``ValueError`` on malformed JSON and (for ``checksum=True``)
    on a missing envelope or CRC mismatch.  Callers with file context
    should catch and re-raise as :class:`JsonlError`.
    """
    payload = json.loads(raw)
    if not checksum:
        return payload
    if not isinstance(payload, dict) or set(payload) != {"c", "d"}:
        raise ValueError("not a checksummed record (expected {'c', 'd'})")
    body = _canonical(payload["d"])
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if payload["c"] != f"{crc:08x}":
        raise ValueError(
            f"checksum mismatch (recorded {payload['c']}, computed {crc:08x})")
    return payload["d"]


@dataclass
class JsonlLine:
    """One decoded line: its 1-based line number, raw text, and payload."""

    lineno: int
    raw: str
    payload: dict


def iter_jsonl(path: str | Path, *, checksum: bool = False,
               corrupt: str = "raise",
               tail: str = "tolerate") -> Iterator[JsonlLine]:
    """Decode a JSON-lines file under an explicit corruption policy.

    Parameters
    ----------
    checksum:
        Expect every line in the CRC-32 envelope written by
        :func:`encode_line`; a mismatch is treated as corruption.
    corrupt:
        ``"raise"`` (default) raises :class:`JsonlError` on an
        undecodable interior line; ``"skip"`` drops it.
    tail:
        ``"tolerate"`` (default) silently drops an undecodable *final*
        line — the torn tail a killed writer leaves behind; ``"raise"``
        applies the same treatment as interior corruption.

    Blank lines are always skipped and never count as the tail.  A
    missing file raises ``FileNotFoundError`` — absence is the caller's
    policy call, not this reader's.
    """
    if corrupt not in ("raise", "skip"):
        raise ValueError(f"corrupt policy must be 'raise' or 'skip', got {corrupt!r}")
    if tail not in ("tolerate", "raise"):
        raise ValueError(f"tail policy must be 'tolerate' or 'raise', got {tail!r}")
    path = Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    numbered = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    last_index = numbered[-1][0] if numbered else -1
    for lineno, raw in numbered:
        try:
            payload = decode_line(raw, checksum=checksum)
        except json.JSONDecodeError as exc:
            if lineno == last_index and tail == "tolerate":
                return
            if corrupt == "skip":
                continue
            raise JsonlError(path, lineno, f"not JSON: {exc}") from exc
        except ValueError as exc:
            # Envelope-shape or CRC failures from decode_line(checksum=True).
            if lineno == last_index and tail == "tolerate":
                return
            if corrupt == "skip":
                continue
            raise ChecksumError(path, lineno, str(exc)) from exc
        yield JsonlLine(lineno=lineno, raw=raw, payload=payload)


def publish_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``.

    Writes ``<path>.tmp`` and ``os.replace``-s it over the target; the tmp
    file is removed whatever happens, so a failed publish leaves the old
    target intact and nothing behind.  No fsync: this guards against torn
    files from a killed process, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_jsonl_payloads(path: str | Path, *, checksum: bool = False,
                        corrupt: str = "raise",
                        tail: str = "tolerate") -> list[dict]:
    """Eager convenience wrapper: just the payloads, in file order."""
    return [line.payload for line in iter_jsonl(
        path, checksum=checksum, corrupt=corrupt, tail=tail)]
