"""Durable streaming resolution: WAL, incremental LSH index, cluster
store, and the kill-at-any-point crash matrix.

The crash matrix simulates ``kill -9`` faithfully in-process: the WAL
buffers appends in user space, so raising at a fault site and
*abandoning* the pipeline object genuinely loses the un-synced suffix
(nothing flushes on GC — durability comes only from ``os.write`` +
``os.fsync`` at sync points).  Power-loss torn tails are modelled
separately by byte-level truncation of the journal file.
"""

import hashlib
import itertools
import json
import os
import shutil
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.minhash import MinHashBlocker
from repro.data.generators.wdc import wdc_offer_stream
from repro.data.schema import EntityRecord
from repro.ft.faults import FaultError, FaultPlan, inject
from repro.jsonl import (
    ChecksumError,
    JsonlError,
    decode_line,
    encode_line,
    iter_jsonl,
    publish_text,
    read_jsonl_payloads,
)
from repro.resolution import resolve_clusters
from repro.runs import store as runstore
from repro.runs.store import RunStore
from repro.stream import (
    IncrementalMinHashIndex,
    JaccardScorer,
    StreamClusterStore,
    StreamConfig,
    StreamPipeline,
    WALCorruptError,
    WriteAheadLog,
)
from repro.stream.index import pair_key
from repro.stream.pipeline import _payload_record
from repro.text.normalize import basic_tokenize


# ======================================================================
# Shared checksummed JSONL reader (repro.jsonl)
# ======================================================================
class TestJsonl:
    def test_roundtrip_plain_and_checksummed(self, tmp_path):
        payloads = [{"a": 1}, {"b": [1, 2]}, {"c": {"d": "e"}}]
        for checksum in (False, True):
            path = tmp_path / f"log-{checksum}.jsonl"
            path.write_text("".join(encode_line(p, checksum=checksum) + "\n"
                                    for p in payloads))
            assert read_jsonl_payloads(path, checksum=checksum) == payloads

    def test_checksum_envelope_detects_flip(self):
        line = encode_line({"x": 1}, checksum=True)
        envelope = json.loads(line)
        envelope["d"]["x"] = 2
        with pytest.raises(ValueError):
            decode_line(json.dumps(envelope), checksum=True)

    def test_torn_tail_tolerated_by_default(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = encode_line({"n": 1}) + "\n" + encode_line({"n": 2}) + "\n"
        path.write_text(good + '{"n": 3, "torn')
        assert read_jsonl_payloads(path) == [{"n": 1}, {"n": 2}]

    def test_torn_tail_raises_under_strict_policy(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(encode_line({"n": 1}) + "\n" + '{"torn')
        with pytest.raises(JsonlError):
            read_jsonl_payloads(path, tail="raise")

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(encode_line({"n": 1}) + "\n"
                        + "garbage\n"
                        + encode_line({"n": 3}) + "\n")
        with pytest.raises(JsonlError) as err:
            read_jsonl_payloads(path)
        assert err.value.lineno == 2

    def test_interior_corruption_skippable(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(encode_line({"n": 1}) + "\n"
                        + "garbage\n"
                        + encode_line({"n": 3}) + "\n")
        assert read_jsonl_payloads(path, corrupt="skip") == [{"n": 1},
                                                            {"n": 3}]

    def test_interior_checksum_mismatch_is_checksum_error(self, tmp_path):
        bad = json.dumps({"c": "00000000", "d": {"n": 2}})
        path = tmp_path / "log.jsonl"
        path.write_text(encode_line({"n": 1}, checksum=True) + "\n"
                        + bad + "\n"
                        + encode_line({"n": 3}, checksum=True) + "\n")
        with pytest.raises(ChecksumError):
            read_jsonl_payloads(path, checksum=True)

    def test_iter_reports_line_numbers_and_raw(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(encode_line({"n": 1}) + "\n\n"
                        + encode_line({"n": 2}) + "\n")
        lines = list(iter_jsonl(path))
        assert [(l.lineno, l.payload) for l in lines] == [(1, {"n": 1}),
                                                          (3, {"n": 2})]
        assert all(json.loads(l.raw) for l in lines)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl_payloads(tmp_path / "absent.jsonl")

    def test_publish_failed_replace_keeps_old_target(self, tmp_path,
                                                     monkeypatch):
        target = tmp_path / "manifest.json"
        publish_text(target, '{"v": 1}')
        assert target.read_text() == '{"v": 1}'

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            publish_text(target, '{"v": 2}')
        assert target.read_text() == '{"v": 1}'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("payload", [
        {"name": "Schärfe 中文 😀", "note": "tab\there"},
        {"p": 0.1, "q": 1e-7, "r": -0.0, "big": 2**61 - 1},
        {"nested": [[1, [2.5, "x"]], {"z": [], "a": {}}]},
        {},
        {1: "one", 2: ["two"]},
    ])
    def test_checksummed_line_is_envelope_json(self, payload):
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"
        assert encode_line(payload, checksum=True) == json.dumps(
            {"c": crc, "d": payload}, sort_keys=True, separators=(",", ":"))


# ======================================================================
# Write-ahead log
# ======================================================================
class TestWriteAheadLog:
    def test_synced_ops_survive_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(5):
                wal.append({"op": "n", "i": i})
            wal.sync()
        reopened = WriteAheadLog(tmp_path)
        ops = [op for _seq, op in reopened.replay()]
        assert [op["i"] for op in ops] == [0, 1, 2, 3, 4]
        assert reopened.last_seq == 5
        reopened.close()

    def test_unsynced_suffix_is_lost_on_abandon(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        wal.append({"i": 0})
        wal.sync()
        wal.append({"i": 1})            # buffered, never synced
        del wal                          # simulated kill -9: no close()
        recovered = WriteAheadLog(tmp_path)
        assert [op["i"] for _s, op in recovered.replay()] == [0]
        recovered.close()

    def test_group_commit_syncs_at_sync_every(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=3) as wal:
            for i in range(7):
                wal.append({"i": i})
            assert wal.stats.syncs == 2            # at 3 and 6
            assert len(wal._pending) == 1
        recovered = WriteAheadLog(tmp_path)        # close() synced the rest
        assert len(list(recovered.replay())) == 7
        recovered.close()

    def test_torn_tail_dropped_and_counted(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(3):
                wal.append({"i": i})
            wal.sync()
        path = tmp_path / "wal.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[:-7])                # torn final line
        recovered = WriteAheadLog(tmp_path)
        assert [op["i"] for _s, op in recovered.replay()] == [0, 1]
        assert recovered.stats.dropped_tail == 1
        assert recovered.last_seq == 2
        recovered.close()

    def test_interior_corruption_refused(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(3):
                wal.append({"i": i})
            wal.sync()
        path = tmp_path / "wal.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4] + 'xxx"'           # damage a middle record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_sequence_regression_refused(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            encode_line({"seq": 2, "op": {}}, checksum=True) + "\n"
            + encode_line({"seq": 1, "op": {}}, checksum=True) + "\n")
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_snapshot_compacts_and_recovers(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(4):
                wal.append({"i": i})
            seq = wal.snapshot({"sum": 6})
            assert seq == 4
            wal.append({"i": 4})
            wal.sync()
        recovered = WriteAheadLog(tmp_path)
        assert recovered.snapshot_seq == 4
        assert recovered.snapshot_state == {"sum": 6}
        assert [op["i"] for _s, op in recovered.replay()] == [4]
        recovered.close()

    def test_corrupt_snapshot_refused(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            wal.append({"i": 0})
            wal.snapshot({"n": 1})
        path = tmp_path / "snapshot.json"
        path.write_text(path.read_text().replace('"n"', '"m"'))
        with pytest.raises(WALCorruptError):
            WriteAheadLog(tmp_path)

    def test_stale_tmp_files_removed_at_open(self, tmp_path):
        (tmp_path / "snapshot.json.tmp").write_text("half-written")
        (tmp_path / "wal.jsonl.tmp").write_text("half-written")
        WriteAheadLog(tmp_path).close()
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_between_snapshot_and_compact_is_safe(self, tmp_path):
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for i in range(3):
            wal.append({"i": i})
        with inject(FaultPlan().fail_at("wal.compact", 0)):
            with pytest.raises(FaultError):
                wal.snapshot({"n": 3})
        del wal                    # snapshot published, log not compacted
        recovered = WriteAheadLog(tmp_path)
        assert recovered.snapshot_state == {"n": 3}
        assert list(recovered.replay()) == []       # covered ops skipped
        recovered.close()

    def test_snapshot_empties_log_in_place(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(tmp_path, sync_every=0)
        for i in range(3):
            wal.append({"i": i})
        wal.sync()
        fd, inode = wal._fd, path.stat().st_ino
        seq = wal.snapshot({"n": 3})
        assert path.stat().st_size == 0
        assert wal.append({"i": 3}) == seq + 1
        wal.sync()
        assert (wal._fd, path.stat().st_ino) == (fd, inode)   # same handle
        wal.close()
        recovered = WriteAheadLog(tmp_path)
        assert list(recovered.replay()) == [(seq + 1, {"i": 3})]
        recovered.close()

    def test_compaction_stages_no_log_tmp(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def recording_replace(src, dst):
            replaced.append(Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        with WriteAheadLog(tmp_path, sync_every=2) as wal:
            for i in range(5):
                wal.append({"i": i})
                wal.snapshot({"n": i + 1})
                assert not (tmp_path / "wal.jsonl.tmp").exists()
        assert replaced == ["snapshot.json.tmp"] * 5

    def test_interior_gap_refused(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(5):
                wal.append({"i": i})
        path = tmp_path / "wal.jsonl"
        lines = path.read_text().splitlines()
        del lines[2]                                # seq 3 of 1..5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WALCorruptError, match=r"ops 3\.\.3 missing"):
            WriteAheadLog(tmp_path)

    def test_tail_without_its_snapshot_refused(self, tmp_path):
        with WriteAheadLog(tmp_path, sync_every=0) as wal:
            for i in range(4):
                wal.append({"i": i})
            wal.snapshot({"n": 4})
            wal.append({"i": 4})
        (tmp_path / "snapshot.json").unlink()       # log now starts at 5
        with pytest.raises(WALCorruptError, match=r"ops 1\.\.4 missing"):
            WriteAheadLog(tmp_path)

    def test_append_after_close_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        with pytest.raises(Exception):
            wal.append({"i": 0})


# ======================================================================
# Incremental MinHash-LSH index
# ======================================================================
def _tokens(text: str) -> set[str]:
    return set(basic_tokenize(text))


class TestIncrementalIndex:
    def test_band_keys_match_batch_blocker_signature(self):
        index = IncrementalMinHashIndex(num_hashes=48, bands=12, seed=0)
        blocker = MinHashBlocker(num_hashes=48, bands=12, seed=0)
        tokens = _tokens("samsung ssd 500gb sata high performance")
        signature = blocker.signature(tokens)
        keys = index.band_keys_for(tokens)
        for band, key in enumerate(keys):
            lo, hi = band * blocker.rows, (band + 1) * blocker.rows
            assert key == signature[lo:hi].tobytes()

    def test_collisions_match_batch_banding(self):
        """The live index agrees with batch banding over the same corpus."""
        texts = {f"r{i}": f"brand{i % 3} widget model{i % 5} spec{i % 2}"
                 for i in range(30)}
        index = IncrementalMinHashIndex()
        for key, text in texts.items():
            index.insert(key, _tokens(text))

        blocker = MinHashBlocker()
        sigs = {k: blocker.signature(_tokens(t)) for k, t in texts.items()}
        batch = set()
        for band in range(blocker.bands):
            lo, hi = band * blocker.rows, (band + 1) * blocker.rows
            buckets: dict[bytes, list[str]] = {}
            for k, sig in sigs.items():
                buckets.setdefault(sig[lo:hi].tobytes(), []).append(k)
            for members in buckets.values():
                members = sorted(members)
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        batch.add((a, b))
        assert index.candidates_among(list(texts)) == batch
        assert index.emitted_pairs() == batch

    def test_each_pair_emitted_exactly_once(self):
        index = IncrementalMinHashIndex()
        same = _tokens("canon dslr camera 24mp")
        first = index.insert("a", same)
        assert first == []
        second = index.insert("b", same)
        assert second == [("a", "b")]
        third = index.insert("c", same)
        assert set(third) == {("a", "c"), ("b", "c")}
        # Updating a record re-collides but emits nothing new.
        assert index.insert("b", same) == []
        assert index.emitted_count == 3

    def test_delete_reinsert_does_not_reemit(self):
        index = IncrementalMinHashIndex()
        same = _tokens("nikon mirrorless 20mp")
        index.insert("a", same)
        index.insert("b", same)
        assert index.delete("b") is True
        assert "b" not in index
        assert index.candidates_among(["a", "b"]) == set()
        assert index.insert("b", same) == []        # exactly-once holds
        assert index.candidates_among(["a", "b"]) == {("a", "b")}
        assert index.delete("missing") is False

    def test_update_moves_buckets(self):
        index = IncrementalMinHashIndex()
        index.insert("a", _tokens("sony zoom lens 70-200mm"))
        old_keys = index.band_keys_of("a")
        index.insert("a", _tokens("fujifilm action camera 4k"))
        assert index.band_keys_of("a") != old_keys
        assert len(index) == 1

    def test_state_roundtrip_rebuilds_tables_exactly(self):
        """A restore is ``load_state_dict`` plus re-inserting the same
        tokens; the re-insert emits nothing."""
        index = IncrementalMinHashIndex()
        for i in range(20):
            index.insert(f"r{i}", _tokens(f"brand{i % 4} gadget v{i % 6}"))
        state = index.state_dict()
        json.dumps(state)                           # JSON-serializable

        restored = IncrementalMinHashIndex()
        restored.load_state_dict(state)
        assert len(restored) == 0
        for i in range(20):
            assert restored.insert(
                f"r{i}", _tokens(f"brand{i % 4} gadget v{i % 6}")) == []
        keys = [f"r{i}" for i in range(20)]
        assert restored.candidates_among(keys) == index.candidates_among(keys)
        assert restored.emitted_pairs() == index.emitted_pairs()
        # A post-restore insert behaves as if never interrupted.
        live = IncrementalMinHashIndex()
        for i in range(20):
            live.insert(f"r{i}", _tokens(f"brand{i % 4} gadget v{i % 6}"))
        new_tokens = _tokens("brand1 gadget v3")
        assert restored.insert("new", new_tokens) == live.insert("new",
                                                                 new_tokens)

    def test_state_config_mismatch_refused(self):
        index = IncrementalMinHashIndex(bands=12)
        state = index.state_dict()
        other = IncrementalMinHashIndex(num_hashes=48, bands=6)
        with pytest.raises(ValueError):
            other.load_state_dict(state)

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)),
                    min_size=1, max_size=25),
           st.lists(st.integers(0, 7), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_delete_reinsert_roundtrip(self, inserts, deletes):
        """Any insert/delete/re-insert sequence: live collisions always
        equal a fresh index over the surviving records, and the emitted
        set only ever grows."""
        def toks(flavor):
            return _tokens(f"alpha beta{flavor} gamma{flavor % 2}")

        index = IncrementalMinHashIndex()
        live: dict[str, int] = {}
        emitted_sizes = [0]
        for rec, flavor in inserts:
            index.insert(f"r{rec}", toks(flavor))
            live[f"r{rec}"] = flavor
            emitted_sizes.append(index.emitted_count)
        for rec in deletes:
            if index.delete(f"r{rec}"):
                live.pop(f"r{rec}")
            emitted_sizes.append(index.emitted_count)

        assert emitted_sizes == sorted(emitted_sizes)   # monotone
        fresh = IncrementalMinHashIndex()
        for key, flavor in live.items():
            fresh.insert(key, toks(flavor))
        keys = sorted(live)
        assert index.candidates_among(keys) == fresh.candidates_among(keys)


# ======================================================================
# Incremental cluster store
# ======================================================================
class TestStreamClusterStore:
    def test_basic_union_and_lookup(self):
        store = StreamClusterStore()
        for key in "abcd":
            store.add(key)
        assert store.union("a", "b") is True
        assert store.union("a", "b") is False
        assert store.connected("a", "b")
        assert not store.connected("a", "c")
        assert store.merges == 1
        assert len(store) == 4

    def test_canonical_cluster_order_matches_batch(self):
        store = StreamClusterStore()
        edges = [("a", "b", 0.9), ("b", "c", 0.8), ("x", "y", 0.7),
                 ("p", "q", 0.3)]
        records = ["a", "b", "c", "x", "y", "p", "q", "solo"]
        for r in records:
            store.add(r)
        store.apply_edges(edges, threshold=0.5)
        batch = resolve_clusters(records, edges, threshold=0.5)
        assert store.resolution().clusters == batch.clusters
        assert store.assignments() == batch.cluster_of()

    def test_state_dict_is_arrival_order_invariant(self):
        edges = [("a", "b", 0.9), ("b", "c", 0.9), ("d", "e", 0.9)]
        forward, backward = StreamClusterStore(), StreamClusterStore()
        forward.apply_edges(edges)
        backward.apply_edges(reversed(edges))
        assert (forward.state_dict()["clusters"]
                == backward.state_dict()["clusters"])

    def test_state_roundtrip_preserves_partition_and_counters(self):
        store = StreamClusterStore()
        store.apply_edges([("a", "b", 0.9), ("c", "d", 0.9)])
        store.add("e")
        state = store.state_dict()
        json.dumps(state)
        restored = StreamClusterStore()
        restored.load_state_dict(state)
        assert restored.clusters() == store.clusters()
        assert restored.edges_applied == store.edges_applied
        assert restored.merges == store.merges
        assert restored.union("a", "c") is True     # still unionable

    @given(st.integers(2, 14),
           st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13),
                              st.floats(0, 1, allow_nan=False)),
                    max_size=40),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_property_parity_with_resolve_clusters_any_order(
            self, num_records, raw_edges, shuffler):
        """ISSUE pin: on random edge streams fed in any arrival order,
        the incremental partition equals the batch resolver's."""
        records = [f"r{i}" for i in range(num_records)]
        edges = [(f"r{a % num_records}", f"r{b % num_records}", p)
                 for a, b, p in raw_edges]
        batch = resolve_clusters(records, edges, threshold=0.5)

        shuffled = list(edges)
        shuffler.shuffle(shuffled)
        store = StreamClusterStore()
        for r in records:
            store.add(r)
        store.apply_edges(shuffled, threshold=0.5)
        assert store.resolution().clusters == batch.clusters

        # And the canonical snapshot is identical across arrival orders.
        other = StreamClusterStore()
        for r in reversed(records):
            other.add(r)
        other.apply_edges(edges, threshold=0.5)
        assert (store.state_dict()["clusters"]
                == other.state_dict()["clusters"])


# ======================================================================
# End-to-end pipeline
# ======================================================================
_FAST = StreamConfig(score_batch=16, sync_every=8, snapshot_every=0)


def _stream(count: int = 120, seed: int = 3):
    return wdc_offer_stream("computers", count, seed=seed,
                            offers_per_product=4)


def _full_state(pipe: "StreamPipeline") -> dict:
    """``pipe._state()`` plus the index's band keys for every live
    record, which the snapshot leaves out and recovery rebuilds."""
    state = pipe._state()
    state["band_keys"] = {key: pipe.index.band_keys_of(key)
                          for key in pipe.records}
    state["indexed"] = len(pipe.index)
    return state


def _canonical_state(pipe: "StreamPipeline") -> dict:
    """Full pipeline state minus scheduling artifacts: ``score_calls`` (a
    process-local batching counter — replay folds in journaled results
    without re-calling the scorer) and WAL batching both differ across
    crash/recovery schedules; the resolution state must not."""
    state = _full_state(pipe)
    state["counters"] = {k: v for k, v in state["counters"].items()
                         if k != "score_calls"}
    return state


class TestStreamPipeline:
    def test_end_to_end_matches_batch_resolver(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            stats = pipe.stats()
            assert stats["records"] == 120
            assert stats["pending"] == 0
            # Exactly-once bookkeeping: every candidate the index ever
            # emitted was scored exactly once.
            assert stats["candidates"] == pipe.index.emitted_count
            assert stats["scored"] == len(pipe.scored_edges)
            assert stats["scored"] == stats["candidates"]

            batch = resolve_clusters(
                sorted(pipe.records),
                [(a, b, p) for (a, b), p in pipe.scored_edges.items()],
                threshold=pipe.config.threshold)
            assert pipe.resolution().clusters == batch.clusters

    def test_reopen_reconstructs_identical_state(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            reference = _canonical_state(pipe)

        recovered = StreamPipeline(tmp_path, JaccardScorer(), _FAST)
        assert recovered.recovered is True
        assert _canonical_state(recovered) == reference
        recovered.close()

    def test_refeed_is_exactly_once(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            before = dict(pipe.counters)
            applied = pipe.extend(_stream())        # full replay of input
            assert applied == 0
            assert pipe.counters == before

    def test_snapshot_then_recover_without_wal_tail(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            pipe.snapshot()
            assert pipe.wal.snapshot_state is None  # WAL keeps no copy
            reference = _full_state(pipe)
        recovered = StreamPipeline(tmp_path, JaccardScorer(), _FAST)
        assert recovered.wal.stats.replayed == 0    # snapshot covers all
        assert recovered.wal.snapshot_state is None
        assert _full_state(recovered) == reference
        recovered.close()

    def test_recovery_event_records_wall_time(self, tmp_path):
        with StreamPipeline(tmp_path / "wal", JaccardScorer(), _FAST) as pipe:
            offers = list(_stream(60))
            pipe.extend(offers[:40])
            pipe.snapshot()
            pipe.extend(offers[40:])
            pipe.flush()
        writer = RunStore(tmp_path / "runs").create()
        with runstore.recording(writer):
            StreamPipeline(tmp_path / "wal", JaccardScorer(), _FAST).close()
        writer.finish()
        events = [e for e in RunStore(tmp_path / "runs").get(writer.id)
                  .events() if e["name"] == "stream.recover"]
        assert len(events) == 1
        assert events[0]["records"] == 60
        assert events[0]["replayed"] > 0
        assert events[0]["snapshot_seq"] > 0
        assert isinstance(events[0]["wall_s"], float)
        assert events[0]["wall_s"] >= 0.0

    def test_delete_removes_record_but_keeps_cluster_membership(
            self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            victim = next(iter(pipe.records))
            assert pipe.delete(victim) is True
            assert pipe.delete(victim) is False
            assert victim not in pipe.records
            assert victim not in pipe.index
            assert not any(victim in pair for pair in pipe.pending)
            reference = _canonical_state(pipe)
        recovered = StreamPipeline(tmp_path, JaccardScorer(), _FAST)
        assert _canonical_state(recovered) == reference
        recovered.close()

    def test_periodic_snapshot_keeps_wal_bounded(self, tmp_path):
        config = StreamConfig(score_batch=16, sync_every=8,
                              snapshot_every=60)
        with StreamPipeline(tmp_path, JaccardScorer(), config) as pipe:
            pipe.extend(_stream())
            pipe.flush()
            assert pipe.wal.stats.snapshots >= 2
            state = _canonical_state(pipe)
        recovered = StreamPipeline(tmp_path, JaccardScorer(), config)
        assert _canonical_state(recovered) == state
        recovered.close()

    @staticmethod
    def _edit_snapshot(directory, edit) -> None:
        with StreamPipeline(directory, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream(20))
            pipe.flush()
            pipe.snapshot()
        path = directory / "snapshot.json"
        payload = decode_line(path.read_text().strip(), checksum=True)
        edit(payload["state"])
        path.write_text(encode_line(payload, checksum=True) + "\n")

    def test_unsupported_state_format_refused(self, tmp_path):
        for fmt in (3, 99):
            directory = tmp_path / str(fmt)
            self._edit_snapshot(directory,
                                lambda state: state.update(format=fmt))
            with pytest.raises(ValueError, match="format"):
                StreamPipeline(directory, JaccardScorer(), _FAST)

    def test_snapshot_missing_an_emitted_collision_refused(self, tmp_path):
        def drop_one(state):
            assert state["index"]["emitted"]
            state["index"]["emitted"].pop()

        self._edit_snapshot(tmp_path, drop_one)
        with pytest.raises(ValueError, match="collides"):
            StreamPipeline(tmp_path, JaccardScorer(), _FAST)


# ======================================================================
# Journal bytes (pinned before the single-encode and integer-MinHash
# rewrites of the ingest path; the snapshot digest re-pinned when band
# keys left the snapshot in state format 2)
# ======================================================================
_JOURNAL_FIXTURE = Path(__file__).parent / "data" / "stream_journal"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestJournalBytes:
    def test_snapshot_holds_no_band_keys(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(_stream(20))
            pipe.snapshot()
        state = decode_line((tmp_path / "snapshot.json").read_text().strip(),
                            checksum=True)["state"]
        assert state["format"] == 2
        assert sorted(state["index"]) == ["bands", "emitted", "num_hashes",
                                          "seed"]

    def test_wal_and_snapshot_bytes_pinned(self, tmp_path):
        with StreamPipeline(tmp_path, JaccardScorer(), _FAST) as pipe:
            pipe.extend(wdc_offer_stream("computers", 300, seed=0,
                                         offers_per_product=4))
            pipe.flush()
            assert _sha256(tmp_path / "wal.jsonl") == (
                "4ac1becc8f87e646d0ca32a275259b7f"
                "97e33855b0b7822fd7b19588fc998577")
            pipe.snapshot()
        assert _sha256(tmp_path / "snapshot.json") == (
            "63906526390d678e83d8b03cc236ea95"
            "d32c6f064c86e4a7ddb8ed24f339e838")

    def test_recorded_journal_recovers_to_live_state(self, tmp_path):
        # tests/data/stream_journal was written by the code before those
        # rewrites: 24 offers, flush, snapshot, 16 more offers and one
        # delete left in the WAL tail.  Replaying it must rebuild the
        # state the current code reaches live, band keys included.
        stream = list(wdc_offer_stream("computers", 40, seed=1,
                                       offers_per_product=4))
        live = StreamPipeline(tmp_path / "live", JaccardScorer(), _FAST)
        live.extend(stream[:24])
        live.flush()
        live.snapshot()
        live.extend(stream[24:])
        live.delete(stream[3][0])
        shutil.copytree(_JOURNAL_FIXTURE, tmp_path / "recorded")
        recovered = StreamPipeline(tmp_path / "recorded", JaccardScorer(),
                                   _FAST)
        assert recovered.wal.stats.replayed > 0
        assert _canonical_state(recovered) == _canonical_state(live)
        live.close()
        recovered.close()

    def test_format_1_snapshot_rebuilds_its_recorded_band_keys(
            self, tmp_path):
        # Recover the recorded snapshot alone (no WAL tail): the tables
        # rebuilt by re-hashing hold exactly the band keys it recorded.
        recorded = decode_line(
            (_JOURNAL_FIXTURE / "snapshot.json").read_text().strip(),
            checksum=True)["state"]
        assert recorded["format"] == 1
        shutil.copy(_JOURNAL_FIXTURE / "snapshot.json", tmp_path)
        recovered = StreamPipeline(tmp_path, JaccardScorer(), _FAST)
        assert recovered.wal.stats.replayed == 0
        hex_keys = recorded["index"]["band_keys"]
        assert sorted(recovered.records) == sorted(hex_keys)
        assert len(recovered.index) == len(hex_keys)
        for key, keys in hex_keys.items():
            assert [k.hex() for k in recovered.index.band_keys_of(key)] == keys
        recovered.close()


# ======================================================================
# Kill-at-any-point crash matrix
# ======================================================================
# (site, hit): chosen so every named fault site actually fires during
# the driver workload below (verified by the `fired` assertion).
CRASH_POINTS = [
    ("wal.append", 0), ("wal.append", 25), ("wal.append", 90),
    ("wal.fsync", 0), ("wal.fsync", 3),
    ("wal.snapshot.write", 0), ("wal.snapshot.write", 1),
    ("wal.snapshot.commit", 0), ("wal.snapshot.commit", 1),
    ("wal.compact", 0), ("wal.compact", 1),
    ("stream.ingest", 0), ("stream.ingest", 40),
    ("stream.score", 0), ("stream.score", 2),
    ("stream.score.commit", 0), ("stream.score.commit", 2),
]

_CRASH_CONFIG = StreamConfig(score_batch=16, sync_every=8,
                             snapshot_every=40)


def _drive(directory) -> StreamPipeline:
    pipe = StreamPipeline(directory, JaccardScorer(), _CRASH_CONFIG)
    pipe.extend(_stream(100, seed=5))
    pipe.flush()
    pipe.snapshot()
    return pipe


class TestCrashMatrix:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        pipe = _drive(tmp_path_factory.mktemp("reference"))
        state = _canonical_state(pipe)
        pipe.close()
        return state

    @pytest.mark.parametrize("site,hit", CRASH_POINTS,
                             ids=[f"{s}@{h}" for s, h in CRASH_POINTS])
    def test_kill_and_restart_recovers_exactly(self, site, hit, reference,
                                               tmp_path):
        plan = FaultPlan().fail_at(site, hit)
        with inject(plan):
            with pytest.raises(FaultError):
                _drive(tmp_path)
        assert plan.fired == [(site, hit)]
        # The crashed pipeline object is abandoned (never closed): its
        # buffered, un-synced WAL suffix is genuinely gone — kill -9.

        recovered = _drive(tmp_path)                # restart + re-feed
        assert _canonical_state(recovered) == reference
        assert recovered.counters["candidates"] == \
            recovered.index.emitted_count
        assert recovered.counters["scored"] == len(recovered.scored_edges)
        recovered.close()

    def test_double_crash_then_recover(self, reference, tmp_path):
        for plan in (FaultPlan().fail_at("stream.score.commit", 1),
                     FaultPlan().fail_at("wal.snapshot.commit", 0)):
            with inject(plan):
                with pytest.raises(FaultError):
                    _drive(tmp_path)
            assert len(plan.fired) == 1
        recovered = _drive(tmp_path)
        assert _canonical_state(recovered) == reference
        recovered.close()

    def test_torn_tail_after_crash_still_recovers(self, reference,
                                                  tmp_path):
        """kill -9 mid-run, then power-loss tears the last journal line:
        the re-fed stream still converges to the reference state."""
        with inject(FaultPlan().fail_at("stream.ingest", 70)):
            with pytest.raises(FaultError):
                _drive(tmp_path)
        log = tmp_path / "wal.jsonl"
        log.write_bytes(log.read_bytes()[:-9])
        recovered = _drive(tmp_path)
        assert _canonical_state(recovered) == reference
        recovered.close()


def test_no_pair_scored_twice_even_across_crash(tmp_path):
    """The scorer-call log proves pair-level exactly-once end to end:
    after a crash inside the score window forces a re-score, the set of
    *journaled* scored pairs still has no duplicates."""
    scorer = JaccardScorer()
    with inject(FaultPlan().fail_at("stream.score.commit", 1)):
        with pytest.raises(FaultError):
            pipe = StreamPipeline(tmp_path, scorer, _CRASH_CONFIG)
            pipe.extend(_stream(100, seed=5))
            pipe.flush()

    pipe = StreamPipeline(tmp_path, scorer, _CRASH_CONFIG)
    pipe.extend(_stream(100, seed=5))
    pipe.flush()
    journaled = [op for _seq, op in pipe.wal.replay()
                 if op.get("op") == "scored"]
    keys = [pair_key(op["a"], op["b"]) for op in journaled]
    assert len(keys) == len(set(keys))
    assert set(pipe.scored_edges) >= set(keys)
    pipe.close()


def test_payload_record_roundtrip():
    record = EntityRecord.from_dict(
        {"title": "canon dslr", "brand": "canon"},
        entity_id="cameras-1", source="shop-2")
    from repro.stream.pipeline import _record_payload

    payload = _record_payload(record)
    json.dumps(payload)
    back = _payload_record(payload)
    assert back.attributes == record.attributes
    assert back.entity_id == record.entity_id
    assert back.source == record.source


# ======================================================================
# Corpus scale: 100k offers, killed mid-stream and recovered (slow)
# ======================================================================
SCALE_OFFERS = 100_000
SCALE_OFFERS_PER_PRODUCT = 8     # 12,500 catalogue products
SCALE_SEED = 11
SCALE_KILL_AT = 40_000           # stream.ingest hit of the injected kill
# 96 hashes in 8 bands (12 rows/band, ~0.84 Jaccard S-curve): distinct
# products share whole spec-token profiles, and looser curves make the
# candidate count grow quadratically with the corpus.
SCALE_CONFIG = StreamConfig(threshold=0.5, score_batch=256, sync_every=512,
                            snapshot_every=25_000, num_hashes=96, bands=8,
                            seed=0)


def _scale_offers(start: int = 0):
    stream = wdc_offer_stream("computers", SCALE_OFFERS, seed=SCALE_SEED,
                              offers_per_product=SCALE_OFFERS_PER_PRODUCT)
    return itertools.islice(stream, start, None)


@pytest.mark.slow
def test_100k_stream_killed_mid_ingest_resolves_exactly_once(tmp_path):
    """A product-interleaved 100k-offer stream is killed at offer 40k,
    recovered from the journal, resumed at the recovered record count,
    and still resolves to the batch partition with every candidate
    emitted and scored exactly once."""
    pipe = StreamPipeline(tmp_path, JaccardScorer(), SCALE_CONFIG)
    with inject(FaultPlan().fail_at("stream.ingest", SCALE_KILL_AT)):
        with pytest.raises(FaultError):
            pipe.extend(_scale_offers())
    ingested = pipe.counters["records"]
    del pipe                      # abandoned: buffered WAL suffix is lost

    pipe = StreamPipeline(tmp_path, JaccardScorer(), SCALE_CONFIG)
    assert pipe.recovered
    resumed_at = pipe.counters["records"]
    assert ingested - resumed_at <= SCALE_CONFIG.sync_every
    pipe.extend(_scale_offers(start=resumed_at))
    pipe.flush()
    resolution = pipe.resolution()
    pipe.snapshot()

    stats = pipe.stats()
    assert stats["records"] == SCALE_OFFERS
    assert stats["pending"] == 0
    assert stats["candidates"] == pipe.index.emitted_count
    assert stats["scored"] == stats["candidates"]
    assert stats["scored"] == len(pipe.scored_edges)
    batch = resolve_clusters(
        sorted(pipe.records),
        [(a, b, p) for (a, b), p in pipe.scored_edges.items()],
        threshold=SCALE_CONFIG.threshold)
    assert resolution.clusters == batch.clusters
    pipe.close()
    assert stats["clusters"] <= SCALE_OFFERS
    # Transitive closure chains some look-alike products together, but
    # no giant component may swallow the corpus.
    assert max(map(len, resolution.clusters)) <= SCALE_OFFERS * 0.01
