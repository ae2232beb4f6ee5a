"""Tests for the data schema, serialization, clustering, imbalance, splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.clustering import assign_cluster_ids
from repro.data.imbalance import (
    entity_id_lrid,
    lrid,
    positive_negative_ratio,
    subsample_positives,
)
from repro.data.schema import EMDataset, EntityPair, EntityRecord
from repro.data.serialize import serialize_record
from repro.data.splits import train_valid_test_split


def make_record(text: str, entity_id=None, source="a") -> EntityRecord:
    return EntityRecord.from_dict({"title": text}, entity_id=entity_id, source=source)


class TestSchema:
    def test_record_text_concatenates_values(self):
        rec = EntityRecord.from_dict({"title": "samsung ssd", "brand": "samsung"})
        assert rec.text() == "samsung ssd samsung"

    def test_record_text_skips_empty(self):
        rec = EntityRecord.from_dict({"title": "x", "brand": ""})
        assert rec.text() == "x"

    def test_record_is_hashable(self):
        assert hash(make_record("a")) == hash(make_record("a"))

    def test_pair_label_validation(self):
        with pytest.raises(ValueError):
            EntityPair(make_record("a"), make_record("b"), 2)

    def test_build_id_classes_contiguous(self):
        pairs = [
            EntityPair(make_record("a", "id2"), make_record("b", "id1"), 1),
            EntityPair(make_record("c", "id3"), make_record("d", "id1"), 0),
        ]
        classes = EMDataset.build_id_classes(pairs)
        assert sorted(classes.values()) == [0, 1, 2]

    def test_id_index_unknown_is_zero(self):
        ds = EMDataset("t", [], [], [], id_classes={"x": 1})
        assert ds.id_index("missing") == 0
        assert ds.id_index(None) == 0

    def test_positive_negative_counts(self):
        pairs = [EntityPair(make_record("a"), make_record("b"), 1),
                 EntityPair(make_record("c"), make_record("d"), 0)]
        ds = EMDataset("t", pairs, [], [])
        assert ds.positive_negative_counts("train") == (1, 1)


class TestSerialize:
    def test_plain(self):
        rec = EntityRecord.from_dict({"title": "evo ssd", "brand": "samsung"})
        assert serialize_record(rec) == "evo ssd samsung"

    def test_ditto_tags(self):
        rec = EntityRecord.from_dict({"title": "evo", "brand": "samsung"})
        out = serialize_record(rec, style="ditto")
        assert out == "[COL] title [VAL] evo [COL] brand [VAL] samsung"

    def test_ditto_skips_empty_values(self):
        rec = EntityRecord.from_dict({"title": "evo", "brand": ""})
        assert "brand" not in serialize_record(rec, style="ditto")

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            serialize_record(make_record("a"), style="nope")

class TestClustering:
    def test_transitive_closure(self):
        a, b, c, d = (make_record(x, source=s) for x, s in
                      [("a", "s1"), ("b", "s2"), ("c", "s1"), ("d", "s2")])
        pairs = [EntityPair(a, b, 1), EntityPair(b, c, 1), EntityPair(c, d, 0)]
        labeled = assign_cluster_ids(pairs)
        ids = {}
        for p in labeled:
            for r in (p.record1, p.record2):
                ids[r.text()] = r.entity_id
        assert ids["a"] == ids["b"] == ids["c"]
        assert ids["d"] != ids["a"]

    def test_singletons_get_own_cluster(self):
        pairs = [EntityPair(make_record("x"), make_record("y", source="b"), 0)]
        labeled = assign_cluster_ids(pairs)
        assert labeled[0].record1.entity_id != labeled[0].record2.entity_id

    def test_deterministic(self):
        pairs = [EntityPair(make_record("a"), make_record("b", source="b"), 1)]
        l1 = assign_cluster_ids(pairs)
        l2 = assign_cluster_ids(pairs)
        assert l1[0].record1.entity_id == l2[0].record1.entity_id

    def test_labels_preserved(self):
        pairs = [EntityPair(make_record("a"), make_record("b", source="b"), 1)]
        assert assign_cluster_ids(pairs)[0].label == 1


class TestLRID:
    def test_balanced_is_zero(self):
        assert lrid([10, 10, 10]) == pytest.approx(0.0, abs=1e-12)

    def test_imbalanced_positive(self):
        assert lrid([100, 1]) > 0

    def test_more_imbalance_is_larger(self):
        assert lrid([100, 1]) > lrid([60, 41])

    def test_empty(self):
        assert lrid([]) == 0.0

    def test_zero_classes_ignored(self):
        assert lrid([5, 5, 0]) == pytest.approx(lrid([5, 5]))

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, counts):
        assert lrid(counts) >= -1e-9

    def test_entity_id_lrid_counts_both_records(self):
        pairs = [EntityPair(make_record("a", "x"), make_record("b", "x"), 1)]
        # Two observations of one class -> balanced single class -> 0.
        assert entity_id_lrid(pairs) == pytest.approx(0.0, abs=1e-12)


class TestImbalanceSampling:
    def _pairs(self, pos, neg):
        out = []
        for i in range(pos):
            out.append(EntityPair(make_record(f"p{i}"), make_record(f"q{i}", source="b"), 1))
        for i in range(neg):
            out.append(EntityPair(make_record(f"n{i}"), make_record(f"m{i}", source="b"), 0))
        return out

    def test_subsample_counts(self):
        rng = np.random.default_rng(0)
        out = subsample_positives(self._pairs(50, 100), 10, rng)
        assert sum(p.label for p in out) == 10
        assert sum(1 - p.label for p in out) == 100

    def test_subsample_too_many_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            subsample_positives(self._pairs(5, 5), 10, rng)

    def test_ratio(self):
        assert positive_negative_ratio(self._pairs(10, 100)) == pytest.approx(0.1)

    def test_ratio_no_negatives(self):
        assert math.isinf(positive_negative_ratio(self._pairs(3, 0)))


class TestSplits:
    def test_fractions_and_disjoint(self):
        pairs = []
        for i in range(100):
            pairs.append(EntityPair(make_record(f"a{i}"), make_record(f"b{i}", source="b"),
                                    1 if i % 4 == 0 else 0))
        rng = np.random.default_rng(1)
        train, valid, test = train_valid_test_split(pairs, rng)
        assert len(train) + len(valid) + len(test) == 100
        assert len(test) == pytest.approx(15, abs=2)
        # Stratification: every split has positives.
        for split in (train, valid, test):
            assert any(p.label == 1 for p in split)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            train_valid_test_split([], np.random.default_rng(0),
                                   valid_fraction=0.6, test_fraction=0.6)
