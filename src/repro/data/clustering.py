"""Connected components, and transitive-closure cluster-ID assignment.

For datasets that ship only match/non-match pair labels (abt-buy,
dblp-scholar, companies), the paper derives auxiliary entity-ID labels by
taking the transitive closure of the match relation: if (A, B) and (B, C)
are matches, then {A, B, C} form one cluster and share a unique cluster
identifier.

:class:`UnionFind` is the one connected-components routine of the
package: the ID assignment here, the batch resolver
(:func:`repro.resolution.resolve_clusters`) and the streaming cluster
store (:class:`repro.stream.StreamClusterStore`) all build on it.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.data.schema import EntityPair, EntityRecord


class UnionFind:
    """Dict-backed disjoint sets: path halving and union by size.

    O(alpha(n)) per operation.  Components are sets, so every view
    below is independent of the order keys and edges arrived in.
    """

    def __init__(self, keys: Iterable[Hashable] = ()):
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        for key in keys:
            self.add(key)

    def add(self, key: Hashable) -> None:
        """Register ``key`` as a singleton (idempotent)."""
        if key not in self._parent:
            self._parent[key] = key
            self._size[key] = 1

    def find(self, key: Hashable) -> Hashable:
        """Root of ``key``'s component (path halving)."""
        parent = self._parent
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the components of ``a`` and ``b``; True if they were
        separate.  Unknown keys are registered first."""
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._parent

    def components(self) -> list[set]:
        """Every component as a set of keys (unordered)."""
        by_root: dict[Hashable, set] = {}
        for key in self._parent:
            by_root.setdefault(self.find(key), set()).add(key)
        return list(by_root.values())


def connected_components(nodes: Iterable[Hashable],
                         edges: Iterable[tuple[Hashable, Hashable]]
                         ) -> list[set]:
    """Components of the graph ``nodes`` + ``edges`` (endpoints missing
    from ``nodes`` are added)."""
    sets = UnionFind(nodes)
    for a, b in edges:
        sets.union(a, b)
    return sets.components()


def _record_key(record: EntityRecord) -> tuple:
    """Hashable identity for a record (records are frozen dataclasses)."""
    return (record.source, record.attributes)


def assign_cluster_ids(pairs: list[EntityPair], prefix: str = "cluster") -> list[EntityPair]:
    """Return new pairs whose records carry transitive-closure cluster IDs.

    Every record (from matching *and* non-matching pairs) becomes a graph
    node; edges connect records of pairs labeled as matches.  Each
    connected component gets one identifier, so singletons — records never
    matched to anything — each form their own class, reproducing the
    sparse auxiliary classes the paper observes on abt-buy and companies.
    """
    keys = [(_record_key(p.record1), _record_key(p.record2)) for p in pairs]
    components = connected_components(
        (key for pair_keys in keys for key in pair_keys),
        (pair_keys for pair_keys, p in zip(keys, pairs) if p.label == 1))

    cluster_of: dict[tuple, str] = {}
    for i, component in enumerate(sorted(components, key=sorted)):
        label = f"{prefix}-{i}"
        for key in component:
            cluster_of[key] = label

    def relabel(record: EntityRecord) -> EntityRecord:
        return EntityRecord(
            attributes=record.attributes,
            entity_id=cluster_of[_record_key(record)],
            source=record.source,
        )

    return [
        EntityPair(relabel(p.record1), relabel(p.record2), p.label) for p in pairs
    ]
