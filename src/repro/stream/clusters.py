"""Crash-safe incremental cluster store over the shared union-find.

The streaming counterpart of :func:`repro.resolution.resolve_clusters`:
records register as singletons, confident edges union their components,
and :meth:`StreamClusterStore.resolution` produces a partition pinned
equal to the batch resolver on the same edge set — connected components
are arrival-order invariant, so feeding the same scored edges in any
order (including a crash-replay order) yields the identical partition.

The hot path is :class:`repro.data.clustering.UnionFind` (path halving,
union by size): O(alpha(n)) per edge, no re-clustering of the world per
arrival.  Serialization is canonical (sorted cluster member lists), so
a snapshot taken after replay is byte-identical to one from an
uninterrupted run.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.data.clustering import UnionFind
from repro.resolution.clusters import Resolution


class StreamClusterStore(UnionFind):
    """Incremental connected-components partition over record keys."""

    def __init__(self) -> None:
        super().__init__()
        self.edges_applied = 0
        self.merges = 0

    def union(self, a: str, b: str) -> bool:
        """Merge the components of ``a`` and ``b``; True if they were
        separate.  Counts every edge and every merge."""
        self.edges_applied += 1
        merged = super().union(a, b)
        self.merges += merged
        return merged

    # ------------------------------------------------------------------
    # Canonical views (parity with the batch resolver)
    # ------------------------------------------------------------------
    def clusters(self) -> list[set[str]]:
        """Components in the batch resolver's canonical order:
        largest first, ties by sorted stringified members."""
        out = self.components()
        out.sort(key=lambda c: (-len(c), sorted(map(str, c))))
        return out

    def resolution(self) -> Resolution:
        """The partition as a :class:`~repro.resolution.clusters.Resolution`
        — directly comparable with :func:`resolve_clusters` output."""
        return Resolution(clusters=self.clusters())

    def assignments(self) -> dict[str, int]:
        """Record -> canonical cluster index (same as
        ``Resolution.cluster_of()`` of the batch resolver)."""
        return self.resolution().cluster_of()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Canonical, order-independent state: sorted member lists."""
        return {
            "clusters": [sorted(c) for c in self.clusters()],
            "edges_applied": self.edges_applied,
            "merges": self.merges,
        }

    def load_state_dict(self, state: dict) -> None:
        UnionFind.__init__(self)
        for members in state["clusters"]:
            for other in members:    # uncounted: restores, not new edges
                UnionFind.union(self, members[0], other)
        self.edges_applied = int(state.get("edges_applied", 0))
        self.merges = int(state.get("merges", 0))

    # ------------------------------------------------------------------
    # Bulk helper
    # ------------------------------------------------------------------
    def apply_edges(self, edges: Iterable[tuple[Hashable, Hashable, float]],
                    threshold: float = 0.5) -> int:
        """Union every edge with probability >= ``threshold``; returns
        the number of merges performed."""
        merged = 0
        for a, b, prob in edges:
            self.add(str(a))
            self.add(str(b))
            if prob >= threshold and self.union(str(a), str(b)):
                merged += 1
        return merged
