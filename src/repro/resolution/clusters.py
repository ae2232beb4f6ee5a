"""Cluster resolution: pairwise match decisions to an entity partition.

Pairwise match probabilities (e.g. from
:class:`repro.blocking.pipeline.MatchingPipeline`) become an entity
partition by thresholding and taking connected components — the same
transitive-closure semantics the paper uses to *derive* entity-ID labels
from match annotations (Sec. 4.1.2), now applied to predictions.

Because transitive closure amplifies single false-positive edges into
giant merged clusters, :func:`resolve_clusters` optionally repairs
over-merges: components larger than ``max_cluster_size`` repeatedly drop
their lowest-probability edge until they fall apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.data.clustering import connected_components


@dataclass
class Resolution:
    """A predicted partition of the records."""

    clusters: list[set[Hashable]]

    def cluster_of(self) -> dict[Hashable, int]:
        """Record -> cluster index map."""
        return {record: i for i, cluster in enumerate(self.clusters)
                for record in cluster}

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def _edge_sort_key(edge: tuple) -> tuple:
    """Deterministic total order on weighted edges: weight, then the
    canonical (sorted, stringified) endpoint pair, so the weakest edge of
    a component does not depend on the order edges arrived in.
    """
    u, v, weight = edge
    a, b = sorted((str(u), str(v)))
    return (weight, a, b)


def _with_edges(nodes: Iterable[Hashable], edges: list[tuple]
                ) -> list[tuple[set, list[tuple]]]:
    """Connected components of ``nodes`` + ``edges``, each paired with
    the weighted edges inside it."""
    components = connected_components(nodes, ((u, v) for u, v, _ in edges))
    index = {node: i for i, component in enumerate(components)
             for node in component}
    inside: list[list[tuple]] = [[] for _ in components]
    for edge in edges:
        inside[index[edge[0]]].append(edge)
    return list(zip(components, inside))


def _split_oversized(parts: list[tuple[set, list[tuple]]],
                     max_size: int) -> list[set]:
    """Drop weakest edges of components exceeding ``max_size``.

    An oversized component sheds its weakest edge under
    :func:`_edge_sort_key` until it falls apart, then each part is
    handled the same way.  Components share no edges, so the result is
    independent of node/edge insertion order.
    """
    done: list[set] = []
    while parts:
        component, edges = parts.pop()
        if len(component) <= max_size:
            done.append(component)
            continue
        edges = sorted(edges, key=_edge_sort_key)
        # Dropping every edge always splits: len(component) >= 2.
        for dropped in range(1, len(edges) + 1):
            split = _with_edges(component, edges[dropped:])
            if len(split) > 1:
                break
        parts.extend(split)
    return done


def resolve_clusters(records: Sequence[Hashable],
                     scored_pairs: Iterable[tuple[Hashable, Hashable, float]],
                     threshold: float = 0.5,
                     max_cluster_size: int | None = None) -> Resolution:
    """Partition ``records`` by connected components of confident matches.

    Parameters
    ----------
    records:
        All records to place (unmatched ones become singletons).
    scored_pairs:
        ``(record_a, record_b, probability)`` triples.  A repeated pair
        (in either orientation) keeps its last confident probability.
    threshold:
        Minimum probability for an edge.
    max_cluster_size:
        If given, over-merged components shed their weakest edges until
        no component exceeds this size (transitivity repair).
    """
    weights: dict[tuple, float] = {}
    for a, b, prob in scored_pairs:
        if prob >= threshold:
            weights.pop((b, a), None)
            weights[(a, b)] = prob
    edges = [(a, b, prob) for (a, b), prob in weights.items()]
    if max_cluster_size is None:
        clusters = connected_components(records,
                                        ((a, b) for a, b, _ in edges))
    else:
        if max_cluster_size < 1:
            raise ValueError("max_cluster_size must be >= 1")
        clusters = _split_oversized(_with_edges(records, edges),
                                    max_cluster_size)
    clusters.sort(key=lambda c: (-len(c), sorted(map(str, c))))
    return Resolution(clusters=clusters)

