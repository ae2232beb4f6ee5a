"""repro.resolution — from pairwise decisions to entity clusters.

Entity matching produces pairwise match decisions; entity *resolution*
turns them into a partition of the records (each cluster = one
real-world entity).  :func:`resolve_clusters` does this by
connected-component resolution over thresholded match decisions, with
optional transitivity repair by dropping the weakest edges of
over-merged components.
"""

from repro.resolution.clusters import Resolution, resolve_clusters

__all__ = ["Resolution", "resolve_clusters"]
