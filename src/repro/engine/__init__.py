"""Unified batched inference for every scoring path.

``InferenceEngine`` replaces the per-consumer encode/collate/forward
loops that used to live in the blocking pipeline, the trainer's
validation, LIME, and the experiment runners.
"""

from repro.engine.core import EngineConfig, InferenceEngine
from repro.engine.memo import LRUCache, array_digest, text_digest
from repro.engine.stats import EngineStats

__all__ = [
    "EngineConfig",
    "EngineStats",
    "InferenceEngine",
    "LRUCache",
    "array_digest",
    "text_digest",
]
