"""repro.data — entity-matching datasets and loading machinery.

Provides the record/pair schema, record serialization (plain and
DITTO-style ``[COL]/[VAL]``), cluster-ID assignment via transitive
closure, the LRID imbalance metric and positive-subsampling used by the
paper's imbalance study, train/valid/test splitting, pair encoding and
batching, and a registry of synthetic benchmark datasets mirroring the
paper's 7 dataset families (22 configurations).
"""

from repro.data.clustering import assign_cluster_ids
from repro.data.export import (
    load_dataset_csv,
    load_pairs_csv,
    save_dataset_csv,
    save_pairs_csv,
)
from repro.data.imbalance import lrid, subsample_positives
from repro.data.loader import Batch, EncodedPair, PairEncoder, iter_batches
from repro.data.registry import DATASET_NAMES, WDC_SIZES, dataset_summary, load_dataset
from repro.data.schema import EMDataset, EntityPair, EntityRecord
from repro.data.serialize import serialize_record
from repro.data.splits import train_valid_test_split

__all__ = [
    "Batch",
    "DATASET_NAMES",
    "EMDataset",
    "EncodedPair",
    "EntityPair",
    "EntityRecord",
    "PairEncoder",
    "WDC_SIZES",
    "assign_cluster_ids",
    "dataset_summary",
    "iter_batches",
    "load_dataset",
    "load_dataset_csv",
    "load_pairs_csv",
    "lrid",
    "save_dataset_csv",
    "save_pairs_csv",
    "serialize_record",
    "subsample_positives",
    "train_valid_test_split",
]
