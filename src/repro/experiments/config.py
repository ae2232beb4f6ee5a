"""Experiment specifications: the model zoo and dataset grids.

``MODEL_SPECS`` maps the paper's model names to (model class, encoder
preset, serialization style).  ``PROFILES`` scales the evaluation grid:

- ``smoke``: one tiny configuration, used by the integration tests;
- ``quick`` (default): every dataset family, reduced seeds — the grid
  the shipped benchmarks run;
- ``full``: the paper's complete 22-configuration grid with 5 seeds
  (hours of CPU; provided for completeness).

Select with the ``REPRO_PROFILE`` environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from repro import NUMERICS_VERSION


@dataclass(frozen=True)
class RunSpec:
    """One train+evaluate run, uniquely identified for caching."""

    dataset: str                      # registry name, e.g. "wdc_computers"
    model: str                        # key into MODEL_SPECS
    size: str = "default"             # WDC size or "default"
    seed: int = 0                     # fine-tuning + init seed
    data_seed: int = 0                # dataset generation seed
    epochs: int = 25
    patience: int = 8
    learning_rate: float = 1e-3
    batch_size: int = 16
    vocab_size: int = 2000
    max_length: int = 96
    # Table 6: subsample training positives to this count (None = off).
    subsample_positives: int | None = None
    # Override encoder MLM pre-training steps (None = preset default).
    pretrain_steps: int | None = None

    def digest(self) -> str:
        payload = json.dumps({**asdict(self), "numerics": NUMERICS_VERSION},
                             sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ModelSpec:
    """How to instantiate one named model."""

    kind: str                  # class selector used by the runner
    encoder: str | None        # bert preset name, "fasttext", or None
    style: str = "plain"       # record serialization style
    multi_task: bool = True


MODEL_SPECS: dict[str, ModelSpec] = {
    # The paper's main comparison (Table 2).
    "emba": ModelSpec("emba", "mini-base"),
    "emba_ft": ModelSpec("emba", "fasttext"),
    "emba_sb": ModelSpec("emba", "mini-small"),
    "emba_db": ModelSpec("emba", "mini-distil"),
    "jointbert": ModelSpec("jointbert", "mini-base"),
    "deepmatcher": ModelSpec("deepmatcher", None, multi_task=False),
    "bert": ModelSpec("single", "mini-base", multi_task=False),
    "roberta": ModelSpec("single", "mini-roberta", multi_task=False),
    "ditto": ModelSpec("ditto", "mini-base", style="ditto", multi_task=False),
    "jointmatcher": ModelSpec("jointmatcher", "mini-base", multi_task=False),
    # Ablations (Table 4).
    "jointbert_s": ModelSpec("jointbert_s", "mini-base"),
    "jointbert_t": ModelSpec("jointbert_t", "mini-base"),
    "jointbert_ct": ModelSpec("jointbert_ct", "mini-base"),
    "emba_cls": ModelSpec("emba_cls", "mini-base"),
    "emba_surfcon": ModelSpec("emba_surfcon", "mini-base"),
    # Extension: late-interaction (dual-encoder) EMBA — records encoded
    # independently, only AoA + heads at pair time; the engine memoizes
    # per-record outputs so blocking-shaped workloads pay O(records)
    # encoder forwards instead of O(pairs).
    "emba_dual": ModelSpec("emba_dual", "mini-base"),
    "emba_dual_sb": ModelSpec("emba_dual", "mini-small"),
    "emba_dual_ft": ModelSpec("emba_dual", "fasttext"),
    # Extension: the paper's "naive padding" negative result as a model.
    "emba_unmasked_aoa": ModelSpec("emba_unmasked", "mini-base"),
    # Extension: the paper's Sec. 5 preliminary 'description structures
    # instead of [COL] tags' serialization.
    "bert_described": ModelSpec("single", "mini-base", style="described",
                                multi_task=False),
    "emba_described": ModelSpec("emba", "mini-base", style="described"),
}

TABLE2_MODELS = ("jointbert", "emba", "emba_ft", "emba_sb", "emba_db",
                 "deepmatcher", "bert", "roberta", "ditto", "jointmatcher")
TABLE4_MODELS = ("jointbert", "jointbert_s", "jointbert_t", "jointbert_ct",
                 "emba_cls", "emba_surfcon", "emba")
# The paper's Table 6 runs 5 models; the quick profile keeps the three
# that carry its claim (EMBA degrades least, JointBERT/BERT most); the
# full profile restores emba_sb and ditto.
TABLE6_MODELS = ("jointbert", "emba", "bert")
TABLE6_MODELS_FULL = ("jointbert", "emba", "emba_sb", "bert", "ditto")
TABLE7_MODELS = ("jointbert", "emba", "emba_ft", "emba_sb", "emba_db",
                 "bert", "roberta", "ditto")


@dataclass(frozen=True)
class Profile:
    """Grid sizing for one evaluation profile."""

    name: str
    # (dataset, size) pairs evaluated in Tables 2-3.
    grid: tuple[tuple[str, str], ...]
    seeds_main: tuple[int, ...]       # seeds for EMBA and JointBERT (t-test)
    seeds_other: tuple[int, ...]      # seeds for every other model
    epochs: int = 25
    pretrain_steps: int | None = None  # encoder MLM steps (None = preset)
    # (dataset, size) pairs for the ablation Tables 4-5 (None = same as grid).
    ablation_grid: tuple[tuple[str, str], ...] | None = None

    def ablations(self) -> tuple[tuple[str, str], ...]:
        return self.ablation_grid if self.ablation_grid is not None else self.grid


_QUICK_GRID = (
    ("wdc_computers", "small"),
    ("wdc_computers", "medium"),
    ("wdc_computers", "xlarge"),
    ("wdc_cameras", "medium"),
    ("wdc_watches", "medium"),
    ("wdc_shoes", "medium"),
    ("abt_buy", "default"),
    ("dblp_scholar", "default"),
    ("companies", "default"),
    ("baby_products", "default"),
    ("bikes", "default"),
    ("books", "default"),
)

_FULL_GRID = tuple(
    (f"wdc_{category}", size)
    for category in ("computers", "cameras", "watches", "shoes")
    for size in ("small", "medium", "large", "xlarge")
) + (
    ("abt_buy", "default"),
    ("dblp_scholar", "default"),
    ("companies", "default"),
    ("baby_products", "default"),
    ("bikes", "default"),
    ("books", "default"),
)

PROFILES: dict[str, Profile] = {
    "smoke": Profile(
        name="smoke",
        grid=(("wdc_computers", "small"),),
        seeds_main=(0,),
        seeds_other=(0,),
        epochs=3,
        pretrain_steps=40,
    ),
    "quick": Profile(
        name="quick",
        grid=_QUICK_GRID,
        seeds_main=(0, 1),
        seeds_other=(0,),
        epochs=60,
        ablation_grid=(
            ("wdc_computers", "small"),
            ("wdc_computers", "medium"),
            ("wdc_cameras", "medium"),
            ("abt_buy", "default"),
            ("books", "default"),
        ),
    ),
    "full": Profile(
        name="full",
        grid=_FULL_GRID,
        seeds_main=(0, 1, 2, 3, 4),
        seeds_other=(0, 1, 2, 3, 4),
        epochs=60,
    ),
}


def training_schedule(dataset: str, size: str) -> dict:
    """Per-dataset fine-tuning schedule (epochs, patience, learning rate).

    Mirrors the paper's setup (50 epochs, patience 10) scaled to mini
    models: the smallest training sets need more epochs before the
    minority (match) class is learned at all, larger sets converge sooner.
    The rate is fixed per dataset family in place of the paper's
    learning-rate sweep (see EXPERIMENTS.md).
    """
    # Patience must exceed the "cold-start" phase: with heavy class
    # imbalance the models predict all-negative (validation F1 = 0) for
    # the first several epochs, and stopping inside that window kills
    # slow starters (JointBERT most of all).
    if dataset.startswith("wdc_"):
        table = {
            "small": (60, 20, 2e-3),
            "medium": (35, 14, 1e-3),
            "large": (30, 13, 1e-3),
            "xlarge": (28, 13, 1e-3),
        }
        epochs, patience, lr = table[size]
    elif dataset in ("baby_products", "bikes", "books", "abt_buy"):
        # Tiny or very hard sets: hot rate, long patience (abt-buy's
        # verbosity asymmetry makes it the slowest starter of all).
        epochs, patience, lr = (60, 20, 2e-3)
    else:  # dblp_scholar, companies (hundreds of pairs: fewer epochs
        # suffice and keep the quick profile CPU-tractable)
        epochs, patience, lr = (22, 10, 1e-3)
    return {"epochs": epochs, "patience": patience, "learning_rate": lr}


def spec_for(dataset: str, size: str, model: str, seed: int,
             profile: Profile, **overrides) -> RunSpec:
    """Build a RunSpec with the dataset's schedule, capped by the profile."""
    schedule = training_schedule(dataset, size)
    epochs = min(schedule["epochs"], profile.epochs) if profile.epochs else schedule["epochs"]
    return RunSpec(
        dataset=dataset, model=model, size=size, seed=seed,
        epochs=epochs,
        patience=min(schedule["patience"], epochs),
        learning_rate=schedule["learning_rate"],
        pretrain_steps=profile.pretrain_steps,
        **overrides,
    )


def active_profile() -> Profile:
    """Profile selected by ``REPRO_PROFILE`` (default ``quick``)."""
    name = os.environ.get("REPRO_PROFILE", "quick")
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; expected one of {tuple(PROFILES)}")
    return PROFILES[name]
