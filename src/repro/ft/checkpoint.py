"""Atomic full-state training checkpoints with integrity checking.

A checkpoint captures *everything* Algorithm 1 needs to continue as if
it had never stopped: model weights, the best-validation snapshot, Adam
moments and step count, the LR-schedule position, the trainer's
``np.random.Generator`` stream, every dropout generator inside the
model, early-stopping internals, and the metric history.  Resuming from
a checkpoint therefore reproduces the uninterrupted run byte for byte
(verified by the determinism suite).

On disk a checkpoint is two files in the checkpoint directory::

    ckpt-00007.npz    all arrays (model/, best/, optimizer slots)
    ckpt-00007.json   manifest: scalars, RNG states, sha256 of the npz

The npz is staged and renamed atomically, and the manifest is written
only after the npz is complete — a crash mid-write leaves either no
trace or an npz without a manifest, both of which the loader ignores.
The manifest embeds the npz's sha256, so silent corruption (truncation,
bit rot, a torn write) is detected at load time and the loader falls
back to the newest *valid* checkpoint.  Retention keeps the last ``k``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ft.faults import fault_point
from repro.jsonl import publish_text
from repro.nn.serialization import CheckpointError, load_arrays, save_arrays
from repro import obs

_FORMAT = 1
_MANIFEST_RE = re.compile(r"^ckpt-(\d{5})\.json$")


# ----------------------------------------------------------------------
# RNG state capture
# ----------------------------------------------------------------------

def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's bit-generator state."""
    return copy.deepcopy(rng.bit_generator.state)


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = state


def collect_module_rngs(module) -> dict:
    """Snapshot every ``np.random.Generator`` held by a module tree.

    Dropout layers (and any future module with an ``rng`` attribute) may
    *share* generator objects; sharing is preserved by recording one
    state per distinct generator plus a module-name -> state-index map.
    """
    states: list[dict] = []
    groups: dict[str, int] = {}
    seen: dict[int, int] = {}
    for name, mod in module.named_modules():
        gen = getattr(mod, "rng", None)
        if isinstance(gen, np.random.Generator):
            key = id(gen)
            if key not in seen:
                seen[key] = len(states)
                states.append(rng_state(gen))
            groups[name] = seen[key]
    return {"states": states, "groups": groups}


def restore_module_rngs(module, payload: dict) -> None:
    """Restore generator states captured by :func:`collect_module_rngs`.

    Assumes the module was rebuilt by the same deterministic
    construction path, so the generator-sharing topology matches.
    """
    states = payload["states"]
    groups = payload["groups"]
    restored: set[int] = set()
    for name, mod in module.named_modules():
        gen = getattr(mod, "rng", None)
        if (isinstance(gen, np.random.Generator) and name in groups
                and id(gen) not in restored):
            set_rng_state(gen, states[groups[name]])
            restored.add(id(gen))


# ----------------------------------------------------------------------
# Training state
# ----------------------------------------------------------------------

@dataclass
class TrainingState:
    """Complete state of a fine-tuning run at an epoch boundary."""

    epoch: int                                  # epochs fully completed
    model: dict[str, np.ndarray]
    best_model: dict[str, np.ndarray]
    optimizer: dict                             # Optimizer.state_dict()
    schedule: dict                              # Schedule.state_dict()
    trainer_rng: dict                           # shuffle-stream state
    module_rngs: dict = field(default_factory=lambda: {"states": [], "groups": {}})
    stopper: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)  # TrainResult fields
    lr_scale: float = 1.0                       # divergence-rollback LR factor
    # Telemetry counters at the boundary (repro.obs), so a resumed run
    # reports cumulative nonfinite_skipped/rollbacks instead of
    # restarting mid-run from zero.  Empty when telemetry was off.
    obs_counters: dict = field(default_factory=dict)


_ARRAY_SLOTS = ("m", "v", "velocity")   # optimizer keys holding array lists


def _flatten_arrays(state: TrainingState) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, value in state.model.items():
        arrays[f"model/{name}"] = value
    for name, value in state.best_model.items():
        arrays[f"best/{name}"] = value
    for slot in _ARRAY_SLOTS:
        for i, value in enumerate(state.optimizer.get(slot, ())):
            arrays[f"optim.{slot}/{i:05d}"] = value
    return arrays


def _unflatten_arrays(arrays: dict[str, np.ndarray], manifest: dict) -> TrainingState:
    model: dict[str, np.ndarray] = {}
    best: dict[str, np.ndarray] = {}
    slots: dict[str, dict[int, np.ndarray]] = {s: {} for s in _ARRAY_SLOTS}
    for key, value in arrays.items():
        group, _, name = key.partition("/")
        if group == "model":
            model[name] = value
        elif group == "best":
            best[name] = value
        elif group.startswith("optim."):
            slots[group[len("optim."):]][int(name)] = value
    optimizer = dict(manifest["optimizer"])
    for slot, items in slots.items():
        if items:
            optimizer[slot] = [items[i] for i in sorted(items)]
    return TrainingState(
        epoch=int(manifest["epoch"]),
        model=model,
        best_model=best,
        optimizer=optimizer,
        schedule=manifest["schedule"],
        trainer_rng=manifest["trainer_rng"],
        module_rngs=manifest["module_rngs"],
        stopper=manifest["stopper"],
        result=manifest["result"],
        lr_scale=float(manifest.get("lr_scale", 1.0)),
        obs_counters=dict(manifest.get("obs_counters", {})),
    )


# ----------------------------------------------------------------------
# Checkpointer
# ----------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Checkpointer:
    """Save/load :class:`TrainingState` under one directory.

    ``corrupt_skipped`` records epochs whose checkpoints failed
    validation during the most recent :meth:`load_latest` call, for
    reporting and tests.
    """

    def __init__(self, directory: str | Path, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.corrupt_skipped: list[int] = []

    # -- paths ----------------------------------------------------------
    def npz_path(self, epoch: int) -> Path:
        return self.directory / f"ckpt-{epoch:05d}.npz"

    def manifest_path(self, epoch: int) -> Path:
        return self.directory / f"ckpt-{epoch:05d}.json"

    def saved_epochs(self) -> list[int]:
        """Epochs with a committed manifest, ascending (validity unchecked)."""
        if not self.directory.is_dir():
            return []
        epochs = []
        for entry in self.directory.iterdir():
            match = _MANIFEST_RE.match(entry.name)
            if match:
                epochs.append(int(match.group(1)))
        return sorted(epochs)

    # -- save -----------------------------------------------------------
    def save(self, state: TrainingState) -> Path:
        """Atomically persist one checkpoint; prunes to ``keep_last``."""
        with obs.span("checkpoint.save", epoch=state.epoch) as save_span:
            start = time.perf_counter()
            self.directory.mkdir(parents=True, exist_ok=True)
            npz = self.npz_path(state.epoch)
            fault_point("checkpoint.write")
            save_arrays(npz, _flatten_arrays(state))
            fault_point("checkpoint.manifest")
            optimizer_scalars = {k: v for k, v in state.optimizer.items()
                                 if k not in _ARRAY_SLOTS}
            manifest = {
                "format": _FORMAT,
                "epoch": state.epoch,
                "sha256": _sha256(npz),
                "optimizer": optimizer_scalars,
                "schedule": state.schedule,
                "trainer_rng": state.trainer_rng,
                "module_rngs": state.module_rngs,
                "stopper": state.stopper,
                "result": state.result,
                "lr_scale": state.lr_scale,
                "obs_counters": state.obs_counters,
            }
            publish_text(self.manifest_path(state.epoch), json.dumps(manifest))
            self._prune()
            if obs.enabled():
                save_span.set("bytes", npz.stat().st_size)
                obs.observe("checkpoint.save_seconds",
                            time.perf_counter() - start, bounds=obs.TIME_BUCKETS)
                obs.inc("checkpoint.saves")
            return self.manifest_path(state.epoch)

    def _prune(self) -> None:
        for epoch in self.saved_epochs()[:-self.keep_last]:
            self.npz_path(epoch).unlink(missing_ok=True)
            self.manifest_path(epoch).unlink(missing_ok=True)
        # npz files whose manifest never committed are dead weight.
        if self.directory.is_dir():
            live = {self.npz_path(e).name for e in self.saved_epochs()}
            for entry in self.directory.glob("ckpt-*.npz"):
                if entry.name not in live:
                    entry.unlink(missing_ok=True)

    # -- load -----------------------------------------------------------
    def load_epoch(self, epoch: int) -> TrainingState:
        """Load one epoch's checkpoint, validating its checksum."""
        manifest_path = self.manifest_path(epoch)
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise CheckpointError(f"no manifest for epoch {epoch}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"corrupt manifest {manifest_path}: {exc}") from exc
        npz = self.npz_path(epoch)
        if not npz.exists():
            raise CheckpointError(f"manifest without npz: {npz}")
        if manifest.get("format") != _FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {manifest.get('format')!r}")
        digest = _sha256(npz)
        if digest != manifest.get("sha256"):
            raise CheckpointError(
                f"checksum mismatch for {npz}: manifest {manifest.get('sha256')!r}"
                f" != file {digest!r}")
        try:
            return _unflatten_arrays(load_arrays(npz), manifest)
        except (KeyError, ValueError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint {npz}: {exc}") from exc

    def load_latest(self) -> TrainingState | None:
        """Newest valid checkpoint, skipping corrupt/truncated ones."""
        self.corrupt_skipped = []
        with obs.span("checkpoint.load") as load_span:
            start = time.perf_counter()
            for epoch in reversed(self.saved_epochs()):
                try:
                    state = self.load_epoch(epoch)
                except CheckpointError:
                    self.corrupt_skipped.append(epoch)
                    obs.inc("checkpoint.fallbacks")
                    continue
                if obs.enabled():
                    load_span.set("epoch", epoch)
                    load_span.set("skipped", len(self.corrupt_skipped))
                    obs.observe("checkpoint.load_seconds",
                                time.perf_counter() - start,
                                bounds=obs.TIME_BUCKETS)
                return state
        return None
