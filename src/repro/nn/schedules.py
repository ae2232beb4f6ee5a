"""Learning-rate schedules.

The paper trains with "a linearly decaying learning rate with one epoch
warmup" — :class:`LinearWarmupDecay` implements exactly that, stepped
once per optimizer update.
"""

from __future__ import annotations

from repro.nn.optim import Optimizer


class Schedule:
    """Base class: call :meth:`step` after each optimizer update."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self._count = 0

    def lr_at(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self._count += 1
        lr = self.lr_at(self._count)
        self.optimizer.lr = lr
        return lr

    # ------------------------------------------------------------------
    # State persistence (consumed by repro.ft checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {"count": self._count}

    def load_state_dict(self, state: dict) -> None:
        """Restore the step counter and re-derive the optimizer's lr."""
        self._count = int(state["count"])
        if self._count:
            self.optimizer.lr = self.lr_at(self._count)


class LinearWarmupDecay(Schedule):
    """Linear warmup to ``peak_lr`` then linear decay to zero.

    ``warmup_steps`` is typically one epoch's worth of batches;
    ``total_steps`` is epochs × batches-per-epoch.
    """

    def __init__(self, optimizer: Optimizer, peak_lr: float, warmup_steps: int,
                 total_steps: int):
        super().__init__(optimizer)
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if warmup_steps < 0 or warmup_steps > total_steps:
            raise ValueError("warmup_steps must be in [0, total_steps]")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        optimizer.lr = self.lr_at(0)

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        remaining = max(self.total_steps - step, 0)
        denom = max(self.total_steps - self.warmup_steps, 1)
        return self.peak_lr * remaining / denom

    def state_dict(self) -> dict:
        # peak_lr is mutable at runtime: the trainer halves it when a run
        # diverges and rolls back, so it must survive a resume.
        return {**super().state_dict(), "peak_lr": self.peak_lr}

    def load_state_dict(self, state: dict) -> None:
        self.peak_lr = float(state.get("peak_lr", self.peak_lr))
        super().load_state_dict(state)
