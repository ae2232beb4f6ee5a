"""Per-layer self-time attribution, measured from outside the program.

:class:`LayerClock` times calls into a layer's public functions.  The
benchmark either calls a function through :meth:`LayerClock.call`, or,
where the program itself makes the call (an engine calling its model,
a pipeline calling its write-ahead log), replaces the public method on
that one *instance* with a timed wrapper (:meth:`LayerClock.wrap`).  No
class and no program source is touched, and :meth:`LayerClock.unwrap`
restores every instance exactly.

Each row accumulates *self* time: a call's wall time minus the time of
the timed calls nested inside it.  Rows therefore never double count,
so over a measured window ``sum(rows) + unattributed == wall``.
"""

from __future__ import annotations

import time
from collections import defaultdict


def untimed(_row: str, fn, *args, **kwargs):
    """:meth:`LayerClock.call` without a clock: the untraced path."""
    return fn(*args, **kwargs)


class LayerClock:
    """Self-time accumulator keyed by row name (single-threaded)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._wrapped: list[tuple[object, str, bool, object]] = []

    def call(self, row: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` and charge its self time to ``row``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[row] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def wrap(self, obj, method: str, row: str) -> None:
        """Time ``obj.method`` on this instance only, charging ``row``."""
        had_own = method in vars(obj)
        original = getattr(obj, method)

        def timed(*args, **kwargs):
            return self.call(row, original, *args, **kwargs)

        setattr(obj, method, timed)
        self._wrapped.append((obj, method, had_own, original))

    def unwrap(self) -> None:
        """Restore every wrapped instance, newest first."""
        while self._wrapped:
            obj, method, had_own, original = self._wrapped.pop()
            if had_own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

    def rows_ms(self, per: int) -> dict[str, float]:
        """Self time of every row in milliseconds, divided by ``per``."""
        per = max(per, 1)
        return {row: 1e3 * s / per for row, s in self.seconds.items()}
