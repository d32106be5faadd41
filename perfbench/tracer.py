"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` swaps chosen
public functions and methods for timing wrappers while it is
installed, and puts the originals back when it is removed.  Spans nest
through a stack, so each layer is charged its *self* time (its own
duration minus the spans it called), and the self times inside one op
add up to the part of the op's wall time that some layer accounts for.

Tracing is per op: the workloads install the tracer for every other op
of a traced run, so the untraced ops of the same run give the baseline
for the tracing overhead.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    """Span stack plus per-name self time, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: summed duration of outermost spans (the attributed op time)
        self.top_s = 0.0
        self._stack: List[List[float]] = []
        self._targets: List[Tuple[Any, str, str, Callable]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def add(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Trace ``owner.attr`` (a module, class or dict) as span ``name``.

        ``after(tracer, args, result)`` runs after each call, outside
        the timed span, to record counters such as tape length.
        """
        self._targets.append((owner, attr, name, after))

    def span(self, fn: Callable, name: str, after=None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    @staticmethod
    def _get(owner: Any, attr: str) -> Any:
        if isinstance(owner, dict):
            return owner[attr]
        if isinstance(owner, type):
            return owner.__dict__[attr]
        return getattr(owner, attr)

    @staticmethod
    def _set(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Swap every target for its traced wrapper."""
        for owner, attr, name, after in self._targets:
            original = self._get(owner, attr)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.span(original.__func__, name, after))
            else:
                wrapped = self.span(original, name, after)
            self._saved.append((owner, attr, original))
            self._set(owner, attr, wrapped)

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            self._set(owner, attr, original)

    def mean_ms(self, name: str, per: float) -> float:
        """Self time of ``name`` in ms, divided by ``per`` (0 when unused)."""
        return 1e3 * self.self_s.get(name, 0.0) / per if per else 0.0
