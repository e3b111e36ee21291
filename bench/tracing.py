"""In-memory spans and counts around calls into spinlab's modules.

The tracer replaces public functions at the module attribute their callers
look up (``hubs.collapsed_distribution_hub``, ``counting.tv_collapsed``, ...)
with wrappers that record a span per call, and restores the originals on
``uninstall``.  No file under ``src/`` is touched: everything happens from
the benchmark's side of the call.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the operation the span belongs to
(``SETUP`` during set-up).  A layer's self time is its span's duration minus
the part of that interval covered by its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

SETUP = -1


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.op = SETUP
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._originals: list[tuple[object, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.clock(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = self.clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counts[(self.op, name)] += amount

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        module,
        attr: str,
        span: Optional[str],
        after: Optional[Callable] = None,
    ) -> None:
        """Register a wrapper for ``module.attr``.

        ``span`` names the span recorded per call (None records no span, only
        what ``after`` counts).  ``after(result, *args, **kwargs)`` runs after
        each call while the tracer is active.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                with self.span(span):
                    result = original(*args, **kwargs)
            if after is not None and self.active:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        self.patch(module, attr, wrapper)

    def patch(self, module, attr: str, replacement: Callable) -> None:
        """Register ``replacement`` for ``module.attr`` while installed."""
        self._patches.append((module, attr, replacement))
        self._originals.append((module, attr, getattr(module, attr)))

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in self._originals:
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.spans)

    def per_call_ms(self, name: str) -> float:
        """Mean self time in ms of the spans called ``name`` (0 if none ran)."""
        own = [t for s, t in zip(self.spans, self.self_times()) if s[0] == name]
        return 1000.0 * sum(own) / len(own) if own else 0.0

    def total(self, name: str, ops: range) -> float:
        return sum(self.counts.get((op, name), 0.0) for op in ops)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    its interval that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
