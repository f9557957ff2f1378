"""In-memory spans around the calls the benchmark makes into invarr's layers.

A ``Tracer`` replaces module attributes with timing wrappers, keeps every
span as a ``(name, start, end, parent)`` tuple in memory, and restores
the original attributes on ``restore()``.  Nothing inside the program is
edited: the wrappers sit on the names the calling module looks up.

Two kinds of span exist.  A *container* span (a record, a CLI call) may
hold child spans.  A *layer* span is a leaf: a wrapped function that a
layer calls from inside another layer's span runs unrecorded and its
time stays with the calling layer, so ``rook.rook_count`` keeps the
diagram it builds for itself instead of lending it to ``rook.ferrers``.

Self time is a span's duration minus the durations of its direct
children; the time no span covers is reported as the unattributed
remainder, never dropped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, bool]] = []  # (span index, is leaf)
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, leaf: bool = True, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(tracer, args, result)`` runs after each recorded call, so
        counters are taken where the work happens.
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1]:  # inside another layer's span
                return original(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append((index, leaf))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, wrapper)

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every wrapped attribute back; returns what was restored."""
        restored = self._saved[::-1]
        self._saved = []
        for owner, attr, original in restored:
            setattr(owner, attr, original)
        return restored

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, self seconds and inclusive ms per call.

        ``wall_s`` is the traced section's wall time; the part of it no
        root span covers becomes ``unattributed_s``.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        covered = 0.0
        for (name, start, end, parent), children in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - children
            row["inclusive_s"] += end - start
            if parent < 0:
                covered += end - start
        for row in table.values():
            row["ms_per_call"] = 1000.0 * row.pop("inclusive_s") / row["calls"]
        return {
            "spans": table,
            "wall_s": wall_s,
            "unattributed_s": wall_s - covered,
        }
