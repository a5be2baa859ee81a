"""An in-memory span tracer that wraps public functions from outside.

A span is [name, tag, id, parent, start, end, op]: the wrapped function's
layer-qualified name, an optional tag such as a matrix shape, a serial id,
the id of the enclosing span (-1 at top level), perf_counter start and
end, and the workload operation it belongs to (-1 is set-up).  Spans are
kept in a list and written out only when the run ends.  Counters are kept
per operation so that a fixed prefix of operations gives counts that
repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

NAME, TAG, ID, PARENT, START, END, OP = range(7)


class Tracer:
    def __init__(self):
        self.spans: "list[list]" = []
        self.counters: "dict[tuple[int, str], float]" = {}
        self.op = -1
        self._stack: "list[int]" = []
        self._patches: "list[tuple[object, str, object]]" = []

    # -- spans ----------------------------------------------------------------

    def start(self, name: str, tag: "str | None" = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, tag, len(self.spans), parent, 0.0, 0.0, self.op]
        self.spans.append(span)
        self._stack.append(span[ID])
        span[START] = time.perf_counter()
        return span

    def finish(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: "str | None" = None):
        record = self.start(name, tag)
        try:
            yield record
        finally:
            self.finish(record)

    # -- counters -------------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, name: str, value: float) -> None:
        key = (self.op, name)
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- wrapping public functions ----------------------------------------------

    def wrap(self, fn, name: str, tag_of=None, observe=None):
        """A wrapper recording a span and then calling observe(tracer, result, args)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.start(name, tag_of(*args) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(record)
            if observe is not None:
                observe(tracer, result, args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace owner.attr by a traced wrapper; skip it when it does not exist."""
        raw = getattr(owner, attr, None)
        if raw is None:
            return
        setattr(owner, attr, self.wrap(raw, name, **options))
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- export ---------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans,
                "counters": [[op, name, value] for (op, name), value in self.counters.items()]}


def merge(into: dict, part: dict, op: int) -> None:
    """Append an exported trace from a child process, re-numbered as operation op."""
    base = len(into["spans"])
    for span in part["spans"]:
        span = list(span)
        span[ID] += base
        if span[PARENT] >= 0:
            span[PARENT] += base
        span[OP] = op
        into["spans"].append(span)
    for _, name, value in part["counters"]:
        into["counters"].append([op, name, value])


# -- summaries ---------------------------------------------------------------------

def outermost_totals(spans, ops) -> "dict[tuple[str, str | None], float]":
    """Total inclusive seconds per (name, tag) over spans of the given operations.

    A span nested inside another span of the same name (recursion) is not
    counted again.
    """
    by_id = {s[ID]: s for s in spans}
    totals: dict = {}
    for s in spans:
        if s[OP] not in ops:
            continue
        parent = s[PARENT]
        nested = False
        while parent >= 0:
            if by_id[parent][NAME] == s[NAME]:
                nested = True
                break
            parent = by_id[parent][PARENT]
        if not nested:
            key = (s[NAME], s[TAG])
            totals[key] = totals.get(key, 0.0) + s[END] - s[START]
    return totals


def totals_under(spans, ops, name: str, parent_name: str) -> float:
    """Total seconds of spans called name whose direct parent is called parent_name."""
    by_id = {s[ID]: s for s in spans}
    return sum(s[END] - s[START] for s in spans
               if s[OP] in ops and s[NAME] == name and s[PARENT] >= 0
               and by_id[s[PARENT]][NAME] == parent_name)


def self_times_by_layer(spans, ops) -> "dict[str, float]":
    """Seconds of self time per layer: span duration minus its children's durations."""
    child_time = [0.0] * len(spans)
    index = {s[ID]: k for k, s in enumerate(spans)}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[index[s[PARENT]]] += s[END] - s[START]
    layers: dict = {}
    for k, s in enumerate(spans):
        if s[OP] in ops:
            layer = s[NAME].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (s[END] - s[START]) - child_time[k]
    return layers
