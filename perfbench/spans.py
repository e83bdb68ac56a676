"""In-memory span recorder and the patching helper the traced run uses.

A span is ``(name, start, end, parent)``: the wall-clock interval of one
call into a layer's public function and the index of the span that was
open when it began (``-1`` for a root).  Spans stay in memory while the
benchmark runs and are written out once, when it ends.

The program is single-threaded, so a stack of open spans gives every new
span its parent.  No layer waits, so spans measure busy time only.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: One recorded span: ``[name, start_s, end_s, parent_index]``.
Span = List


class SpanRecorder:
    """Collects spans and call counters for one traced operation at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._open: List[int] = []

    def reset(self) -> None:
        """Forget the spans and counts of the previous operation."""
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name: str, function: Callable) -> Callable:
        """*function* with every call recorded as a span called *name*."""
        spans_of = self

        def traced(*args, **kwargs):
            open_spans = spans_of._open
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans_of.spans.append(span)
            open_spans.append(len(spans_of.spans) - 1)
            span[1] = spans_of.clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = spans_of.clock()
                open_spans.pop()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def counter(self, name: str, function: Callable) -> Callable:
        """*function* with its calls counted under *name* but not timed.

        For functions called too often for a span to be cheap.
        """
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return function(*args, **kwargs)

        counted.__wrapped__ = function  # type: ignore[attr-defined]
        return counted


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def totals(spans: List[Span]) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: ``(inclusive seconds, self seconds, calls)``."""
    result: Dict[str, Tuple[float, float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        inclusive, self_s, calls = result.get(span[0], (0.0, 0.0, 0))
        result[span[0]] = (inclusive + span[2] - span[1], self_s + own, calls + 1)
    return result


def layer_of(name: str) -> str:
    """The layer a span belongs to: the part of its name before the dot."""
    return name.split(".", 1)[0]


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds per layer, summed over the layer's spans."""
    result: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        result[layer] = result.get(layer, 0.0) + own
    return result


def write_spans(path: str, operations: Iterable[Tuple[int, List[Span]]]) -> None:
    """Write ``(operation index, spans)`` pairs as JSON lines, one per span."""
    with open(path, "w", encoding="utf-8") as handle:
        for operation, spans in operations:
            for index, (name, start, end, parent) in enumerate(spans):
                handle.write(json.dumps({
                    "op": operation, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


class Patches:
    """Replace attributes of modules and classes; put them back on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attribute`` to ``make(original)``."""
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
