"""Span ledger and summary statistics for the layer benchmark.

The ledger keeps every span in memory while a repetition runs and hands
them out as plain dicts at the end.  A span is either timed (a ``with``
block around one call into a layer) or an aggregate: many calls of one
kind summed under one parent, such as every ``compress`` call made while
one kernel phase ran, or the kernel's own per-phase profile.  A span's
self time is its duration minus the durations of its children, so the
self times of all spans add up to the root span's duration; a negative
self time means a child was attributed more time than its parent had,
and :meth:`Ledger.reconcile` reports it.
"""

from __future__ import annotations

import math
import re
import time
from collections import namedtuple
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: Metric names the benchmark may print (the result contract's alphabet).
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")

#: Layer of the root span: time no layer span covers (benchmark glue).
UNATTRIBUTED = "unattributed"

Percentile = namedtuple("Percentile", "value samples beyond")


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.fullmatch(name)) and name[0].isalnum()


def percentile(values: Iterable[float], q: float) -> Percentile:
    """Linearly interpolated (type 7) percentile of ``values``.

    Returns the value with the number of samples it was computed from
    and the number of samples strictly above it, so a tail percentile is
    never quoted without saying how many samples lie beyond it.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile rank {q} outside [0, 1]")
    pos = (len(data) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    value = data[lo] + (data[hi] - data[lo]) * (pos - lo)
    return Percentile(value, len(data), sum(1 for v in data if v > value))


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5).value


class Ledger:
    """In-memory span tree of one repetition."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @property
    def current(self) -> Optional[int]:
        """Id of the innermost open span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def _add(self, name: str, layer: str, parent: Optional[int], **fields) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "layer": layer, "parent": parent,
             **fields}
        )
        return span_id

    @contextmanager
    def span(self, name: str, layer: str):
        """Time the enclosed block as one span; yields the span id."""
        span_id = self._add(
            name, layer, self.current,
            start=time.perf_counter() - self._origin, seconds=0.0, count=1,
        )
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans[span_id]["seconds"] = time.perf_counter() - start
            self._stack.pop()

    def aggregate(
        self, name: str, layer: str, seconds: float, count: int,
        parent: Optional[int],
    ) -> int:
        """Record ``count`` calls totalling ``seconds`` under ``parent``."""
        return self._add(name, layer, parent, seconds=seconds, count=count)

    def total(self, name: str) -> float:
        return sum(s["seconds"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(s["count"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [s["seconds"] for s in self.spans if s["name"] == name]

    def self_seconds(self) -> Dict[int, float]:
        children: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = (
                    children.get(span["parent"], 0.0) + span["seconds"]
                )
        return {
            span["id"]: span["seconds"] - children.get(span["id"], 0.0)
            for span in self.spans
        }

    def self_by_layer(self) -> Dict[str, float]:
        own = self.self_seconds()
        layers: Dict[str, float] = {}
        for span in self.spans:
            layers[span["layer"]] = layers.get(span["layer"], 0.0) + own[span["id"]]
        return layers

    def reconcile(self) -> Dict:
        """Layer self times against the root spans' wall-clock.

        ``sum_s`` equals ``wall_s`` exactly when the tree nests; spans
        whose children outlast them are listed under ``negative``.
        """
        own = self.self_seconds()
        layers = self.self_by_layer()
        return {
            "wall_s": sum(s["seconds"] for s in self.spans if s["parent"] is None),
            "sum_s": sum(layers.values()),
            "layers": layers,
            "negative": [
                self.spans[i]["name"] for i, value in own.items()
                if value < -1e-6
            ],
        }
