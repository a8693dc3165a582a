"""Counters, gauges and histograms in a mergeable registry.

The registry is the quantitative half of the observability layer: engines
count tuples routed and bits shipped per relation, histogram the
per-server loads, and gauge the skew ratio; the sweep runner histograms
per-cell wall clock and queue wait.  Three instrument kinds:

* :class:`Counter` — monotone accumulator (``inc``); merges by addition.
* :class:`Gauge` — last-written value (``set``); merges by overwrite.
* :class:`Histogram` — stores every observation; reports count/min/max/
  mean and nearest-rank percentiles (p50/p90/p99); merges by
  concatenation, so per-worker histograms aggregate exactly.

:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge_snapshot`
round-trip through plain JSON-ready dicts — that is how sweep workers
attach per-cell metrics to their :class:`~repro.api.records.RunRecord`
and how the parent process folds them back in.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class Counter:
    """A monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, delta: float = 1) -> None:
        self.value += delta


class Gauge:
    """A last-written value (``None`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Exact histogram: stores observations, reports rank statistics.

    Suited to the cardinalities this repo meets (per-server loads —
    at most ``p`` values — and per-cell timings); a streaming sketch
    would only be warranted far beyond that.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.values: list[float] = list(values)

    def observe(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 when empty."""
        if not self.values:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile wants q in [0, 100], got {q}")
        ordered = sorted(self.values)
        rank = max(1, math.ceil(q / 100 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict[str, float]:
        """A JSON-ready digest: count, total, min/mean/max, p50/p90/p99."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named instruments, created on first touch, mergeable across runs."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) --------------------------
    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram())

    # -- views ----------------------------------------------------------
    @property
    def counters(self) -> Mapping[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return dict(self._histograms)

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- aggregation -----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` in: counters add, gauges overwrite, histograms
        concatenate."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            if gauge.value is not None:
                self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name).extend(histogram.values)

    def snapshot(self) -> dict:
        """A picklable/JSON-ready full-fidelity dump (histogram values
        included), for shipping across process boundaries."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {
                k: g.value for k, g in self._gauges.items()
                if g.value is not None
            },
            "histograms": {
                k: list(h.values) for k, h in self._histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in snapshot.get("histograms", {}).items():
            self.histogram(name).extend(values)

    def to_dict(self) -> dict:
        """The JSON-ready digest attached to records and printed by
        ``--metrics``: counters and gauges verbatim, histograms as
        :meth:`Histogram.summary` digests."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {
                k: g.value for k, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """A human-readable table (the CLI's ``--metrics`` output)."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name:<44} {counter.value:>16,.0f}")
        for name, gauge in sorted(self._gauges.items()):
            if gauge.value is not None:
                lines.append(f"{name:<44} {gauge.value:>16,.4f}")
        for name, histogram in sorted(self._histograms.items()):
            s = histogram.summary()
            lines.append(
                f"{name:<44} n={s['count']} mean={s['mean']:,.4g} "
                f"p50={s['p50']:,.4g} p99={s['p99']:,.4g} max={s['max']:,.4g}"
            )
        return "\n".join(lines)
