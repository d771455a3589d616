"""Metric primitives and the registry that owns them.

Four metric kinds cover everything the runtime reports about itself:

* :class:`Counter` -- monotonically increasing event counts (analyzer
  invocations, store hits);
* :class:`Gauge` -- last-written values (live profile count);
* :class:`Histogram` -- value distributions as count/total/min/max;
* :class:`Timer` -- wall and CPU second totals for spans.

Metrics are keyed by ``(kind, name, sorted labels)``.  Label values are
coerced to strings at creation so a registry snapshot is JSON-stable
and renders identically in the Prometheus text format.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain sorted lists of
dicts; :meth:`MetricsRegistry.merge` folds a snapshot back into a
registry, which is how per-worker registries from the worker pools
are combined deterministically in the parent process (workers are
merged in spec submission order, and every combine rule -- sum, min,
max, last-write -- is order-insensitive for counters/histograms/timers).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, Any]]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def combine(self, entry: Dict[str, Any]) -> None:
        self.value += entry["value"]


class Gauge:
    """A last-write-wins value."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}

    def combine(self, entry: Dict[str, Any]) -> None:
        self.value = entry["value"]


class Histogram:
    """A value distribution summarized as count/total/min/max."""

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "total", "min", "max")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "count": self.count,
                "total": self.total, "min": self.min, "max": self.max}

    def combine(self, entry: Dict[str, Any]) -> None:
        self.count += entry["count"]
        self.total += entry["total"]
        for bound, pick in (("min", min), ("max", max)):
            other = entry.get(bound)
            if other is None:
                continue
            ours = getattr(self, bound)
            setattr(self, bound, other if ours is None else pick(ours, other))


class Timer:
    """Accumulated wall/CPU seconds over repeated timed sections."""

    kind = "timer"
    __slots__ = ("name", "labels", "count", "wall_s", "cpu_s", "wall_max_s")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.wall_max_s = 0.0

    def record(self, wall_s: float, cpu_s: float) -> None:
        self.count += 1
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        if wall_s > self.wall_max_s:
            self.wall_max_s = wall_s

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "count": self.count,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "wall_max_s": self.wall_max_s}

    def combine(self, entry: Dict[str, Any]) -> None:
        self.count += entry["count"]
        self.wall_s += entry["wall_s"]
        self.cpu_s += entry["cpu_s"]
        if entry["wall_max_s"] > self.wall_max_s:
            self.wall_max_s = entry["wall_max_s"]


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram, Timer)}


class MetricsRegistry:
    """Owns every metric instance; get-or-create by (kind, name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, str, _LabelKey], Any] = {}

    def _get(self, cls, name: str, labels: Optional[Dict[str, Any]]):
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[2])
        return metric

    def counter(self, name: str,
                labels: Optional[Dict[str, Any]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Dict[str, Any]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Dict[str, Any]] = None) -> Histogram:
        return self._get(Histogram, name, labels)

    def timer(self, name: str,
              labels: Optional[Dict[str, Any]] = None) -> Timer:
        return self._get(Timer, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        self._metrics.clear()

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every metric as a sorted list of JSON-safe dicts."""
        return [self._metrics[key].snapshot()
                for key in sorted(self._metrics)]

    def merge(self, entries: List[Dict[str, Any]]) -> None:
        """Fold a snapshot (e.g. from a pool worker) into this registry."""
        for entry in entries:
            cls = _KINDS[entry["kind"]]
            metric = self._get(cls, entry["name"], entry["labels"])
            metric.combine(entry)
