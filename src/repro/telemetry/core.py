"""The :class:`Telemetry` facade: metrics + spans + structured events.

One module-level instance (:data:`TELEMETRY`, via :func:`get_telemetry`)
is shared by every instrumented layer -- the VM runtime, UMI, the
execution engine and the executors.  It is **disabled by default** and
every recording method is a strict no-op in that state:

* ``count``/``gauge``/``observe``/``event`` return immediately after a
  single attribute check;
* ``span`` returns a shared do-nothing context-manager singleton, so a
  disabled ``with telemetry.span(...)`` allocates nothing and reads no
  clocks.

A regression test pins the disabled per-call overhead, so hot paths may
keep their instrumentation unconditionally.  Instrumentation sites that
would do real work just to *build* span attributes should still guard
with ``if telemetry.enabled:`` -- arguments are evaluated by the caller.

Spans nest: entering pushes onto a stack, exiting records wall and CPU
seconds into a ``span.<name>`` timer metric and appends a structured
``span`` event carrying the nesting depth.  Events are JSON-safe dicts
with a monotonically increasing ``seq``, giving a deterministic total
order that survives the JSONL round trip.

The object is process-local and not thread-safe; cross-process
aggregation goes through ``snapshot()`` in the worker and ``merge()``
in the parent (see :mod:`repro.engine.executor`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .registry import MetricsRegistry


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live timed section; created only while telemetry is enabled."""

    __slots__ = ("_telemetry", "name", "labels", "attrs", "depth",
                 "_wall0", "_cpu0")

    def __init__(self, telemetry: "Telemetry", name: str,
                 labels: Optional[Dict[str, Any]],
                 attrs: Dict[str, Any]) -> None:
        self._telemetry = telemetry
        self.name = name
        self.labels = labels
        self.attrs = attrs
        self.depth = 0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "_Span":
        telemetry = self._telemetry
        self.depth = len(telemetry._span_stack)
        telemetry._span_stack.append(self.name)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall_s = time.perf_counter() - self._wall0
        cpu_s = time.process_time() - self._cpu0
        telemetry = self._telemetry
        telemetry._span_stack.pop()
        telemetry.registry.timer(f"span.{self.name}",
                                 self.labels).record(wall_s, cpu_s)
        record: Dict[str, Any] = {
            "type": "span", "name": self.name, "depth": self.depth,
            "wall_s": wall_s, "cpu_s": cpu_s,
        }
        if self.labels:
            record["labels"] = {str(k): str(v)
                                for k, v in self.labels.items()}
        if self.attrs:
            record["attrs"] = self.attrs
        if exc_type is not None:
            record["error"] = exc_type.__name__
        telemetry._emit(record)
        return False


class Telemetry:
    """Metrics registry + span tracer + structured event log."""

    __slots__ = ("enabled", "registry", "events", "_span_stack", "_seq")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.events: List[Dict[str, Any]] = []
        self._span_stack: List[str] = []
        self._seq = 0

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data (enabled state is unchanged)."""
        self.registry.clear()
        self.events.clear()
        self._span_stack.clear()
        self._seq = 0

    # -- recording (all strict no-ops while disabled) ------------------------

    def count(self, name: str, n: int = 1,
              labels: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        self.registry.counter(name, labels).inc(n)

    def gauge(self, name: str, value: float,
              labels: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        self.registry.gauge(name, labels).set(value)

    def observe(self, name: str, value: float,
                labels: Optional[Dict[str, Any]] = None) -> None:
        if not self.enabled:
            return
        self.registry.histogram(name, labels).observe(value)

    def span(self, name: str, labels: Optional[Dict[str, Any]] = None,
             **attrs: Any):
        """Context manager timing one section (``with telemetry.span(..)``)."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, labels, attrs)

    def event(self, name: str, **fields: Any) -> None:
        """Append one structured event to the log."""
        if not self.enabled:
            return
        record: Dict[str, Any] = {"type": "event", "name": name}
        record.update(fields)
        self._emit(record)

    def _emit(self, record: Dict[str, Any]) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.events.append(record)

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of everything recorded so far."""
        return {"metrics": self.registry.snapshot(),
                "events": list(self.events)}

    def merge(self, snapshot: Dict[str, Any],
              source: Optional[str] = None) -> None:
        """Fold a worker snapshot into this telemetry object.

        Metrics combine by kind (counters/timers sum, gauges
        last-write); events are appended in snapshot order and
        re-sequenced, so merging workers in spec submission order yields
        a deterministic combined log regardless of completion order.
        """
        if not self.enabled:
            return
        self.registry.merge(snapshot.get("metrics", []))
        for record in snapshot.get("events", []):
            record = dict(record)
            record.pop("seq", None)
            if source is not None:
                record["source"] = source
            self._emit(record)


#: The process-wide telemetry object every instrumented layer shares.
TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The module-level :data:`TELEMETRY` singleton."""
    return TELEMETRY
