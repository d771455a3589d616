"""Per-layer host-time attribution for a traced benchmark run.

The traced run wraps the public entry points of each layer of the
simulator (:data:`BOUNDARIES`) with cumulative timers on one self-time
stack: a boundary's *self* time is its duration minus the durations of
the boundaries nested inside it, so the self times of all layers add up
to the time spent inside any boundary, with nothing counted twice.

Memory-hierarchy calls are split by caller: an ``access``/``fetch``
made while the shadow-hierarchy replay is the innermost open boundary
is charged to ``shadow.access``/``shadow.fetch`` instead of
``memory.access``/``memory.fetch``, so the memory layer's figures are
the VM's own demand traffic.

Boundaries are crossed about a million times per wavefront, so nothing
is recorded per call beyond a totals update.  Whenever the stack empties
(at the end of every top-level boundary) the totals are flushed into the
``repro.telemetry`` registry with its public ``count``/``observe`` and
reset.  Lease workers forked by the local process pool inherit the
wrappers; their totals travel back in the telemetry snapshots the
coordinator already merges.
"""

from __future__ import annotations

import contextlib
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.serialize
from repro.core import (
    DelinquentPredictor, Instrumentor, MiniCacheSimulator,
    SoftwarePrefetchOptimizer,
)
from repro.counters import HardwareCounters
from repro.engine import ResultStore
from repro.fullsim import CachegrindSimulator
from repro.memory import MemoryHierarchy
from repro.stream import LineStream, RefStream
from repro.stream.consumers import ShadowHierarchyConsumer
from repro.vm import DynamoSim, Interpreter
from repro.workloads import WorkloadSpec

#: Telemetry name prefix of everything this module records.
PREFIX = "perfbench."

#: Layer whose open frame marks memory calls as shadow-replay traffic.
SHADOW_LAYER = "shadow.replay"

#: Self-time buckets of the engine's coordinator, outside spec execution.
COORDINATOR_LAYERS = ("engine.store_save",)


class LayerClock:
    """Self-time stack with per-layer totals.

    ``clock`` returns seconds (a fake clock in tests); ``sink`` receives
    ``(self_s, calls, counts)`` every time the stack empties, and the
    totals are cleared afterwards.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Optional[Callable[[Dict[str, float],
                                          Dict[str, int],
                                          Dict[str, int]], None]] = None
                 ) -> None:
        self.clock = clock
        self.sink = sink
        #: Open frames, innermost last: ``[layer, child_seconds]``.
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def add(self, name: str, n: int) -> None:
        """Add ``n`` to the work counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def flush(self) -> None:
        if self.sink is not None:
            self.sink(self.self_s, self.calls, self.counts)
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, fn: Callable, layer: str,
             shadow_layer: Optional[str] = None,
             probe: Optional["Probe"] = None) -> Callable:
        """``fn`` timed as one ``layer`` boundary."""
        stack = self.stack
        clock = self.clock
        self_s = self.self_s
        calls = self.calls
        before = probe.before if probe is not None else None
        after = probe.after if probe is not None else None

        def timed(*args, **kwargs):
            name = layer
            if shadow_layer is not None and stack \
                    and stack[-1][0] == SHADOW_LAYER:
                name = shadow_layer
            token = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + elapsed - frame[1]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += elapsed
                if after is not None:
                    after(self, args, token)
                if not stack:
                    self.flush()

        timed.__wrapped__ = fn
        return timed


@dataclass(frozen=True)
class Probe:
    """Work counts read at a boundary: ``before(args)`` runs ahead of
    the call and its value reaches ``after(clock, args, token)``.  Both
    run outside the timed interval."""

    after: Callable[[LayerClock, tuple, Any], None]
    before: Optional[Callable[[tuple], Any]] = None


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``owner.attr`` (a class or a module)
    timed as ``layer``."""

    owner: Any
    attr: str
    layer: str
    shadow_layer: Optional[str] = None
    probe: Optional[Probe] = None


# -- probes -----------------------------------------------------------------

def _vm_after(clock: LayerClock, args: tuple, token: Any) -> None:
    """Steps and VM-hierarchy statistics at the end of one run."""
    sim = args[0]
    interp = getattr(sim, "interp", sim)
    clock.add("vm.steps", interp.state.steps)
    memsys = interp.memsys
    l1 = getattr(memsys, "l1", None)
    if l1 is None:
        return
    clock.add("memory.l1_refs", l1.stats.refs)
    clock.add("memory.l1_misses", l1.stats.misses)
    l2 = memsys.l2.stats
    clock.add("memory.prefetch_fills", l2.prefetch_fills)
    clock.add("memory.useful_prefetches", l2.useful_prefetches)


def _batch_len(name: str) -> Probe:
    def after(clock: LayerClock, args: tuple, token: Any) -> None:
        clock.add(name, len(args[1]))
    return Probe(after)


def _memo_before(args: tuple) -> int:
    return args[0].memo_hits


def _memo_after(clock: LayerClock, args: tuple, token: int) -> None:
    clock.add("core.memo_hits", args[0].memo_hits - token)


def _pending_refs(args: tuple) -> bool:
    return bool(args[0].pcs)


def _ref_batches_after(clock: LayerClock, args: tuple,
                       token: bool) -> None:
    if token:
        clock.add("stream.ref_batches", 1)


_VM = Probe(_vm_after)

#: Every timed entry point.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary(WorkloadSpec, "build", "workloads.build"),
    Boundary(DynamoSim, "run", "vm", probe=_VM),
    Boundary(Interpreter, "run_native", "vm", probe=_VM),
    Boundary(MemoryHierarchy, "access", "memory.access",
             shadow_layer="shadow.access"),
    Boundary(MemoryHierarchy, "fetch", "memory.fetch",
             shadow_layer="shadow.fetch"),
    Boundary(RefStream, "drain", "stream.ref_drain",
             probe=Probe(_ref_batches_after, _pending_refs)),
    Boundary(LineStream, "drain", "stream.line_drain"),
    Boundary(ShadowHierarchyConsumer, "on_batch", SHADOW_LAYER),
    Boundary(CachegrindSimulator, "on_batch", "fullsim.batch",
             probe=_batch_len("fullsim.refs")),
    Boundary(HardwareCounters, "on_line_batch", "counters.batch",
             probe=_batch_len("counters.events")),
    Boundary(MiniCacheSimulator, "analyze", "core.analyze",
             probe=Probe(_memo_after, _memo_before)),
    Boundary(Instrumentor, "instrument", "core.instrument"),
    Boundary(DelinquentPredictor, "process", "core.predict"),
    Boundary(SoftwarePrefetchOptimizer, "optimize", "core.optimize"),
    Boundary(repro.serialize, "outcome_to_dict", "serialize.encode"),
    Boundary(ResultStore, "save", "engine.store_save"),
)


def telemetry_sink(telemetry) -> Callable:
    """A :class:`LayerClock` sink writing into a telemetry object."""
    def sink(self_s: Dict[str, float], calls: Dict[str, int],
             counts: Dict[str, int]) -> None:
        for layer, seconds in self_s.items():
            telemetry.observe(f"{PREFIX}{layer}.self_s", seconds)
        for layer, n in calls.items():
            telemetry.count(f"{PREFIX}{layer}.calls", n)
        for name, n in counts.items():
            telemetry.count(f"{PREFIX}{name}", n)
    return sink


def _aliases(owner: Any, attr: str, original: Any
             ) -> List[Tuple[Any, str]]:
    """Every place ``original`` is reachable as a global or attribute.

    A module-level function is usually imported by name into the
    modules that call it, so each of those module globals is patched,
    not just the defining module's.
    """
    if not isinstance(owner, types.ModuleType):
        return [(owner, attr)]
    return [(module, attr) for module in list(sys.modules.values())
            if getattr(module, "__dict__", {}).get(attr) is original]


@contextlib.contextmanager
def traced(clock: LayerClock,
           boundaries: Tuple[Boundary, ...] = BOUNDARIES
           ) -> Iterator[LayerClock]:
    """Install every boundary's wrapper; restore the originals on exit."""
    installed: List[Tuple[Any, str, Any]] = []
    try:
        for boundary in boundaries:
            owner = boundary.owner
            original = owner.__dict__[boundary.attr]
            wrapper = clock.wrap(original, boundary.layer,
                                 boundary.shadow_layer, boundary.probe)
            for target, attr in _aliases(owner, boundary.attr, original):
                installed.append((target, attr, original))
                setattr(target, attr, wrapper)
        yield clock
    finally:
        for target, attr, original in reversed(installed):
            setattr(target, attr, original)


def layer_totals(snapshot: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, float], Dict[str, int],
                            Dict[str, int]]:
    """``(self_s, calls, counts)`` summed from a registry snapshot."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for entry in snapshot:
        name = entry["name"]
        if not name.startswith(PREFIX):
            continue
        name = name[len(PREFIX):]
        if entry["kind"] == "histogram" and name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            self_s[layer] = self_s.get(layer, 0.0) + entry["total"]
        elif entry["kind"] == "counter" and name.endswith(".calls"):
            layer = name[:-len(".calls")]
            calls[layer] = calls.get(layer, 0) + entry["value"]
        elif entry["kind"] == "counter":
            counts[name] = counts.get(name, 0) + entry["value"]
    return self_s, calls, counts


def spec_span_seconds(snapshot: List[Dict[str, Any]]) -> float:
    """Summed wall time of the executor's ``executor.spec`` spans."""
    return sum(entry["wall_s"] for entry in snapshot
               if entry["kind"] == "timer"
               and entry["name"] == "span.executor.spec")
