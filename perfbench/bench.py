"""Wavefronts of one benchmark workload, their checks and their metrics.

:class:`Bench` sets up a fresh engine per wavefront, resolves it through
``ResultCache.prefill`` (optionally under the per-layer trace of
``layers.py``) and checks every payload (``verify.py``).
:func:`end_to_end` and :func:`per_layer` turn the wavefronts of one run
into the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.engine.fusion import plan_groups
from repro.experiments.common import ResultCache
from repro.telemetry import get_telemetry

from perfbench.layers import (
    COORDINATOR_LAYERS, LayerClock, layer_totals, spec_span_seconds,
    telemetry_sink, traced as tracing,
)
from perfbench.verify import (
    accuracy, canonical, load_expected, payload_digest, spec_key,
)

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("sim_minsns_per_s", "Minsn/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric.
PER_LAYER = (
    ("vm.self_s", "s"), ("vm.steps", "count"), ("vm.ns_per_step", "ns"),
    ("memory.access_s", "s"), ("memory.accesses", "count"),
    ("memory.fetch_s", "s"), ("memory.l1_miss_ratio", "ratio"),
    ("memory.prefetch_useful_ratio", "ratio"),
    ("shadow.replay_s", "s"), ("shadow.accesses", "count"),
    ("fullsim.batch_s", "s"), ("fullsim.refs", "count"),
    ("stream.ref_drain_s", "s"), ("stream.ref_batches", "count"),
    ("stream.line_drain_s", "s"),
    ("counters.batch_s", "s"), ("counters.events", "count"),
    ("core.analyze_s", "s"), ("core.analyses", "count"),
    ("core.memo_hit_ratio", "ratio"), ("core.instrument_s", "s"),
    ("core.predict_s", "s"), ("core.optimize_s", "s"),
    ("serialize.encode_s", "s"), ("serialize.bytes", "B"),
    ("engine.store_save_s", "s"), ("engine.groups", "count"),
    ("engine.specs", "count"), ("engine.idle_frac", "ratio"),
    ("workloads.build_s", "s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "x"),
)


@dataclass
class Rep:
    """One wavefront: its timings and what the checks found."""

    wall_s: float
    specs: int
    groups: int
    failed: int
    steps: int
    payload_bytes: int
    workers: int
    snapshot: Optional[List[Dict[str, Any]]] = None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """Runs wavefronts of one workload and turns them into metrics."""

    def __init__(self, shape, seed: int, workdir: Path) -> None:
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.expected = load_expected()
        self.accuracy: Dict[str, float] = {}
        self._stores = 0

    def setup(self):
        """A fresh engine (and store, if the workload uses one) and the
        wavefront's specs: everything before the wavefront starts."""
        store = None
        if self.shape.uses_store:
            self._stores += 1
            store = str(self.workdir / f"store-{self._stores}")
        cache = ResultCache(scale=self.shape.scale, jobs=self.shape.jobs(),
                            store=store, strict=False)
        return cache, store, self.shape.specs(cache, self.seed,
                                              self.expected)

    def wavefront(self, traced: bool) -> Rep:
        """Set up a fresh engine, resolve the wavefront, check it."""
        gc.collect()
        cache, store, specs = self.setup()
        telemetry = get_telemetry()
        snapshot = None
        try:
            layers = contextlib.nullcontext()
            if traced:
                telemetry.reset()
                telemetry.enable()
                layers = tracing(LayerClock(sink=telemetry_sink(telemetry)))
            with layers:
                start = time.perf_counter()
                cache.prefill(specs)
                wall_s = time.perf_counter() - start
            if traced:
                telemetry.disable()
                snapshot = telemetry.registry.snapshot()
                telemetry.reset()
            rep = self._check(cache, specs, wall_s, snapshot)
        finally:
            telemetry.disable()
            cache.engine.close()
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
        return rep

    def _check(self, cache, specs, wall_s: float, snapshot) -> Rep:
        engine = cache.engine
        # A fresh engine and store: every distinct spec must have been
        # executed, none served from the memo or the store.
        if engine.specs_executed != len(specs) or engine.store_hits:
            raise RuntimeError(
                f"{len(specs)} specs submitted but {engine.specs_executed}"
                f" executed and {engine.store_hits} served from the store")
        payloads = dict(engine.payloads())
        digests = self.expected["payloads"]
        failed = len(engine.failed_runs())
        payload_bytes = 0
        for spec in specs:
            payload = payloads.get(spec)
            if payload is None:
                continue
            text = canonical(payload)
            payload_bytes += len(text)
            if digests.get(spec_key(spec)) != payload_digest(text):
                failed += 1
                print(f"mismatch: {spec.describe()}", file=sys.stderr)
        steps = sum(payloads[group[0]]["steps"]
                    for group in plan_groups(specs) if group[0] in payloads)
        if self.shape.accuracy and not self.accuracy \
                and not engine.failed_runs():
            self.accuracy = accuracy(cache)
            for name, value in self.accuracy.items():
                if value != self.expected["accuracy"][name]:
                    failed += 1
                    print(f"mismatch: {name} = {value!r}, expected "
                          f"{self.expected['accuracy'][name]!r}",
                          file=sys.stderr)
        return Rep(wall_s=wall_s, specs=len(specs),
                   groups=engine.runs_executed, failed=failed,
                   steps=steps, payload_bytes=payload_bytes,
                   workers=getattr(engine.executor, "jobs", 1),
                   snapshot=snapshot)

    def run(self, seconds: float, trace: bool,
            between: Optional[Callable[[], None]] = None) -> List[Rep]:
        """Repeat (untraced, or untraced + traced) wavefronts, each
        followed by ``between()``, while the next one is expected to
        finish within ``seconds``."""
        reps: List[Rep] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            reps.append(self.wavefront(traced=False))
            if trace:
                reps.append(self.wavefront(traced=True))
            if between is not None:
                between()
            last = time.perf_counter() - began
            if time.perf_counter() - start + last > seconds:
                return reps


def end_to_end(reps: List[Rep], setup_s: float) -> Dict[str, float]:
    """The run's end-to-end metrics.

    Wavefront times are averaged over the run rather than taking their
    median: the host's speed swings between phases lasting tens of
    seconds, and a median jumps between the fast and the slow phase
    where the mean spreads them evenly.
    """
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    total = sum(r.wall_s for r in reps)
    return {
        "setup_s": setup_s,
        "wall_s": total / len(reps),
        "sim_minsns_per_s": sum(r.steps for r in reps) / total / 1e6,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(usage) / 1024,
    }


def per_layer(untraced: List[Rep], traced: List[Rep]) -> Dict[str, float]:
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    spec_s = 0.0
    for rep in traced:
        s, c, n = layer_totals(rep.snapshot)
        for src, dst in ((s, self_s), (c, calls), (n, counts)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        spec_s += spec_span_seconds(rep.snapshot)
    reps = len(traced)

    def t(layer: str) -> float:
        return self_s.get(layer, 0.0) / reps

    def n(table: Dict[str, int], key: str) -> float:
        return table.get(key, 0) / reps

    wall = _median([r.wall_s for r in traced])
    workers = traced[0].workers
    inside = sum(v for k, v in self_s.items()
                 if k not in COORDINATOR_LAYERS) / reps
    steps = n(counts, "vm.steps")
    return {
        "vm.self_s": t("vm"),
        "vm.steps": steps,
        "vm.ns_per_step": _ratio(t("vm") * 1e9, steps),
        "memory.access_s": t("memory.access"),
        "memory.accesses": n(calls, "memory.access"),
        "memory.fetch_s": t("memory.fetch"),
        "memory.l1_miss_ratio": _ratio(counts.get("memory.l1_misses", 0),
                                       counts.get("memory.l1_refs", 0)),
        "memory.prefetch_useful_ratio": _ratio(
            counts.get("memory.useful_prefetches", 0),
            counts.get("memory.prefetch_fills", 0)),
        "shadow.replay_s": (t("shadow.replay") + t("shadow.access")
                            + t("shadow.fetch")),
        "shadow.accesses": n(calls, "shadow.access"),
        "fullsim.batch_s": t("fullsim.batch"),
        "fullsim.refs": n(counts, "fullsim.refs"),
        "stream.ref_drain_s": t("stream.ref_drain"),
        "stream.ref_batches": n(counts, "stream.ref_batches"),
        "stream.line_drain_s": t("stream.line_drain"),
        "counters.batch_s": t("counters.batch"),
        "counters.events": n(counts, "counters.events"),
        "core.analyze_s": t("core.analyze"),
        "core.analyses": n(calls, "core.analyze"),
        "core.memo_hit_ratio": _ratio(counts.get("core.memo_hits", 0),
                                      calls.get("core.analyze", 0)),
        "core.instrument_s": t("core.instrument"),
        "core.predict_s": t("core.predict"),
        "core.optimize_s": t("core.optimize"),
        "serialize.encode_s": t("serialize.encode"),
        "serialize.bytes": _median([r.payload_bytes for r in traced]),
        "engine.store_save_s": t("engine.store_save"),
        "engine.groups": _median([r.groups for r in traced]),
        "engine.specs": _median([r.specs for r in traced]),
        "engine.idle_frac": 1.0 - _ratio(spec_s / reps, wall * workers),
        "workloads.build_s": t("workloads.build"),
        "trace.coverage": _ratio(inside, spec_s / reps),
        "trace.overhead": _ratio(wall, _median([r.wall_s
                                                for r in untraced])),
    }


