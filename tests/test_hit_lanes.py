"""Differential tests for the inlined L1-hit lanes.

``MemoryHierarchy.access``/``fetch`` retire single-line L1 hits inline,
and the interpreter's LOAD/STORE retire eligible L1D hits without
calling the hierarchy at all.  Both lanes exist only on array
``Cache`` levels.  The same machine built with trivial
replacement-policy subclasses gets ``ReferenceCache`` levels from
``make_cache``, so it runs every reference down the retained
``_access_line`` -> ``ReferenceCache.probe`` path: the reference the
lanes must match exactly.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.memory.hierarchy as hierarchy_module
from repro.engine import RunSpec
from repro.engine.attempt import execute_spec_payload
from repro.memory import CacheConfig
from repro.memory.cache_reference import ReferenceCache
from repro.memory.configs import get_machine, make_hw_prefetcher
from repro.memory.hierarchy import MachineConfig, MemoryHierarchy
from repro.memory.policies import BitPLRUPolicy, FIFOPolicy, LRUPolicy
from repro.memory.tlb import TLB
from repro.stream.consumer import LineConsumer
from repro.vm import Interpreter
from repro.workloads import get_workload


class _LRU(LRUPolicy):
    pass


class _FIFO(FIFOPolicy):
    pass


class _PLRU(BitPLRUPolicy):
    pass


_SUBCLASSES = {"lru": _LRU, "fifo": _FIFO, "plru": _PLRU}


@contextmanager
def reference_path():
    """Every hierarchy built inside runs on ``ReferenceCache`` levels."""
    with mock.patch.object(hierarchy_module, "make_policy",
                           lambda name: _SUBCLASSES[name]()):
        yield


class LineRecorder(LineConsumer):
    def __init__(self):
        self.events = []

    def on_line_batch(self, batch):
        self.events.extend(zip(batch.pcs, batch.line_addrs, batch.writes,
                               batch.l1_hits, batch.l2_hits))


def small_machine(policy):
    # Tiny caches so a short stream mixes hits, misses and evictions.
    return MachineConfig(
        name=f"tiny-{policy}",
        l1=CacheConfig(size=256, assoc=2, line_size=16, hit_latency=2),
        l2=CacheConfig(size=1024, assoc=4, line_size=16, hit_latency=9),
        memory_latency=60, has_hw_prefetcher=True, replacement=policy,
        l1i=CacheConfig(size=128, assoc=2, line_size=16, hit_latency=1),
    )


def build(machine, prefetcher, tlb, consumer):
    hierarchy = MemoryHierarchy(
        machine, make_hw_prefetcher(machine, enabled=prefetcher),
        line_batch_size=7)
    if tlb:
        hierarchy.tlb = TLB(entries=4, walk_latency=30)
    recorder = LineRecorder()
    if consumer:
        hierarchy.line_stream.attach(recorder)
    return hierarchy, recorder


def replay(hierarchy, ops):
    latencies = []
    now = 0
    for kind, pc, addr, size, write, step in ops:
        now += step
        if kind == "fetch":
            first = addr >> 4
            lines = range(first, first + size % 3 + 1)
            latencies.append(hierarchy.fetch(lines, now))
        elif kind == "prefetch":
            hierarchy.software_prefetch(addr, now)
        else:
            latencies.append(hierarchy.access(pc, addr, write, size, now))
    hierarchy.line_stream.drain()
    return latencies


op = st.tuples(
    st.sampled_from(["access"] * 6 + ["fetch", "prefetch"]),
    st.integers(0, 7),                      # pc
    st.one_of(st.integers(0, 511),          # hot: 2x the L1
              st.integers(0, 2047)),        # cold: 2x the L2
    st.integers(1, 16),                     # size: some straddle lines
    st.booleans(),                          # write
    st.sampled_from([0, 0, 1, 1, 2, 5]),    # now step: repeats allowed
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(op, min_size=20, max_size=400),
       policy=st.sampled_from(["lru", "fifo", "plru"]),
       prefetcher=st.booleans(), tlb=st.booleans(), consumer=st.booleans())
def test_hierarchy_lanes_match_reference_path(ops, policy, prefetcher, tlb,
                                              consumer):
    machine = small_machine(policy)
    fast, fast_lines = build(machine, prefetcher, tlb, consumer)
    with reference_path():
        ref, ref_lines = build(machine, prefetcher, tlb, consumer)
    assert fast.l1_hit_lane() is not None or tlb or consumer
    assert ref.l1_hit_lane() is None
    assert all(isinstance(getattr(ref, level), ReferenceCache)
               for level in ("l1", "l2", "l1i"))

    assert replay(fast, ops) == replay(ref, ops)
    assert fast.counters_snapshot() == ref.counters_snapshot()
    for level in ("l1", "l2", "l1i"):
        assert getattr(fast, level).stats == getattr(ref, level).stats, level
    assert fast_lines.events == ref_lines.events


def test_lane_eligibility():
    machine = small_machine("plru")
    hierarchy, recorder = build(machine, False, False, False)
    assert hierarchy.l1_hit_lane() is not None
    hierarchy.tlb = TLB()
    assert hierarchy.l1_hit_lane() is None
    hierarchy.tlb = None
    hierarchy.line_stream.attach(recorder)
    assert hierarchy.l1_hit_lane() is None
    hierarchy.line_stream.detach(recorder)
    assert hierarchy.l1_hit_lane() is not None
    # A timed fill makes ready times matter: the caller may no longer
    # assume a hit never stalls.
    hierarchy.l1.fill(3, now=0, ready_at=50, prefetched=True)
    assert hierarchy.l1_hit_lane() is None


def test_interpreter_sees_consumers_attached_after_construction():
    """Counters attach after the interpreter is built; from then on every
    L1 hit must reach the line stream, as on the reference path."""
    program = get_workload("tsp").build(0.05)
    machine = get_machine("pentium4", scale=16)

    def run():
        hierarchy = MemoryHierarchy(machine)
        interp = Interpreter(program, hierarchy)
        recorder = hierarchy.line_stream.attach(LineRecorder())
        state = interp.run_native()
        hierarchy.line_stream.drain()
        return state.cycles, hierarchy.counters_snapshot(), recorder.events

    fast = run()
    with reference_path():
        ref = run()
    assert fast == ref
    assert len(fast[2]) == fast[1]["l1_refs"]


def test_umi_run_matches_reference_path():
    """A whole DynamoSim+UMI run -- interpreter lane, shadow replay and
    Cachegrind included -- serializes identically on both builds."""
    # tsp's L1 traffic reaches the PLRU victim choice that a lane
    # forgetting the MRU bit gets wrong.
    spec = RunSpec.umi("tsp", 0.05, "pentium4", 16,
                       with_cachegrind=True, consumers=("shadow-hwpf",))
    fast = execute_spec_payload(spec)
    with reference_path():
        ref = execute_spec_payload(spec)
    assert fast == ref
