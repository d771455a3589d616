"""The modelled memory hierarchy ("the real hardware").

A two-level (L1D + unified L2) hierarchy with a flat memory behind it.
This stands in for the Pentium 4 / AMD K7 memory systems of the paper:
the VM sends every data reference here, the returned latency feeds the
cycle cost model, and every demand line access is published on the
hierarchy's :class:`~repro.stream.LineStream` -- the event plane the
hardware performance counters (:mod:`repro.counters`) and the phase
detector subscribe to.

Software prefetch instructions (injected by the UMI online optimizer) and
hardware prefetchers both fill the L2 with *timeliness* modelled through
per-line ``ready_at`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.stream import BATCH_SIZE, LineStream

from .cache import Cache, CacheConfig, make_cache
from .policies import make_policy
from .prefetch import HardwarePrefetcher


@dataclass(frozen=True)
class MachineConfig:
    """A host machine model: cache geometry plus timing parameters.

    ``l1i`` is the instruction cache; its misses are serviced by the
    *unified* L2, so instruction fetch traffic shows up in the L2
    hardware counters -- an effect neither Cachegrind-style data
    simulation nor UMI's mini-simulator models (the paper points at
    exactly this to explain the K7's lower correlation).
    """

    name: str
    l1: CacheConfig
    l2: CacheConfig
    memory_latency: int = 200
    has_hw_prefetcher: bool = False
    replacement: str = "lru"
    l1i: Optional[CacheConfig] = None

    def scaled(self, factor: int,
               l1_factor: Optional[int] = None) -> "MachineConfig":
        """Shrink the hierarchy by ``factor`` (same geometry ratios).

        Synthetic workloads keep their footprints small so that pure
        Python simulation stays fast; scaling the machine down preserves
        the working-set-to-cache relationships that drive miss
        behaviour.  The L1s shrink by ``l1_factor`` (default: half of
        ``factor``) -- shrinking them less keeps a realistic share of
        references missing L1 but hitting L2, the dilution traffic that
        shapes real L2 miss *ratios*.
        """
        if l1_factor is None:
            l1_factor = max(1, factor // 2)
        return MachineConfig(
            name=f"{self.name}/{factor}",
            l1=self.l1.scaled(l1_factor),
            l2=self.l2.scaled(factor),
            memory_latency=self.memory_latency,
            has_hw_prefetcher=self.has_hw_prefetcher,
            replacement=self.replacement,
            l1i=self.l1i.scaled(l1_factor) if self.l1i else None,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: L1D {self.l1.describe()}; "
            f"L2 {self.l2.describe()}; mem {self.memory_latency} cycles"
        )


def _hit_lane(cache):
    """``cache``'s inline hit lane, or ``None`` unless it is an array
    :class:`Cache` (a reference cache takes the probe path)."""
    return cache.hit_lane() if isinstance(cache, Cache) else None


class MemoryHierarchy:
    """L1D + L2 + memory, with optional hardware prefetchers at the L2."""

    def __init__(self, config: MachineConfig,
                 hw_prefetcher: Optional[HardwarePrefetcher] = None,
                 line_batch_size: int = BATCH_SIZE) -> None:
        if config.l1.line_size != config.l2.line_size:
            raise ValueError("L1 and L2 line sizes must match in this model")
        self.config = config
        self.l1 = make_cache(config.l1, make_policy(config.replacement))
        self.l2 = make_cache(config.l2, make_policy(config.replacement))
        self.l1i = (make_cache(config.l1i, make_policy(config.replacement))
                    if config.l1i else None)
        self.hw_prefetcher = hw_prefetcher
        #: optional data TLB (see :mod:`repro.memory.tlb`); attach one
        #: to study translation overheads.  None by default.
        self.tlb = None
        #: demand line-access events publish here in columnar batches;
        #: the hardware counters and phase detector attach as consumers.
        self.line_stream = LineStream(batch_size=line_batch_size)
        # Bound column appends, hoisted once (the buffers are stable).
        stream = self.line_stream
        self._emit_line = (stream.pcs.append, stream.line_addrs.append,
                           stream.writes.append, stream.l1_hits.append,
                           stream.l2_hits.append)
        self._line_bits = config.l1.line_bits
        self._line_size = config.l1.line_size
        # Inlined L1 hit lanes, on array-engine levels only.
        self._l1_lane = _hit_lane(self.l1)
        self._l1i_lane = _hit_lane(self.l1i)
        self.sw_prefetches_issued = 0
        # Per-PC L2 accounting, filled only when enabled (the Cachegrind
        # baseline and delinquent-load ground truth need it).
        self.track_per_pc = False
        self.pc_l2_refs: Dict[int, int] = {}
        self.pc_l2_misses: Dict[int, int] = {}

    # -- demand path ---------------------------------------------------------

    def access(self, pc: int, addr: int, is_write: bool, size: int = 8,
               now: int = 0) -> int:
        """Perform a demand access; returns its latency in cycles.

        References that straddle a line boundary access both lines (the
        paper notes hardware/simulator mismatches around values that
        "cross multiple cache lines" -- here they simply cost two line
        accesses).

        A single-line reference that hits an array-engine L1D with no
        stall or prefetch credit due and no TLB attached retires inline;
        everything else takes the :meth:`_access_line` path, which is
        the reference for that lane.
        """
        line_bits = self._line_bits
        first_line = addr >> line_bits
        last_line = (addr + size - 1) >> line_bits
        lane = self._l1_lane
        if lane is not None and first_line == last_line and self.tlb is None:
            (where, stamps, ready, pref, dirty, mru, stats, touch, plru,
             _, hit_latency) = lane
            slot = where.get(first_line)
            if slot is not None and ready[slot] <= now and not pref[slot]:
                if is_write:
                    stats.writes += 1
                    dirty[slot] = True
                else:
                    stats.reads += 1
                if touch:
                    stamps[slot] = now
                    if plru:
                        mru[slot] = True
                stream = self.line_stream
                if stream.consumers:
                    e_pc, e_line, e_write, e_h1, e_h2 = self._emit_line
                    e_pc(pc)
                    e_line(first_line)
                    e_write(is_write)
                    e_h1(True)
                    e_h2(True)
                    if len(stream.pcs) >= stream.batch_size:
                        stream.drain()
                return hit_latency
        latency = 0
        if self.tlb is not None:
            latency += self.tlb.translate(addr)
        for line_addr in range(first_line, last_line + 1):
            latency += self._access_line(pc, line_addr, is_write, now)
        return latency

    def l1_hit_lane(self):
        """The L1D :class:`~repro.memory.cache.HitLane` when a caller may
        retire single-line L1 hits itself, else ``None``.

        Eligible while the L1D runs the array engine and has only ever
        seen plain fills (``_plain_timing``: every ready time is 0 and
        no line is prefetched, so a hit at ``now >= 0`` never stalls),
        no TLB is attached, and nothing consumes the line stream (a
        retired hit emits no line event).  Consumers and TLBs may attach
        at any time, so callers ask again before each batch of work.
        """
        lane = self._l1_lane
        if (lane is None or self.tlb is not None
                or self.line_stream.consumers
                or not self.l1._plain_timing):
            return None
        return lane

    def _access_line(self, pc: int, line_addr: int, is_write: bool,
                     now: int) -> int:
        latency = self.l1.config.hit_latency
        l1_hit, stall = self.l1.probe(line_addr, is_write, now)
        l2_hit = True
        if not l1_hit:
            latency += self.l2.config.hit_latency
            l2_hit, l2_stall = self.l2.probe(line_addr, is_write, now)
            if self.track_per_pc and not is_write:
                self.pc_l2_refs[pc] = self.pc_l2_refs.get(pc, 0) + 1
            if l2_hit:
                latency += l2_stall
            else:
                latency += self.config.memory_latency
                self.l2.fill(line_addr, now=now, is_write=is_write)
                if self.track_per_pc and not is_write:
                    self.pc_l2_misses[pc] = self.pc_l2_misses.get(pc, 0) + 1
            self.l1.fill(line_addr, now=now, is_write=is_write)
            if self.hw_prefetcher is not None:
                self.hw_prefetcher.observe(
                    pc, line_addr, l2_hit,
                    lambda target: self.prefetch_line(target, now),
                )
        else:
            latency += stall
        stream = self.line_stream
        if stream.consumers:
            e_pc, e_line, e_write, e_h1, e_h2 = self._emit_line
            e_pc(pc)
            e_line(line_addr)
            e_write(is_write)
            e_h1(l1_hit)
            e_h2(l2_hit)
            if len(stream.pcs) >= stream.batch_size:
                stream.drain()
        return latency

    # -- instruction fetch path ------------------------------------------------

    @property
    def models_ifetch(self) -> bool:
        return self.l1i is not None

    def fetch(self, code_lines, now: int = 0) -> int:
        """Fetch instruction lines through L1I; misses hit the unified L2.

        ``code_lines`` is an iterable of line addresses (one basic
        block's code footprint).  Returns the fetch latency.  Instruction
        traffic lands in the L2's demand statistics -- what the hardware
        counters see -- but is invisible to the data-only simulators.
        Array-engine L1I hits retire inline; :meth:`Cache.probe` is the
        reference for that lane.
        """
        l1i = self.l1i
        if l1i is None:
            return 0
        lane = self._l1i_lane
        if lane is not None:
            (where, stamps, ready, pref, _, mru, stats, touch, plru,
             _, _) = lane
        latency = 0
        for line_addr in code_lines:
            if lane is not None:
                slot = where.get(line_addr)
                if slot is not None and ready[slot] <= now \
                        and not pref[slot]:
                    stats.reads += 1
                    if touch:
                        stamps[slot] = now
                        if plru:
                            mru[slot] = True
                    continue
            hit, _ = l1i.probe(line_addr, False, now)
            if hit:
                continue
            latency += self.l2.config.hit_latency
            l2_hit, _ = self.l2.probe(line_addr, False, now)
            if not l2_hit:
                latency += self.config.memory_latency
                self.l2.fill(line_addr, now=now)
            l1i.fill(line_addr, now=now)
        return latency

    # -- prefetch path --------------------------------------------------------

    def prefetch_line(self, line_addr: int, now: int = 0) -> None:
        """Bring a line into the L2 (hardware prefetch request)."""
        if line_addr < 0:
            return
        self.l2.fill(
            line_addr, now=now,
            ready_at=now + self.config.memory_latency,
            prefetched=True,
        )

    def software_prefetch(self, addr: int, now: int = 0) -> None:
        """A software ``prefetcht2``-style hint for byte address ``addr``."""
        self.sw_prefetches_issued += 1
        self.prefetch_line(addr >> self._line_bits, now)

    # -- statistics -------------------------------------------------------------

    @property
    def line_size(self) -> int:
        return self._line_size

    def l2_miss_ratio(self) -> float:
        """Misses / references at the L2 (loads + stores), the quantity
        the paper correlates across tools (Section 6.2)."""
        return self.l2.stats.miss_ratio

    def l1_miss_ratio(self) -> float:
        return self.l1.stats.miss_ratio

    def counters_snapshot(self) -> Dict[str, int]:
        """A raw event dump in hardware-counter style."""
        return {
            "l1_refs": self.l1.stats.refs,
            "l1_misses": self.l1.stats.misses,
            "l2_refs": self.l2.stats.refs,
            "l2_misses": self.l2.stats.misses,
            "l2_prefetch_fills": self.l2.stats.prefetch_fills,
            "l2_useful_prefetches": self.l2.stats.useful_prefetches,
            "l2_redundant_prefetches": self.l2.stats.redundant_prefetches,
            "sw_prefetches": self.sw_prefetches_issued,
        }

    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        if self.l1i is not None:
            self.l1i.stats.reset()
        self.sw_prefetches_issued = 0
        self.pc_l2_refs.clear()
        self.pc_l2_misses.clear()
        if self.hw_prefetcher is not None:
            self.hw_prefetcher.reset()

    def __repr__(self) -> str:
        pf = self.hw_prefetcher.name if self.hw_prefetcher else "none"
        return f"<MemoryHierarchy {self.config.name} prefetcher={pf}>"
