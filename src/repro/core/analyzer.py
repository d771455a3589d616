"""The profile analyzer: UMI's fast mini cache simulator (Section 5).

"The analyzer for this paper is a fast cache simulator.  It is configured
to match the number of sets, the line size, and the associativity of the
secondary cache on the host machine.  The simulator implements an LRU
replacement policy...  During simulation, each reference is mapped to its
corresponding set.  The tag is compared to all tags in the set.  If there
is a match, the recorded time of the matching line is updated.
Otherwise, an empty line, or the oldest line, is selected to store the
current tag.  We use a counter to simulate time."

Tuning for short profiles, also per the paper: miss accounting starts
only after the warm-up executions of each trace; a *single logical cache*
is shared across all analysed profiles, with its state carried from one
analysis to the next; and the cache is flushed when the flush interval
(or more) has elapsed since the analyzer last ran.

Implementation notes.  Profiles are replayed through
:meth:`~repro.memory.cache.Cache.access_many` -- one flat batch per
profile instead of a probe/fill call pair per reference -- and repeated
analyses are memoized: identical ``(trace head, profile contents,
cache-state epoch)`` triples reuse the recorded result and reinstate the
recorded post-analysis cache state, so flush-heavy and cold-cache
regimes skip re-simulation entirely.  Both paths are bit-identical to
:class:`repro.memory.cache_reference.ReferenceMiniCacheSimulator`
(``tests/test_kernel_equivalence.py``); epochs are sound because within
one analyzer the reference counter gives every simulated access a unique
timestamp, making replacement decisions invariant to the absolute time
at which an epoch's state was first produced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache, CacheConfig

from .config import UMIConfig
from .profiles import AddressProfile

# Distinct (profile contents, cache epoch) pairs retained for reuse.
# Entries are promoted to full (snapshot-carrying) records only on their
# second occurrence, so one-shot profiles never pay the snapshot copy.
MEMO_CAPACITY = 256


@dataclass
class OpSimResult:
    """Mini-simulated hit/miss counts for one instrumented operation."""

    pc: int
    refs: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0


@dataclass
class AnalysisResult:
    """Output of analysing one address profile.

    Treat instances as read-only: the analyzer hands the *same* object
    back for memoized repeats of an identical analysis.
    """

    trace_head: str
    per_op: Dict[int, OpSimResult] = field(default_factory=dict)
    counted_refs: int = 0
    counted_misses: int = 0
    warmup_refs: int = 0

    @property
    def miss_ratio(self) -> float:
        if not self.counted_refs:
            return 0.0
        return self.counted_misses / self.counted_refs


_STATS_FIELDS = (
    "reads", "read_misses", "writes", "write_misses", "evictions",
    "prefetch_fills", "redundant_prefetches", "useful_prefetches",
    "late_prefetch_stall_cycles",
)


class MiniCacheSimulator:
    """Replays recorded address profiles through a small cache model."""

    def __init__(self, config: UMIConfig, host_l2: CacheConfig) -> None:
        self.config = config
        self.cache_config = config.mini_cache or host_l2
        self.cache = Cache(self.cache_config)
        self._line_bits = self.cache_config.line_bits
        self._time = 0
        self._last_run_cycles: Optional[int] = None
        self.flushes = 0
        self.profiles_analyzed = 0
        self.references_simulated = 0
        # Cumulative per-pc statistics across all analyses (the basis of
        # UMI's per-instruction miss ratios and delinquency labels).
        self.pc_stats: Dict[int, OpSimResult] = {}
        # Memoization state.  Epoch 0 is the flushed (empty) cache; every
        # live analysis moves the cache to a fresh epoch, and a memo hit
        # moves it to the recorded entry's end epoch.
        self.memo_hits = 0
        self._memo: Dict[tuple, tuple] = {}
        self._state_epoch = 0
        self._epoch_alloc = 0

    # -- cache state management -------------------------------------------------

    def maybe_flush(self, now_cycles: int) -> bool:
        """Apply the periodic flush heuristic.

        The prototype flushes "whenever the analyzer is triggered and
        more than 1M processor cycles (obtained using rdtsc) have elapsed
        since it last ran", avoiding long-term contamination of the
        shared logical cache.  An interval-sized gap counts: a trigger
        arriving exactly one flush interval after the previous run must
        flush rather than slip through the comparison.
        """
        interval = self.config.flush_interval
        flushed = False
        if (
            interval is not None
            and self._last_run_cycles is not None
            and now_cycles - self._last_run_cycles >= interval
        ):
            self.cache.flush()
            self._state_epoch = 0
            self.flushes += 1
            flushed = True
        self._last_run_cycles = now_cycles
        return flushed

    # -- simulation ---------------------------------------------------------------

    def analyze(self, profile: AddressProfile) -> AnalysisResult:
        """Mini-simulate one address profile, row by row.

        Rows are replayed in recording order (actual temporal order);
        the first ``warmup_executions`` rows warm the cache without
        being counted.
        """
        if not self.config.shared_cache:
            # Ablation mode: every profile starts from a cold cache.
            self.cache.flush()
            self._state_epoch = 0
        skip = self.config.warmup_executions

        key = None
        entry = None
        if self.cache._plain:
            key = (profile.trace_head, skip, self._state_epoch,
                   profile.content_key())
            entry = self._memo.get(key)
            if entry is not None and entry[0]:
                return self._replay_memo(entry)

        result = self._analyze_live(profile, skip,
                                    record=entry is not None)

        if key is not None:
            if entry is not None:
                # Second occurrence: promote to a full record, keeping
                # the end epoch allocated the first time around.
                end_epoch = entry[1]
                self._memo[key] = self._full_entry(result, end_epoch)
            else:
                self._epoch_alloc += 1
                end_epoch = self._epoch_alloc
                if len(self._memo) >= MEMO_CAPACITY:
                    self._memo.pop(next(iter(self._memo)))
                self._memo[key] = (False, end_epoch)
            self._state_epoch = end_epoch
        return result

    def _analyze_live(self, profile: AddressProfile, skip: int,
                      record: bool = False) -> AnalysisResult:
        """Simulate for real, via the batch cache kernel.

        With ``record`` the run keeps what :meth:`_full_entry` needs to
        build a memo record afterwards (the stats baseline and the
        accessed-line stream).
        """
        if record:
            self._stats_before = tuple(
                getattr(self.cache.stats, f) for f in _STATS_FIELDS
            )
            self._pre_capture = self.cache.state_pre_capture()
        pcs, lines, n_warmup = profile.flat_references(
            skip_rows=skip, shift=self._line_bits)
        hits = self.cache.access_many(lines, start_now=self._time)
        self._time += len(lines)
        if record:
            self._last_lines = lines

        result = AnalysisResult(trace_head=profile.trace_head)
        result.warmup_refs = n_warmup
        counted_pcs = pcs[n_warmup:] if n_warmup else pcs
        counted_hits = hits[n_warmup:] if n_warmup else hits
        ref_counts = Counter(counted_pcs)
        n_misses = counted_hits.count(False)
        if n_misses:
            miss_counts = Counter(
                [pc for pc, hit in zip(counted_pcs, counted_hits)
                 if not hit]
            )
            miss_get = miss_counts.get
        else:
            miss_get = None
        # Counter preserves first-occurrence order, so per_op comes out
        # keyed in the order each pc first produced a counted reference.
        per_op = result.per_op
        if miss_get is None:
            for pc, refs in ref_counts.items():
                per_op[pc] = OpSimResult(pc, refs=refs)
        else:
            for pc, refs in ref_counts.items():
                per_op[pc] = OpSimResult(pc, refs=refs,
                                         misses=miss_get(pc, 0))
        result.counted_refs = len(counted_pcs)
        result.counted_misses = n_misses

        self.profiles_analyzed += 1
        self.references_simulated += result.counted_refs + result.warmup_refs
        self._accumulate(per_op)
        return result

    def _full_entry(self, result: AnalysisResult, end_epoch: int) -> tuple:
        """Build the delta-carrying memo record for ``result``.

        The ``result`` object itself is retained and handed back on
        every later hit -- analysis results are read-only to all
        consumers (delinquency labelling, aggregation), so sharing one
        instance is safe and skips rebuilding per-op records.
        """
        stats_after = tuple(
            getattr(self.cache.stats, f) for f in _STATS_FIELDS
        )
        stats_delta = tuple(
            after - before
            for after, before in zip(stats_after, self._stats_before)
        )
        time_delta = result.counted_refs + result.warmup_refs
        return (True, end_epoch, result, stats_delta, time_delta,
                self.cache.state_delta_for(self._last_lines,
                                           self._pre_capture))

    def _replay_memo(self, entry: tuple) -> AnalysisResult:
        """Apply a full memo record without re-simulating."""
        _, end_epoch, result, stats_delta, time_delta, state_delta = entry

        self.cache.state_apply_delta(state_delta)
        stats = self.cache.stats
        for name, delta in zip(_STATS_FIELDS, stats_delta):
            setattr(stats, name, getattr(stats, name) + delta)
        self._time += time_delta
        self._state_epoch = end_epoch
        self.memo_hits += 1
        self.profiles_analyzed += 1
        self.references_simulated += time_delta
        self._accumulate(result.per_op)
        return result

    def _accumulate(self, per_op: Dict[int, OpSimResult]) -> None:
        for pc, op in per_op.items():
            total = self.pc_stats.get(pc)
            if total is None:
                total = self.pc_stats[pc] = OpSimResult(pc)
            total.refs += op.refs
            total.misses += op.misses

    # -- aggregate results ------------------------------------------------------------

    def overall_miss_ratio(self) -> float:
        """Coarse miss ratio over everything mini-simulated so far.

        This is the UMI-side quantity correlated against the hardware
        counters in Table 4.
        """
        refs = sum(s.refs for s in self.pc_stats.values())
        if not refs:
            return 0.0
        return sum(s.misses for s in self.pc_stats.values()) / refs

    def pc_miss_ratios(self, min_refs: int = 1) -> Dict[int, float]:
        """Per-instruction miss ratios for ops with enough references."""
        return {
            pc: s.miss_ratio
            for pc, s in self.pc_stats.items()
            if s.refs >= min_refs
        }
