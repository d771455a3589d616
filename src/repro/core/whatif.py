"""What-if scenario evaluation over recorded profiles.

The paper's closing pitch (Section 1.4): "As a radical example, UMI can
be used to quickly evaluate speculative optimizations that consider
multiple what-if scenarios."  Because the recorded address profiles are
tiny, many *candidate cache configurations* (or replacement policies)
can be mini-simulated side by side at negligible cost; an online system
could use the ranking to steer cache partitioning, way allocation, or
scratchpad decisions.

This module implements that explorer: feed it profiles (live, or ones
retained from a UMI run via ``UMIConfig.retain_profiles``), ask for the
scenario ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.memory.cache import CacheConfig, make_cache
from repro.memory.policies import make_policy

from .profiles import AddressProfile


@dataclass(frozen=True)
class Scenario:
    """One candidate configuration to evaluate."""

    name: str
    cache: CacheConfig
    replacement: str = "lru"


@dataclass
class ScenarioResult:
    """Accumulated mini-simulation outcome for one scenario."""

    scenario: Scenario
    refs: int = 0
    misses: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0


class WhatIfExplorer:
    """Replays profiles through several candidate caches in lockstep."""

    def __init__(self, scenarios: Sequence[Scenario],
                 warmup_executions: int = 2) -> None:
        if not scenarios:
            raise ValueError("need at least one scenario")
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")
        self.scenarios = list(scenarios)
        self.warmup_executions = warmup_executions
        self._caches = [
            make_cache(s.cache, make_policy(s.replacement)) for s in scenarios
        ]
        self.results: Dict[str, ScenarioResult] = {
            s.name: ScenarioResult(s) for s in scenarios
        }
        self._time = 0

    def analyze(self, profile: AddressProfile) -> None:
        """Mini-simulate one profile under every scenario."""
        refs = list(profile.iter_references(
            skip_rows=self.warmup_executions))
        for scenario, cache in zip(self.scenarios, self._caches):
            result = self.results[scenario.name]
            line_bits = scenario.cache.line_bits
            time = self._time
            for _pc, addr, counted in refs:
                time += 1
                hit, _ = cache.probe(addr >> line_bits, False, time)
                if not hit:
                    cache.fill(addr >> line_bits, now=time)
                if counted:
                    result.refs += 1
                    if not hit:
                        result.misses += 1
        self._time += len(refs)

    def analyze_all(self, profiles: Iterable[AddressProfile]) -> None:
        for profile in profiles:
            self.analyze(profile)

    def ranking(self) -> List[ScenarioResult]:
        """Scenarios ordered best (lowest miss ratio) first.

        Ties break toward the smaller cache -- the cheaper configuration
        wins when performance is equal.
        """
        return sorted(
            self.results.values(),
            key=lambda r: (r.miss_ratio, r.scenario.cache.size),
        )

    def best(self) -> ScenarioResult:
        return self.ranking()[0]


def capacity_sweep(base: CacheConfig, factors: Sequence[int] = (1, 2, 4, 8),
                   ) -> List[Scenario]:
    """Scenarios scaling a base configuration's capacity up and down."""
    scenarios = []
    for factor in factors:
        config = CacheConfig(
            size=max(base.line_size * base.assoc, base.size // factor),
            assoc=base.assoc,
            line_size=base.line_size,
            hit_latency=base.hit_latency,
        )
        scenarios.append(Scenario(name=f"1/{factor}x", cache=config))
    return scenarios


def policy_sweep(base: CacheConfig,
                 policies: Sequence[str] = ("lru", "fifo", "random", "plru"),
                 ) -> List[Scenario]:
    """Scenarios varying only the replacement policy."""
    return [Scenario(name=p, cache=base, replacement=p) for p in policies]
