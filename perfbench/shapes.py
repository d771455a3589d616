"""The benchmark's workloads: which wavefront each one submits.

Every workload is a single-process closed loop: one client submits one
wavefront through the public ``ResultCache``/``ExecutionEngine`` API and
waits for it to resolve.  The seed decides only the inputs, never the
measurement: it permutes submission order, and for ``gen-native-ctr``
it also draws the generated workloads.

* ``paper-umi-cg`` -- the Table 4 + Table 6 required runs over the whole
  ``paper`` set (32 workloads), serial: per workload a Pentium 4 UMI run
  with Cachegrind and the ``shadow-hwpf`` consumer, plus a K7 UMI run.
  The dominant real spec shape, and the only one in which every layer of
  the reference plane (ref stream, shadow replay, full simulation, UMI
  analyzer) does work.  The whole established set is used, so no
  workload is picked by hand.
* ``gen-native-ctr`` -- a seeded draw of generated workloads across the
  five generator families, each run natively on ``xeon`` with the
  hardware prefetcher on, as one fused group of Table 1's
  counter-sampling variants.  No reference stream and no UMI: the ref
  hub, full simulation, shadow replay and analyzer do no work, so a
  change to them must show no change here.  Working sets exceed the
  modelled caches, so the memory layer's miss and prefetch path
  dominates instead of its hit path.
* ``all-sweep`` -- the exact ``umi-experiments all`` wavefront (every
  experiment's required runs, 463 specs in 457 fusion groups) with one
  local worker process per core, into a fresh ``ResultStore``.  Many
  short specs of every mode: per-group costs show here (planning and
  fusion, the fork per lease, protocol round trips, serialization, the
  fsynced store save) and so does load balance across workers.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.engine import RunSpec
from repro.experiments import table1, table4, table6
from repro.experiments.common import ResultCache
from repro.workloads.generators import FAMILIES, family_names

#: Generated workloads drawn per family in ``gen-native-ctr``.
GEN_PER_FAMILY = 8


@dataclass(frozen=True)
class Shape:
    """One benchmark workload."""

    name: str
    #: Workload iteration scale of every spec.
    scale: float
    #: ``specs(cache, seed, expected)`` builds the wavefront.
    specs: Callable[[ResultCache, int, Dict], List[RunSpec]]
    #: Write results into a fresh ``ResultStore``.
    uses_store: bool = False
    #: Run on one local worker process per core instead of serially.
    pooled: bool = False
    #: Also check Table 4's and Table 6's headline accuracy figures.
    accuracy: bool = False

    def jobs(self) -> int:
        return usable_cores() if self.pooled else 1


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _shuffled(specs: List[RunSpec], seed: int) -> List[RunSpec]:
    specs = list(dict.fromkeys(specs))
    random.Random(seed).shuffle(specs)
    return specs


def _paper(cache: ResultCache, seed: int, expected: Dict) -> List[RunSpec]:
    return _shuffled(table4.required_runs(cache)
                     + table6.required_runs(cache), seed)


def draw_generated(seed: int, steps: Dict[str, int],
                   per_family: int = GEN_PER_FAMILY) -> List[str]:
    """A seeded draw of generated workloads, stratified by size.

    Each family's registered population is sorted by its committed
    instruction count and cut into ``per_family`` equal strata; one
    workload is drawn from each stratum.  Every seed therefore gets a
    different set of programs but about the same amount of simulated
    work, so run-to-run spread reflects the host, not the draw.
    """
    rng = random.Random(seed)
    names: List[str] = []
    for family in FAMILIES:
        population = sorted(family_names(family),
                            key=lambda name: (steps[name], name))
        size = len(population)
        for stratum in range(per_family):
            low = stratum * size // per_family
            high = (stratum + 1) * size // per_family
            names.append(population[rng.randrange(low, high)])
    return names


def ctr_specs(cache: ResultCache, workload: str) -> List[RunSpec]:
    """Table 1's native variants of one workload on ``xeon`` with the
    hardware prefetcher on: one plain run plus one per counter sample
    size, which the engine fuses into a single execution."""
    specs = [cache.spec_native(workload, machine="xeon", hw_prefetch=True)]
    specs.extend(cache.spec_native(workload, machine="xeon",
                                   hw_prefetch=True,
                                   counter_sample_size=size)
                 for size in table1.SAMPLE_SIZES)
    return specs


def _gen(cache: ResultCache, seed: int, expected: Dict) -> List[RunSpec]:
    specs: List[RunSpec] = []
    for name in draw_generated(seed, expected["gen_steps"]):
        specs.extend(ctr_specs(cache, name))
    return _shuffled(specs, seed)


def all_wavefront(cache: ResultCache) -> List[RunSpec]:
    """Exactly the wavefront ``umi-experiments all`` resolves."""
    from repro.experiments.cli import EXPERIMENTS

    specs: List[RunSpec] = []
    for experiment in EXPERIMENTS.values():
        if experiment.required_runs is not None:
            specs.extend(experiment.required_runs(cache))
    return specs


def _all(cache: ResultCache, seed: int, expected: Dict) -> List[RunSpec]:
    return _shuffled(all_wavefront(cache), seed)


SHAPES: Dict[str, Shape] = {
    shape.name: shape for shape in (
        Shape("paper-umi-cg", scale=0.05, specs=_paper, accuracy=True),
        Shape("gen-native-ctr", scale=0.1, specs=_gen),
        Shape("all-sweep", scale=0.01, specs=_all, uses_store=True,
              pooled=True),
    )
}
