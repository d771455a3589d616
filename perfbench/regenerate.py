"""Rebuild ``expected.json``: the committed digests the benchmark checks.

Runs every spec any seed of any workload can submit -- the paper runs,
Table 1's native variants of the whole registered generated population,
and the ``umi-experiments all`` wavefront -- each at its workload's
scale, and records one digest per payload, the instruction count of
every generated workload (``gen-native-ctr`` stratifies its draw by it)
and the ``paper-umi-cg`` accuracy figures.  Run it only when a change
is meant to alter simulator output, and say so in the change::

    python3 perfbench/regenerate.py [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.shapes import (
        SHAPES, all_wavefront, ctr_specs, usable_cores,
    )
    from perfbench.verify import (
        EXPECTED_PATH, accuracy, canonical, payload_digest, spec_key,
    )
    from repro.experiments import table4, table6
    from repro.experiments.common import ResultCache
    from repro.workloads.generators import default_generated_names

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs", type=int, default=usable_cores())
    args = parser.parse_args(argv)

    digests: Dict[str, str] = {}
    gen_steps: Dict[str, int] = {}

    def resolve(cache: ResultCache, specs: List) -> None:
        cache.prefill(specs)
        failed = cache.engine.failed_runs()
        if failed:
            raise SystemExit(f"{len(failed)} specs failed: "
                             f"{sorted(s.describe() for s in failed)[:5]}")
        for spec, payload in cache.engine.payloads():
            digests[spec_key(spec)] = payload_digest(canonical(payload))

    paper = ResultCache(scale=SHAPES["paper-umi-cg"].scale, jobs=args.jobs)
    resolve(paper, table4.required_runs(paper) + table6.required_runs(paper))
    figures = accuracy(paper)
    paper.engine.close()

    gen = ResultCache(scale=SHAPES["gen-native-ctr"].scale, jobs=args.jobs)
    names = default_generated_names()
    resolve(gen, [spec for name in names for spec in ctr_specs(gen, name)])
    for name in names:
        gen_steps[name] = gen.run(ctr_specs(gen, name)[0]).steps
    gen.engine.close()

    sweep = ResultCache(scale=SHAPES["all-sweep"].scale, jobs=args.jobs)
    resolve(sweep, all_wavefront(sweep))
    sweep.engine.close()

    expected = {
        "accuracy": figures,
        "gen_steps": dict(sorted(gen_steps.items())),
        "payloads": dict(sorted(digests.items())),
    }
    old = {}
    if EXPECTED_PATH.exists():
        with open(EXPECTED_PATH) as handle:
            old = json.load(handle)
    changed = sum(1 for key, value in digests.items()
                  if old.get("payloads", {}).get(key) not in (None, value))
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} payload digests ({changed} changed), "
          f"{len(gen_steps)} generated workloads, accuracy {figures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
