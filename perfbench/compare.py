"""Compare two benchmark results written with ``run.py --out``.

Timings are comparable only on the same host class, so results whose
host fingerprints differ (CPU model, cores, Python, workers) are flagged
and not compared::

    python3 perfbench/compare.py BASE.json NEW.json

Exit status: 0 when comparable and no end-to-end metric got worse by more
than its ``BENCHMARK.json`` bound, 1 on a regression, 3 when the host
classes differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def host_mismatch(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why two fingerprints are different host classes, or ``None``."""
    diffs = [f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
             for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    return "; ".join(diffs) or None


def compare(base: Dict[str, Any], new: Dict[str, Any],
            bench: Dict[str, Any]) -> List[str]:
    """Regression lines for ``new`` against ``base`` (empty if none)."""
    regressions = []
    for metric in bench["end_to_end"] + bench["per_layer"]:
        name = metric["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        old = base["metrics"][name]["value"]
        cur = new["metrics"][name]["value"]
        change = (cur - old) / old if old else 0.0
        worse = change if metric["better"] == "lower" else -change
        bound = metric.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag = f"  REGRESSION (bound {bound:.0%})"
            regressions.append(name)
        print(f"{name:32s} {old:12.6g} -> {cur:12.6g} {change:+8.2%}{flag}")
    return regressions


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("results are for different workloads or trace modes",
              file=sys.stderr)
        return 2
    why = host_mismatch(base["host"], new["host"])
    if why is not None:
        print(f"not compared: different host class ({why})")
        return 3
    return 1 if compare(base, new, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
