"""Whole-run benchmark of the UMI reproduction.

Runs one workload (see ``shapes.py``) through the public execution
engine for about ``--seconds`` seconds (``bench.py``), checks every
output, and prints its metrics, ending with one JSON line::

    python3 perfbench/run.py --workload paper-umi-cg --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced wavefronts and reports the
per-layer metrics of the traced ones (see ``layers.py``) plus the
tracing overhead.  ``--out FILE`` also writes the full result, with the
host fingerprint, for ``compare.py``.  See ``README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SHAPE_NAMES = ("paper-umi-cg", "gen-native-ctr", "all-sweep")

#: Fewest fresh-interpreter set-ups whose median is ``setup_s``.
SETUP_PROBES = 5


def setup_probe(args) -> float:
    """Set-up time of one fresh interpreter.

    The probe imports the simulator and the benchmark, then sets up one
    wavefront (``--setup-only``), and reports the time since its script
    started.  Importing happens once per process, so repeating set-up
    takes fresh processes.
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=SHAPE_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up one wavefront, print the seconds "
                             "since start, exit")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.bench import (
            END_TO_END, PER_LAYER, Bench, end_to_end, per_layer,
        )
        from perfbench.shapes import SHAPES, usable_cores
        from perfbench.verify import fingerprint
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(SHAPES[args.workload], args.seed, workdir)
    try:
        if args.setup_only:
            cache = bench.setup()[0]
            print(time.perf_counter() - _START)
            cache.engine.close()
            return 0
        # Set-up probes run between wavefronts, so that their median
        # samples the whole run rather than one moment of it.
        probes: List[float] = []
        reps = bench.run(args.seconds, bool(args.trace), between=(
            None if args.trace else lambda: probes.append(setup_probe(args))))
        while not args.trace and len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    untraced = [r for r in reps if r.snapshot is None]
    traced = [r for r in reps if r.snapshot is not None]
    if args.trace:
        values = per_layer(untraced, traced)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(untraced, statistics.median(probes))
        units = dict(END_TO_END)
    attempted = sum(r.specs for r in reps)
    failed = sum(r.failed for r in reps)
    host = fingerprint(workers=reps[0].workers, cores=usable_cores())

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced wavefronts of "
          f"{reps[0].specs} specs in {reps[0].groups} groups")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print("wavefront wall_s: " + " ".join(
        f"{r.wall_s:.3f}{'*' if r.snapshot is not None else ''}"
        for r in reps) + ("  (* traced)" if traced else ""))
    for name, value in sorted(bench.accuracy.items()):
        print(f"{name} = {value!r} (checked against expected.json)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} specs failed or mismatched)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, host=host,
                      accuracy=bench.accuracy)
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
