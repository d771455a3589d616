"""Micro-benchmark harness for the repo's fast simulation kernels.

``umi-experiments bench`` runs the named kernels in
:mod:`repro.bench.kernels` through the warmup/repeat harness in
:mod:`repro.bench.harness` and writes a ``BENCH_kernels.json`` report
(:mod:`repro.bench.report`), which CI checks against the committed
baseline and the kernel speedup floors.
"""

from .harness import BenchResult, run_benchmark
from .kernels import KERNELS, run_kernel, run_kernels
from .report import (
    DEFAULT_EXECUTION, REGRESSION_THRESHOLD, SCHEMA_VERSION,
    SPEEDUP_FLOORS, build_report, check_floors, compare_reports,
    comparison_skip_note, context_fingerprint, load_report, render_report,
    report_results, write_report,
)

__all__ = [
    "BenchResult", "run_benchmark", "KERNELS", "run_kernel",
    "run_kernels", "DEFAULT_EXECUTION", "SCHEMA_VERSION",
    "REGRESSION_THRESHOLD", "SPEEDUP_FLOORS", "build_report",
    "report_results", "write_report", "load_report", "check_floors",
    "compare_reports", "comparison_skip_note", "context_fingerprint",
    "render_report",
]
