"""Output checks and the host fingerprint.

Every payload a wavefront produces is digested and compared with the
committed digest of the same spec in ``expected.json``; the headline
accuracy figures of ``paper-umi-cg`` (Table 4's all-benchmark Pearson r
between UMI and the Pentium 4 hardware miss ratios, Table 6's mean
delinquent-load recall against Cachegrind) are recomputed with the
repo's own ``table4.measure``/``table6.measure`` and compared exactly.
The simulator is deterministic, so any difference is a behaviour change.
"""

from __future__ import annotations

import hashlib
import json
import platform
import statistics
from pathlib import Path
from typing import Any, Dict

from repro.engine import RunSpec
from repro.experiments import table4, table6
from repro.experiments.common import ResultCache
from repro.stats import pearson

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Hex digits kept of each spec and payload digest.
DIGEST_CHARS = 16


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def spec_key(spec: RunSpec) -> str:
    return spec.digest()[:DIGEST_CHARS]


def canonical(payload: Dict[str, Any]) -> str:
    """The payload's canonical JSON text (what the digest covers)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def accuracy(cache: ResultCache) -> Dict[str, float]:
    """Table 4's ``umi_All`` r (Pentium 4, no prefetch) and Table 6's
    mean recall, from a cache that already holds the paper runs."""
    rows = table4.measure(scale=cache.scale, cache=cache)
    recalls = [row.recall
               for row in table6.measure(scale=cache.scale, cache=cache)]
    return {
        "umi_hw_r": pearson([m.umi_p4 for m in rows],
                            [m.hw_p4_nopf for m in rows]),
        "delinq_recall": statistics.fmean(recalls),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(workers: int, cores: int) -> Dict[str, Any]:
    """The host class a result belongs to.

    Results are comparable only between equal fingerprints: a faster CPU
    model, another core count, another interpreter or another worker
    count changes every timing without any change to the code.
    """
    return {
        "cpu_model": _cpu_model(),
        "cores": cores,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "workers": workers,
    }

