"""Self-tests of the benchmark: the self-time stack, wrapper removal,
the seeded draw, host flagging and a small smoke of every workload.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.bench import (  # noqa: E402
    END_TO_END, PER_LAYER, Bench, per_layer,
)
from perfbench.compare import host_mismatch  # noqa: E402
from perfbench.run import SHAPE_NAMES  # noqa: E402
from perfbench.shapes import SHAPES, draw_generated  # noqa: E402
from perfbench.verify import load_expected  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float):
        def work(*args):
            self.now += seconds
        return work


def test_self_time_subtracts_nested_boundaries():
    fake = FakeClock()
    flushed = []
    clock = layers.LayerClock(
        clock=fake,
        sink=lambda s, c, n: flushed.append((dict(s), dict(c), dict(n))))
    inner = clock.wrap(fake.advance(2.0), "inner")
    tick = fake.advance(1.0)

    def outer_body():
        tick()
        inner()
        inner()
        tick()

    outer = clock.wrap(outer_body, "outer")
    outer()
    assert flushed == [({"outer": 2.0, "inner": 4.0},
                        {"outer": 1, "inner": 2}, {})]
    assert clock.stack == [] and clock.self_s == {}


def test_memory_calls_split_by_caller():
    fake = FakeClock()
    flushed = []
    clock = layers.LayerClock(clock=fake,
                              sink=lambda s, c, n: flushed.append(dict(s)))
    access = clock.wrap(fake.advance(1.0), "memory.access",
                        shadow_layer="shadow.access")
    vm = clock.wrap(lambda: (access(), fake.advance(3.0)()), "vm")
    replay = clock.wrap(lambda: (access(), access()), layers.SHADOW_LAYER)
    vm()
    replay()
    assert flushed == [{"vm": 3.0, "memory.access": 1.0},
                       {layers.SHADOW_LAYER: 0.0, "shadow.access": 2.0}]


def _installed():
    return [boundary.owner.__dict__[boundary.attr]
            for boundary in layers.BOUNDARIES]


def test_traced_restores_every_wrapper_even_on_error():
    import repro.engine.attempt as attempt

    before = _installed()
    encode = attempt.outcome_to_dict
    with pytest.raises(RuntimeError):
        with layers.traced(layers.LayerClock()):
            during = _installed()
            assert all(now is not old for now, old in zip(during, before))
            assert attempt.outcome_to_dict is not encode
            raise RuntimeError("boom")
    assert all(now is old for now, old in zip(_installed(), before))
    assert attempt.outcome_to_dict is encode


def test_generated_draw_is_seeded_and_stratified():
    steps = load_expected()["gen_steps"]
    first = draw_generated(1, steps)
    assert first == draw_generated(1, steps)
    assert first != draw_generated(2, steps)
    assert len(first) == len(set(first)) == 5 * 8


def test_benchmark_json_names_every_workload_and_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in bench["workloads"])
    assert names == SHAPE_NAMES == tuple(SHAPES)
    for key, metrics in (("end_to_end", END_TO_END),
                         ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in bench[key]] == \
            list(metrics)


def test_host_class_mismatch_is_flagged():
    host = {"cpu_model": "A", "cores": 2, "python": "3.11.7", "workers": 2}
    assert host_mismatch(host, dict(host)) is None
    assert "cpu_model" in host_mismatch(host, dict(host, cpu_model="B"))


def _smoke(name: str, keep: int):
    """A workload cut to the first ``keep`` specs of its real wavefront,
    so every payload still has a committed digest."""
    shape = SHAPES[name]
    full = shape.specs
    return dataclasses.replace(
        shape, accuracy=False,
        specs=lambda cache, seed, expected:
            full(cache, seed, expected)[:keep])


@pytest.mark.parametrize("name,keep", [
    ("paper-umi-cg", 3), ("gen-native-ctr", 14), ("all-sweep", 6),
])
def test_workload_smoke(name, keep, tmp_path):
    before = _installed()
    bench = Bench(_smoke(name, keep), seed=7, workdir=tmp_path)
    untraced = bench.wavefront(traced=False)
    traced = bench.wavefront(traced=True)
    assert all(now is old for now, old in zip(_installed(), before))
    assert untraced.failed == traced.failed == 0
    assert untraced.specs == traced.specs == keep
    assert untraced.steps == traced.steps > 0
    metrics = per_layer([untraced], [traced])
    assert list(metrics) == [metric for metric, _ in PER_LAYER]
    assert metrics["vm.steps"] > 0 and metrics["engine.specs"] == keep
    assert metrics["trace.coverage"] > 0.8
    if name == "gen-native-ctr":
        for idle in ("stream.ref_batches", "fullsim.refs",
                     "shadow.accesses", "core.analyses"):
            assert metrics[idle] == 0, idle
    else:
        assert metrics["fullsim.refs"] > 0


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "paper-umi-cg", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
