"""The benchmark's own tests: reduced-size smoke runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from serve_mix import ServeMix  # noqa: E402
from tracing import Recorder, traced  # noqa: E402
from workloads import MIXES, Cotenant, DseGrid, SoloSim, draw_grid  # noqa

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _small(name: str, tmp_path, trace: bool):
    if name == "solo-sim":
        return SoloSim(3, scale="tiny", apps=["gemm", "bfs"], specs=1)
    if name == "dse-grid":
        return DseGrid(3, scale="tiny", grid=draw_grid(3)[:4], twins=1)
    if name == "cotenant":
        return Cotenant(3, scale="tiny", mixes=MIXES[:1])
    return ServeMix(3, seconds=2.0, trace=trace, rate=4.0, jobs=1,
                    work_dir=str(tmp_path / "serve"), root=ROOT)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _, _ in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 15) < 3420


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail(list(range(1, 21))) == {
        "value": 10, "percentile": 50.0, "samples": 20}
    assert harness.tail(list(range(1, 41))) == {
        "value": 30, "percentile": 75.0, "samples": 40}
    assert harness.tail([3.0, 1.0, 2.0]) == {
        "value": 3.0, "percentile": 100.0, "samples": 3}


def test_speed_is_read_from_samples_inside_or_nearest():
    speed = harness.Speedometer()
    ref = harness.OPS.reference_s
    # a host at full speed until t=10, then at half speed
    speed.starts = [0.5 * k for k in range(40)]
    speed.ticks = [ref if t < 10 else 2 * ref for t in speed.starts]
    assert speed.scale(0.0, 5.0) == pytest.approx(1.0)
    assert speed.scale(12.0, 18.0) == pytest.approx(0.5)
    # an op shorter than the sampling interval reads the nearest samples
    assert speed.scale(3.01, 3.02) == pytest.approx(1.0)
    assert speed.scale(15.01, 15.02) == pytest.approx(0.5)
    assert speed.at_reference(2.0, 14.0) == pytest.approx(1.0)
    # no samples at all: times stay as measured
    assert harness.Speedometer().scale(0.0, 1.0) == 1.0


def test_speedometer_samples_and_restores_the_signal():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with harness.Speedometer() as speed:
        end = time.perf_counter() + 3 * harness.OPS.every_s
        while time.perf_counter() < end:
            pass
    assert speed.ticks and len(speed.ticks) == len(speed.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_shims_are_removed_after_a_traced_block():
    from repro.sim.datapath import LaneContext
    from repro.sim.leaves import InnerComputeSim
    before = (LaneContext.eval, InnerComputeSim.tick)
    with traced(Recorder()):
        assert LaneContext.eval is not before[0]
    assert (LaneContext.eval, InnerComputeSim.tick) == before


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_end_to_end(name, tmp_path):
    report = run.run_workload(_small(name, tmp_path, False), 0.5, False)
    assert report["failed"] == 0, report["rows"]
    assert report["attempted"] >= 1
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {
        n: u for n, u, _, _ in metrics.END_TO_END}
    for key, entry in report["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, key
    for row in report["rows"]:
        assert {"op", "kind", "cycles", "host_s", "outcome"} <= set(row)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced(name, tmp_path):
    workload = _small(name, tmp_path, True)
    report = run.run_workload(workload, 1.0, True,
                              str(tmp_path / "trace.json"))
    assert report["failed"] == 0, report["rows"]
    values = report["metrics"]
    assert {k: v["unit"] for k, v in values.items()} == {
        n: u for n, u, *_ in metrics.PER_LAYER}
    # self times are disjoint within one process; the serve tier's pool
    # workers run side by side
    capacity = values["trace.wall_s"]["value"] * getattr(workload,
                                                         "jobs", 1)
    for key, entry in values.items():
        if entry["unit"] == "s" and key != "compiler.compile_s":
            assert 0 <= entry["value"] <= capacity, key
    with open(tmp_path / "trace.json") as fh:
        assert json.load(fh)["traceEvents"]


def test_a_corrupted_result_word_is_a_failed_op(monkeypatch):
    from repro.sim.machine import Machine
    original = Machine.result
    hits = []

    def corrupt_once(self, name):
        value = original(self, name).copy()
        if not hits:
            hits.append(name)
            flat = value.reshape(-1)
            flat[0] = flat[0] + 1
        return value

    monkeypatch.setattr(Machine, "result", corrupt_once)
    report = run.run_workload(
        SoloSim(5, scale="tiny", apps=["gemm", "tpchq6"], specs=0),
        0.1, False)
    bad = [row for row in report["rows"] if row["outcome"] != "ok"]
    assert report["failed"] == 1 and len(bad) == 1
    assert bad[0]["op"] == "gemm" and "mismatch" in bad[0]["outcome"]
    assert report["metrics"]["goodput_frac"]["value"] < 1.0
