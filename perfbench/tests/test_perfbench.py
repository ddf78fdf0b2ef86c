"""The benchmark's own tests: smoke runs, planted wrong answers, spans.

    python3 -m pytest perfbench/tests -q      (from the checkout root)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import Patcher, SpanRecorder  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    doc = result("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", ("verify-cold", "engine-run"))
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    doc = result("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--smoke")
    assert doc["correct"]
    metrics = doc["metrics"]
    assert [k for k in metrics] == [name for name, _, _ in PER_LAYER]
    if workload == "verify-cold":
        # self times tile the traced roots exactly
        assert metrics["trace.self_sum_s"]["value"] == pytest.approx(
            metrics["trace.wall_s"]["value"], rel=0.01)
        assert metrics["prover.searches"]["value"] > 0
        assert metrics["engine.calls"]["value"] == 0
    else:
        assert metrics["engine.calls"]["value"] > 0
        assert metrics["prover.searches"]["value"] == 0


@pytest.mark.parametrize("workload,plant", [
    ("verify-cold", "buggy"),
    ("service-replay", "canonical"),
    ("engine-run", "engine"),
])
def test_planted_wrong_expectation_is_counted_as_failed(workload, plant):
    doc = result("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--smoke", "--plant", plant)
    assert doc["correct"] is False
    assert doc["failed"] >= 1


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "verify-cold", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_tile_the_root_span():
    recorder = SpanRecorder()

    class Layer:
        @staticmethod
        def leaf():
            return sum(range(1000))

    def root():
        Layer.leaf()
        Layer.leaf()
        return 7

    with Patcher() as patcher:
        patcher.span(recorder, Layer, "leaf", "leaf")
        traced_root = recorder.wrap("root", root)
        assert traced_root() == 7
    assert isinstance(Layer.__dict__["leaf"], staticmethod)  # restored
    selfs = recorder.self_times()
    assert selfs["leaf"][0] == 2 and selfs["root"][0] == 1
    total = sum(s for _, s in selfs.values())
    root = [end - start for _, parent, _, _, start, end in recorder.spans
            if parent < 0]
    assert len(root) == 1 and total == pytest.approx(root[0], abs=1e-9)
