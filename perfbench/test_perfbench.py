"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_runs_every_workload_and_emits_every_metric():
    done = run_bench("--smoke")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_benchmark_json_matches_the_workload_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    assert [m for m in spec["per_layer"]] == [
        {"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench("--workload", "eval-4k", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("strategy", ["all", "hard"])
@pytest.mark.parametrize("anchor_mode", ["audio", "visual", "symmetric"])
def test_active_triplet_count_matches_materialized_triples(strategy, anchor_mode):
    from avdistill import build_triplets, label_masks

    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=30)
    pos, neg = label_masks(labels)
    dist = rng.uniform(0.0, 2.0, size=(30, 30))
    triplets = build_triplets(pos, neg, strategy, anchor_mode, dist)
    is_audio = triplets.anchor_is_audio
    a, p, q = triplets.anchor, triplets.positive, triplets.negative
    hinge = np.where(is_audio, dist[a, p], dist[p, a]) - np.where(is_audio, dist[a, q], dist[q, a])
    expected = int((hinge + 1.2 > 0.0).sum())
    got = tracing._active_triplets(pos, neg, strategy, anchor_mode, dist, triplets, 1.2)
    assert got == expected


def test_check_map_agrees_with_evaluate_and_catches_a_wrong_value():
    from avdistill import PairedBatch, TowerSpec, TwoTowerModel, evaluate

    rng = np.random.default_rng(5)
    audio, visual = rng.standard_normal((40, 6)), rng.standard_normal((40, 9))
    labels = np.repeat(np.arange(4), 10)
    model = TwoTowerModel.create(TowerSpec(6, 4, (32, 32)), TowerSpec(9, 4, (32, 32)), seed=2)
    reported = evaluate(model, PairedBatch(audio, visual, labels)).map_avg
    params = model.parameters()
    assert checks.check_map(params, audio, visual, labels, reported, subsample=40) == []
    assert checks.check_map(params, audio, visual, labels, reported + 1e-6, subsample=5)


def test_tracer_attributes_self_time_and_lists_absent_targets(monkeypatch):
    gone = ("gone.span", "avdistill.losses:no_such_function", {})
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [gone])
    tracer = tracing.Tracer(margin=1.2)
    from avdistill import PairedBatch, TowerSpec, TwoTowerModel

    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(3), 4)
    data = PairedBatch(rng.standard_normal((12, 5)), rng.standard_normal((12, 7)), labels)
    model = TwoTowerModel.create(TowerSpec(5, 3, (4,)), TowerSpec(7, 3, (4,)), seed=0)
    with tracer.attached():
        tracing.call("avdistill.evaluate:evaluate", model, data)
    outer = tracer.stats[("evaluate.evaluate", "")]
    inner = tracer.stats[("model.encode", "eval")]
    assert outer.calls == inner.calls == 1
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert tracer.absent == ["avdistill.losses:no_such_function"]
    assert not hasattr(sys.modules["avdistill.evaluate"].evaluate, "__wrapped__")
