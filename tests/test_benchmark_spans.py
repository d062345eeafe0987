"""The benchmark's spans still find their targets in the package.

`perfbench/tracing.py` wraps module globals and class attributes by name and
lists a target it cannot find as absent instead of failing, so a rename or
move in the package would silently leave a benchmark layer unmeasured.
"""

import importlib.util
import sys
import threading
from pathlib import Path

from avdistill import LossConfig, partition_batch

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses resolve their module
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_span_finds_its_target(monkeypatch):
    tracer = _tracing(monkeypatch).Tracer(1.2)
    with tracer.attached():
        pass
    assert tracer.absent == []


def test_overlapped_towers_keep_every_span_on_the_caller(
    monkeypatch, usable_cpus, small_model, small_batch
):
    tracing = _tracing(monkeypatch)
    usable_cpus(2)
    tracer = tracing.Tracer(1.2)
    on_caller = []
    enter = tracer._enter

    def spy(key):
        on_caller.append(threading.current_thread() is threading.main_thread())
        return enter(key)

    monkeypatch.setattr(tracer, "_enter", spy)
    plan = partition_batch(len(small_batch), 0.5, [1])
    with tracer.attached():
        tracing.call(
            "avdistill.train:composite_loss", small_model, small_batch, plan, LossConfig(),
            step_seed=[2],
        )
    calls = {key: stats.calls for key, stats in tracer.stats.items()}
    for key in (("model.encode", "teacher"), ("model.encode", "student"), ("model.backward", "")):
        assert calls[key] == 1
    assert tracer._stack == []
    assert on_caller and all(on_caller)
