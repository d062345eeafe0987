"""The benchmark's spans still find their targets in the package.

`perfbench/tracing.py` wraps module globals and class attributes by name and
lists a target it cannot find as absent instead of failing, so a rename or
move in the package would silently leave a benchmark layer unmeasured.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_benchmark_span_finds_its_target(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses resolve their module
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer(1.2)
    with tracer.attached():
        pass
    assert tracer.absent == []
