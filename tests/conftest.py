
import numpy as np
import pytest

from avdistill import PairedBatch, TowerSpec, TwoTowerModel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_model():
    """A 6-dim / 9-dim two-tower model with 3 output classes."""
    audio = TowerSpec(input_dim=6, output_dim=3, hidden_dims=(8, 8), dropout_rate=0.1)
    visual = TowerSpec(input_dim=9, output_dim=3, hidden_dims=(8, 8), dropout_rate=0.1)
    return TwoTowerModel.create(audio, visual, seed=11)


@pytest.fixture
def small_batch(rng):
    n = 6
    return PairedBatch(
        rng.standard_normal((n, 6)),
        rng.standard_normal((n, 9)),
        rng.integers(0, 3, size=n),
    )


@pytest.fixture
def float32_twins():
    """A batch's features rounded to float32, and the exact float64 copy of that rounding."""

    def twins(batch: PairedBatch) -> tuple[PairedBatch, PairedBatch]:
        narrow = PairedBatch(batch.audio.astype(np.float32), batch.visual.astype(np.float32),
                             batch.labels, batch.indices)
        wide = PairedBatch(narrow.audio.astype(np.float64), narrow.visual.astype(np.float64),
                           batch.labels, batch.indices)
        assert narrow.audio.dtype == np.float32 and wide.audio.dtype == np.float64
        return narrow, wide

    return twins


@pytest.fixture
def reference_model():
    """The paper's towers: 128-d audio and 1024-d visual inputs, 3 x 1024 hidden, 10 outputs."""
    return TwoTowerModel.create(
        TowerSpec(128, 10, (1024, 1024, 1024)), TowerSpec(1024, 10, (1024, 1024, 1024)), seed=0
    )


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the tower overlap sees: 2 or more runs its worker, 1 runs serially."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr("avdistill.nn._usable_cpus", lambda: n)

    return set_cpus


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            when = getattr(report, "when", "call")
            if "test_acceptance.py::test_accept_" in nodeid and when == "call":
                name = nodeid.split("test_accept_")[-1]
                rows.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if rows:
        terminalreporter.section("acceptance criteria")
        for name, verdict in rows:
            terminalreporter.write_line(f"ACCEPT {name}: {verdict}")
