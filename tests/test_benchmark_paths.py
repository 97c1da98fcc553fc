"""perfbench's own set-up, measure and trace paths, run in-process and unedited."""
from __future__ import annotations

import os
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    import workloads
    return child, workloads


def test_stepping_setups_run(perfbench):
    _, workloads = perfbench
    for name in ("accept-d64", "ensemble-d256"):
        workloads.setup(workloads.WORKLOADS[name], workloads.DEFAULT_SEED)


def test_verify_measure_and_trace_pass(perfbench):
    child, workloads = perfbench
    verify, seed = workloads.WORKLOADS["verify"], workloads.DEFAULT_SEED
    traced = child.trace(verify, seed, 0.0, os.devnull)
    for result in (child.measure(verify, seed), traced):
        assert result["errors"] == []
        assert result["failed"] == 0
    assert traced["metrics"]["oracle.objective.calls"] == 195
    assert traced["metrics"]["oracle.gradient.calls"] == 120
    # The oracle's 35 solves and the 300 steps of its telescoped-bound run,
    # whose probe is the one baseline solve.
    assert traced["metrics"]["editors.lyaplock.calls"] == 35 + 300
    assert traced["metrics"]["editors.baseline.calls"] == 1
