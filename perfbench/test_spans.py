"""Tests of the benchmark's tracer and per-layer arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import sys
import threading
import types
from pathlib import Path

import pytest

import layers
from spans import Span, Target, Tracer, self_times

HERE = Path(__file__).resolve().parent


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0, False, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "harness.run", 0.0, 10.0),
        _span(1, "editors.lyaplock", 1.0, 4.0, parent=0),
        _span(2, "memory.pl", 3.0, 6.0, parent=0),    # overlaps its sibling
        _span(3, "memory.el", 9.0, 12.0, parent=0),   # runs past its parent
        _span(4, "stream.batch", 2.0, 3.5, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.5)


def test_layer_shares_add_up_to_the_root():
    spans = [
        _span(0, "harness.run", 0.0, 10.0),
        _span(1, "editors.lyaplock", 1.0, 4.0, parent=0),
        _span(2, "memory.pl", 5.0, 6.0, parent=0),
    ]
    m = layers.layer_metrics(spans, walls=[10.0])
    assert m["editors.self_frac"] == pytest.approx(0.3)
    assert m["memory.self_frac"] == pytest.approx(0.1)
    assert m["harness.self_frac"] == pytest.approx(0.6)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)
    assert m["editors.lyaplock.calls"] == 1
    assert m["editors.lyaplock.ms_p50"] == pytest.approx(3000.0)
    assert m["editors.lyaplock.ms_p99"] == 0.0  # fewer than P99_MIN_CALLS samples


def test_counts_are_per_call_and_percentiles_pool_calls():
    spans = [
        Span(sid, "stream.batch", float(sid), sid + 0.5, None, run, False, (188, t))
        for sid, (run, t) in enumerate([(0, 1), (0, 1), (0, 2), (1, 1), (1, 1), (1, 2)])
    ]
    m = layers.layer_metrics(spans, walls=[3.0, 3.0])
    assert m["stream.batch.calls"] == 3
    assert m["stream.batch.unique_frac"] == pytest.approx(2 / 3)
    assert m["stream.batch.ms_p50"] == pytest.approx(500.0)


def _fake_module(monkeypatch):
    module = types.ModuleType("fake_lyapedit_layer")
    sentinel = object()
    error = ValueError("bad input")

    def returns(x, *, y):
        return (x, y, sentinel)

    def raises():
        raise error

    module.returns, module.raises = returns, raises
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module, sentinel, error


def test_wrappers_pass_results_and_exceptions_through(monkeypatch):
    module, sentinel, error = _fake_module(monkeypatch)
    originals = (module.returns, module.raises)
    tracer = Tracer()
    targets = (Target(module.__name__, "returns", "memory.pl"),
               Target(module.__name__, "raises", "editors.lyaplock"))
    with tracer.installed(targets):
        assert module.returns(1, y=2)[2] is sentinel
        with pytest.raises(ValueError) as caught:
            module.raises()
        assert caught.value is error
    assert (module.returns, module.raises) == originals
    assert [(s.name, s.failed, s.parent) for s in tracer.spans] == [
        ("memory.pl", False, None), ("editors.lyaplock", True, None)]


def test_nested_calls_take_their_caller_as_parent_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "memory.el")

    def outer():
        inner()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap(outer, "harness.run")()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["harness.run"]
    parents = sorted(s.parent is None for s in by_name["memory.el"])
    assert parents == [False, True]  # the worker thread's call has no parent
    assert any(s.parent == root.sid for s in by_name["memory.el"])


def test_missing_target_reads_as_a_zero_count_layer(monkeypatch):
    module, _, _ = _fake_module(monkeypatch)
    tracer = Tracer()
    targets = (Target(module.__name__, "returns", "memory.pl"),
               Target(module.__name__, "solve_edit_only", "editors.edit_only"),
               Target("no_such_module_here", "run", "harness.run"))
    with pytest.warns(UserWarning) as warned:
        with tracer.installed(targets):
            module.returns(0, y=0)
    assert tracer.missing == [f"{module.__name__}.solve_edit_only",
                              "no_such_module_here.run"]
    assert [str(w.message).split()[0] for w in warned] == tracer.missing
    m = layers.layer_metrics(tracer.spans, walls=[1.0])
    assert m["editors.edit_only.calls"] == 0
    assert m["editors.edit_only.ms_p50"] == 0.0
    assert m["memory.pl.calls"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.METRIC_UNITS
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
