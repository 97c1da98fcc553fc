"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The acceptance stream is pinned: planted-teacher with d0=64, d1=48,
n=8, m0=2048, drift 0.1, seed 188.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from lyapedit import (
    Dims,
    RunConfig,
    StreamSpec,
    derive_params,
    run,
    sweep_alpha,
)
from lyapedit.cli import main
from lyapedit.oracle import (
    check_inequality_fuzz,
    check_sufficiency_empirical,
    closed_form_errors,
    gradient_mismatch,
    kvmx_round_trip_failures,
)

ACCEPTANCE_STREAM = StreamSpec(
    dims=Dims(d0=64, d1=48),
    n_per_batch=8,
    total_batches=2000,
    key_scale=1.0,
    value_mode="planted-teacher",
    teacher_drift=0.1,
    seed=188,
    m0=2048,
)
ACCEPTANCE_CONFIG = RunConfig(stream=ACCEPTANCE_STREAM, editor="lyaplock",
                              alpha=60.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def lyaplock_run():
    started = time.perf_counter()
    result = run(ACCEPTANCE_CONFIG)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def baseline_run():
    config = replace(ACCEPTANCE_CONFIG, editor="baseline",
                     stream=replace(ACCEPTANCE_STREAM, total_batches=500))
    return run(config)


@pytest.fixture(scope="module")
def edit_only_run():
    config = replace(ACCEPTANCE_CONFIG, editor="edit-only",
                     stream=replace(ACCEPTANCE_STREAM, total_batches=300))
    return run(config)


@pytest.fixture(scope="module")
def alpha_sweep():
    started = time.perf_counter()
    rows = sweep_alpha(ACCEPTANCE_CONFIG, [20.0, 60.0, 100.0])
    return rows, time.perf_counter() - started


def test_criterion_1_constraint_satisfaction(lyaplock_run):
    result, elapsed = lyaplock_run
    d = result.params.d_threshold
    steps = np.arange(1, result.config.stream.total_batches + 1)
    running_avg = np.cumsum(result.pl_history) / steps
    worst = float((running_avg[50:] / d).max())
    stability = result.summary.stability
    budget = 0.01 * result.params.z_init
    ok = worst <= 1.05 and stability < budget and elapsed <= 120.0
    report(
        "criterion-1 constraint satisfaction", ok,
        f"max avg_pl/D after t=50 is {worst:.4f} (<= 1.05), "
        f"Z(T)/T = {stability:.5f} (< {budget:.5f}), runtime {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_2_baseline_accumulation(baseline_run, lyaplock_run):
    result = baseline_run
    d = lyaplock_run[0].params.d_threshold
    assert result.params.d_threshold == d  # same stream, same probe
    steps = np.arange(1, 501)
    rho = float(spearmanr(steps, result.pl_history).statistic)
    final_avg = result.summary.final_avg_pl
    ok = rho > 0.95 and final_avg > 2.0 * d
    report(
        "criterion-2 baseline accumulation", ok,
        f"spearman(t, PL) = {rho:.4f} (> 0.95), "
        f"final avg PL = {final_avg:.1f} vs 2D = {2 * d:.1f}",
    )


def test_criterion_3_closed_form_optimality(make_instance):
    started = time.perf_counter()
    rng = np.random.default_rng(303)

    def instances():
        for i in range(200):
            d0 = int(rng.integers(2, 9))
            d1 = int(rng.integers(2, 7))
            n = int(rng.integers(1, 5))
            m0 = int(rng.integers(d0, 65))
            inst = make_instance(d0=d0, d1=d1, n=n, m0=m0,
                                 absorbed=int(rng.integers(0, 4)), seed=9000 + i)
            yield inst.mem, inst.bk, inst.batch, float(rng.uniform(0.1, 3.0))

    worst_residual, worst_excess = closed_form_errors(instances(), cg_steps=1200)
    elapsed = time.perf_counter() - started
    ok = worst_residual <= 1e-8 and worst_excess <= 1e-6 and elapsed <= 30.0
    report(
        "criterion-3 closed-form optimality", ok,
        f"200 instances: worst residual {worst_residual:.2e} (<= 1e-8), "
        f"worst objective excess {worst_excess:.2e} (<= 1e-6), "
        f"runtime {elapsed:.1f}s (<= 30s)",
    )


def test_criterion_4_inequality_fuzz():
    started = time.perf_counter()
    fuzz = check_inequality_fuzz(100_000, seed=44)
    elapsed = time.perf_counter() - started
    ok = fuzz.passed and elapsed <= 5.0
    report(
        "criterion-4 queue inequality fuzz", ok,
        f"{fuzz.samples} quadruples, {fuzz.violations} violations, "
        f"runtime {elapsed:.2f}s (<= 5s)",
    )


def test_criterion_5_telescoping_bound(lyaplock_run, baseline_run, edit_only_run):
    details = []
    ok = True
    for name, result in (("lyaplock", lyaplock_run[0]),
                         ("baseline", baseline_run),
                         ("edit-only", edit_only_run)):
        checked = check_sufficiency_empirical(result.pl_history,
                                              result.z_history, result.params)
        ok = ok and checked.telescoping_ok and checked.bound_ok
        details.append(
            f"{name}: avg PL {checked.measured_avg_pl:.2f} <= "
            f"bound {checked.implied_bound:.2f}"
        )
    report("criterion-5 telescoped queue bound", ok, "; ".join(details))


def test_criterion_6_schedule_exactness():
    checks = []
    for alpha, d_base in ((60.0, 1.0), (60.0, 7.3), (20.0, 0.04), (100.0, 55.5)):
        params = derive_params(alpha, d_base)
        d = alpha * d_base
        checks.extend([
            abs(params.d_threshold - d) <= 1e-12 * d,
            abs(params.a - 1.0 / np.sqrt(d)) <= 1e-12 * params.a,
            params.b == 0.0,
            abs(params.z_init - np.sqrt(d)) <= 1e-12 * params.z_init,
            params.z_max == params.z_init,
            params.v_weight == 1.0,
            abs(params.a * params.z_init - 1.0) <= 1e-12,
        ])
    ok = all(checks)
    report("criterion-6 schedule exactness", ok,
           f"{len(checks)} equalities at rel 1e-12, a*z_init = 1")


def test_criterion_7_alpha_sweep_direction(alpha_sweep):
    rows, elapsed = alpha_sweep
    els = [row.final_avg_el for row in rows]
    pls = [row.final_avg_pl for row in rows]
    el_inversions = sum(1 for lo, hi in zip(els, els[1:]) if hi > lo)
    pl_inversions = sum(1 for lo, hi in zip(pls, pls[1:]) if hi < lo)
    ok = el_inversions <= 1 and pl_inversions <= 1 and elapsed <= 360.0
    report(
        "criterion-7 alpha sweep direction", ok,
        f"avg_el {els[0]:.2f}/{els[1]:.2f}/{els[2]:.2f} "
        f"({el_inversions} inversions), "
        f"avg_pl {pls[0]:.1f}/{pls[1]:.1f}/{pls[2]:.1f} "
        f"({pl_inversions} inversions), runtime {elapsed:.1f}s (<= 360s)",
    )


def test_criterion_8_determinism_and_formats(tmp_path):
    config_text = (
        "dims.d0 = 16\ndims.d1 = 12\nstream.n_per_batch = 4\n"
        "stream.total_batches = 60\nstream.seed = 2024\nstream.m0 = 64\n"
        "stream.teacher_drift = 0.1\nalpha = 60\neditor = lyaplock\n"
        "record_every = 3\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(["simulate", "--config", str(cfg), "--out", str(out_a), "--quiet"])
    code_b = main(["simulate", "--config", str(cfg), "--out", str(out_b), "--quiet"])
    identical = out_a.read_bytes() == out_b.read_bytes()

    exact = 1000 - len(kvmx_round_trip_failures(1000, 88, max_side=16))
    ok = code_a == 0 and code_b == 0 and identical and exact == 1000
    report(
        "criterion-8 determinism and formats", ok,
        f"CSV reruns byte-identical: {identical}; "
        f"KVMX round trips bit-exact: {exact}/1000",
    )


def test_criterion_9_gradient_check(make_instance):
    def cases():
        for i in range(20):
            inst = make_instance(d0=3, d1=4, n=2, m0=12,
                                 absorbed=int(i % 3), seed=7000 + i)
            rng = np.random.default_rng(7100 + i)
            delta = 0.2 * rng.standard_normal((4, 3))
            yield inst.mem, inst.bk, inst.batch, float(rng.uniform(0.2, 2.0)), delta

    worst = gradient_mismatch(cases())
    ok = worst <= 1e-5
    report("criterion-9 gradient vs finite differences", ok,
           f"20 instances of shape 4x3, worst relative mismatch {worst:.2e} (<= 1e-5)")
