"""Independent verifiers: residuals, conjugate gradient, fuzzing, queue bounds."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapedit import (
    Dims,
    RunConfig,
    StreamSpec,
    oracle,
    run,
    solve_lyaplock,
)
from lyapedit.errors import InputError, OracleFailure
from lyapedit.oracle import (
    check_inequality_fuzz,
    check_sufficiency_empirical,
    closed_form_errors,
    minimize_iteratively,
    quadratic_objective,
    verify_normal_equations,
)

from conftest import build_instance


def explicit_objective(w, delta, k0, v0, k1, v1, kp=None, vp=None,
                       v_weight: float = 1.0, az: float = 1.0) -> float:
    """The per-step objective evaluated entirely from raw matrices.

    Retains nothing in Gram form, so it cross-checks the Gram path.
    """
    wd = np.asarray(w) + np.asarray(delta)
    el = float(np.sum((wd @ k1 - v1) ** 2))
    pl = float(np.sum((wd @ k0 - v0) ** 2))
    bl = 0.0 if kp is None else float(np.sum((wd @ kp - vp) ** 2))
    return v_weight * (el + bl) + az * pl


class TestVerifyNormalEquations:
    def test_solver_output_passes(self, make_instance):
        inst = make_instance(d0=6, d1=4, n=3, m0=30, absorbed=2, seed=10)
        residual, _ = closed_form_errors([(inst.mem, inst.bk, inst.batch, 0.9)])
        assert residual <= 1e-8

    def test_perturbed_delta_fails(self, make_instance):
        rng = np.random.default_rng(2)
        inst = make_instance(d0=6, d1=4, n=3, m0=30, absorbed=1, seed=11)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=0.9)
        noise = rng.standard_normal(report.delta.shape)
        noise *= 1e-2 * np.linalg.norm(report.delta) / np.linalg.norm(noise)
        residual = verify_normal_equations(inst.mem, inst.bk, inst.batch,
                                           1.0, 0.9, report.delta + noise)
        assert residual > 1e-4

    def test_zero_fixed_point_residual_is_zero(self):
        from lyapedit import BacklogAccumulator, EditBatch, new_memory
        mem = new_memory(np.zeros((2, 2)), np.eye(2))
        bk = BacklogAccumulator.empty(mem.dims)
        batch = EditBatch(k1=np.eye(2), v1=np.zeros((2, 2)))
        residual = verify_normal_equations(mem, bk, batch, 1.0, 1.0,
                                           np.zeros((2, 2)))
        assert residual == 0.0


class TestObjective:
    def test_matches_explicit_matrices(self, make_instance):
        inst = make_instance(d0=5, d1=4, n=3, m0=20, absorbed=3, seed=21)
        rng = np.random.default_rng(3)
        delta = rng.standard_normal(inst.mem.w.shape)
        via_grams = quadratic_objective(inst.mem, inst.bk, inst.batch,
                                        1.3, 0.4, delta)
        via_raw = explicit_objective(inst.mem.w, delta, inst.k0, inst.v0,
                                     inst.batch.k1, inst.batch.v1,
                                     kp=inst.kp, vp=inst.vp,
                                     v_weight=1.3, az=0.4)
        assert via_grams == pytest.approx(via_raw, rel=1e-8)


class TestMinimizeIteratively:
    def test_converges_to_scalar_hand_solution(self):
        from lyapedit import BacklogAccumulator, EditBatch, new_memory
        mem = new_memory(np.array([[0.0]]), np.array([[1.0]]))
        bk = BacklogAccumulator.empty(mem.dims)
        batch = EditBatch(k1=np.array([[1.0]]), v1=np.array([[2.0]]))
        delta, _ = minimize_iteratively(mem, bk, batch, 1.0, 1.0, steps=5000)
        assert delta == pytest.approx(np.array([[1.0]]), abs=1e-6)

    def test_closed_form_start_barely_improves(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, absorbed=1, seed=50)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=1.0)
        start = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, 1.0,
                                    report.delta)
        _, finish = minimize_iteratively(inst.mem, inst.bk, inst.batch, 1.0, 1.0,
                                         steps=1000, init=report.delta)
        assert start - finish <= 1e-9 * abs(start)

    def test_monotone_objective(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, seed=60)
        previous = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, 1.0,
                                       np.zeros_like(inst.mem.w))
        for steps in (1, 5, 20, 100):
            _, obj = minimize_iteratively(inst.mem, inst.bk, inst.batch, 1.0, 1.0,
                                          steps=steps)
            assert obj <= previous + 1e-12 * abs(previous)
            previous = obj

    def test_vanishing_edit_weight_tracks_preservation_minimizer(self, make_instance):
        from lyapedit import preservation_loss
        inst = make_instance(d0=4, d1=3, n=2, m0=16, seed=70)
        delta, _ = minimize_iteratively(inst.mem, inst.bk, inst.batch,
                                        v_weight=0.0, az=1.0, steps=5000)
        pl_iter = preservation_loss(inst.mem, inst.mem.w + delta)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                v_weight=1e-12, az=1.0)
        pl_closed = preservation_loss(inst.mem, inst.mem.w + report.delta)
        assert pl_iter <= pl_closed + 1e-6

    def test_rejects_bad_steps(self, make_instance):
        inst = make_instance()
        with pytest.raises(InputError):
            minimize_iteratively(inst.mem, inst.bk, inst.batch, 1.0, 1.0, steps=0)


@st.composite
def _shapes(draw):
    d0 = draw(st.integers(1, 8))
    return dict(d0=d0, d1=draw(st.integers(1, 6)), n=draw(st.integers(1, 4)),
                m0=draw(st.integers(d0, 64)), absorbed=draw(st.integers(0, 3)))


class TestConjugateGradient:
    def test_gradient_call_budget(self, make_instance, monkeypatch):
        d0 = 8
        inst = make_instance(d0=d0, d1=6, n=3, m0=32, absorbed=2, seed=80)
        calls = []
        real_gradient = oracle.objective_gradient

        def counting(*args, **kwargs):
            calls.append(None)
            return real_gradient(*args, **kwargs)

        monkeypatch.setattr(oracle, "objective_gradient", counting)
        _, iterated = minimize_iteratively(inst.mem, inst.bk, inst.batch, 1.0, 0.8)
        assert len(calls) <= 2 * d0 + 4
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=0.8)
        closed = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, 0.8,
                                     report.delta)
        assert iterated == pytest.approx(closed, rel=1e-12)

    def test_indefinite_objective_raises(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, absorbed=1, seed=90)
        with pytest.raises(OracleFailure):
            minimize_iteratively(inst.mem, inst.bk, inst.batch,
                                 v_weight=1e-3, az=-1.0)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(shape=_shapes(), seed=st.integers(0, 2**32 - 1),
           az=st.floats(0.1, 3.0))
    def test_agrees_with_closed_form(self, shape, seed, az):
        inst = build_instance(np.random.default_rng(seed), **shape)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=az)
        closed = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, az,
                                     report.delta)
        _, iterated = minimize_iteratively(inst.mem, inst.bk, inst.batch, 1.0, az)
        assert iterated <= closed + 1e-9 * abs(closed)
        assert closed <= iterated + 1e-9 * abs(iterated)


class TestInequalityFuzz:
    def test_zero_case(self):
        report = check_inequality_fuzz(1, seed=1, bounds=(0.0, 1e-12))
        assert report.passed

    def test_hand_case(self):
        # a=1, b=0, c=2, z=0: lhs = 0 <= rhs = 1 + 0 + 4 - 4 = 1.
        a, b, c, z = 1.0, 0.0, 2.0, 0.0
        lhs = max(a + b - c, z) ** 2
        rhs = a * a + b * b + c * c + 2 * a * (b - c) + z * z
        assert lhs <= rhs

    def test_large_fuzz_has_no_violations(self):
        report = check_inequality_fuzz(100_000, seed=2024)
        assert report.passed
        assert report.violations == 0
        assert report.counterexample is None

    def test_sample_count_validated(self):
        with pytest.raises(InputError):
            check_inequality_fuzz(0, seed=1)


class TestSufficiency:
    def _short_run(self, editor="lyaplock", total=200):
        spec = StreamSpec(dims=Dims(d0=12, d1=8), n_per_batch=3,
                          total_batches=total, key_scale=1.0,
                          value_mode="planted-teacher", teacher_drift=0.15,
                          seed=17, m0=48)
        return run(RunConfig(stream=spec, editor=editor, alpha=40.0))

    def test_lyaplock_run_passes(self):
        result = self._short_run()
        report = check_sufficiency_empirical(result.pl_history, result.z_history,
                                             result.params)
        assert report.telescoping_ok
        assert report.bound_ok
        assert report.measured_avg_pl <= report.implied_bound + 1e-9

    def test_baseline_run_bound_grows_but_holds(self):
        result = self._short_run(editor="baseline")
        report = check_sufficiency_empirical(result.pl_history, result.z_history,
                                             result.params)
        assert report.telescoping_ok
        assert report.bound_ok

    def test_boundary_run(self):
        from lyapedit import derive_params
        params = derive_params(4.0, 1.0)
        pl = np.full(100, params.d_threshold)
        z = np.full(101, params.z_init)
        report = check_sufficiency_empirical(pl, z, params)
        assert report.telescoping_ok
        assert report.measured_avg_pl == pytest.approx(params.d_threshold)
        assert report.implied_bound == pytest.approx(params.d_threshold)

    def test_run_level_epsilon_bound(self):
        # With epsilon read off the run itself as Z(T)/(a*T), the running
        # mean stays within D + epsilon + Z(1)/(a*T).
        result = self._short_run(total=400)
        params = result.params
        t = len(result.pl_history)
        eps = float(result.z_history[t - 1]) / (params.a * t)
        bound = (params.d_threshold + eps
                 + float(result.z_history[0]) / (params.a * t))
        assert float(np.mean(result.pl_history)) <= bound * (1 + 1e-12)

    def test_history_length_validated(self):
        from lyapedit import derive_params
        params = derive_params(4.0, 1.0)
        with pytest.raises(InputError):
            check_sufficiency_empirical(np.ones(5), np.ones(5), params)
