"""Independent verifiers: residuals, conjugate gradient, fuzzing, queue bounds."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapedit import (
    Dims,
    RunConfig,
    StreamSpec,
    harness,
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
from lyapedit.stream import _CHUNK_PAIRS, SplitMix64, derive_seed

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
        bk = BacklogAccumulator.empty(mem.w0)
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
        bk = BacklogAccumulator.empty(mem.w0)
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
        from reference import fro2
        inst = make_instance(d0=4, d1=3, n=2, m0=16, seed=70)
        delta, _ = minimize_iteratively(inst.mem, inst.bk, inst.batch,
                                        v_weight=0.0, az=1.0, steps=5000)
        # At the memory's own weights W = W0, PL of W + delta is ||delta K0||^2.
        pl_iter = fro2(delta @ inst.k0)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                v_weight=1e-12, az=1.0)
        pl_closed = fro2(report.delta @ inst.k0)
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

    @staticmethod
    def one_shot_draws(samples, seed):
        return SplitMix64(derive_seed(seed, 0xF022)).uniform(4 * samples).reshape(
            4, samples)

    @classmethod
    def one_shot_fuzz(cls, samples, seed, bounds=(0.0, 10.0)):
        """The fuzz with all its draws made at once."""
        lo, hi = bounds
        a, b, c, z = lo + (hi - lo) * cls.one_shot_draws(samples, seed)
        lhs = np.maximum(a + b - c, z) ** 2
        rhs = a * a + b * b + c * c + 2.0 * a * (b - c) + z * z
        bad = np.flatnonzero(lhs - rhs - 1e-9 * (1.0 + rhs) > 0.0)
        counterexample = None
        if bad.size:
            first = int(bad[0])
            counterexample = (float(a[first]), float(b[first]), float(c[first]),
                              float(z[first]))
        return oracle.FuzzReport(samples=samples, violations=int(bad.size),
                                 counterexample=counterexample)

    @pytest.mark.parametrize("samples", [1, _CHUNK_PAIRS - 1, _CHUNK_PAIRS,
                                         _CHUNK_PAIRS + 1, 3 * _CHUNK_PAIRS + 7])
    def test_chunks_are_the_one_shot_draws(self, samples):
        # Each chunk is written into the last one's buffer, so keep copies.
        chunks = [chunk.copy() for chunk in oracle._fuzz_uniforms(188, samples)]
        assert len(chunks) == -(-samples // _CHUNK_PAIRS)
        joined = np.concatenate(chunks, axis=1)
        assert joined.tobytes() == self.one_shot_draws(samples, 188).tobytes()
        for bounds in ((0.0, 10.0), (0.0, 1e-12), (2.0, 3.0)):
            assert (check_inequality_fuzz(samples, 188, bounds)
                    == self.one_shot_fuzz(samples, 188, bounds))

    def test_violations_count_across_chunks(self, monkeypatch):
        # A stricter predicate, so that there are violations to count.
        def above(a, b, c, z):
            return np.flatnonzero(a > 9.999)

        samples = 3 * _CHUNK_PAIRS + 7
        monkeypatch.setattr(oracle, "_square_bound_violations", above)
        report = check_inequality_fuzz(samples, 188)
        draws = 10.0 * self.one_shot_draws(samples, 188)
        bad = np.flatnonzero(draws[0] > 9.999)
        assert bad.size > 1
        assert report.violations == bad.size
        assert report.counterexample == tuple(float(x) for x in draws[:, bad[0]])

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (0.0, math.nan),
                                        (math.nan, 1.0), (-math.inf, 1.0)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(InputError, match="finite"):
            check_inequality_fuzz(10, 188, bounds)

    def test_overflowing_squares_are_violations(self):
        """At (0, 1e308) every square overflows: no sample checks anything."""
        report = check_inequality_fuzz(1000, 188, (0.0, 1e308))
        assert report.violations == 1000
        first = 1e308 * self.one_shot_draws(1000, 188)[:, 0]
        assert report.counterexample == tuple(float(x) for x in first)

    @pytest.mark.parametrize("seed", [0, 188])
    def test_finite_sides_are_judged_as_before(self, seed):
        """On finite sides the predicate is the plain comparison: the default
        fuzz is the one-shot fuzz, and on normal draws, whose signs let the
        bound fail, the violations are those of the comparison alone."""
        assert check_inequality_fuzz(100_000, seed) == self.one_shot_fuzz(100_000, seed)
        a, b, c, z = np.random.default_rng(seed).standard_normal((4, 1000))
        lhs = np.maximum(a + b - c, z) ** 2
        rhs = a * a + b * b + c * c + 2.0 * a * (b - c) + z * z
        plain = np.flatnonzero(lhs - rhs - 1e-9 * (1.0 + rhs) > 0.0)
        assert plain.size > 0
        assert oracle._square_bound_violations(a, b, c, z).tolist() == plain.tolist()

    def test_memory_is_bounded(self):
        check_inequality_fuzz(100_000, 188)
        tracemalloc.start()
        try:
            check_inequality_fuzz(100_000, 188)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20


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


class TestSuite:
    @staticmethod
    def results(checks):
        return [(name, *check()) for name, check in checks]

    @pytest.mark.parametrize("seed", [7, 188])
    def test_checks_do_not_depend_on_order(self, seed):
        in_order = self.results(oracle.suite(seed))
        assert self.results(reversed(oracle.suite(seed)))[::-1] == in_order
        # Each check alone, from a fresh suite.
        alone = [(name, *dict(oracle.suite(seed))[name]()) for name, _, _ in in_order]
        assert alone == in_order

    def test_verify_never_imports_numpy_random(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import lyapedit

        src = str(Path(lyapedit.__file__).resolve().parent.parent)
        probe = ("import contextlib, io, sys\n"
                 "import lyapedit.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    code = lyapedit.cli.main(['verify', '--seed', '188'])\n"
                 "print(code, 'numpy.random' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", probe],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["0", "False"]

    def test_scaled_solve_fails_normal_equations(self, monkeypatch):
        real = harness.solve_lyaplock

        def scaled(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, delta=report.delta * (1 + 1e-6))

        monkeypatch.setattr(harness, "solve_lyaplock", scaled)
        passed, detail = dict(oracle.suite(188))["normal-equations"]()
        assert not passed, detail

    @pytest.mark.parametrize("name,detail", [
        ("normal-equations", "worst relative residual nan"),
        ("closed-form-optimality", "worst objective excess nan")])
    def test_nan_solve_fails(self, monkeypatch, name, detail):
        real = harness.solve_lyaplock

        def nan(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, delta=np.full_like(report.delta, np.nan))

        monkeypatch.setattr(harness, "solve_lyaplock", nan)
        assert dict(oracle.suite(188))[name]() == (False, detail)

    def test_nan_gradient_fails_the_finite_difference_check(self, monkeypatch):
        real = oracle.objective_gradient

        def nan(*args):
            return np.full_like(real(*args), np.nan)

        monkeypatch.setattr(oracle, "objective_gradient", nan)
        assert (dict(oracle.suite(188))["gradient-finite-difference"]()
                == (False, "worst gradient mismatch nan"))

    def test_one_flipped_bit_fails_the_round_trip(self, monkeypatch):
        real, loads = oracle.load_matrix_file, []

        def flipping(path):
            matrix = real(path)
            loads.append(None)
            if len(loads) == 17:
                matrix.view(np.uint64)[0, 0] ^= np.uint64(1)
            return matrix

        monkeypatch.setattr(oracle, "load_matrix_file", flipping)
        passed, detail = dict(oracle.suite(188))["kvmx-round-trip"]()
        assert not passed
        assert detail == "round trip 16 diverged"
