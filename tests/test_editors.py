"""Closed-form solvers: hand solutions, fixed points, and optimality checks."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyapedit import (
    BacklogAccumulator,
    Dims,
    EditBatch,
    EditStream,
    RunConfig,
    StreamSpec,
    absorb,
    new_memory,
    run,
    solve_baseline,
    solve_edit_only,
    solve_lyaplock,
)
from lyapedit import editors, lapack
from lyapedit.errors import InputError, SingularSystemError
from lyapedit.oracle import closed_form_errors, quadratic_objective
from reference import fro2


def scalar_memory():
    """d0 = d1 = 1 memory with W(0) = 0, K0 = [1], hence V0 = [0]."""
    return new_memory(np.array([[0.0]]), np.array([[1.0]]))


def scalar_batch():
    return EditBatch(k1=np.array([[1.0]]), v1=np.array([[2.0]]))


def empty_backlog(mem):
    return BacklogAccumulator.empty(mem.w0)


class TestSolveLyaplock:
    def test_zero_residual_fixed_point(self, make_instance):
        inst = make_instance(d0=5, d1=4, n=3, m0=20)
        batch = EditBatch(k1=inst.batch.k1, v1=inst.mem.w @ inst.batch.k1)
        report = solve_lyaplock(inst.mem, inst.bk, batch, v_weight=1.0, az=1.0)
        assert np.array_equal(report.delta, np.zeros_like(inst.mem.w))
        assert report.residual <= 1e-12
        assert report.ridge_applied == 0.0

    def test_scalar_hand_solution(self):
        mem = scalar_memory()
        report = solve_lyaplock(mem, empty_backlog(mem), scalar_batch(),
                                v_weight=1.0, az=1.0)
        assert report.delta == pytest.approx(np.array([[1.0]]))
        w_new = mem.w + report.delta
        batch = scalar_batch()
        assert fro2(w_new @ batch.k1 - batch.v1) == pytest.approx(1.0)
        # K0 = [1], so PL = ||(W - W0) K0||^2 = ||W - W0||^2.
        assert fro2(w_new - mem.w0) == pytest.approx(1.0)

    def test_residual_contract(self, make_instance):
        for i in range(10):
            inst = make_instance(d0=6, d1=4, n=3, m0=30, absorbed=i % 3, seed=100 + i)
            report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                    v_weight=1.0, az=0.5)
            assert report.ridge_applied == 0.0
            assert report.residual <= 1e-8

    def test_beats_iterative_descent(self, make_instance):
        inst = make_instance(d0=3, d1=2, n=2, m0=12, seed=77)
        _, excess = closed_form_errors([(inst.mem, inst.bk, inst.batch, 1.0)],
                                       cg_steps=10_000)
        assert excess <= 1e-6

    def test_rejects_bad_weights(self, make_instance):
        inst = make_instance()
        with pytest.raises(InputError):
            solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=0.0, az=1.0)
        with pytest.raises(InputError):
            solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=-0.1)

    def test_rejects_a_backlog_anchored_elsewhere(self, make_instance):
        # The backlog's sums of U0 K1^T are taken at its own W0.
        inst = make_instance(absorbed=1)
        other = BacklogAccumulator.empty(inst.mem.w0 + 1.0)
        with pytest.raises(InputError, match="anchored"):
            solve_lyaplock(inst.mem, other, inst.batch, v_weight=1.0, az=1.0)
        copied = BacklogAccumulator.empty(inst.mem.w0.copy())
        solve_lyaplock(inst.mem, copied, inst.batch, v_weight=1.0, az=1.0)

    def test_overflowing_system_raises(self):
        # A preservation weight large enough to overflow C is unsolvable:
        # az K0K0^T = 4e308 on the diagonal.
        mem = new_memory(np.ones((2, 2)), 2.0 * np.eye(2))
        batch = EditBatch(k1=np.ones((2, 1)), v1=np.array([[3.0], [1.0]]))
        with pytest.raises(SingularSystemError):
            solve_lyaplock(mem, empty_backlog(mem), batch, v_weight=1.0,
                           az=1e308)

    @pytest.mark.parametrize("az", [8e307, 1e308, 1.7e308])
    def test_finite_system_near_overflow_is_solved(self, az):
        # C = az I + K1 K1^T is finite for every az here.  In deviation
        # coordinates the right-hand side is the batch term U K1^T alone, so
        # the edit is the minimizer U K1^T C^-1, about 1/az, and no snap.
        mem = new_memory(np.ones((2, 2)), np.eye(2))
        batch = EditBatch(k1=np.ones((2, 1)), v1=np.array([[3.0], [1.0]]))
        report = solve_lyaplock(mem, empty_backlog(mem), batch, v_weight=1.0,
                                az=az)
        explicit = np.outer([1.0, -1.0], [1.0, 1.0]) / (az + 2.0)
        assert report.delta == pytest.approx(explicit, rel=1e-12, abs=0.0)
        assert report.ridge_applied == 0.0
        assert report.residual <= 1e-8

    def test_degenerate_zero_system_returns_zero(self):
        # With zero keys everywhere and az = 0 the objective does not depend
        # on the perturbation at all; the least-norm answer is zero.
        mem = new_memory(np.zeros((2, 2)), np.eye(2))
        batch = EditBatch(k1=np.zeros((2, 1)), v1=np.ones((2, 1)))
        report = solve_lyaplock(mem, empty_backlog(mem), batch,
                                v_weight=1.0, az=0.0)
        assert np.array_equal(report.delta, np.zeros((2, 2)))

    def test_ridge_escalation_records_lambda(self):
        # Duplicate key columns with az = 0: C is rank one, so only a ridged
        # factorization can succeed.
        mem = new_memory(np.zeros((2, 2)), np.eye(2))
        k = np.array([[1.0, 1.0], [0.0, 0.0]])
        batch = EditBatch(k1=k, v1=np.array([[1.0, 1.0], [0.0, 0.0]]))
        report = solve_lyaplock(mem, empty_backlog(mem), batch,
                                v_weight=1.0, az=0.0)
        assert report.ridge_applied > 0.0

    def test_stationarity_of_returned_delta(self, make_instance):
        rng = np.random.default_rng(9)
        for i in range(5):
            inst = make_instance(d0=5, d1=4, n=2, m0=25, absorbed=2, seed=300 + i)
            report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                    v_weight=1.0, az=0.8)
            base = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, 0.8,
                                       report.delta)
            for _ in range(10):
                noise = rng.standard_normal(report.delta.shape)
                noise *= 1e-4 * np.linalg.norm(report.delta) / np.linalg.norm(noise)
                perturbed = quadratic_objective(inst.mem, inst.bk, inst.batch,
                                                1.0, 0.8, report.delta + noise)
                assert perturbed >= base - 1e-9 * abs(base)

    def test_weight_scaling_equivariance(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, absorbed=1, seed=55)
        one = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=0.7)
        for c in (1e-3, 5.0, 1e4):
            scaled = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                    v_weight=c, az=0.7 * c)
            assert scaled.delta == pytest.approx(one.delta, rel=1e-10)

    def test_backlog_granularity_irrelevant(self, rng):
        # Absorbing two batches separately or as one concatenated batch gives
        # the same Grams, hence the same perturbation.
        mem = new_memory(rng.standard_normal((3, 5)), rng.standard_normal((5, 20)))
        b1 = EditBatch(k1=rng.standard_normal((5, 2)), v1=rng.standard_normal((3, 2)))
        b2 = EditBatch(k1=rng.standard_normal((5, 3)), v1=rng.standard_normal((3, 3)))
        split = BacklogAccumulator.empty(mem.w0)
        absorb(absorb(split, b1), b2)
        merged = BacklogAccumulator.empty(mem.w0)
        absorb(merged, EditBatch(k1=np.hstack([b1.k1, b2.k1]),
                                 v1=np.hstack([b1.v1, b2.v1])))
        batch = EditBatch(k1=rng.standard_normal((5, 2)),
                          v1=rng.standard_normal((3, 2)))
        one = solve_lyaplock(mem, split, batch, v_weight=1.0, az=0.6)
        two = solve_lyaplock(mem, merged, batch, v_weight=1.0, az=0.6)
        assert one.delta == pytest.approx(two.delta, rel=1e-10, abs=1e-14)

    def test_monotone_trade_off(self, make_instance):
        inst = make_instance(d0=6, d1=4, n=3, m0=24, absorbed=2, seed=91)
        pls, elbls = [], []
        for az in (0.05, 0.2, 1.0, 5.0, 25.0):
            report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                    v_weight=1.0, az=az)
            w_new = inst.mem.w + report.delta
            pls.append(fro2((w_new - inst.mem.w0) @ inst.k0))
            elbls.append(fro2(w_new @ inst.batch.k1 - inst.batch.v1)
                         + fro2(w_new @ inst.kp - inst.vp))
        for lo, hi in zip(pls[1:], pls[:-1]):
            assert lo <= hi + 1e-9
        for lo, hi in zip(elbls[:-1], elbls[1:]):
            assert lo <= hi + 1e-9


class TestSolveBaseline:
    def test_fixed_point(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=18)
        batch = EditBatch(k1=inst.batch.k1, v1=inst.mem.w @ inst.batch.k1)
        report = solve_baseline(inst.mem, batch)
        assert np.array_equal(report.delta, np.zeros_like(inst.mem.w))
        assert report.residual == 0.0

    def test_scalar_hand_solution(self):
        mem = scalar_memory()
        report = solve_baseline(mem, scalar_batch())
        # delta = (2 - 0) * 1 / (1 + 1)
        assert report.delta == pytest.approx(np.array([[1.0]]))

    def test_matches_lyaplock_special_case(self):
        """At W = W0, an empty backlog and v = a*Z = 1, baseline's corner is
        lyaplock's system: the same bits, one-shot and from a fresh carry,
        on the preserved Gram's factor and on the ridge ladder without it,
        for d0 in {5, 16, 64} on both value modes."""
        for d0 in (5, 16, 64):
            for value_mode in ("planted-teacher", "random-target"):
                spec = StreamSpec(dims=Dims(d0=d0, d1=3 * d0 // 4), n_per_batch=4,
                                  total_batches=3, key_scale=1.0,
                                  value_mode=value_mode, teacher_drift=0.1,
                                  seed=188, m0=4 * d0)
                self.same_bits_as_lyaplock(spec)

    @staticmethod
    def same_bits_as_lyaplock(spec):
        stream = EditStream(spec)
        with_factor = stream.preserved_memory()
        assert with_factor.k0_factor is not None
        for mem in (with_factor, replace(with_factor, k0_factor=None)):
            backlog = empty_backlog(mem)
            for t in range(1, spec.total_batches + 1):
                batch = stream.batch(t)
                for start in (lambda: None, lambda: editors.Carry.start(mem, backlog)):
                    same_report(solve_baseline(mem, batch, start()),
                                solve_lyaplock(mem, backlog, batch, 1.0, 1.0, start()))

    @pytest.mark.parametrize("exponent", [507, 508])
    def test_overflowing_trace_gets_a_finite_ridge(self, exponent):
        stream = EditStream(StreamSpec(
            dims=Dims(d0=16, d1=12), n_per_batch=4, total_batches=200, seed=7, m0=64,
            key_scale=2.0 ** exponent, value_mode="planted-teacher", teacher_drift=0.1))
        mem = stream.preserved_memory()
        assert solve_baseline(mem, stream.batch(1)).ridge_applied == 0.0

    def test_closed_form_formula(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, seed=500)
        report = solve_baseline(inst.mem, inst.batch)
        w, k1, v1 = inst.mem.w, inst.batch.k1, inst.batch.v1
        explicit = (v1 - w @ k1) @ k1.T @ np.linalg.inv(inst.k0 @ inst.k0.T + k1 @ k1.T)
        assert report.delta == pytest.approx(explicit, rel=1e-8)


def rotated_and_permuted(seed, d0=16, d1=12, n=4, m0=64, absorbed=3):
    """One instance at weights W != W0 with a non-empty backlog, the same
    instance with every key rotated, K -> Q K and W -> W Q^T, and the same
    instance with the batch columns permuted: (original, rotated, permuted, Q)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d0, d0)))
    w0 = rng.standard_normal((d1, d0))
    w = w0 + 0.1 * rng.standard_normal((d1, d0))
    k0 = rng.standard_normal((d0, m0))
    past = [(rng.standard_normal((d0, 2)), rng.standard_normal((d1, 2)))
            for _ in range(absorbed)]
    k1, v1 = rng.standard_normal((d0, n)), rng.standard_normal((d1, n))
    order = rng.permutation(n)

    def instance(rotation, columns):
        mem = new_memory(w0 @ rotation.T, rotation @ k0).with_weights(w @ rotation.T)
        bk = empty_backlog(mem)
        for k, v in past:
            absorb(bk, EditBatch(k1=rotation @ k, v1=v))
        batch = EditBatch(k1=(rotation @ k1)[:, columns], v1=v1[:, columns])
        return mem, bk, batch

    same = np.arange(n)
    return instance(np.eye(d0), same), instance(q, same), instance(np.eye(d0), order), q


# Each solver at a non-empty backlog and, for lyaplock, a*Z != 1.
METAMORPHIC_SOLVERS = {
    "lyaplock": lambda mem, bk, batch: solve_lyaplock(mem, bk, batch, 1.0, 0.7),
    "baseline": lambda mem, bk, batch: solve_baseline(mem, batch),
    "edit-only": lambda mem, bk, batch: solve_edit_only(mem, batch),
}


@pytest.mark.parametrize("editor", list(METAMORPHIC_SOLVERS))
def test_key_rotation_and_batch_permutation(editor):
    """Rotating the key space, K -> Q K and W -> W Q^T, rotates the edit to
    delta Q^T, and permuting the batch columns leaves it unchanged, each
    within 1e-12 relative.  Neither holds bit for bit: the rotated and
    permuted products round differently."""
    solve = METAMORPHIC_SOLVERS[editor]
    for seed in range(5):
        original, rotated, permuted, q = rotated_and_permuted(seed)
        delta = solve(*original).delta
        scale = np.linalg.norm(delta)
        assert scale > 0.0
        assert np.linalg.norm(solve(*rotated).delta - delta @ q.T) <= 1e-12 * scale
        assert np.linalg.norm(solve(*permuted).delta - delta) <= 1e-12 * scale


class TestSolveEditOnly:
    def test_fixed_point(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16)
        batch = EditBatch(k1=inst.batch.k1, v1=inst.mem.w @ inst.batch.k1)
        report = solve_edit_only(inst.mem, batch)
        assert np.array_equal(report.delta, np.zeros_like(inst.mem.w))

    def test_scalar_exact_interpolation(self):
        mem = scalar_memory()
        report = solve_edit_only(mem, scalar_batch())
        assert report.delta == pytest.approx(np.array([[2.0]]))
        batch = scalar_batch()
        fit = (mem.w + report.delta) @ batch.k1 - batch.v1
        assert fro2(fit) == pytest.approx(0.0, abs=1e-30)

    def test_full_rank_fit_is_exact(self, make_instance):
        for i in range(6):
            inst = make_instance(d0=6, d1=4, n=3, m0=24, seed=600 + i)
            report = solve_edit_only(inst.mem, inst.batch)
            el = fro2((inst.mem.w + report.delta) @ inst.batch.k1 - inst.batch.v1)
            assert el <= 1e-10 * float(np.sum(inst.batch.v1 ** 2))

    def test_minimum_norm_choice(self, make_instance):
        # Any other interpolant differs from the least-norm one by a matrix
        # whose rows are orthogonal to span(K1); adding such a component can
        # only grow the Frobenius norm.
        inst = make_instance(d0=5, d1=3, n=2, m0=20, seed=700)
        report = solve_edit_only(inst.mem, inst.batch)
        q, _ = np.linalg.qr(inst.batch.k1)
        null = np.eye(5) - q @ q.T
        rng = np.random.default_rng(1)
        for _ in range(5):
            other = report.delta + rng.standard_normal((3, 5)) @ null
            fit = fro2((inst.mem.w + other) @ inst.batch.k1 - inst.batch.v1)
            assert fit <= 1e-8 * float(np.sum(inst.batch.v1 ** 2))
            assert np.linalg.norm(other) >= np.linalg.norm(report.delta) - 1e-12

    def test_rank_deficient_keys_get_ridged(self):
        mem = new_memory(np.zeros((3, 3)), np.eye(3))
        k = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        v = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        report = solve_edit_only(mem, EditBatch(k1=k, v1=v))
        assert report.ridge_applied > 0.0

    def test_zero_keys_raise(self):
        mem = new_memory(np.zeros((2, 2)), np.eye(2))
        batch = EditBatch(k1=np.zeros((2, 2)), v1=np.ones((2, 2)))
        with pytest.raises(SingularSystemError):
            solve_edit_only(mem, batch)


# The scipy-wrapper forms of the factor, solve and norm helpers that the
# bound LAPACK/BLAS routines replaced, kept as the reference.
def reference_ridge_attempts(matrix, rebuild):
    from scipy.linalg import cho_factor, get_lapack_funcs
    dim = matrix.shape[0]
    scale = float(np.trace(matrix)) / dim
    (pocon,) = get_lapack_funcs(("pocon",), (matrix,))
    for factor_scale in (0.0,) + editors.RIDGE_LADDER:
        lam = factor_scale * scale
        ridged = matrix
        if lam > 0.0:
            ridged = matrix.copy()
            ridged.flat[:: dim + 1] += lam
        try:
            factorization = cho_factor(ridged, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            yield lam, None, float("inf"), scale
            continue
        anorm = float(np.linalg.norm(ridged, 1))
        rcond, info = pocon(factorization[0], anorm, uplo="L")
        cond = float("inf") if info != 0 or not (rcond > 0.0) else 1.0 / float(rcond)
        yield lam, (factorization if cond <= editors.CONDITION_LIMIT else None), cond, scale


def reference_cho_solve(factorization, b):
    from scipy.linalg import cho_solve
    return cho_solve(factorization, b, check_finite=False)


def reference_norm(x):
    import scipy.linalg
    return float(scipy.linalg.norm(x.ravel(), check_finite=False))


@pytest.fixture
def scipy_wrappers(monkeypatch):
    """Route the solvers through the scipy wrappers instead of bound LAPACK."""
    def use():
        monkeypatch.setattr(editors, "_ridge_attempts", reference_ridge_attempts)
        monkeypatch.setattr(editors, "_cho_solve", reference_cho_solve)
        monkeypatch.setattr(editors, "_norm", reference_norm)
    return use


def same_report(a, b):
    assert a.delta.tobytes() == b.delta.tobytes()
    for field in ("residual", "ridge_applied", "condition_estimate"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == y or (np.isnan(x) and np.isnan(y)), field


def spd_with_spectrum(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    c = (q * np.asarray(eigenvalues)) @ q.T
    return (c + c.T) * 0.5


def test_import_skips_the_scipy_linalg_package():
    """The LAPACK and BLAS modules load without ``scipy.linalg``'s import."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lyapedit

    src = str(Path(lyapedit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, lyapedit.cli; "
             "print(sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestDirectLapack:
    """The bound routines give the scipy wrappers' results bit for bit."""

    def solve_both(self, scipy_wrappers, w, c, *args):
        # _normal_solve factors the system matrix in place, and seeds the
        # kept factor it is given.
        bound = editors._normal_solve(w, c.copy, *args, editors._Kept())
        scipy_wrappers()
        wrapped = editors._normal_solve(w, c.copy, *args, editors._Kept())
        same_report(bound[0], wrapped[0])
        assert bound[1].tobytes() == wrapped[1].tobytes()
        return bound[0]

    def test_random_systems(self, make_instance, scipy_wrappers):
        cases = [make_instance(d0=d0, d1=d1, n=n, m0=4 * d0, absorbed=a, seed=s)
                 for s, (d0, d1, n, a) in enumerate(
                     [(4, 3, 2, 0), (6, 4, 3, 2), (9, 7, 5, 1), (16, 12, 8, 3)] * 3)]
        # The wrappers' ladder makes every factor; none is kept to start from.
        for inst in cases:
            inst.mem = replace(inst.mem, k0_factor=None)
        bound = []
        for i, inst in enumerate(cases):
            az = 0.5 + 0.25 * i
            bound.append((
                solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=az),
                solve_baseline(inst.mem, inst.batch),
                solve_edit_only(inst.mem, inst.batch)))
        scipy_wrappers()
        for i, inst in enumerate(cases):
            az = 0.5 + 0.25 * i
            wrapped = (
                solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=az),
                solve_baseline(inst.mem, inst.batch),
                solve_edit_only(inst.mem, inst.batch))
            for a, b in zip(bound[i], wrapped):
                same_report(a, b)

    # Smallest eigenvalue as a multiple of tr(C)/dim, and the rung it lands
    # on: indefinite matrices fail potrf until the ridge covers the deficit,
    # and the tiny positive one factors but fails the condition limit.
    @pytest.mark.parametrize("low,rung", [(1.0, 0.0), (1e-14, 1e-10),
                                          (-0.5e-10, 1e-10), (-0.5e-8, 1e-8),
                                          (-0.5e-6, 1e-6)])
    def test_each_ridge_rung(self, rng, scipy_wrappers, low, rung):
        dim = 6
        eigs = np.array([1.0, 2.0, 3.0, 1.5, 2.5, 0.0])
        eigs[-1] = low * eigs.sum() / (dim - 1)
        c = spd_with_spectrum(rng, eigs)
        w = rng.standard_normal((4, dim))
        target = rng.standard_normal((4, dim))
        rhs_full = w @ c + target
        report = self.solve_both(scipy_wrappers, w, c, target, np.eye(dim), None,
                                 rhs_full, lambda w_new, x: w_new @ c - rhs_full)
        scale = float(np.trace(c)) / dim
        assert report.ridge_applied == rung * scale

    def test_ridge_scale_survives_an_overflowing_trace(self):
        c = np.diag([1e308, 1e308, 1e308, 0.0])
        attempts = editors._ridge_attempts(c.copy(), c.copy)
        lam = next(lam for lam, factor, *_ in attempts if factor is not None)
        assert lam == 1e-10 * 0.75e308

    def test_exhausted_ladder_raises_alike(self, rng, scipy_wrappers):
        dim = 5
        c = spd_with_spectrum(rng, [1.0, 2.0, 3.0, 4.0, -1e-3])
        w = rng.standard_normal((3, dim))
        target = rng.standard_normal((3, dim))
        rhs_full = w @ c + target
        args = (target, np.eye(dim), None, rhs_full, lambda w_new, x: w_new @ c - rhs_full)
        with pytest.raises(SingularSystemError) as bound:
            editors._normal_solve(w, c.copy, *args, editors._Kept())
        scipy_wrappers()
        with pytest.raises(SingularSystemError) as wrapped:
            editors._normal_solve(w, c.copy, *args, editors._Kept())
        assert str(bound.value) == str(wrapped.value)
        assert bound.value.condition_estimate == wrapped.value.condition_estimate


class TestSwappedKernels:
    """``lange`` for the 1-norm, ``gemm`` for the absorbed batch Gram."""

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @example(d0=1024, n=8, seed=0)
    @given(d0=st.integers(1, 256), n=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_norm_and_absorbed_gram(self, d0, n, seed):
        """``lange`` is bit-identical; the ``gemm`` absorb agrees within rounding.

        The ``gemm`` sum is not bit-identical to numpy's ``g + k1 @ k1.T``
        (``syrk``) on most shapes, and is not exactly symmetric on some
        (OpenBLAS 0.3.31, Haswell kernels: d0 from 193 to 255 off multiples
        of 8).  Both differences stay within the rounding bound of a sum of
        n + 1 terms.
        """
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((d0, d0 + 3))
        bk = BacklogAccumulator.empty(np.zeros((1, d0)))
        bk.kp_gram = k @ k.T
        g = bk.kp_gram.copy()
        k1 = rng.standard_normal((d0, n))
        absorb(bk, EditBatch(k1=k1, v1=rng.standard_normal((1, n))))
        bound = (n + 1) * np.finfo(np.float64).eps * (np.abs(g) + np.abs(k1) @ np.abs(k1).T)
        assert np.all(np.abs(bk.kp_gram - (g + k1 @ k1.T)) <= bound)
        assert np.all(np.abs(bk.kp_gram - bk.kp_gram.T) <= bound)
        for c in (bk.kp_gram, k[:, :d0]):
            assert lapack._lange("I", c.T) == np.abs(c).sum(axis=0).max()

    @pytest.mark.parametrize("size", [1, 2, 1000, 786_432])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nrm2_is_not_finite_for_a_non_finite_entry(self, size, bad):
        # The solve reads its target's and RHS's finiteness from their norms.
        x = np.ones(size)
        for where in {0, size // 2, size - 1}:
            y = x.copy()
            y[where] = bad
            assert not np.isfinite(lapack._norm(y))
            assert editors._overflowed(y, lapack._norm(y))
        huge = np.full(4, 1.5e308)
        assert lapack._norm(huge) == np.inf
        assert not editors._overflowed(huge, lapack._norm(huge))


class TestRankNForm:
    def test_rejected_rank_n_step_solves_the_full_target(self, rng):
        dim = 6
        c = spd_with_spectrum(rng, [1.0, 2.0, 3.0, 1.5, 2.5, 4.0])
        w = rng.standard_normal((4, dim))
        u = rng.standard_normal((4, 2))
        k1 = rng.standard_normal((dim, 2))
        target = u @ k1.T
        rhs_full = w @ c + target
        dense = []

        def residual_at(w_new, x):
            dense.append(x is None)
            # The rank-n attempt reports a residual far above the target.
            return w_new @ c - rhs_full + (0.0 if x is None else 1.0)

        report, _ = editors._normal_solve(w, c.copy, u, k1, None,
                                             rhs_full, residual_at, editors._Kept())
        assert dense == [False, True]
        assert report.residual <= editors.RESIDUAL_TARGET
        assert report.delta == pytest.approx(np.linalg.solve(c, target.T).T, rel=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_add_outer_updates_in_place(self, rng, order):
        m = np.asarray(rng.standard_normal((5, 7)), order=order)
        u, y = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
        expected = m + u @ y.T
        editors.add_outer(m, u, y)
        assert m == pytest.approx(expected, rel=1e-14, abs=1e-14)


class TestNativeLayout:
    """``potrf`` gets Fortran-ordered matrices and reads one triangle of C."""

    SPEC = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8, total_batches=12,
                      key_scale=1.0, value_mode="planted-teacher",
                      teacher_drift=0.1, seed=188, m0=256)

    @pytest.fixture
    def potrf_layouts(self, monkeypatch):
        """Whether each matrix handed to ``potrf`` was F-contiguous."""
        seen, potrf = [], lapack._potrf

        def recording(a, *args, **kwargs):
            seen.append(a.flags.f_contiguous)
            return potrf(a, *args, **kwargs)

        # The solvers call potrf by editors' name for it; new_memory's factor
        # of the preserved Gram and the stream's check call lapack's.
        monkeypatch.setattr(editors, "_potrf", recording)
        monkeypatch.setattr(lapack, "_potrf", recording)
        return seen

    @pytest.mark.parametrize("editor", ["lyaplock", "baseline", "edit-only"])
    def test_every_factored_matrix_is_fortran_ordered(self, potrf_layouts, editor):
        run(RunConfig(stream=self.SPEC, editor=editor, alpha=60.0))
        # The preserved Gram, the d_base probe, and at least one per step.
        assert len(potrf_layouts) >= 2 + self.SPEC.total_batches
        assert all(potrf_layouts)

    def test_preserved_gram_is_factored_fortran_ordered(self, potrf_layouts):
        EditStream(self.SPEC).preserved_memory()
        assert potrf_layouts == [True]

    @pytest.mark.parametrize("rank_n", [True, False])
    def test_unread_triangle_leaves_the_edit_unchanged(self, rng, rank_n):
        dim, d1, n = 16, 12, 3
        k0 = rng.standard_normal((dim, 4 * dim))
        c = k0 @ k0.T
        w = rng.standard_normal((d1, dim))
        u = rng.standard_normal((d1, n))
        k1 = rng.standard_normal((dim, n))
        rest = None if rank_n else rng.standard_normal((d1, dim))
        rhs_full = w @ c + u @ k1.T + (0.0 if rest is None else rest)

        def solve(matrix):
            report, _ = editors._normal_solve(
                w, lambda: matrix, u, k1, None if rest is None else rest.copy(), rhs_full,
                lambda w_new, x: w_new @ c - rhs_full, editors._Kept())
            return report

        def bumped(rows_below):
            # potrf reads the lower triangle of the F-ordered view c.T, which
            # is the upper triangle of the C-ordered c.
            m = c.copy()
            tri = np.tril_indices(dim, -1) if rows_below else np.triu_indices(dim, 1)
            m[tri] = np.nextafter(m[tri], np.inf)
            return m

        plain = solve(c.copy())
        report = solve(bumped(rows_below=True))
        assert report.delta.tobytes() == plain.delta.tobytes()
        assert report.residual <= editors.RESIDUAL_TARGET
        # The triangle potrf does read moves the edit.
        assert solve(bumped(rows_below=False)).delta.tobytes() != plain.delta.tobytes()


class TestKeptFactor:
    """Lyaplock steps at an unchanged (v, az) solve by the kept factor; every
    other step refactors C, and the next unridged factor is kept.  Step 1 at
    az = 1 starts from the preserved Gram's factor, which a ``new_memory``
    memory carries."""

    # cap = max(n, d0 // 4) = 4: two kept steps on the preserved Gram's
    # factor, a full cap, then a factored step and two kept steps.
    SPEC = StreamSpec(dims=Dims(d0=16, d1=12), n_per_batch=2, total_batches=12,
                      key_scale=1.0, value_mode="planted-teacher",
                      teacher_drift=0.1, seed=188, m0=64)

    class Loop:
        """Steps one carry through the stream, as the run's loop does."""

        def __init__(self, spec):
            self.stream = EditStream(spec)
            self.mem = self.stream.preserved_memory()
            self.backlog = BacklogAccumulator.empty(self.mem.w0)
            self.carry = editors.Carry.start(self.mem, self.backlog)
            self.t, self.batch = 0, None

        def step(self, az, v=1.0):
            """Solve step t + 1, after absorbing step t's batch."""
            if self.batch is not None:
                absorb(self.backlog, self.batch)
                self.carry.absorbed(self.batch)
            self.t += 1
            self.batch = self.stream.batch(self.t)
            report = solve_lyaplock(self.mem, self.backlog, self.batch, v, az,
                                    self.carry)
            self.mem = self.mem.with_weights(self.mem.w0 + self.carry.d)
            return report

    @pytest.fixture
    def refactors(self, monkeypatch):
        """The number of d0 x d0 systems ``potrf`` factored, one count per
        call: Woodbury cores are at most 4 x 4 here."""
        factored = []

        def recording(a, *args, **kwargs):
            factored.append(a.shape[0] == self.SPEC.dims.d0)
            return lapack._potrf(a, *args, **kwargs)

        monkeypatch.setattr(editors, "_potrf", recording)

        def count(step):
            before = sum(factored)
            report = step()
            return sum(factored) - before, report
        return count

    def test_kept_steps_until_the_cap_is_full(self, refactors):
        loop = self.Loop(self.SPEC)
        counts = []
        for _ in range(7):
            n, report = refactors(lambda: loop.step(az=1.0))
            counts.append(n)
            assert report.ridge_applied == 0.0
            assert report.residual <= editors.RESIDUAL_TARGET
            assert report.condition_estimate <= editors.CONDITION_LIMIT
        assert counts == [0, 0, 1, 0, 0, 1, 0]

    def test_a_changed_weight_refactors(self, refactors):
        loop = self.Loop(self.SPEC)
        assert [refactors(lambda: loop.step(az=1.0))[0] for _ in range(2)] == [0, 0]
        assert refactors(lambda: loop.step(az=1.5))[0] == 1
        assert refactors(lambda: loop.step(az=1.5))[0] == 0
        # A run never changes v on a carry, but a factor made at another v
        # is dropped all the same.
        kept = loop.carry.kept
        kept.at(1.0, 1.5)
        assert kept.factor is not None
        kept.at(2.0, 1.5)
        assert kept.factor is None and not kept.keys and not kept.solves

    def test_a_changed_v_solves_as_a_fresh_carry(self, refactors):
        """A step at another v forms its full target: one factorization, no
        ridge, and the solve of a fresh carry."""
        loop = self.Loop(self.SPEC)
        for _ in range(2):
            loop.step(az=1.0)
        mem = loop.mem
        n, report = refactors(lambda: loop.step(az=1.0, v=2.0))
        assert n == 1 and report.ridge_applied == 0.0
        # The loop absorbed step 2's batch before it solved step 3.
        fresh = solve_lyaplock(mem, loop.backlog, loop.batch, 2.0, 1.0)
        gap = np.linalg.norm(report.delta - fresh.delta)
        assert gap <= 1e-10 * np.linalg.norm(fresh.delta)

    def test_step_one_and_the_probe_factor_nothing(self, refactors):
        """Baseline's C is K0K0^T with its batch pending, and so is a
        lyaplock step at an empty backlog and az = 1: both solve by the
        preserved Gram's factor, which a carry copy shares."""
        mem = EditStream(self.SPEC).preserved_memory()
        batch = EditStream(self.SPEC).batch(1)
        backlog = BacklogAccumulator.empty(mem.w0)
        for solve in (lambda: solve_baseline(mem, batch),
                      lambda: solve_lyaplock(mem, backlog, batch, 1.0, 1.0),
                      lambda: solve_lyaplock(mem, backlog, batch, 2.0, 1.0)):
            n, report = refactors(solve)
            assert n == 0 and report.ridge_applied == 0.0
            assert report.residual <= editors.RESIDUAL_TARGET
        # At another az, or without the factor, C is factored.
        assert refactors(lambda: solve_lyaplock(mem, backlog, batch, 1.0, 1.5))[0] == 1
        assert refactors(lambda: solve_baseline(replace(mem, k0_factor=None),
                                                batch))[0] == 1
        carry = editors.Carry.start(mem, backlog)
        solve_lyaplock(mem, backlog, batch, 1.0, 1.0, carry)
        assert carry.copy().kept.factor[0] is mem.k0_factor[0][0]

    def test_a_memory_without_the_factor_solves_as_the_ladder(self, refactors):
        """A memory without the factor factors C on every solve, with the
        same bits whether ``new_memory`` or ``preserved_memory`` built it."""
        stream = EditStream(self.SPEC)
        with_factor = stream.preserved_memory()
        plain = replace(new_memory(*stream.generate_preserved()), k0_factor=None)
        assert plain.k0_gram.tobytes() == with_factor.k0_gram.tobytes()
        batch = stream.batch(1)

        def deltas(mem):
            backlog = BacklogAccumulator.empty(mem.w0)
            counted = [refactors(lambda: solve_baseline(mem, batch)),
                       refactors(lambda: solve_lyaplock(mem, backlog, batch, 1.0, 1.0))]
            assert [n for n, _ in counted] == [1, 1]
            return [report.delta.tobytes() for _, report in counted]

        assert deltas(plain) == deltas(replace(with_factor, k0_factor=None))

    def test_a_ridged_step_keeps_no_factor(self, refactors, monkeypatch):
        loop = self.Loop(self.SPEC)
        assert [refactors(lambda: loop.step(az=1.0))[0] for _ in range(2)] == [0, 0]
        # No unridged attempt can meet a residual target of 0.
        with monkeypatch.context() as patch:
            patch.setattr(editors, "RESIDUAL_TARGET", 0.0)
            n, report = refactors(lambda: loop.step(az=1.0))
        assert n >= 2 and report.ridge_applied > 0.0
        assert loop.carry.kept.factor is None
        assert refactors(lambda: loop.step(az=1.0))[0] == 1
        assert refactors(lambda: loop.step(az=1.0))[0] == 0

    def test_a_kept_miss_refactors_and_recomputes_the_products(self, refactors,
                                                               monkeypatch):
        """The kept attempt has moved the products; the fallback must not move
        them a second time by a rank-n update."""
        original, drifts = editors._Kept.solve, []

        def off(kept, k1):
            solved = original(kept, k1)
            return None if solved is None else (solved[0] * (1.0 + 1e-4), solved[1])

        original_drifted = editors._drifted

        def drifted(*args):
            drifts.append(original_drifted(*args))
            return drifts[-1]

        monkeypatch.setattr(editors, "_drifted", drifted)
        loop = self.Loop(self.SPEC)
        assert refactors(lambda: loop.step(az=1.0))[0] == 0
        monkeypatch.setattr(editors._Kept, "solve", off)
        for _ in range(2):
            n, report = refactors(lambda: loop.step(az=1.0))
            assert n == 1
            assert report.ridge_applied == 0.0
            assert report.residual <= editors.RESIDUAL_TARGET
            carry, d = loop.carry, loop.carry.d
            assert np.array_equal(carry.e0, d @ loop.mem.k0_gram)
            assert np.array_equal(carry.ep, d @ loop.backlog.kp_gram)
        assert drifts and not any(drifts)
