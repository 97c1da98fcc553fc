"""Closed-form solvers: hand solutions, fixed points, and optimality checks."""
from __future__ import annotations

import numpy as np
import pytest

from lyapedit import (
    BacklogAccumulator,
    EditBatch,
    absorb,
    backlog_loss,
    editing_loss,
    new_memory,
    preservation_loss,
    solve_baseline,
    solve_edit_only,
    solve_lyaplock,
)
from lyapedit import editors
from lyapedit.errors import InputError, SingularSystemError
from lyapedit.oracle import quadratic_objective


def scalar_memory():
    """d0 = d1 = 1 memory with W(0) = 0, K0 = [1], hence V0 = [0]."""
    return new_memory(np.array([[0.0]]), np.array([[1.0]]))


def scalar_batch():
    return EditBatch(k1=np.array([[1.0]]), v1=np.array([[2.0]]))


def empty_backlog(mem):
    return BacklogAccumulator.empty(mem.dims)


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
        assert editing_loss(w_new, scalar_batch()) == pytest.approx(1.0)
        assert preservation_loss(mem, w_new) == pytest.approx(1.0)

    def test_residual_contract(self, make_instance):
        for i in range(10):
            inst = make_instance(d0=6, d1=4, n=3, m0=30, absorbed=i % 3, seed=100 + i)
            report = solve_lyaplock(inst.mem, inst.bk, inst.batch,
                                    v_weight=1.0, az=0.5)
            assert report.ridge_applied == 0.0
            assert report.residual <= 1e-8

    def test_beats_iterative_descent(self, make_instance):
        from lyapedit.oracle import minimize_iteratively
        inst = make_instance(d0=3, d1=2, n=2, m0=12, seed=77)
        report = solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=1.0)
        closed = quadratic_objective(inst.mem, inst.bk, inst.batch, 1.0, 1.0,
                                     report.delta)
        _, iterated = minimize_iteratively(inst.mem, inst.bk, inst.batch,
                                           1.0, 1.0, steps=10_000)
        assert closed <= iterated + 1e-6 * abs(iterated)

    def test_rejects_bad_weights(self, make_instance):
        inst = make_instance()
        with pytest.raises(InputError):
            solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=0.0, az=1.0)
        with pytest.raises(InputError):
            solve_lyaplock(inst.mem, inst.bk, inst.batch, v_weight=1.0, az=-0.1)

    def test_overflowing_system_raises(self):
        # A preservation weight large enough to overflow C is unsolvable.
        mem = new_memory(np.ones((2, 2)), np.eye(2))
        batch = EditBatch(k1=np.ones((2, 1)), v1=np.array([[3.0], [1.0]]))
        with pytest.raises(SingularSystemError):
            solve_lyaplock(mem, empty_backlog(mem), batch, v_weight=1.0,
                           az=1e308)

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
        from lyapedit import BacklogAccumulator, Dims
        mem = new_memory(rng.standard_normal((3, 5)), rng.standard_normal((5, 20)))
        b1 = EditBatch(k1=rng.standard_normal((5, 2)), v1=rng.standard_normal((3, 2)))
        b2 = EditBatch(k1=rng.standard_normal((5, 3)), v1=rng.standard_normal((3, 3)))
        split = BacklogAccumulator.empty(Dims(d0=5, d1=3))
        absorb(absorb(split, b1), b2)
        merged = BacklogAccumulator.empty(Dims(d0=5, d1=3))
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
            pls.append(preservation_loss(inst.mem, w_new))
            elbls.append(editing_loss(w_new, inst.batch)
                         + backlog_loss(w_new, inst.bk))
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

    def test_matches_lyaplock_special_case(self, make_instance):
        for i in range(8):
            inst = make_instance(d0=5, d1=3, n=2, m0=20, seed=400 + i)
            via_baseline = solve_baseline(inst.mem, inst.batch)
            via_lyaplock = solve_lyaplock(inst.mem, empty_backlog(inst.mem),
                                          inst.batch, v_weight=1.0, az=1.0)
            assert via_baseline.delta == pytest.approx(via_lyaplock.delta,
                                                       rel=1e-10, abs=1e-12)

    def test_closed_form_formula(self, make_instance):
        inst = make_instance(d0=4, d1=3, n=2, m0=16, seed=500)
        report = solve_baseline(inst.mem, inst.batch)
        w, k1, v1 = inst.mem.w, inst.batch.k1, inst.batch.v1
        explicit = (v1 - w @ k1) @ k1.T @ np.linalg.inv(inst.k0 @ inst.k0.T + k1 @ k1.T)
        assert report.delta == pytest.approx(explicit, rel=1e-8)


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
        assert editing_loss(mem.w + report.delta, scalar_batch()) == pytest.approx(0.0, abs=1e-30)

    def test_full_rank_fit_is_exact(self, make_instance):
        for i in range(6):
            inst = make_instance(d0=6, d1=4, n=3, m0=24, seed=600 + i)
            report = solve_edit_only(inst.mem, inst.batch)
            el = editing_loss(inst.mem.w + report.delta, inst.batch)
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
            fit = editing_loss(inst.mem.w + other, inst.batch)
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
def reference_ridge_attempts(matrix):
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
            yield lam, None, float("inf")
            continue
        anorm = float(np.linalg.norm(ridged, 1))
        rcond, info = pocon(factorization[0], anorm, uplo="L")
        cond = float("inf") if info != 0 or not (rcond > 0.0) else 1.0 / float(rcond)
        yield lam, (factorization if cond <= editors.CONDITION_LIMIT else None), cond


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


class TestDirectLapack:
    """The bound routines give the scipy wrappers' results bit for bit."""

    def solve_both(self, scipy_wrappers, *args):
        bound = editors._normal_solve(*args)
        scipy_wrappers()
        wrapped = editors._normal_solve(*args)
        same_report(bound[0], wrapped[0])
        assert bound[1].tobytes() == wrapped[1].tobytes()
        return bound[0]

    def test_random_systems(self, make_instance, scipy_wrappers):
        cases = [make_instance(d0=d0, d1=d1, n=n, m0=4 * d0, absorbed=a, seed=s)
                 for s, (d0, d1, n, a) in enumerate(
                     [(4, 3, 2, 0), (6, 4, 3, 2), (9, 7, 5, 1), (16, 12, 8, 3)] * 3)]
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
        report = self.solve_both(scipy_wrappers, w, c, target, rhs_full,
                                 lambda w_new: w_new @ c)
        scale = float(np.trace(c)) / dim
        assert report.ridge_applied == rung * scale

    def test_exhausted_ladder_raises_alike(self, rng, scipy_wrappers):
        dim = 5
        c = spd_with_spectrum(rng, [1.0, 2.0, 3.0, 4.0, -1e-3])
        w = rng.standard_normal((3, dim))
        target = rng.standard_normal((3, dim))
        args = (w, c, target, w @ c + target, lambda w_new: w_new @ c)
        with pytest.raises(SingularSystemError) as bound:
            editors._normal_solve(*args)
        scipy_wrappers()
        with pytest.raises(SingularSystemError) as wrapped:
            editors._normal_solve(*args)
        assert str(bound.value) == str(wrapped.value)
        assert bound.value.condition_estimate == wrapped.value.condition_estimate
