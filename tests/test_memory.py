"""Gram-form state and the step loop's loss kernels against explicit-matrix
oracles."""
from __future__ import annotations

import numpy as np
import pytest

from lyapedit import (
    BacklogAccumulator,
    Dims,
    EditBatch,
    absorb,
    new_memory,
)
from lyapedit.errors import (
    DimensionMismatchError,
    InputError,
    NonFiniteError,
    NumericalInstabilityError,
)
from lyapedit.memory import _psd_loss, fit_loss, gram_loss


def loop_pl(mem, w):
    """The loop's PL kernel at weights ``w``: <D K0K0^T, D>, D = W - W0."""
    d = w - mem.w0
    return _psd_loss(d @ mem.k0_gram, d)


def loop_el(w, batch):
    """The loop's EL kernel on the residual W K1 - V1."""
    return fit_loss(w @ batch.k1 - batch.v1)


def loop_bl(w, bk):
    """The loop's BL kernel: the Gram form in D = W - W0 against the
    backlog's sums anchored at W0."""
    d = w - bk.w0
    return gram_loss(d, d @ bk.kp_gram, bk.u0kpt, bk.tr_u0u0)


def test_dims_must_be_positive():
    with pytest.raises(InputError):
        Dims(d0=0, d1=3)
    with pytest.raises(InputError):
        Dims(d0=3, d1=-1)


class TestNewMemory:
    def test_zero_weights(self):
        # V0 = 0, so PL(W) = ||W K0||^2; at W = I that is ||K0||^2 = 15.
        mem = new_memory(np.zeros((2, 2)), np.array([[1.0, 3.0], [2.0, -1.0]]))
        assert loop_pl(mem, mem.w0) == 0.0
        assert loop_pl(mem, np.eye(2)) == 15.0

    def test_identity_case(self):
        mem = new_memory(np.eye(2), np.eye(2))
        assert np.array_equal(mem.k0_gram, np.eye(2))
        # PL(0) = ||V0||^2 = ||I||^2.
        assert loop_pl(mem, np.zeros((2, 2))) == 2.0

    def test_trace_matches_explicit_frobenius(self, rng):
        # PL(0) is tr(V0 V0^T) = ||W0 K0||^2, with V0 = W0 K0.
        w0 = rng.standard_normal((4, 3))
        k0 = rng.standard_normal((3, 64))
        mem = new_memory(w0, k0)
        explicit = float(np.sum((w0 @ k0) ** 2))
        assert loop_pl(mem, np.zeros((4, 3))) == pytest.approx(explicit,
                                                                       rel=1e-10)

    def test_raw_keys_not_retained(self, rng):
        mem = new_memory(rng.standard_normal((2, 3)), rng.standard_normal((3, 50)))
        assert mem.k0_gram.shape == (3, 3)
        assert not any(
            getattr(mem, field).shape[-1] == 50
            for field in ("k0_gram", "w", "w0")
        )

    def test_dimension_mismatch_names_axis(self):
        with pytest.raises(DimensionMismatchError, match="rows"):
            new_memory(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_non_finite_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(NonFiniteError):
            new_memory(bad, np.eye(2))

    def test_gram_symmetric_psd(self, rng):
        mem = new_memory(rng.standard_normal((3, 5)), rng.standard_normal((5, 40)))
        asym = np.max(np.abs(mem.k0_gram - mem.k0_gram.T))
        assert asym <= 1e-12
        eigs = np.linalg.eigvalsh(mem.k0_gram)
        assert eigs.min() >= -1e-9 * np.linalg.norm(mem.k0_gram)


class TestPreservationLoss:
    def test_original_weights_are_lossless(self, rng):
        mem = new_memory(rng.standard_normal((6, 8)), rng.standard_normal((8, 30)))
        assert loop_pl(mem, mem.w0) == 0.0

    def test_scalar_arithmetic(self):
        mem = new_memory(np.array([[0.0]]), np.array([[1.0]]))
        assert loop_pl(mem, np.array([[2.0]])) == pytest.approx(4.0)

    def test_gram_equals_explicit(self, rng):
        w0 = rng.standard_normal((6, 8))
        k0 = rng.standard_normal((8, 128))
        mem = new_memory(w0, k0)
        w = rng.standard_normal((6, 8))
        explicit = float(np.sum((w @ k0 - w0 @ k0) ** 2))
        assert loop_pl(mem, w) == pytest.approx(explicit, rel=1e-8)

    @pytest.mark.parametrize("d0,d1,m0", [(16, 16, 256), (16, 4, 256),
                                          (3, 16, 200), (16, 16, 16)])
    def test_gram_explicit_equivalence_across_shapes(self, rng, d0, d1, m0):
        w0 = rng.standard_normal((d1, d0))
        k0 = rng.standard_normal((d0, m0))
        mem = new_memory(w0, k0)
        for _ in range(5):
            w = rng.standard_normal((d1, d0))
            explicit = float(np.sum((w @ k0 - w0 @ k0) ** 2))
            assert loop_pl(mem, w) == pytest.approx(explicit, rel=1e-8)

    def test_translation_sensitivity(self, rng):
        mem = new_memory(rng.standard_normal((4, 6)), rng.standard_normal((6, 24)))
        eig_min = float(np.linalg.eigvalsh(mem.k0_gram).min())
        assert eig_min > 0
        perturbation = rng.standard_normal((4, 6))
        loss = loop_pl(mem, mem.w0 + perturbation)
        assert loss >= eig_min * float(np.sum(perturbation ** 2)) * (1 - 1e-9)
        assert loss > 0

    def test_deviation_form_keeps_its_digits_at_small_drift(self, rng):
        # The loss is formed in D = W - W0: a deviation 1e-9 of W0's scale
        # keeps its digits, where a form against tr(V0 V0^T) would keep few.
        w0 = rng.standard_normal((6, 8))
        k0 = rng.standard_normal((8, 64))
        mem = new_memory(w0, k0)
        d = np.ldexp(rng.standard_normal((6, 8)), -30)
        w = w0 + d
        explicit = float(np.sum(((w - w0) @ k0) ** 2))
        assert loop_pl(mem, w) == pytest.approx(explicit, rel=1e-12)


class TestEditingLoss:
    def test_satisfied_edit(self, rng):
        w = rng.standard_normal((3, 4))
        k1 = rng.standard_normal((4, 2))
        batch = EditBatch(k1=k1, v1=w @ k1)
        assert loop_el(w, batch) == 0.0

    def test_scalar_arithmetic(self):
        batch = EditBatch(k1=np.array([[1.0]]), v1=np.array([[2.0]]))
        assert loop_el(np.array([[0.0]]), batch) == pytest.approx(4.0)

    def test_matches_naive_double_loop(self, rng):
        w = rng.standard_normal((4, 3))
        batch = EditBatch(k1=rng.standard_normal((3, 5)),
                          v1=rng.standard_normal((4, 5)))
        total = 0.0
        for i in range(4):
            for j in range(5):
                total += (float(w[i] @ batch.k1[:, j]) - batch.v1[i, j]) ** 2
        assert loop_el(w, batch) == pytest.approx(total, rel=1e-12)


class TestBacklog:
    def test_empty_backlog_is_zero(self, rng):
        bk = BacklogAccumulator.empty(np.zeros((2, 3)))
        assert loop_bl(rng.standard_normal((2, 3)), bk) == 0.0
        assert np.array_equal(bk.kp_gram, np.zeros((3, 3)))
        assert bk.tr_u0u0 == 0.0

    def test_single_batch_equals_editing_loss(self, rng):
        bk = BacklogAccumulator.empty(rng.standard_normal((3, 4)))
        batch = EditBatch(k1=rng.standard_normal((4, 3)),
                          v1=rng.standard_normal((3, 3)))
        absorb(bk, batch)
        w = rng.standard_normal((3, 4))
        assert loop_bl(w, bk) == pytest.approx(loop_el(w, batch),
                                                    rel=1e-10)

    def test_satisfied_backlog(self, rng):
        w = rng.standard_normal((3, 4))
        k1 = rng.standard_normal((4, 2))
        bk = BacklogAccumulator.empty(np.zeros((3, 4)))
        absorb(bk, EditBatch(k1=k1, v1=w @ k1))
        assert loop_bl(w, bk) <= 1e-9 * bk.tr_u0u0

    def test_two_batches_match_concatenation(self, rng):
        bk = BacklogAccumulator.empty(rng.standard_normal((4, 5)))
        b1 = EditBatch(k1=rng.standard_normal((5, 2)), v1=rng.standard_normal((4, 2)))
        b2 = EditBatch(k1=rng.standard_normal((5, 3)), v1=rng.standard_normal((4, 3)))
        absorb(bk, b1)
        absorb(bk, b2)
        w = rng.standard_normal((4, 5))
        kcat = np.hstack([b1.k1, b2.k1])
        vcat = np.hstack([b1.v1, b2.v1])
        explicit = float(np.sum((w @ kcat - vcat) ** 2))
        assert loop_bl(w, bk) == pytest.approx(explicit, rel=1e-8)

    def test_gram_matches_explicit_product(self, rng):
        bk = BacklogAccumulator.empty(np.zeros((2, 4)))
        parts = []
        for _ in range(3):
            b = EditBatch(k1=rng.standard_normal((4, 2)),
                          v1=rng.standard_normal((2, 2)))
            absorb(bk, b)
            parts.append(b.k1)
        kcat = np.hstack(parts)
        assert bk.kp_gram == pytest.approx(kcat @ kcat.T, rel=1e-10)
        # Exactly symmetric with no re-symmetrization: the solvers rely on it.
        assert np.array_equal(bk.kp_gram, bk.kp_gram.T)
        assert bk.absorbed == 3

    def test_absorb_zero_batch(self):
        bk = BacklogAccumulator.empty(np.zeros((2, 2)))
        absorb(bk, EditBatch(k1=np.zeros((2, 1)), v1=np.zeros((2, 1))))
        assert bk.absorbed == 1
        assert np.array_equal(bk.kp_gram, np.zeros((2, 2)))
        assert bk.tr_u0u0 == 0.0

    def test_absorb_order_independent(self, rng):
        b1 = EditBatch(k1=rng.standard_normal((3, 2)), v1=rng.standard_normal((2, 2)))
        b2 = EditBatch(k1=rng.standard_normal((3, 1)), v1=rng.standard_normal((2, 1)))
        fwd = BacklogAccumulator.empty(np.zeros((2, 3)))
        rev = BacklogAccumulator.empty(np.zeros((2, 3)))
        absorb(absorb(fwd, b1), b2)
        absorb(absorb(rev, b2), b1)
        assert fwd.kp_gram == pytest.approx(rev.kp_gram, rel=1e-12)
        assert fwd.u0kpt == pytest.approx(rev.u0kpt, rel=1e-12)
        assert fwd.tr_u0u0 == pytest.approx(rev.tr_u0u0, rel=1e-12)

    @pytest.mark.parametrize("exponent", [-300, -100, 0, 300])
    def test_cancellation_guard_raises(self, exponent):
        # Keys and values at scale s = 2^exponent; the guard band scales
        # with the loss's terms, so it catches the corruption at every s.
        s = np.ldexp(1.0, exponent)
        bk = BacklogAccumulator.empty(np.eye(2))
        absorb(bk, EditBatch(k1=s * np.eye(2), v1=s * np.eye(2)))
        # Corrupt the trace term far beyond round-off territory.
        bk.tr_u0u0 -= s * s
        with pytest.raises(NumericalInstabilityError, match="cancellation"):
            loop_bl(bk.w0, bk)

    def test_absorb_dimension_mismatch(self):
        bk = BacklogAccumulator.empty(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            absorb(bk, EditBatch(k1=np.zeros((4, 1)), v1=np.zeros((2, 1))))


class TestNonnegativity:
    def test_losses_never_negative(self, make_instance):
        inst = make_instance(d0=6, d1=5, n=3, m0=40, absorbed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = inst.mem.w0 + 1e-8 * rng.standard_normal(inst.mem.w0.shape)
            assert loop_pl(inst.mem, w) >= 0.0
            assert loop_bl(w, inst.bk) >= 0.0
            assert loop_el(w, inst.batch) >= 0.0


def test_edit_batch_validation():
    with pytest.raises(DimensionMismatchError):
        EditBatch(k1=np.zeros((2, 3)), v1=np.zeros((2, 2)))
    with pytest.raises(NonFiniteError):
        EditBatch(k1=np.array([[np.inf]]), v1=np.array([[1.0]]))
