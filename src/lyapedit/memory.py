"""Associative-memory state kept in Gram form, plus the three quadratic losses.

The preserved key/value set is never stored raw.  Preserved values follow
one convention, V0 = W(0)*K0, so the preservation loss of weights W is
||(W - W0)*K0||_F^2 = <(W - W0)*K0K0^T, W - W0>: everything downstream needs
only K0*K0^T and W0, which keeps memory O(d0^2) no matter how many preserved
keys were collected.  Losses and solves work in deviation coordinates,
D = W - W0, so each keeps its accuracy however close W stays to W0.

The running backlog of already-applied edits is anchored at W0 too: it keeps
Kp*Kp^T and the sums of U0*K1^T and ||U0||_F^2 over its batches, where
U0 = V1 - W0*K1 is a batch's residual at the original weights.  Its loss is
evaluated through that Gram identity and can dip slightly below zero through
floating cancellation; it is clamped at zero inside a guard band and raises
once the deficit is large enough to indicate corrupted state.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputError,
    NonFiniteError,
    NumericalInstabilityError,
)
from .lapack import _factor_gram, add_outer, in_two

# Relative budget for harmless cancellation in the Gram-form backlog loss.
CANCELLATION_GUARD = 1e-6
# A preserved Gram of at least this many multiply-adds (about 10 ms on one
# core) is formed in two halves at once.
_SPLIT_MACS = 1 << 28


def _as_matrix(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def gram_loss(w: np.ndarray, w_gram: np.ndarray, cross: np.ndarray,
              trace_term: float) -> float:
    """Evaluate ||W*K - V||_F^2 from the product W*(K*K^T), V*K^T and tr(V*V^T).

    The backlog loss takes it in deviation coordinates: W = D, V = U0.
    Taking the product rather than the Gram lets a caller that already holds
    W*(K*K^T) skip the one dense d1 x d0^2 pass.  Clamps tiny negative
    round-off to zero; a deficit beyond the guard band means the accumulated
    state is inconsistent and raises instead, as does a -inf from overflow.
    """
    raw = (
        float(np.einsum("ij,ij->", w_gram, w))
        - 2.0 * float(np.einsum("ij,ij->", w, cross))
        + trace_term
    )
    if raw == -np.inf:
        raise NumericalInstabilityError(
            "Gram-form loss evaluated to -inf: its terms overflowed double precision")
    if raw < -CANCELLATION_GUARD * (1.0 + trace_term):
        raise NumericalInstabilityError(
            f"Gram-form loss evaluated to {raw!r}, beyond the cancellation "
            "guard; recompute with explicit matrices to diagnose"
        )
    return max(raw, 0.0)


@dataclass(frozen=True)
class Dims:
    """Shape of the edited linear map: d1 rows (outputs) by d0 columns (inputs)."""

    d0: int
    d1: int

    def __post_init__(self):
        if self.d0 < 1 or self.d1 < 1:
            raise InputError(f"dimensions must be >= 1, got d0={self.d0}, d1={self.d1}")


@dataclass(frozen=True)
class EditBatch:
    """One timestamp's edit targets: keys k1 (d0 x n) and values v1 (d1 x n)."""

    k1: np.ndarray
    v1: np.ndarray

    def __post_init__(self):
        k1 = _as_matrix("k1", self.k1)
        v1 = _as_matrix("v1", self.v1)
        if k1.shape[1] != v1.shape[1]:
            raise DimensionMismatchError(
                f"k1 has {k1.shape[1]} columns but v1 has {v1.shape[1]}"
            )
        if k1.shape[1] < 1:
            raise InputError("batch must contain at least one column")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "v1", v1)

    def _u0(self, w0: np.ndarray) -> np.ndarray:
        """U0 = V1 - W0*K1, this batch's residual at the original weights.

        Formed once per batch and ``w0`` array, and kept read-only: in a
        step, every path's preserving solve and the absorb read the same
        one.  The caller checks the shapes.
        """
        held = self.__dict__.get("_held_u0")
        if held is None or held[0] is not w0:
            u0 = self.v1 - w0 @ self.k1
            u0.flags.writeable = False
            held = (w0, u0)
            object.__setattr__(self, "_held_u0", held)
        return held[1]


@dataclass(frozen=True)
class AssociativeMemory:
    """Editable weights plus Gram-form statistics of the preserved knowledge.

    ``w`` is the current weight matrix; ``w0`` stays frozen at the original
    weights.  ``k0_gram`` is K0*K0^T; raw K0/V0 are not retained, since
    V0 = W0*K0.  ``k0_factor`` is the unridged Cholesky factor of K0*K0^T
    that :func:`new_memory` made, in the form ``lapack._factor_gram``
    returns, or None where it made none: the solvers start from it.
    """

    w: np.ndarray
    w0: np.ndarray
    k0_gram: np.ndarray
    dims: Dims
    k0_factor: tuple | None = None

    def with_weights(self, w: np.ndarray) -> "AssociativeMemory":
        """Return a copy of this memory whose current weights are ``w``."""
        w = _as_matrix("w", w)
        if w.shape != (self.dims.d1, self.dims.d0):
            raise DimensionMismatchError(
                f"w has shape {w.shape}, expected ({self.dims.d1}, {self.dims.d0})"
            )
        return replace(self, w=w)


@dataclass
class BacklogAccumulator:
    """Running Grams of every batch edited so far, anchored at ``w0``.

    ``kp_gram`` is Kp*Kp^T, and ``u0kpt`` and ``tr_u0u0`` sum U0*K1^T and
    ||U0||_F^2 over the absorbed batches, U0 = V1 - W0*K1.  Mutated in
    place by :func:`absorb`.  The backlog depends only on the batches, so
    every run over one stream may share a single accumulator, as long as it
    is absorbed once per step.
    """

    w0: np.ndarray
    kp_gram: np.ndarray
    u0kpt: np.ndarray
    tr_u0u0: float
    absorbed: int

    @classmethod
    def empty(cls, w0) -> "BacklogAccumulator":
        """An empty backlog anchored at the original weights ``w0``."""
        w0 = _as_matrix("w0", w0)
        d1, d0 = w0.shape
        return cls(w0=w0, kp_gram=np.zeros((d0, d0)), u0kpt=np.zeros((d1, d0)),
                   tr_u0u0=0.0, absorbed=0)


def new_memory(w0, k0) -> AssociativeMemory:
    """Build a memory whose preserved values follow the V0 = W(0)*K0 convention.

    Only Gram products of ``k0`` are retained, so ``k0`` may have far more
    columns than d0.  Under this convention the preservation loss of ``w0``
    itself is exactly zero.  The Gram K0*K0^T is formed once, and the
    memory keeps its unridged factor as ``k0_factor``; that is None where
    the Gram is not positive definite, its mean diagonal is subnormal or its
    trace overflows.  Any finite ``k0`` is accepted.
    """
    w0 = _as_matrix("w0", w0)
    k0 = _as_matrix("k0", k0)
    if k0.shape[0] != w0.shape[1]:
        raise DimensionMismatchError(
            f"k0 has {k0.shape[0]} rows but w0 has {w0.shape[1]} columns"
        )
    if k0.shape[1] < 1:
        raise InputError("k0 must contain at least one column")
    gram = _preserved_gram(k0)
    return AssociativeMemory(w=w0, w0=w0, k0_gram=gram,
                             dims=Dims(d0=w0.shape[1], d1=w0.shape[0]),
                             k0_factor=_factor_gram(gram))


def _split_row(rows: int) -> int:
    """Where a large product's rows split: half, down to a multiple of 64.

    At such block edges the register tiles of a BLAS on a block coincide
    with its tiles on the whole product.  With numpy 2.4's OpenBLAS the
    blocks then give the whole product's bits at the benchmark's shapes
    (d0 x m0 = 256 x 1024 and 1024 x 4096), but not at every shape: at
    d0 = 1023, or m0 = 1000, some entries differ in the last bit.  A product
    this large takes the block form whatever the CPU count, so its bits
    never depend on it.  0 when ``rows`` is under 128.
    """
    return rows // 128 * 64


def _preserved_gram(k0: np.ndarray) -> np.ndarray:
    """K0*K0^T: the one place a preserved Gram is formed.

    numpy forms ``k0 @ k0.T`` with ``syrk`` and mirrors its triangle, so the
    Gram is exactly symmetric without a symmetrizing pass.  A Gram of
    ``_SPLIT_MACS`` multiply-adds or more is formed in blocks, two halves at
    once: with K0 = [A; B] split at row h, and A at row q, one half forms
    A A^T and A[:q] B^T, the other B B^T and A[q:] B^T, and each mirrors its
    off-diagonal block.  Each half does a quarter of d0^2 m0 multiply-adds.
    """
    d0, m0 = k0.shape
    h = _split_row(d0)
    if h == 0 or d0 * d0 * m0 < _SPLIT_MACS:
        return k0 @ k0.T
    q, b = h // 2, k0[h:]
    gram = np.empty((d0, d0))

    def half(rows: slice, cross: slice):
        block = k0[rows]
        np.matmul(block, block.T, out=gram[rows, rows])
        np.matmul(k0[cross], b.T, out=gram[cross, h:])
        gram[h:, cross] = gram[cross, h:].T

    in_two(lambda: half(slice(0, h), slice(0, q)),
           lambda: half(slice(h, d0), slice(q, h)))
    return gram


def _psd_loss(product: np.ndarray, d: np.ndarray) -> float:
    """<D*G, D> = ||D*K||_F^2 from the product D*G, G = K*K^T.

    A positive semidefinite form: it needs no cancellation guard.  Only
    round-off could take a finite value below 0, where it is clamped; an
    overflow stays non-finite.
    """
    raw = float(np.einsum("ij,ij->", product, d))
    return 0.0 if -np.inf < raw < 0.0 else raw


def preservation_loss(mem: AssociativeMemory, w) -> float:
    """Squared Frobenius residual of ``w`` on the preserved key/value set,
    ||(W - W0)*K0||_F^2."""
    d = mem.with_weights(w).w - mem.w0  # checked as the memory's own weights are
    return _psd_loss(d @ mem.k0_gram, d)


def editing_loss(w, batch: EditBatch) -> float:
    """Squared Frobenius residual of ``w`` on the batch's target pairs.

    Computed from the explicit matrices; batches are small so no Gram shortcut
    is taken.
    """
    w = _as_matrix("w", w)
    if w.shape[1] != batch.k1.shape[0]:
        raise DimensionMismatchError(
            f"w has {w.shape[1]} columns but k1 has {batch.k1.shape[0]} rows"
        )
    if w.shape[0] != batch.v1.shape[0]:
        raise DimensionMismatchError(
            f"w has {w.shape[0]} rows but v1 has {batch.v1.shape[0]}"
        )
    return fit_loss(w @ batch.k1 - batch.v1)


def fit_loss(resid: np.ndarray) -> float:
    """||R||_F^2 of a residual matrix R = W K - V, unchecked.

    A step loop's solve leaves the post-edit residual on its batch in its
    carry, and the editing loss reads it without forming W K again.
    """
    return float(np.einsum("ij,ij->", resid, resid))


def backlog_loss(w, bk: BacklogAccumulator) -> float:
    """Squared Frobenius residual of ``w`` on every previously absorbed batch."""
    if bk.absorbed == 0:
        return 0.0
    w = _as_matrix("w", w)
    if w.shape != bk.w0.shape:
        raise DimensionMismatchError(
            f"w has shape {w.shape} but the backlog is anchored at weights of "
            f"shape {bk.w0.shape}"
        )
    d = w - bk.w0
    return gram_loss(d, d @ bk.kp_gram, bk.u0kpt, bk.tr_u0u0)


def absorb(bk: BacklogAccumulator, batch: EditBatch) -> BacklogAccumulator:
    """Fold one batch into the backlog Grams, in place.

    Both ``k1 @ k1.T`` and the cross term ``u0 @ k1.T`` are added in place
    by one ``gemm`` each.  numpy would form ``k1 @ k1.T`` with ``syrk`` and
    mirror its triangle in a scalar loop: 8.96 ms against 0.88 ms at
    d0=1024 and n=8 (one BLAS thread).  The ``gemm`` sum may differ from
    ``g + k1 @ k1.T`` in the last bit and, on some shapes, from its own
    transpose by an ulp; the solvers read one triangle of the system matrix
    they factor, and check the full products.
    """
    if batch.k1.shape[0] != bk.kp_gram.shape[0]:
        raise DimensionMismatchError(
            f"k1 has {batch.k1.shape[0]} rows but the backlog Gram is "
            f"{bk.kp_gram.shape[0]} x {bk.kp_gram.shape[1]}"
        )
    if batch.v1.shape[0] != bk.w0.shape[0]:
        raise DimensionMismatchError(
            f"v1 has {batch.v1.shape[0]} rows but the backlog's weights have "
            f"{bk.w0.shape[0]}"
        )
    u0 = batch._u0(bk.w0)
    add_outer(bk.kp_gram, batch.k1, batch.k1)
    add_outer(bk.u0kpt, u0, batch.k1)
    bk.tr_u0u0 += float(np.einsum("ij,ij->", u0, u0))
    bk.absorbed += 1
    return bk
