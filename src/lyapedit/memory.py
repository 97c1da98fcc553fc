"""Associative-memory state kept in Gram form, plus the three quadratic losses.

The preserved key/value set is never stored raw.  Everything downstream needs
only K0*K0^T, V0*K0^T and tr(V0*V0^T), which keeps memory O(d0^2) no matter how
many preserved keys were collected.  The same bookkeeping is used for the
running backlog of already-applied edits.

Preserved values follow one convention, V0 = W(0)*K0, so V0*K0^T is the
product W(0)*K0K0^T: formed once per memory, and copied, not formed again,
by a caller that needs W*K0K0^T at the original weights.

Losses evaluated through Gram identities can dip slightly below zero through
floating cancellation; they are clamped at zero inside a guard band and raise
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
from .lapack import add_outer, in_two

# Relative budget for harmless cancellation in Gram-form losses.
CANCELLATION_GUARD = 1e-6
# Products of at least this many multiply-adds (about 10 ms on one core) run
# in two halves at once.
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


@dataclass(frozen=True)
class AssociativeMemory:
    """Editable weights plus Gram-form statistics of the preserved knowledge.

    ``w`` is the current weight matrix; ``w0`` stays frozen at the original
    weights.  ``k0_gram``, ``v0k0t`` and ``tr_v0v0`` are K0*K0^T, V0*K0^T and
    tr(V0*V0^T); raw K0/V0 are not retained.
    """

    w: np.ndarray
    w0: np.ndarray
    k0_gram: np.ndarray
    v0k0t: np.ndarray
    tr_v0v0: float
    dims: Dims

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
    """Running Grams of every batch edited so far.

    Mutated in place by :func:`absorb`.  The backlog depends only on the
    batches, so every run over one stream may share a single accumulator, as
    long as it is absorbed once per step.
    """

    kp_gram: np.ndarray
    vpkpt: np.ndarray
    tr_vpvp: float
    absorbed: int

    @classmethod
    def empty(cls, dims: Dims) -> "BacklogAccumulator":
        return cls(
            kp_gram=np.zeros((dims.d0, dims.d0)),
            vpkpt=np.zeros((dims.d1, dims.d0)),
            tr_vpvp=0.0,
            absorbed=0,
        )


def new_memory(w0, k0) -> AssociativeMemory:
    """Build a memory whose preserved values follow the V0 = W(0)*K0 convention.

    Only Gram products of ``k0`` are retained, so ``k0`` may have far more
    columns than d0.  Under this convention the preservation loss of ``w0``
    itself is exactly zero.
    """
    w0 = _as_matrix("w0", w0)
    k0 = _as_matrix("k0", k0)
    if k0.shape[0] != w0.shape[1]:
        raise DimensionMismatchError(
            f"k0 has {k0.shape[0]} rows but w0 has {w0.shape[1]} columns"
        )
    if k0.shape[1] < 1:
        raise InputError("k0 must contain at least one column")
    return _memory_from_gram(w0, _preserved_gram(k0))


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


def _memory_from_gram(w0: np.ndarray, k0_gram: np.ndarray) -> AssociativeMemory:
    """The V0 = W(0)*K0 memory of checked ``w0`` and K0*K0^T (see new_memory).

    A product W0*K0K0^T of ``_SPLIT_MACS`` multiply-adds or more is formed
    in two blocks of rows at once.
    """
    d1, d0 = w0.shape
    h = _split_row(d1)
    if h == 0 or d1 * d0 * d0 < _SPLIT_MACS:
        v0k0t = w0 @ k0_gram
    else:
        v0k0t = np.empty((d1, d0))
        in_two(lambda: np.matmul(w0[:h], k0_gram, out=v0k0t[:h]),
               lambda: np.matmul(w0[h:], k0_gram, out=v0k0t[h:]))
    tr_v0v0 = float(np.einsum("ij,ij->", v0k0t, w0))
    return AssociativeMemory(w=w0, w0=w0, k0_gram=k0_gram, v0k0t=v0k0t,
                             tr_v0v0=tr_v0v0,
                             dims=Dims(d0=d0, d1=d1))


def preservation_loss(mem: AssociativeMemory, w) -> float:
    """Squared Frobenius residual of ``w`` on the preserved key/value set."""
    w = mem.with_weights(w).w  # checked as the memory's own weights are
    return gram_loss(w, w @ mem.k0_gram, mem.v0k0t, mem.tr_v0v0)


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
    return fit_loss(w @ batch.k1, batch.v1)


def fit_loss(wk: np.ndarray, v: np.ndarray) -> float:
    """||W K - V||_F^2 from the product W K, unchecked.

    A step loop that holds W K1 at checked weights takes its editing loss
    from it without forming W K1 or checking W again.
    """
    resid = wk - v
    return float(np.einsum("ij,ij->", resid, resid))


def backlog_loss(w, bk: BacklogAccumulator) -> float:
    """Squared Frobenius residual of ``w`` on every previously absorbed batch."""
    if bk.absorbed == 0:
        return 0.0
    w = _as_matrix("w", w)
    if w.shape[1] != bk.kp_gram.shape[0]:
        raise DimensionMismatchError(
            f"w has {w.shape[1]} columns but the backlog Gram is "
            f"{bk.kp_gram.shape[0]} x {bk.kp_gram.shape[1]}"
        )
    return gram_loss(w, w @ bk.kp_gram, bk.vpkpt, bk.tr_vpvp)


def absorb(bk: BacklogAccumulator, batch: EditBatch) -> BacklogAccumulator:
    """Fold one batch into the backlog Grams, in place.

    Both ``k1 @ k1.T`` and the cross term ``v1 @ k1.T`` are added in place
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
    if batch.v1.shape[0] != bk.vpkpt.shape[0]:
        raise DimensionMismatchError(
            f"v1 has {batch.v1.shape[0]} rows but the backlog cross term has "
            f"{bk.vpkpt.shape[0]}"
        )
    add_outer(bk.kp_gram, batch.k1, batch.k1)
    add_outer(bk.vpkpt, batch.v1, batch.k1)
    bk.tr_vpvp += float(np.einsum("ij,ij->", batch.v1, batch.v1))
    bk.absorbed += 1
    return bk
