"""Closed-form per-step perturbation solvers.

Each solver reduces to a symmetric positive-definite right-solve: the
perturbation satisfies ``delta @ C = R`` where R is built from the current
residuals, so an exact fixed point (all residuals zero) yields an exactly zero
perturbation.  C is factored with Cholesky; on factorization failure or a
condition estimate above 1e12 the diagonal is ridged with escalating
lambda in {1e-10, 1e-8, 1e-6} * tr(C)/dim, and the applied lambda is recorded
in the report.  C is first scaled by the even power of two that brings
tr(C)/dim near 1, which is exact, so every solve scales exactly with the
keys.  No explicit inverse is ever formed.

LAPACK ``potrf``, ``potrs`` and ``pocon`` and BLAS ``nrm2`` are bound once,
at import, and called directly: the same routines with the same arguments
that scipy's ``cho_factor``, ``cho_solve`` and ``norm`` would call, without
their per-call validation and lookup.  BLAS ``gemm`` is bound the same way
for the in-place rank-n updates below.  A step at d0=64 costs about a
megaflop, so that fixed cost mattered.

They are bound from scipy's compiled modules ``scipy.linalg._flapack`` and
``_fblas``, loaded directly, without the ``scipy.linalg`` package.  That
package's import took 0.28-0.32 s of the 0.40-0.47 s of ``import
lyapedit.cli`` (``python -X importtime``, 5 runs, 2 vCPUs, one BLAS thread),
because its array-API layer star-imports numpy and so loads ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``; without it the import takes 0.18-0.22
s.  ``import scipy`` alone takes about 15 ms and sets up the library path
that the compiled modules need.  The routines are the very objects that
``get_lapack_funcs`` and ``get_blas_funcs`` return for float64 on a scipy
built without ILP64 BLAS.

The ``*_step`` forms serve a step loop: they take the products
M0 = W K0K0^T and Mp = W KpKp^T that the loop carries instead of
recomputing them, and leave them at the post-edit weights W'.

Rank-n steps.  A step's perturbation has the form delta = U X^T whenever
its target is U K1^T for the n keys K1 of the batch: then C X = K1 is a
solve for n columns, not d1, and the products follow by rank-n updates,
M0 += U (K0K0^T X)^T and Mp += U (KpKp^T X)^T, each one in-place BLAS
``gemm``.  No dense d1 x d0^2 product is formed.  The target is exactly
U K1^T for baseline and edit-only on every step.  For lyaplock it is
U K1^T plus v (Vp Kp^T - Mp) + az (V0 K0^T - M0): that part is exactly 0
at step 1, and equals minus the previous step's residual whenever az did
not change (the backlog term telescopes, since Kp Kp^T grew by the previous
batch's K1 K1^T).  Baseline and lyaplock try the rank-n form on the
unridged factor, lyaplock only when that part is at most
``SNAP_THRESHOLD`` ||RHS||, round-off and not signal; the rule reads only
the step's own inputs.  Edit-only always has this form, ridged or not.

Either form ends with the same residual check, ||W' C - RHS|| / ||RHS||,
assembled from the products.  A rank-n step that misses ``RESIDUAL_TARGET``
falls back to the full target on the same factor, which recomputes the
products densely.  After every rank-n update a Freivalds check compares
M z with W' (G z) for one fixed vector z, O(d0^2 + d1 d0); a gap beyond
``CARRY_TOLERANCE`` recomputes the products densely, so rounding in the
carried products cannot grow unseen.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DimensionMismatchError, InputError, SingularSystemError
from .memory import AssociativeMemory, BacklogAccumulator, EditBatch

RIDGE_LADDER = (1e-10, 1e-8, 1e-6)
CONDITION_LIMIT = 1e12
RESIDUAL_TARGET = 1e-8
# Residual targets this far below the system scale are round-off, not signal;
# the solver returns an exactly zero perturbation instead of amplifying them.
SNAP_THRESHOLD = 1e-10
# Largest relative gap ||M z - W' (G z)|| / (||W'|| ||G z||) a carried
# product may show before it is recomputed densely.  Over 2000-step runs of
# every editor at d0=64 the gap stayed below 7e-16, and the carried products
# within 6e-15 of the dense ones.
CARRY_TOLERANCE = 1e-12
_TINY = float(np.finfo(np.float64).tiny)


def _load_compiled(name: str):
    """Load the compiled module ``scipy.linalg.<name>`` without its package."""
    fullname = f"scipy.linalg.{name}"
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec(fullname, [where])
    if spec is None:
        raise ImportError(
            f"lyapedit needs scipy's compiled modules scipy.linalg._flapack and "
            f"scipy.linalg._fblas; {fullname} was not found in {where}",
            name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The float64 routines, bound once (see the module docstring).
_flapack = _load_compiled("_flapack")
_potrf, _potrs, _pocon = _flapack.dpotrf, _flapack.dpotrs, _flapack.dpocon
_fblas = _load_compiled("_fblas")
_nrm2, _gemm = _fblas.dnrm2, _fblas.dgemm


@dataclass(frozen=True)
class SolveReport:
    """Perturbation plus solve diagnostics.

    ``residual`` is the relative normal-equation (or fit) residual of the
    returned perturbation; it is at most 1e-8 whenever ``ridge_applied`` is 0.
    ``condition_estimate`` is NaN when the system was already satisfied and no
    factorization was needed.
    """

    delta: np.ndarray
    residual: float
    ridge_applied: float
    condition_estimate: float


def _norm(x: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, which rescales as it sums.

    ``np.linalg.norm`` squares the entries first, so it overflows to inf or
    underflows to 0 far inside the range of representable matrices.
    """
    return float(_nrm2(x.ravel()))


def _ridge_attempts(matrix: np.ndarray):
    """Yield (lam, factor, condition_estimate) over the ladder.

    Attempts that fail to factor or whose condition estimate exceeds the
    limit yield a ``None`` factor so the caller can keep escalating (and
    report the final condition estimate on exhaustion).  The factor is
    (L, shift): ``potrf``'s output for the ridged matrix times 2^-shift, L in
    the lower triangle and that matrix above it.  The even power of two
    brings tr(C)/dim near 1 without rounding, so the factor, the ridge and
    the condition estimate scale exactly with the keys: at key scale 2^-500
    a ridge of 1e-10 tr(C)/dim, and the pivots it sets, would be subnormal.

    ``matrix`` is scaled in place.  A matrix whose mean diagonal is positive
    but subnormal has already lost precision, and no ridge scaled by it can
    repair that: it raises SingularSystemError naming the underflow.
    """
    dim = matrix.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.trace(matrix)) / dim
    if not np.isfinite(scale):  # the trace overflowed; a finite diagonal's mean cannot
        scale = float(np.sum(np.diagonal(matrix) / dim))
    if 0.0 < scale < _TINY:
        raise SingularSystemError(
            f"system matrix C underflowed: its mean diagonal tr(C)/dim = {scale!r} is "
            f"below the smallest normal double {_TINY!r}, so it is not "
            f"representable in double precision")
    shift = 2 * (math.frexp(scale)[1] // 2)
    unit = math.ldexp(1.0, -shift)
    matrix *= unit
    for rung in (0.0,) + RIDGE_LADDER:
        ridged = matrix
        if rung > 0.0:
            ridged = matrix.copy()
            ridged.flat[:: dim + 1] += rung * (scale * unit)
        factor, info = _potrf(ridged, lower=True, clean=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        lam = rung * scale
        if info > 0:  # a leading minor is not positive definite
            yield lam, None, float("inf")
            continue
        anorm = float(np.abs(ridged).sum(axis=0).max())  # the 1-norm
        rcond, info = _pocon(factor, anorm, uplo="L")
        cond = 1.0 / float(rcond) if info == 0 and rcond > 0.0 else float("inf")
        yield lam, ((factor, shift) if cond <= CONDITION_LIMIT else None), cond


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """X with ``C X = b`` for a factor (L, shift) from :func:`_ridge_attempts`."""
    lower, shift = factor
    x, info = _potrs(lower, b * math.ldexp(1.0, -shift), lower=True, overwrite_b=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def add_outer(m: np.ndarray, u: np.ndarray, y: np.ndarray) -> None:
    """``m += u @ y.T`` in place, without a d1 x d0 temporary.

    One ``gemm`` with beta = 1 on ``m.T``, which is Fortran-ordered when
    ``m`` is C-ordered; any other ``m`` takes the plain numpy form.
    """
    if m.flags.c_contiguous and m.flags.writeable:
        _gemm(1.0, y.T, u.T, 1.0, m.T, trans_a=1, overwrite_c=1)
    else:
        m += u @ y.T


def _carry(w_new: np.ndarray, u: np.ndarray, x, products) -> None:
    """Move each carried product M = W G of ``products`` to W' = W + U X^T.

    ``products`` holds (M, G) pairs, updated in place.  With ``x`` None every
    M is recomputed densely as W' G.  Otherwise M += U (G X)^T, and every M
    is recomputed densely only if :func:`_drifted` finds a gap.
    """
    if x is not None:
        for m, g in products:
            add_outer(m, u, g @ x)
        if not _drifted(w_new, products):
            return
    for m, g in products:
        np.matmul(w_new, g, out=m)


def _drifted(w_new: np.ndarray, products) -> bool:
    """Whether some M of ``products`` is not W' G, by a Freivalds check.

    Compares M z with W' (G z) for one fixed vector z, in O(d0^2 + d1 d0);
    a relative gap above ``CARRY_TOLERANCE`` counts as drift.
    """
    z = np.cos(np.arange(w_new.shape[1], dtype=np.float64))
    w_norm = _norm(w_new)
    for m, g in products:
        gz = g @ z
        if not _norm(m @ z - w_new @ gz) <= CARRY_TOLERANCE * w_norm * _norm(gz):
            return True
    return False


def _normal_solve(w: np.ndarray, c: np.ndarray, u: np.ndarray, k1: np.ndarray,
                  rest, rhs_full: np.ndarray, times_c):
    """Solve ``delta @ C = U K1^T + rest``; return the report and ``W + delta``.

    The target U K1^T + rest is RHS - W @ C, assembled from residual
    products by the caller; ``rest`` is None when it is exactly 0.  ``c``
    and ``rest`` are the caller's scratch, overwritten here, so a d0 x d0
    and a d1 x d0 copy fewer are live at once.  ``rhs_full`` is only used to
    measure the reported relative residual ||(W + delta) @ C - RHS|| / ||RHS||.
    ``times_c(w_new, x)`` moves the caller's products to ``w_new`` and
    returns ``w_new @ C`` assembled from them: by the rank-n update for
    delta = U X^T, or densely when ``x`` is None.

    When ||rest|| <= SNAP_THRESHOLD ||RHS||, the unridged factor first solves
    C X = K1 for n columns and tries delta = U X^T (see the module
    docstring); every other attempt solves for the full target.
    """
    with np.errstate(over="ignore"):
        np.add(c, c.T, out=c)
    c *= 0.5
    ref = max(_norm(rhs_full), _TINY)
    if rest is None:
        rank_n, target = True, u @ k1.T
    else:
        rank_n, target = _norm(rest) <= SNAP_THRESHOLD * ref, rest
        add_outer(target, u, k1)
    if not (np.isfinite(c).all() and np.isfinite(target).all()
            and np.isfinite(rhs_full).all()):
        raise SingularSystemError(
            "normal-equation assembly overflowed; the weighted system is not "
            "representable in double precision"
        )
    if _norm(target) <= SNAP_THRESHOLD * ref:
        residual = _norm(times_c(w, None) - rhs_full) / ref
        return SolveReport(delta=np.zeros_like(w), residual=residual,
                           ridge_applied=0.0,
                           condition_estimate=float("nan")), w
    last_cond = float("inf")
    for lam, factor, cond in _ridge_attempts(c):
        last_cond = cond
        if factor is None:
            continue
        if rank_n and lam == 0.0:
            x = _cho_solve(factor, k1)
            delta = u @ x.T
            w_new = w + delta
            residual = _norm(times_c(w_new, x) - rhs_full) / ref
            if residual <= RESIDUAL_TARGET:
                return SolveReport(delta=delta, residual=residual,
                                   ridge_applied=lam, condition_estimate=cond), w_new
        delta = _cho_solve(factor, target.T).T
        w_new = w + delta
        residual = _norm(times_c(w_new, None) - rhs_full) / ref
        if not np.isfinite(residual) or (lam == 0.0 and residual > RESIDUAL_TARGET):
            continue
        return SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                           condition_estimate=cond), w_new
    raise SingularSystemError(
        f"normal-equation matrix is numerically singular "
        f"(condition estimate {last_cond:.3e}) after maximum ridge escalation",
        condition_estimate=last_cond,
    )


def _check_batch(mem: AssociativeMemory, batch: EditBatch) -> None:
    if batch.k1.shape[0] != mem.dims.d0:
        raise DimensionMismatchError(
            f"batch keys have {batch.k1.shape[0]} rows but the memory input "
            f"dimension is {mem.dims.d0}"
        )
    if batch.v1.shape[0] != mem.dims.d1:
        raise DimensionMismatchError(
            f"batch values have {batch.v1.shape[0]} rows but the memory output "
            f"dimension is {mem.dims.d1}"
        )


def _check_backlog(mem: AssociativeMemory, bk: BacklogAccumulator,
                   batch: EditBatch) -> None:
    _check_batch(mem, batch)
    if bk.kp_gram.shape[0] != mem.dims.d0:
        raise DimensionMismatchError(
            f"backlog Gram is {bk.kp_gram.shape[0]} x {bk.kp_gram.shape[1]} but "
            f"the memory input dimension is {mem.dims.d0}"
        )


def _check_lyaplock(mem: AssociativeMemory, bk: BacklogAccumulator,
                    batch: EditBatch, v_weight: float, az: float) -> None:
    if not (v_weight > 0.0) or not np.isfinite(v_weight):
        raise InputError(f"v_weight must be positive and finite, got {v_weight!r}")
    if az < 0.0 or not np.isfinite(az):
        raise InputError(f"az must be nonnegative and finite, got {az!r}")
    _check_backlog(mem, bk, batch)


def solve_lyaplock(mem: AssociativeMemory, bk: BacklogAccumulator,
                   batch: EditBatch, v_weight: float, az: float) -> SolveReport:
    """Queue-weighted update: minimize v_weight*(EL + BL) + az*PL.

    Parameters
    ----------
    - mem: current memory; ``mem.w`` is the pre-edit weight matrix
    - bk: backlog Grams of previously applied edits (may be empty)
    - batch: this step's keys and target values
    - v_weight: weight on editing plus backlog loss, must be positive
    - az: preservation weight, the queue value scaled by the queue gain a

    The perturbation is the unique minimizer whenever
    C = v_weight*(K1 K1^T + Kp Kp^T) + az*K0 K0^T is positive definite.
    """
    _check_lyaplock(mem, bk, batch, v_weight, az)
    report, _ = lyaplock_step(mem, bk, batch, v_weight, az,
                              mem.w @ mem.k0_gram, mem.w @ bk.kp_gram)
    return report


def lyaplock_step(mem: AssociativeMemory, bk: BacklogAccumulator,
                  batch: EditBatch, v_weight: float, az: float,
                  m0: np.ndarray, mp: np.ndarray):
    """:func:`solve_lyaplock` from the products m0 = W K0K0^T and mp = W KpKp^T.

    Returns the report and W' = W + delta; on return ``m0`` and ``mp`` hold
    W' K0K0^T and W' KpKp^T, updated in place.
    """
    _check_lyaplock(mem, bk, batch, v_weight, az)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    with np.errstate(over="ignore"):
        c = v_weight * (k1 @ k1.T + bk.kp_gram) + az * mem.k0_gram
        # Residual assembly: exact zeros survive, unlike rhs_full - w @ c.
        u = v_weight * (v1 - w @ k1)
        rest = v_weight * (bk.vpkpt - mp) + az * (mem.v0k0t - m0)
        rhs_full = v_weight * (v1 @ k1.T + bk.vpkpt) + az * mem.v0k0t

    def times_c(w_new, x):
        _carry(w_new, u, x, ((m0, mem.k0_gram), (mp, bk.kp_gram)))
        with np.errstate(over="ignore"):
            return v_weight * ((w_new @ k1) @ k1.T + mp) + az * m0

    return _normal_solve(w, c, u, k1, rest, rhs_full, times_c)


def solve_baseline(mem: AssociativeMemory, batch: EditBatch) -> SolveReport:
    """Bi-objective update: delta = (V1 - W K1) K1^T (K0 K0^T + K1 K1^T)^-1.

    This is the conventional one-shot trade-off between editing and
    preservation; it carries no backlog and no queue weighting, so its
    preservation loss accumulates over sequential use.
    """
    report, _ = baseline_step(mem, BacklogAccumulator.empty(mem.dims), batch,
                              mem.w @ mem.k0_gram, np.zeros_like(mem.w))
    return report


def baseline_step(mem: AssociativeMemory, bk: BacklogAccumulator,
                  batch: EditBatch, m0: np.ndarray, mp: np.ndarray):
    """:func:`solve_baseline` from the products m0 = W K0K0^T and mp = W KpKp^T.

    The backlog enters only through ``mp``, which the loop's backlog loss
    reads.  Returns the report and W' = W + delta; on return ``m0`` and
    ``mp`` hold W' K0K0^T and W' KpKp^T, updated in place.
    """
    _check_backlog(mem, bk, batch)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    c = mem.k0_gram + k1 @ k1.T
    u = v1 - w @ k1
    rhs_full = m0 + v1 @ k1.T  # W C + target

    def times_c(w_new, x):
        _carry(w_new, u, x, ((m0, mem.k0_gram), (mp, bk.kp_gram)))
        return m0 + (w_new @ k1) @ k1.T

    return _normal_solve(w, c, u, k1, None, rhs_full, times_c)


def _edit_only(mem: AssociativeMemory, batch: EditBatch):
    """The edit-only report, with U and X such that delta = U X^T."""
    w, k1, v1 = mem.w, batch.k1, batch.v1
    resid = v1 - w @ k1
    small_gram = k1.T @ k1
    ref = max(_norm(v1), _TINY)
    last_cond = float("inf")
    for lam, factor, cond in _ridge_attempts(small_gram):
        last_cond = cond
        if factor is None:
            continue
        # delta = resid @ (K1^T K1)^-1 K1^T is the least-norm interpolant.
        xt = _cho_solve(factor, k1.T)
        delta = resid @ xt
        residual = _norm((w + delta) @ k1 - v1) / ref
        if lam == 0.0 and residual > RESIDUAL_TARGET:
            continue
        return SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                           condition_estimate=cond), resid, xt.T
    raise SingularSystemError(
        f"batch keys are rank deficient beyond ridge tolerance "
        f"(condition estimate {last_cond:.3e})",
        condition_estimate=last_cond,
    )


def solve_edit_only(mem: AssociativeMemory, batch: EditBatch) -> SolveReport:
    """Ablation: minimum-Frobenius-norm perturbation fitting the batch exactly.

    Ignores preservation entirely.  With full-column-rank keys the post-edit
    editing loss is zero up to round-off; rank-deficient keys are ridged, and
    keys that stay numerically singular beyond the ladder raise.
    """
    _check_batch(mem, batch)
    return _edit_only(mem, batch)[0]


def edit_only_step(mem: AssociativeMemory, bk: BacklogAccumulator,
                   batch: EditBatch, m0: np.ndarray, mp: np.ndarray):
    """:func:`solve_edit_only` from the products m0 = W K0K0^T and mp = W KpKp^T.

    Returns the report and W' = W + delta; on return ``m0`` and ``mp`` hold
    W' K0K0^T and W' KpKp^T, carried by the rank-n update.
    """
    _check_backlog(mem, bk, batch)
    report, u, x = _edit_only(mem, batch)
    w_new = mem.w + report.delta
    _carry(w_new, u, x, ((m0, mem.k0_gram), (mp, bk.kp_gram)))
    return report, w_new
