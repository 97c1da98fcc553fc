"""Closed-form per-step perturbation solvers.

Each solver reduces to a symmetric positive-definite right-solve: the
perturbation satisfies ``delta @ C = R`` where R is built from the current
residuals, so an exact fixed point (all residuals zero) yields an exactly zero
perturbation.  C is factored with Cholesky; on factorization failure or a
condition estimate above 1e12 the diagonal is ridged with escalating
lambda in {1e-10, 1e-8, 1e-6} * tr(C)/dim, and the applied lambda is recorded
in the report.  No explicit inverse is ever formed.

LAPACK ``potrf``, ``potrs`` and ``pocon`` and BLAS ``nrm2`` are bound once,
at import, and called directly: the same routines with the same arguments
that scipy's ``cho_factor``, ``cho_solve`` and ``norm`` would call, without
their per-call validation and lookup.  A step at d0=64 costs about a
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

The ``*_step`` forms serve a step loop: they take the products W K0K0^T
(and W KpKp^T) that the loop carries instead of recomputing them, and leave
them at the post-edit weights, where the residual check computed them.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
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
_nrm2 = _load_compiled("_fblas").dnrm2


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
    """Yield (lam, lower Cholesky factor, condition_estimate) over the ladder.

    Attempts that fail to factor or whose condition estimate exceeds the
    limit yield a ``None`` factor so the caller can keep escalating (and
    report the final condition estimate on exhaustion).  The factor is
    ``potrf``'s output: L in the lower triangle, the input above it.
    """
    dim = matrix.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.trace(matrix)) / dim
    if not np.isfinite(scale):  # the trace overflowed; a finite diagonal's mean cannot
        scale = float(np.sum(np.diagonal(matrix) / dim))
    for lam in (0.0,) + tuple(rung * scale for rung in RIDGE_LADDER):
        ridged = matrix
        if lam > 0.0:
            ridged = matrix.copy()
            ridged.flat[:: dim + 1] += lam
        factor, info = _potrf(ridged, lower=True, clean=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info > 0:  # a leading minor is not positive definite
            yield lam, None, float("inf")
            continue
        anorm = float(np.abs(ridged).sum(axis=0).max())  # the 1-norm
        rcond, info = _pocon(factor, anorm, uplo="L")
        cond = 1.0 / float(rcond) if info == 0 and rcond > 0.0 else float("inf")
        yield lam, (factor if cond <= CONDITION_LIMIT else None), cond


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with ``L L^T X = b`` for a factor from :func:`_ridge_attempts`."""
    x, info = _potrs(factor, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _normal_solve(w: np.ndarray, c: np.ndarray, target: np.ndarray,
                  rhs_full: np.ndarray, times_c):
    """Solve ``delta @ C = target``; return the report and ``W + delta``.

    ``target`` is RHS - W @ C assembled from residual products by the caller;
    ``rhs_full`` is only used to measure the reported relative residual
    ||(W + delta) @ C - RHS|| / ||RHS||.  ``times_c(w_new)`` returns
    ``w_new @ C``; callers assemble it from the products they keep.
    """
    with np.errstate(over="ignore"):
        c = (c + c.T) * 0.5
    if not (np.isfinite(c).all() and np.isfinite(target).all()
            and np.isfinite(rhs_full).all()):
        raise SingularSystemError(
            "normal-equation assembly overflowed; the weighted system is not "
            "representable in double precision"
        )
    ref = max(_norm(rhs_full), _TINY)
    if _norm(target) <= SNAP_THRESHOLD * ref:
        residual = _norm(times_c(w) - rhs_full) / ref
        return SolveReport(delta=np.zeros_like(w), residual=residual,
                           ridge_applied=0.0,
                           condition_estimate=float("nan")), w
    last_cond = float("inf")
    for lam, factor, cond in _ridge_attempts(c):
        last_cond = cond
        if factor is None:
            continue
        delta = _cho_solve(factor, target.T).T
        w_new = w + delta
        residual = _norm(times_c(w_new) - rhs_full) / ref
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


def _check_lyaplock(mem: AssociativeMemory, bk: BacklogAccumulator,
                    batch: EditBatch, v_weight: float, az: float) -> None:
    if not (v_weight > 0.0) or not np.isfinite(v_weight):
        raise InputError(f"v_weight must be positive and finite, got {v_weight!r}")
    if az < 0.0 or not np.isfinite(az):
        raise InputError(f"az must be nonnegative and finite, got {az!r}")
    _check_batch(mem, batch)
    if bk.kp_gram.shape[0] != mem.dims.d0:
        raise DimensionMismatchError(
            f"backlog Gram is {bk.kp_gram.shape[0]} x {bk.kp_gram.shape[1]} but "
            f"the memory input dimension is {mem.dims.d0}"
        )


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

    Returns the report and W' = W + delta.  The residual check needs W' C,
    which it assembles from W' K0K0^T and W' KpKp^T; those are written into
    ``m0`` and ``mp`` in place, so on return they hold the products of W'.
    """
    _check_lyaplock(mem, bk, batch, v_weight, az)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    with np.errstate(over="ignore"):
        c = v_weight * (k1 @ k1.T + bk.kp_gram) + az * mem.k0_gram
        # Residual assembly: exact zeros survive, unlike rhs_full - w @ c.
        target = (
            v_weight * ((v1 - w @ k1) @ k1.T)
            + v_weight * (bk.vpkpt - mp)
            + az * (mem.v0k0t - m0)
        )
        rhs_full = v_weight * (v1 @ k1.T + bk.vpkpt) + az * mem.v0k0t

    def times_c(w_new):
        np.matmul(w_new, mem.k0_gram, out=m0)
        np.matmul(w_new, bk.kp_gram, out=mp)
        with np.errstate(over="ignore"):
            return v_weight * ((w_new @ k1) @ k1.T + mp) + az * m0

    return _normal_solve(w, c, target, rhs_full, times_c)


def solve_baseline(mem: AssociativeMemory, batch: EditBatch) -> SolveReport:
    """Bi-objective update: delta = (V1 - W K1) K1^T (K0 K0^T + K1 K1^T)^-1.

    This is the conventional one-shot trade-off between editing and
    preservation; it carries no backlog and no queue weighting, so its
    preservation loss accumulates over sequential use.
    """
    report, _ = baseline_step(mem, batch, mem.w @ mem.k0_gram)
    return report


def baseline_step(mem: AssociativeMemory, batch: EditBatch, m0: np.ndarray):
    """:func:`solve_baseline` from the product m0 = W K0K0^T.

    Returns the report and W' = W + delta; on return ``m0`` holds W' K0K0^T.
    """
    _check_batch(mem, batch)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    c = mem.k0_gram + k1 @ k1.T
    target = (v1 - w @ k1) @ k1.T
    rhs_full = m0 + v1 @ k1.T  # W C + target

    def times_c(w_new):
        np.matmul(w_new, mem.k0_gram, out=m0)
        return m0 + (w_new @ k1) @ k1.T

    return _normal_solve(w, c, target, rhs_full, times_c)


def solve_edit_only(mem: AssociativeMemory, batch: EditBatch) -> SolveReport:
    """Ablation: minimum-Frobenius-norm perturbation fitting the batch exactly.

    Ignores preservation entirely.  With full-column-rank keys the post-edit
    editing loss is zero up to round-off; rank-deficient keys are ridged, and
    keys that stay numerically singular beyond the ladder raise.
    """
    _check_batch(mem, batch)
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
        delta = resid @ _cho_solve(factor, k1.T)
        residual = _norm((w + delta) @ k1 - v1) / ref
        if lam == 0.0 and residual > RESIDUAL_TARGET:
            continue
        return SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                           condition_estimate=cond)
    raise SingularSystemError(
        f"batch keys are rank deficient beyond ridge tolerance "
        f"(condition estimate {last_cond:.3e})",
        condition_estimate=last_cond,
    )
