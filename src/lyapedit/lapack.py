"""The compiled LAPACK and BLAS routines lyapedit calls directly.

LAPACK ``potrf``, ``potrs``, ``pocon`` and ``lange`` and BLAS ``nrm2``,
``gemm`` and ``axpy`` are bound once, at import, and called directly: the
same routines with the same arguments that scipy's ``cho_factor``,
``cho_solve`` and ``norm`` would call, without their per-call validation
and lookup.  A step at d0=64 costs about a megaflop, so that fixed cost
mattered.

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

The routines are Fortran: a C-ordered matrix handed to them is first copied
into Fortran order with a transpose.  A symmetric matrix is its own
transpose, so callers hand ``potrf`` the Fortran-ordered view ``c.T``, and
``add_outer`` updates the view ``m.T`` in place.

``_factor_gram`` factors a preserved Gram K0 K0^T as the solvers' unridged
rung would, with the scale helpers it shares with ``editors._ridge_attempts``;
``memory.new_memory`` keeps the factor it makes.

``in_two`` runs the two halves of one large dense kernel at once, one on a
worker thread: numpy releases the interpreter lock inside its ufunc loops
and BLAS calls, so the halves overlap on two cores.
"""
from __future__ import annotations

import contextvars
import importlib.machinery
import importlib.util
import math
import os
import threading

import numpy as np
import scipy


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


_flapack = _load_compiled("_flapack")
_potrf, _potrs, _pocon = _flapack.dpotrf, _flapack.dpotrs, _flapack.dpocon
_lange = _flapack.dlange
_fblas = _load_compiled("_fblas")
_nrm2, _gemm, _axpy = _fblas.dnrm2, _fblas.dgemm, _fblas.daxpy
_TINY = float(np.finfo(np.float64).tiny)


def _norm(x: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, which rescales as it sums.

    ``np.linalg.norm`` squares the entries first, so it overflows to inf or
    underflows to 0 far inside the range of representable matrices.
    """
    return float(_nrm2(x.ravel()))


def _in_place(m: np.ndarray) -> bool:
    return m.flags.c_contiguous and m.flags.writeable


def add_outer(m: np.ndarray, u: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> None:
    """``m += alpha * u @ y.T`` in place, without a d1 x d0 temporary.

    One ``gemm`` with beta = 1 on ``m.T``, which is Fortran-ordered when
    ``m`` is C-ordered; any other ``m`` takes the plain numpy form.
    """
    if _in_place(m):
        _gemm(alpha, y.T, u.T, 1.0, m.T, trans_a=1, overwrite_c=1)
    else:
        m += alpha * (u @ y.T)


def add_scaled(m: np.ndarray, alpha: float, x: np.ndarray) -> None:
    """``m += alpha * x`` in place by one ``axpy``, without a temporary.

    ``x`` has the shape of ``m``; a C-ordered ``m`` is updated through its
    flat view, any other takes the plain numpy form.
    """
    if _in_place(m):
        _axpy(x.ravel(), m.ravel(), a=alpha)
    else:
        m += alpha * x


def _mean_diagonal(matrix: np.ndarray) -> float:
    """tr(C)/dim, inf where the trace overflows."""
    with np.errstate(over="ignore"):
        return float(np.trace(matrix)) / matrix.shape[0]


def _even_shift(scale: float) -> int:
    """The even power of two that brings ``scale`` into [1/2, 2)."""
    return 2 * (math.frexp(scale)[1] // 2)


def _condition(factor: np.ndarray, anorm: float) -> float:
    """pocon's estimate of the condition of the matrix whose Cholesky factor
    is ``factor`` and whose 1-norm is ``anorm``; inf if it finds none."""
    rcond, info = _pocon(factor, anorm, uplo="L")
    return 1.0 / float(rcond) if info == 0 and rcond > 0.0 else float("inf")


def _factor_gram(gram: np.ndarray):
    """The unridged Cholesky factor of a symmetric Gram, as the unridged rung
    of ``editors._ridge_attempts`` would make it, or None.

    The Gram is factored on one copy scaled by the same even power of two,
    and ``gram`` is left as it is.  The result is (factor, cond, unit) for
    ``editors._Kept.seed``: the factor (L, shift) made read-only, pocon's
    estimate and tr(G)/dim * 2^-shift.  None where ``potrf`` finds the
    Gram not positive definite, and, unfactored, where its mean diagonal is
    subnormal or its trace overflows, which the ridge ladder would reject
    or scale by another rule.
    """
    scale = _mean_diagonal(gram)
    if not _TINY <= scale < math.inf:
        return None
    shift = _even_shift(scale)
    scaled = np.multiply(gram, math.ldexp(1.0, -shift))
    anorm = float(_lange("I", scaled.T))
    factor, info = _potrf(scaled.T, lower=True, clean=False, overwrite_a=1)
    if info != 0:
        return None
    factor.flags.writeable = False
    return (factor, shift), _condition(factor, anorm), math.ldexp(scale, -shift)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where one exists."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_two(first, second) -> None:
    """Run ``first()`` on a new worker thread while ``second()`` runs here.

    The two must write disjoint parts of their output, so their result does
    not depend on which runs first; with one CPU they simply run in turn.
    The worker runs in a copy of the caller's context, so it keeps the
    caller's numpy error state (``np.errstate`` is a context variable).  It
    is joined before this returns, and an exception it raised is raised
    here.  A thread start costs about 0.1 ms, so callers split only kernels
    that take about 10 ms or more on one core.
    """
    if _cpu_count() < 2:
        first()
        second()
        return
    context, raised = contextvars.copy_context(), []

    def work():
        try:
            context.run(first)
        except BaseException as exc:  # re-raised in the calling thread
            raised.append(exc)

    worker = threading.Thread(target=work, name="lyapedit-half")
    worker.start()
    try:
        second()
    finally:
        worker.join()
    if raised:
        raise raised[0]
