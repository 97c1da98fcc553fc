"""The compiled LAPACK and BLAS routines lyapedit calls directly.

LAPACK ``potrf``, ``potrs``, ``pocon`` and ``lange`` and BLAS ``nrm2`` and
``gemm`` are bound once, at import, and called directly: the same routines
with the same arguments that scipy's ``cho_factor``, ``cho_solve`` and
``norm`` would call, without their per-call validation and lookup.  A step
at d0=64 costs about a megaflop, so that fixed cost mattered.

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

``in_two`` runs the two halves of one large dense kernel at once, one on a
worker thread: numpy releases the interpreter lock inside its ufunc loops
and BLAS calls, so the halves overlap on two cores.
"""
from __future__ import annotations

import contextvars
import importlib.machinery
import importlib.util
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
_nrm2, _gemm = _fblas.dnrm2, _fblas.dgemm


def _norm(x: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, which rescales as it sums.

    ``np.linalg.norm`` squares the entries first, so it overflows to inf or
    underflows to 0 far inside the range of representable matrices.
    """
    return float(_nrm2(x.ravel()))


def add_outer(m: np.ndarray, u: np.ndarray, y: np.ndarray) -> None:
    """``m += u @ y.T`` in place, without a d1 x d0 temporary.

    One ``gemm`` with beta = 1 on ``m.T``, which is Fortran-ordered when
    ``m`` is C-ordered; any other ``m`` takes the plain numpy form.
    """
    if m.flags.c_contiguous and m.flags.writeable:
        _gemm(1.0, y.T, u.T, 1.0, m.T, trans_a=1, overwrite_c=1)
    else:
        m += u @ y.T


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
