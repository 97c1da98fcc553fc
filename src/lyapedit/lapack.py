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
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os

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
