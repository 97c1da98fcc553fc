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

C is factored through its Fortran-ordered view ``c.T``, which for a
symmetric C is the same matrix, so ``potrf`` gets it without a transposing
copy.  ``potrf`` reads one triangle only, and C is not symmetrized first:
the batch Gram K1 K1^T is added by ``gemm``, and so is each batch absorbed
into the backlog Gram, and on some shapes a ``gemm`` sum differs from its
transpose by an ulp in the triangle that is not read.  The residual check
below, assembled from the full carried products, judges every step either
way.  The routines are those of :mod:`lyapedit.lapack`, called directly.

Each solver takes an optional :class:`Carry`, which holds what a step loop
keeps from step to step: the products M0 = W K0K0^T and Mp = W KpKp^T
instead of recomputing them, W' K1 for the losses and the absorb,
lyaplock's last residual and kept factor, and W' itself.  A solve leaves it at the
post-edit weights W'.  Without a carry, the solver seeds one from ``mem``
and the backlog and forms the products densely, as a one-shot caller
needs; with one, it is the step of a loop.

Carried residuals.  Lyaplock's target is U K1^T plus the remainder
v (Vp Kp^T - Mp) + az (V0 K0^T - M0), and that remainder is never assembled
from the products.  After a step solves with az' and its batch is absorbed,
Kp Kp^T and Vp Kp^T have grown by that batch's K1 K1^T and V1 K1^T, so the
next remainder is exactly (az - az') (V0 K0^T - M0) - R, where
R = W' C - RHS is the residual matrix that step's check built.  The carry
keeps R and az'; the first term is formed only when az changed, so on a
step at the queue floor the remainder is -R, round-off.  A fresh carry
seeds R = 0 and az' = 0 at the original weights, where the remainder is
exactly 0; :func:`solve_lyaplock` seeds R = v (W KpKp^T - Vp Kp^T) and
az' = 0, which gives the remainder as it is written above.  The residual
check of every step judges the result, so an error in R cannot pass
unseen: the step it enters misses ``RESIDUAL_TARGET`` and is ridged.

Rank-n steps.  A step's perturbation has the form delta = U X^T whenever
its target is U K1^T for the n keys K1 of the batch: then C X = K1 is a
solve for n columns, not d1, and the products follow by rank-n updates,
M0 += U (K0K0^T X)^T and Mp += U (KpKp^T X)^T, each one in-place BLAS
``gemm``.  No dense d1 x d0^2 product is formed.  The target is exactly
U K1^T for baseline and edit-only on every step, and for lyaplock when its
remainder is 0 or -R.  Baseline and lyaplock try the rank-n form on the
unridged factor, lyaplock only when the remainder is at most
``SNAP_THRESHOLD`` ||RHS||, round-off and not signal; the rule reads only
the step's own inputs.  Edit-only always has this form, ridged or not.

Either form ends with the same residual check, ||W' C - RHS|| / ||RHS||,
with W' C assembled from the products.  A rank-n step that misses
``RESIDUAL_TARGET`` falls back to the full target on the same factor, which
recomputes the products densely.  After every rank-n update a Freivalds
check compares M z with W' (G z) for one fixed vector z, O(d0^2 + d1 d0); a
gap beyond ``CARRY_TOLERANCE`` recomputes the products densely, so rounding
in the carried products cannot grow unseen.  z and K0K0^T z are formed once
per carry, since K0K0^T never changes.

Kept factor.  While (v, az) hold, C(t) = az K0K0^T + v (KpKp^T + K1K1^T)
is the last factored system C(s) plus v K~ K~^T for the keys K~ of the
batches since step s, the step's own included.  The carry keeps the
unridged factor of C(s), with its condition estimate, K~, Y~ = C(s)^-1 K~
and the Woodbury core I/v + K~^T Y~.  A rank-n step at the same (v, az)
first solves C X = K1 as X = Y1 - Y~ core^-1 (K~^T Y1), Y1 = C(s)^-1 K1,
without assembling C(t) and without ``potrf``, ``lange`` or ``pocon``: one
n-column ``potrs`` and an r x r Cholesky, r = n k under ``_rank_cap``.  It
reports pocon's estimate for C(s) times 1 + v sum ||K_j||_F^2 / (tr(C(s))/d0),
an upper estimate since C(t) >= C(s), and the estimate must stay within
``CONDITION_LIMIT``.  A finite core and a finite X stand in for the
finiteness check of C, and the step passes the same residual check.  A
miss, an az or v that changed, a full cap or a snapped step drops the kept
factor and falls through to the ridge ladder, which recomputes the products
densely if the kept attempt moved them; the ladder's unridged factor, if
it solves the step, is kept in turn.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, InputError, SingularSystemError
from .lapack import _lange, _norm, _pocon, _potrf, _potrs, add_outer
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
_NO_CORE = np.zeros((0, 0))


@dataclass(frozen=True)
class SolveReport:
    """Perturbation plus solve diagnostics.

    ``residual`` is the relative normal-equation (or fit) residual of the
    returned perturbation; it is at most 1e-8 whenever ``ridge_applied`` is 0.
    ``condition_estimate`` is NaN when the system was already satisfied and no
    factorization was needed.  On a step solved by a kept factor it is the
    kept factor's estimate times 1 + v sum ||K_j||_F^2 / (tr(C(s))/d0), an
    upper estimate for the step's C (see the module docstring).
    """

    delta: np.ndarray
    residual: float
    ridge_applied: float
    condition_estimate: float


def _rank_cap(d0: int, n: int) -> int:
    """The largest pending rank r = n k a kept factor serves before C is
    refactored: max(n, d0 / 4).

    A kept solve at rank r against assembling C, ``potrf``, ``pocon`` and
    one ``potrs`` (n = 8, one BLAS thread, 2-vCPU Xeon host, medians):
    d0=64: 0.026 ms at r=16 and 0.049 ms at r=56, against 0.043 ms;
    d0=256: 0.087 ms at r=16 and 0.51 ms at r=256, against 0.65 ms;
    d0=1024: 0.87 ms at r=16 and 10.6 ms at r=1024, against 14.2 ms.  So
    the crossover lies near 3 d0 / 4 at d0=64 and beyond d0 at d0=256 and
    1024; the cap stays well below it, which also bounds the d0 x r solves
    held.
    """
    return max(n, d0 // 4)


class _Kept:
    """An unridged lyaplock factor, kept while (v, az) hold.

    ``factor`` is (L, shift) from :func:`_ridge_attempts` for C(s), the
    system of the step s that factored it at ``v`` and ``az``, with pocon's
    ``cond`` and ``unit`` = tr(C(s))/d0 * 2^-shift.  Each later step t adds
    its batch's v K_t K_t^T, so C(t) = C(s) + v K~ K~^T for the keys K~ of
    the batches since s, the step's own included.  ``keys`` holds those
    K_j, ``solves`` the C(s)^-1 K_j, ``core`` the r x r Woodbury core
    I/v + K~^T C(s)^-1 K~, and ``grown`` v sum ||K_j||_F^2 * 2^-shift.
    The lists grow in place, so :meth:`copy` copies them; every array is
    replaced, never written.
    """

    def __init__(self):
        self.v = self.az = math.nan
        self.keys, self.solves = [], []
        self.clear()

    def copy(self) -> "_Kept":
        other = copy.copy(self)
        other.keys, other.solves = list(self.keys), list(self.solves)
        return other

    def at(self, v: float, az: float) -> None:
        """Drop a factor made at another (v, az); the next one is at these."""
        if (self.v, self.az) != (v, az):
            self.clear()
            self.v, self.az = v, az

    def clear(self) -> None:
        self.seed(None, math.nan, math.nan)

    def seed(self, factor, cond: float, unit: float) -> None:
        """Keep ``factor``, with no batch pending."""
        self.factor, self.cond, self.unit = factor, cond, unit
        self.keys.clear()
        self.solves.clear()
        self.core, self.grown = _NO_CORE, 0.0

    def solve(self, k1: np.ndarray):
        """(X, condition estimate) with C(t) X = K1, or None.

        X = Y1 - Y~ core^-1 (K~^T Y1) with Y1 = C(s)^-1 K1, by one n-column
        ``potrs`` and an r x r Cholesky.  The estimate is pocon's for C(s)
        times 1 + v sum ||K_j||_F^2 / (tr(C(s))/d0), an upper estimate since
        C(t) >= C(s) and tr(C(s))/d0 is at most C(s)'s largest eigenvalue.
        None when the pending rank would pass :func:`_rank_cap`, the
        estimate passes ``CONDITION_LIMIT``, the core is not positive
        definite, or X, and with it the core, is not finite; C(t) is never
        formed.  On success K1 and Y1 join the pending lists.
        """
        d0, n = k1.shape
        r0 = self.core.shape[0]
        if r0 + n > _rank_cap(d0, n):
            return None
        # shift is even, so 2^(-shift/2) is exact.
        grown = self.grown + self.v * (_norm(k1) * math.ldexp(1.0, -self.factor[1] // 2)) ** 2
        cond = self.cond * (1.0 + grown / self.unit)
        if not cond <= CONDITION_LIMIT:
            return None
        y1 = _cho_solve(self.factor, k1)
        r = r0 + n
        core = np.empty((r, r))
        core[:r0, :r0] = self.core
        at = 0
        for k in self.keys + [k1]:  # the new columns, K~^T Y1
            core[at:at + k.shape[1], r0:] = k.T @ y1
            at += k.shape[1]
        cross = core[:, r0:].copy(order="F")
        core[r0:, :r0] = core[:r0, r0:].T
        core.flat[r0 * (r + 1)::r + 1] += 1.0 / self.v
        lower, info = _potrf(core.T, lower=True, clean=False)
        if info != 0:
            return None
        s, info = _potrs(lower, cross, lower=True, overwrite_b=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        x, at = y1.copy(), 0
        for y in self.solves + [y1]:
            x -= y @ s[at:at + y.shape[1]]
            at += y.shape[1]
        # Every new entry of the core is a right-hand side of its solve, so
        # a finite X also means a finite core.
        if not np.isfinite(x).all():
            return None
        self.keys.append(k1)
        self.solves.append(y1)
        self.core, self.grown = core, grown
        return x, cond


@dataclass(eq=False)
class Carry:
    """What a step loop keeps for one weight trajectory from step to step.

    Every solve reads it at the current weights W and leaves it at the
    post-edit weights W':

    - ``m0`` and ``mp``: the products W K0K0^T and W KpKp^T, updated in place
    - ``kp_gram``: the backlog Gram KpKp^T that ``mp`` is carried against,
      held by reference; ``memory.absorb`` grows it in place, and
      :meth:`absorbed` moves ``mp`` with it
    - ``wk1``: W' K1 for the step's batch, which the editing loss and the
      absorb of the batch read
    - ``resid`` and ``az``: the residual matrix W' C - RHS of the last
      lyaplock solve and the az it solved with, from which the next
      lyaplock target is formed (see the module docstring); the next solve
      builds its target in ``resid``.  The other editors leave both.
    - ``w``: W' itself, the array the solve's residual check used
    - ``kept``: lyaplock's last unridged factor and the batches absorbed
      since (see the module docstring)
    - ``freivalds``: the fixed vector z of the Freivalds check and
      K0K0^T z, formed at its first rank-n step
    """

    m0: np.ndarray
    mp: np.ndarray
    kp_gram: np.ndarray
    resid: np.ndarray | None = None
    az: float = 0.0
    wk1: np.ndarray | None = None
    w: np.ndarray | None = None
    kept: _Kept = field(default_factory=_Kept)
    freivalds: tuple | None = None

    @classmethod
    def start(cls, mem: AssociativeMemory, backlog: BacklogAccumulator) -> "Carry":
        """At the original weights ``mem.w0`` against the empty ``backlog``.

        M0 = W0 K0K0^T is a copy of V0 K0^T, and Mp and R are zeros, so the
        first lyaplock target's remainder is exactly 0.  ``np.zeros`` pages
        in no memory until it is written, so R costs nothing resident for
        an editor that never writes it.
        """
        return cls(m0=mem.v0k0t.copy(), mp=np.zeros(mem.w.shape),
                   kp_gram=backlog.kp_gram, resid=np.zeros(mem.w.shape))

    def absorbed(self, batch: EditBatch) -> None:
        """Carry W KpKp^T across the absorb of ``batch``: a rank-n update.

        Called once ``memory.absorb`` has added K1 K1^T to ``kp_gram``; the
        solve left W' K1 in ``wk1``, so Mp grows by (W' K1) K1^T.
        """
        add_outer(self.mp, self.wk1, batch.k1)

    def copy(self) -> "Carry":
        """A carry at the same weights whose solves leave this one as it is.

        A solve updates ``m0``, ``mp``, ``resid`` and ``kept``'s pending
        lists in place, so those are copied.  It replaces ``wk1``, ``w`` and
        every array ``kept`` holds without writing them, ``kp_gram`` is the
        one backlog Gram and ``freivalds`` is fixed, so those are shared.
        """
        return replace(self, m0=self.m0.copy(), mp=self.mp.copy(),
                       resid=self.resid.copy(), kept=self.kept.copy())


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

    ``potrf`` gets the Fortran-ordered view ``ridged.T``, the same matrix
    when it is symmetric, and reads its lower triangle: the upper triangle
    of a C-ordered ``matrix``.

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
        factor, info = _potrf(ridged.T, lower=True, clean=False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        lam = rung * scale
        if info > 0:  # a leading minor is not positive definite
            yield lam, None, float("inf")
            continue
        anorm = float(_lange("I", ridged.T))  # the 1-norm: the largest column sum
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


def _carry(carry: Carry, k0_gram: np.ndarray, w_new: np.ndarray, u: np.ndarray,
           x) -> None:
    """Move the products M = W G of ``carry`` to W' = W + U X^T, in place.

    G is ``k0_gram`` for M0 and ``carry.kp_gram`` for Mp.  With ``x`` None
    every M is recomputed densely as W' G.  Otherwise M += U (G X)^T, and
    every M is recomputed densely only if :func:`_drifted` finds a gap.
    """
    products = ((carry.m0, k0_gram), (carry.mp, carry.kp_gram))
    if x is not None:
        for m, g in products:
            add_outer(m, u, g @ x)
        if carry.freivalds is None:
            z = np.cos(np.arange(w_new.shape[1], dtype=np.float64))
            carry.freivalds = z, k0_gram @ z
        z, g0z = carry.freivalds
        if not _drifted(w_new, z, ((carry.m0, g0z), (carry.mp, carry.kp_gram @ z))):
            return
    for m, g in products:
        np.matmul(w_new, g, out=m)


def _drifted(w_new: np.ndarray, z: np.ndarray, products) -> bool:
    """Whether some M of ``products`` is not W' G, by a Freivalds check.

    ``products`` pairs each M with G z for the carry's fixed vector z, and
    M z is compared with W' (G z) in O(d1 d0); a relative gap above
    ``CARRY_TOLERANCE`` counts as drift.
    """
    w_norm = _norm(w_new)
    for m, gz in products:
        if not _norm(m @ z - w_new @ gz) <= CARRY_TOLERANCE * w_norm * _norm(gz):
            return True
    return False


def _plus_outer(g: np.ndarray, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``g + u @ y.T`` as a new array, by one ``gemm`` on a copy of ``g``.

    numpy forms ``k1 @ k1.T`` with ``syrk`` and then mirrors its triangle in
    a scalar loop: ``k1 @ k1.T + g`` took 10.4 ms at d0=1024 and n=8, against
    2.4 ms for the copy and the ``gemm`` (one BLAS thread).
    """
    out = g.copy()
    add_outer(out, u, y)
    return out


def _weighted(az: float, a: np.ndarray, v: float, b: np.ndarray,
              u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``az a + v (b + u @ y.T)`` as a new array.

    With v = 1, as in every run without a ``v_weight``, no other temporary
    is made: ``b`` is added in place and ``u @ y.T`` by one ``gemm``.
    """
    out = np.multiply(a, az)
    if v == 1.0:
        out += b
        add_outer(out, u, y)
    else:
        out += v * _plus_outer(b, u, y)
    return out


def _overflowed(x: np.ndarray, norm: float) -> bool:
    """Whether ``x``, whose ``nrm2`` is ``norm``, has a non-finite entry.

    ``nrm2`` is not finite when an entry is inf or NaN, and is finite for
    finite entries unless the norm itself overflows; only then are the
    entries scanned.
    """
    return not math.isfinite(norm) and not np.isfinite(x).all()


def _assembly_overflowed() -> SingularSystemError:
    return SingularSystemError(
        "normal-equation assembly overflowed; the weighted system is not "
        "representable in double precision"
    )


def _normal_solve(w: np.ndarray, system, u: np.ndarray, k1: np.ndarray,
                  rest, rhs_full: np.ndarray, times_c, kept: _Kept | None = None):
    """Solve ``delta @ C = U K1^T + rest``.

    Returns the report, ``W + delta`` and the residual matrix
    ``(W + delta) @ C - RHS``, whose norm over ||RHS|| is the reported
    residual.  The target U K1^T + rest is RHS - W @ C, assembled from
    residual products by the caller; ``rest`` is None when it is exactly 0.
    ``system()`` assembles C as a new array, which is then factored in
    place; it is called only when a factorization is needed.  ``rest`` is
    the caller's scratch, overwritten here.  ``rhs_full`` is only used to
    measure the residual.  ``times_c(w_new, x)`` moves the caller's
    products to ``w_new`` and returns ``w_new @ C`` as a new array assembled
    from them: by the rank-n update for delta = U X^T, or densely when ``x``
    is None.  That array becomes the residual matrix.

    C is factored as it is, through its Fortran-ordered view, and only
    one of its triangles is read: it need not be exactly symmetric, and it
    is not symmetrized (see the module docstring).

    When ||rest|| <= SNAP_THRESHOLD ||RHS||, the solve tries delta = U X^T
    with C X = K1 for n columns (see the module docstring): first by
    ``kept``'s factor, if it holds one, then by the unridged factor of C.
    Every other attempt solves for the full target.  ``kept`` holds the
    caller's last unridged factor for this (v, az); the solve leaves it
    holding the factor it solved with, extended or new, or none.
    """
    rhs_norm = _norm(rhs_full)
    ref = max(rhs_norm, _TINY)
    if rest is None:
        rank_n, target = True, u @ k1.T
    else:
        rank_n, target = _norm(rest) <= SNAP_THRESHOLD * ref, rest
        add_outer(target, u, k1)
    target_norm = _norm(target)
    if _overflowed(target, target_norm) or _overflowed(rhs_full, rhs_norm):
        raise _assembly_overflowed()

    def checked(w_new, x):
        resid = times_c(w_new, x)
        resid -= rhs_full
        return _norm(resid) / ref, resid

    snap = target_norm <= SNAP_THRESHOLD * ref
    # Whether a kept attempt moved the products, so that only a dense
    # recompute puts them at the next candidate's weights.
    moved = False
    if kept is not None and kept.factor is not None:
        solved = kept.solve(k1) if rank_n and not snap else None
        if solved is not None:
            x, cond = solved
            delta = u @ x.T
            w_new = w + delta
            residual, resid = checked(w_new, x)
            if residual <= RESIDUAL_TARGET:
                return SolveReport(delta=delta, residual=residual, ridge_applied=0.0,
                                   condition_estimate=cond), w_new, resid
            moved = True
        kept.clear()
    c = system()
    if not np.isfinite(c).all():
        raise _assembly_overflowed()
    if snap:
        residual, resid = checked(w, None)
        return SolveReport(delta=np.zeros_like(w), residual=residual,
                           ridge_applied=0.0,
                           condition_estimate=float("nan")), w, resid
    last_cond = float("inf")
    for lam, factor, cond in _ridge_attempts(c):
        last_cond = cond
        if factor is None:
            continue
        report = None
        if rank_n and lam == 0.0:
            x = _cho_solve(factor, k1)
            delta = u @ x.T
            w_new = w + delta
            residual, resid = checked(w_new, None if moved else x)
            if residual <= RESIDUAL_TARGET:
                report = SolveReport(delta=delta, residual=residual,
                                     ridge_applied=lam, condition_estimate=cond)
        if report is None:
            delta = _cho_solve(factor, target.T).T
            w_new = w + delta
            residual, resid = checked(w_new, None)
            if not np.isfinite(residual) or (lam == 0.0 and residual > RESIDUAL_TARGET):
                continue
            report = SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                                 condition_estimate=cond)
        if kept is not None and lam == 0.0:
            # _ridge_attempts scaled c by 2^-shift in place.
            kept.seed(factor, cond, float(c.trace()) / c.shape[0])
        return report, w_new, resid
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
                   batch: EditBatch, v_weight: float, az: float,
                   carry: Carry | None = None) -> SolveReport:
    """Queue-weighted update: minimize v_weight*(EL + BL) + az*PL.

    Parameters
    ----------
    - mem: current memory; ``mem.w`` is the pre-edit weight matrix
    - bk: backlog Grams of previously applied edits (may be empty)
    - batch: this step's keys and target values
    - v_weight: weight on editing plus backlog loss, must be positive
    - az: preservation weight, the queue value scaled by the queue gain a
    - carry: a step loop's :class:`Carry` at ``mem.w``, carried against
      ``bk.kp_gram``; the solve leaves it at W' = W + delta, with this
      solve's residual, ``az`` and kept factor.  Without one, the solve
      seeds a carry with R = v_weight (W KpKp^T - Vp Kp^T), az' = 0 and no
      kept factor.

    The perturbation is the unique minimizer whenever
    C = v_weight*(K1 K1^T + Kp Kp^T) + az*K0 K0^T is positive definite.
    """
    _check_lyaplock(mem, bk, batch, v_weight, az)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    if carry is None:
        mp = w @ bk.kp_gram
        with np.errstate(over="ignore"):
            # With az' = 0 the carried remainder is the one written out.
            resid = v_weight * (mp - bk.vpkpt)
        carry = Carry(m0=w @ mem.k0_gram, mp=mp, kp_gram=bk.kp_gram, resid=resid)
    m0, mp = carry.m0, carry.mp
    carry.kept.at(v_weight, az)
    with np.errstate(over="ignore"):
        rhs_full = _weighted(az, mem.v0k0t, v_weight, bk.vpkpt, v1, k1)
        # Residual assembly: exact zeros survive, unlike rhs_full - w @ c.
        u = v_weight * (v1 - w @ k1)
        # The remainder from the carried residual, in its buffer.
        rest = np.negative(carry.resid, out=carry.resid)
        if az != carry.az:
            moved = np.subtract(mem.v0k0t, m0)
            moved *= az - carry.az
            rest += moved

        def times_c(w_new, x):
            _carry(carry, mem.k0_gram, w_new, u, x)
            carry.wk1 = w_new @ k1
            return _weighted(az, m0, v_weight, mp, carry.wk1, k1)

        def system():
            return _weighted(az, mem.k0_gram, v_weight, bk.kp_gram, k1, k1)

        report, carry.w, carry.resid = _normal_solve(w, system, u, k1, rest, rhs_full,
                                                     times_c, carry.kept)
    carry.az = az
    return report


def solve_baseline(mem: AssociativeMemory, batch: EditBatch,
                   carry: Carry | None = None) -> SolveReport:
    """Bi-objective update: delta = (V1 - W K1) K1^T (K0 K0^T + K1 K1^T)^-1.

    This is the conventional one-shot trade-off between editing and
    preservation; it carries no backlog and no queue weighting, so its
    preservation loss accumulates over sequential use.

    ``carry`` is a step loop's :class:`Carry` at ``mem.w``, which the solve
    leaves at W' = W + delta.  The backlog enters only through ``carry.mp``,
    which the loop's backlog loss reads.  Without one, the solve seeds a
    carry with M0 = W K0K0^T against an empty backlog.
    """
    _check_batch(mem, batch)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    if carry is None:
        carry = Carry(m0=w @ mem.k0_gram, mp=np.zeros_like(w),
                      kp_gram=np.zeros_like(mem.k0_gram))
    m0 = carry.m0
    u = v1 - w @ k1
    rhs_full = _plus_outer(m0, v1, k1)  # W C + target

    def times_c(w_new, x):
        _carry(carry, mem.k0_gram, w_new, u, x)
        carry.wk1 = w_new @ k1
        return _plus_outer(m0, carry.wk1, k1)

    report, carry.w, _ = _normal_solve(w, lambda: _plus_outer(mem.k0_gram, k1, k1),
                                       u, k1, None, rhs_full, times_c)
    return report


def solve_edit_only(mem: AssociativeMemory, batch: EditBatch,
                    carry: Carry | None = None) -> SolveReport:
    """Ablation: minimum-Frobenius-norm perturbation fitting the batch exactly.

    Ignores preservation entirely.  With full-column-rank keys the post-edit
    editing loss is zero up to round-off; rank-deficient keys are ridged, and
    keys that stay numerically singular beyond the ladder raise.

    ``carry`` is a step loop's :class:`Carry` at ``mem.w``, which the solve
    leaves at W' = W + delta, moving the products by the rank-n update.
    Without one, nothing is carried.
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
        xt = _cho_solve(factor, k1.T)
        delta = resid @ xt
        w_new = w + delta
        wk1 = w_new @ k1
        residual = _norm(wk1 - v1) / ref
        if lam == 0.0 and residual > RESIDUAL_TARGET:
            continue
        if carry is not None:
            carry.w, carry.wk1 = w_new, wk1
            _carry(carry, mem.k0_gram, w_new, resid, xt.T)
        return SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                           condition_estimate=cond)
    raise SingularSystemError(
        f"batch keys are rank deficient beyond ridge tolerance "
        f"(condition estimate {last_cond:.3e})",
        condition_estimate=last_cond,
    )
