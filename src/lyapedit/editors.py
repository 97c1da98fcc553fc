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

C is factored in place through its Fortran-ordered view ``c.T``, which
for a symmetric C is the same matrix, so ``potrf`` gets it without a
transposing copy, once its 1-norm and tr(C)/dim are read; a ridged attempt
factors a fresh C.  ``potrf`` reads one triangle only, and C is not
symmetrized first:
the batch Gram K1 K1^T is added by ``gemm``, and so is each batch absorbed
into the backlog Gram, and on some shapes a ``gemm`` sum differs from its
transpose by an ulp in the triangle that is not read.  The residual check
below, assembled from the full carried products, judges every step either
way.  The routines are those of :mod:`lyapedit.lapack`, called directly.

Deviation coordinates.  The preserving solves work in D = W - W0.  With
V0 = W0 K0 and the backlog anchored at W0 (``memory.BacklogAccumulator``),
lyaplock's normal equations W' C = RHS read D' C = RHS_D, where
C = az K0K0^T + v (KpKp^T + K1K1^T) and RHS_D = v (B + U0 K1^T), for
U0 = V1 - W0 K1 and the backlog's B = sum U0 K1^T: the preserved term
anchors at D = 0 and drops out.  So the right-hand side, ``SNAP_THRESHOLD``
and ``RESIDUAL_TARGET`` are judged at the problem's own scale, not at the
scale of W0, and the loss and residual of a step whose edit is tiny next
to W0 keep their digits.  Edit-only, whose problem has no W0 in it, solves
at the absolute weights and carries D' only for the losses.

Each solver takes an optional :class:`Carry`, which holds what a step loop
keeps from step to step: the products E0 = D K0K0^T and Ep = D KpKp^T
instead of recomputing them, D' K1 for the absorb, W' K1 - V1 for the
editing loss, the last kept factor, and D' itself.  A solve leaves it at
the post-edit deviation D'; with a carry, the preserving solves read D
from it and not ``mem.w``.  Without a carry,
the solver seeds one from ``mem``, at D = W - W0, and the backlog and
forms the products densely, as a one-shot caller needs; with one, it is
the step of a loop.  While the backlog Gram is empty, as on the probe and
every path's step 1, Ep = 0 whatever D is: it is left untouched, and
neither updated nor checked.

The residual buffer.  A solve forms RHS_D once, in a buffer of its own,
and takes ||RHS_D|| from it.  The residual D' C - RHS_D of an attempt is
then assembled in that buffer: it is negated, az E0 and v Ep are added by
``axpy`` and the batch term v (D' K1) K1^T by one ``gemm``.  An attempt
after the first rebuilds RHS_D there; baseline's, whose E0 at D the first
attempt moved, forms it densely as D K0K0^T.  A step thus holds RHS_D,
the edit and D' beside the carry, lyaplock's remainder too, and no copy
of C.

Lyaplock's remainder.  Lyaplock's target is U K1^T plus the remainder
v B - v Ep - az E0, with U = v (U0 - D K1), formed from the carried
products and the backlog's B on every step, by one multiply and an
``axpy`` per product; the Ep term only while the backlog Gram is
non-empty.  At step 1 it is exactly 0.  On a step at the same az and v as
the last, as at the queue floor, it is round-off: the last step's batch,
now absorbed, added its K1 K1^T and U0 K1^T to the backlog and
(D' K1) K1^T to Ep, so the remainder is minus that step's residual
D' C - RHS_D, which the residual check held to the round-off of its solve,
and the direct form adds a few ulps of v B, v Ep and az E0.  So the
rank-n rule below reads it as round-off there.  An error in a carried
product enters the target, and the residual check, which reads the
products once the Freivalds check or a dense recompute has put them at
D', finds the miss: the step is ridged.

Baseline's corner.  Baseline, the MEMIT-style batch update, solves
lyaplock's system at v = az = 1, with the preservation term anchored at
the current weights and no backlog: its right-hand side holds the carried
E0 = D K0K0^T where lyaplock's holds none, so the remainder is exactly 0,
and the backlog is left out of C, of the RHS and of D' C.  Its target is
U K1^T, C = K0K0^T + K1K1^T and RHS_D = E0 + U0 K1^T.  Both editors make
one private solve; in the corner it moves E0, Ep, D' K1, D' and the
kept factor as for lyaplock.

Rank-n steps.  A step's perturbation has the form delta = U X^T whenever
its target is U K1^T for the n keys K1 of the batch: then C X = K1 is a
solve for n columns, not d1, and the products follow by rank-n updates,
E0 += U (K0K0^T X)^T and Ep += U (KpKp^T X)^T, each one in-place BLAS
``gemm``.  No dense d1 x d0^2 product is formed.  The target is exactly
U K1^T for baseline and edit-only on every step, and for lyaplock when its
remainder is 0, and up to round-off when az and v did not change.  The
preserving solve tries the rank-n form on the unridged factor when the
remainder is 0 or at most ``SNAP_THRESHOLD`` ||RHS_D||, round-off and not
signal; the rule reads only the step's own inputs.  Edit-only always has
this form, ridged or not.  Where the remainder is exactly 0, as in
baseline's corner, the target U K1^T is formed for the snap rule's norm
and dropped, and formed again only if the full target is solved for.

Norms are taken in one frame: ``nrm2`` of a RHS_D whose entries are
finite can still overflow, and then every norm the solve compares with
||RHS_D|| is taken on a copy scaled by one power of two, so the edit is
neither snapped to zero nor judged by a residual of NaN.

Either form ends with the same residual check,
||D' C - RHS_D|| / ||RHS_D||, with D' C assembled from the products.  A
rank-n step that misses
``RESIDUAL_TARGET`` falls back to the full target on the same factor, which
recomputes the products densely.  After every rank-n update a Freivalds
check compares E z with D' (G z) for one fixed vector z, O(d0^2 + d1 d0); a
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

The preserved Gram's factor.  A memory built by ``memory.new_memory``
carries the unridged factor of K0K0^T that it made when it formed the Gram
(``mem.k0_factor``, from ``lapack._factor_gram``).
At az = 1 and without a backlog, C is K0K0^T + v K1K1^T, that is
C(s) = K0K0^T with the step's batch pending.  So whenever az = 1 and the
system has no backlog, the solve seeds the carry's kept factor from it, or
clears the kept factor if the memory has none.  That holds on every
baseline call, the probe included, so a baseline batch never joins its own
next system, and on lyaplock's steps at an empty backlog, which with the
queue floored at exactly 1 is every path's step 1; lyaplock's stretch then
goes on as above.  Its estimate is pocon's for K0K0^T times
1 + v ||K1||_F^2 / (tr(K0K0^T)/d0).  A memory without it, as ``new_memory``
builds where the Gram is not positive definite, its mean diagonal is
subnormal or its trace overflows, factors C on those steps.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, InputError, SingularSystemError
from .lapack import (_TINY, _condition, _even_shift, _lange, _mean_diagonal, _norm,
                     _potrf, _potrs, add_outer, add_scaled)
from .memory import AssociativeMemory, BacklogAccumulator, EditBatch

RIDGE_LADDER = (1e-10, 1e-8, 1e-6)
CONDITION_LIMIT = 1e12
RESIDUAL_TARGET = 1e-8
# Residual targets this far below the system scale are round-off, not signal;
# the solver returns an exactly zero perturbation instead of amplifying them.
SNAP_THRESHOLD = 1e-10
# Largest relative gap ||E z - D' (G z)|| / (||D'|| ||G z||) a carried
# product may show before it is recomputed densely.  Over 2000-step runs of
# every editor at d0=64 the gap stayed below 7e-16, and the carried products
# within 6e-15 of the dense ones.
CARRY_TOLERANCE = 1e-12
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
    """An unridged factor, kept while (v, az) hold.

    ``factor`` is (L, shift) from :func:`_ridge_attempts` for C(s), the
    system of the step s that factored it at ``v`` and ``az``, or from
    ``lapack._factor_gram`` for C(s) = K0K0^T at az = 1, with pocon's
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

    Every solve reads it at the current deviation D = W - W0 and leaves it
    at the post-edit deviation D':

    - ``e0`` and ``ep``: the products D K0K0^T and D KpKp^T, updated in place
    - ``kp_gram``: the backlog Gram KpKp^T that ``ep`` is carried against,
      held by reference; ``memory.absorb`` grows it in place, and
      :meth:`absorbed` moves ``ep`` with it
    - ``d``: D itself, which the solve replaces by D'; the weights are
      W0 + D, which a step loop forms only once, at its end
    - ``dk1``: D' K1 for the step's batch, which the absorb of the batch
      reads, and ``fit``: W' K1 - V1, the post-edit residual on the batch,
      which the editing loss reads
    - ``kept``: the last solve's unridged factor, or the preserved Gram's,
      and the batches absorbed since (see the module docstring)
    - ``freivalds``: the fixed vector z of the Freivalds check and
      K0K0^T z, formed at its first rank-n step
    """

    e0: np.ndarray
    ep: np.ndarray
    kp_gram: np.ndarray
    d: np.ndarray
    dk1: np.ndarray | None = None
    fit: np.ndarray | None = None
    kept: _Kept = field(default_factory=_Kept)
    freivalds: tuple | None = None

    @classmethod
    def start(cls, mem: AssociativeMemory, backlog: BacklogAccumulator) -> "Carry":
        """At the original weights ``mem.w0`` against the empty ``backlog``.

        D, E0 and Ep are zeros.  ``np.zeros`` pages in no memory until it is
        written, so Ep costs nothing resident until the first absorb.
        """
        shape = mem.w0.shape
        return cls(e0=np.zeros(shape), ep=np.zeros(shape), kp_gram=backlog.kp_gram,
                   d=np.zeros(shape))

    def absorbed(self, batch: EditBatch) -> None:
        """Carry D KpKp^T across the absorb of ``batch``: a rank-n update.

        Called once ``memory.absorb`` has added K1 K1^T to ``kp_gram``; the
        solve left D' K1 in ``dk1``, so Ep grows by (D' K1) K1^T.
        """
        add_outer(self.ep, self.dk1, batch.k1)

    def copy(self) -> "Carry":
        """A carry at the same weights whose solves leave this one as it is.

        A solve updates ``e0``, ``ep`` and ``kept``'s pending lists in
        place, so those are copied.  It replaces ``d``, ``dk1``, ``fit`` and
        every array ``kept`` holds without writing them, ``kp_gram`` is the
        one backlog Gram and ``freivalds`` is fixed, so those are shared.
        """
        return replace(self, e0=self.e0.copy(), ep=self.ep.copy(),
                       kept=self.kept.copy())


def _ridge_attempts(matrix: np.ndarray, rebuild):
    """Yield (lam, factor, condition_estimate, unit) over the ladder.

    Attempts that fail to factor or whose condition estimate exceeds the
    limit yield a ``None`` factor so the caller can keep escalating (and
    report the final condition estimate on exhaustion).  The factor is
    (L, shift): ``potrf``'s output for the ridged matrix times 2^-shift, L in
    the lower triangle and that matrix above it.  The even power of two
    brings tr(C)/dim near 1 without rounding, so the factor, the ridge and
    the condition estimate scale exactly with the keys: at key scale 2^-500
    a ridge of 1e-10 tr(C)/dim, and the pivots it sets, would be subnormal.
    ``unit`` is tr(C)/dim * 2^-shift, read before C is factored, which
    :meth:`_Kept.seed` takes with the unridged factor.

    Each attempt is factored in place, through the Fortran-ordered view
    ``ridged.T``, the same matrix when it is symmetric, whose lower triangle
    ``potrf`` reads: the upper triangle of a C-ordered matrix.  Its 1-norm
    is taken first.  The unridged attempt factors ``matrix`` itself; each
    ridged one factors a fresh C from ``rebuild()``, so no copy is held
    while a factor is in use.

    A matrix whose mean diagonal is positive but subnormal has already lost
    precision, and no ridge scaled by it can repair that: it raises
    SingularSystemError naming the underflow.
    """
    dim = matrix.shape[0]
    scale = _mean_diagonal(matrix)
    if not np.isfinite(scale):  # the trace overflowed; a finite diagonal's mean cannot
        scale = float(np.sum(np.diagonal(matrix) / dim))
    if 0.0 < scale < _TINY:
        raise SingularSystemError(
            f"system matrix C underflowed: its mean diagonal tr(C)/dim = {scale!r} is "
            f"below the smallest normal double {_TINY!r}, so it is not "
            f"representable in double precision")
    shift = _even_shift(scale)
    unit = math.ldexp(1.0, -shift)
    for rung in (0.0,) + RIDGE_LADDER:
        ridged = matrix if rung == 0.0 else rebuild()
        ridged *= unit
        if rung > 0.0:
            ridged.flat[:: dim + 1] += rung * (scale * unit)
        anorm = float(_lange("I", ridged.T))  # the 1-norm
        factor, info = _potrf(ridged.T, lower=True, clean=False, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        lam = rung * scale
        if info > 0:  # a leading minor is not positive definite
            yield lam, None, float("inf"), scale * unit
            continue
        cond = _condition(factor, anorm)
        yield lam, ((factor, shift) if cond <= CONDITION_LIMIT else None), cond, scale * unit


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """X with ``C X = b`` for a factor (L, shift) from :func:`_ridge_attempts`."""
    lower, shift = factor
    x, info = _potrs(lower, b * math.ldexp(1.0, -shift), lower=True, overwrite_b=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _empty(gram: np.ndarray) -> bool:
    """Whether a Gram K K^T is zero: a positive semidefinite matrix with a
    zero diagonal is."""
    return not np.diagonal(gram).any()


def _carry(carry: Carry, k0_gram: np.ndarray, d_new: np.ndarray, u: np.ndarray,
           x, backlog: bool) -> None:
    """Move the products E = D G of ``carry`` to D' = D + U X^T, in place.

    G is ``k0_gram`` for E0 and ``carry.kp_gram`` for Ep; without a
    ``backlog``, that is while the backlog Gram is empty, Ep = 0 whatever D
    is, and it is left untouched.  With ``x`` None every E is recomputed
    densely as D' G.  Otherwise E += U (G X)^T, and every E is recomputed
    densely only if :func:`_drifted` finds a gap.
    """
    products = [(carry.e0, k0_gram)]
    if backlog:
        products.append((carry.ep, carry.kp_gram))
    if x is not None:
        for m, g in products:
            add_outer(m, u, g @ x)
        if carry.freivalds is None:
            z = np.cos(np.arange(d_new.shape[1], dtype=np.float64))
            carry.freivalds = z, k0_gram @ z
        z, g0z = carry.freivalds
        checks = [(carry.e0, g0z)] + [(m, g @ z) for m, g in products[1:]]
        if not _drifted(d_new, z, checks):
            return
    for m, g in products:
        np.matmul(d_new, g, out=m)


def _drifted(d_new: np.ndarray, z: np.ndarray, products) -> bool:
    """Whether some E of ``products`` is not D' G, by a Freivalds check.

    ``products`` pairs each E with G z for the carry's fixed vector z, and
    E z is compared with D' (G z) in O(d1 d0); a relative gap above
    ``CARRY_TOLERANCE`` counts as drift.
    """
    d_norm = _norm(d_new)
    for m, gz in products:
        if not _norm(m @ z - d_new @ gz) <= CARRY_TOLERANCE * d_norm * _norm(gz):
            return True
    return False


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


def _frame(rhs: np.ndarray) -> tuple[float, int]:
    """(||RHS|| 2^-shift, shift): the frame the solve measures norms in.

    ``shift`` is 0 unless ``nrm2`` overflows on a finite RHS; then it is the
    power of two that brings RHS's largest entry into [1/2, 1), and the norm
    is taken on a scaled copy.  A RHS with a non-finite entry raises.
    """
    norm = _norm(rhs)
    if math.isfinite(norm):
        return norm, 0
    if not np.isfinite(rhs).all():
        raise _assembly_overflowed()
    shift = math.frexp(float(np.max(np.abs(rhs))))[1]
    return _norm(rhs * math.ldexp(1.0, -shift)), shift


def _norm_in(x: np.ndarray, shift: int) -> float:
    """||x|| 2^-shift in the frame of :func:`_frame`; on a scaled copy when
    ``nrm2`` of ``x`` itself overflows."""
    norm = _norm(x)
    if shift == 0:
        return norm
    if norm == math.inf:
        return _norm(x * math.ldexp(1.0, -shift))
    return math.ldexp(norm, -shift)


def _target_norm(target: np.ndarray, shift: int) -> float:
    """||target|| in the frame of :func:`_frame`; a target with a non-finite
    entry raises."""
    norm = _norm_in(target, shift)
    if _overflowed(target, norm):
        raise _assembly_overflowed()
    return norm


def _normal_solve(d: np.ndarray, system, u: np.ndarray, k1: np.ndarray,
                  rest, rhs: np.ndarray, residual_at, kept: _Kept):
    """Solve ``delta @ C = U K1^T + rest`` at the deviation ``d``.

    Returns the report and ``D + delta``.  The target U K1^T + rest is
    RHS - D @ C, assembled from residual products by the caller; ``rest``
    is None when it is exactly 0, and the target is then formed for its norm, dropped, and formed again
    only if the full target is solved for.
    ``system()`` assembles C as a new array, which is then factored in
    place; it is called only when a factorization is needed, and again for
    each ridged attempt.  ``rest`` is the caller's scratch, overwritten
    here.  ``rhs`` is read for its norm, the reference, before the first
    ``residual_at(d_new, x)``, which moves the caller's products to
    ``d_new`` and returns ``d_new @ C - RHS``, assembled from them, whose
    norm over ||RHS|| is the reported residual, in an array the caller may
    reuse on its next call: by the rank-n update for delta = U X^T, or
    densely when ``x`` is None.

    C is factored as it is, through its Fortran-ordered view, and only
    one of its triangles is read: it need not be exactly symmetric, and it
    is not symmetrized (see the module docstring).

    When ||rest|| <= SNAP_THRESHOLD ||RHS||, the solve tries delta = U X^T
    with C X = K1 for n columns (see the module docstring): first by
    ``kept``'s factor, if it holds one, then by the unridged factor of C.
    Every other attempt solves for the full target.  ``kept`` holds the
    caller's last unridged factor for this (v, az), or none; the solve
    leaves it holding the factor it solved with, extended or new, or none.

    Norms are measured in the frame of :func:`_frame`, so a RHS whose
    ``nrm2`` overflows on finite entries neither snaps every target to a
    zero edit nor reads every residual as NaN.
    """
    rhs_norm, shift = _frame(rhs)
    ref = max(rhs_norm, _TINY)
    if rest is None:
        rank_n, target = True, None
        # The target is formed for its norm and dropped: it is needed again
        # only if the full target is solved for.
        snap = _target_norm(u @ k1.T, shift) <= SNAP_THRESHOLD * ref
    else:
        rank_n, target = _norm_in(rest, shift) <= SNAP_THRESHOLD * ref, rest
        add_outer(target, u, k1)
        snap = _target_norm(target, shift) <= SNAP_THRESHOLD * ref

    def checked(d_new, x):
        return _norm_in(residual_at(d_new, x), shift) / ref

    # Whether a kept attempt moved the products, so that only a dense
    # recompute puts them at the next candidate's weights.
    moved = False
    if kept.factor is not None:
        solved = kept.solve(k1) if rank_n and not snap else None
        if solved is not None:
            x, cond = solved
            delta = u @ x.T
            d_new = d + delta
            residual = checked(d_new, x)
            if residual <= RESIDUAL_TARGET:
                return SolveReport(delta=delta, residual=residual, ridge_applied=0.0,
                                   condition_estimate=cond), d_new
            moved = True
        kept.clear()
    c = system()
    if not np.isfinite(c).all():
        raise _assembly_overflowed()
    if snap:
        return SolveReport(delta=np.zeros_like(d), residual=checked(d, None),
                           ridge_applied=0.0, condition_estimate=float("nan")), d
    last_cond = float("inf")
    for lam, factor, cond, unit in _ridge_attempts(c, system):
        last_cond = cond
        if factor is None:
            continue
        report = None
        if rank_n and lam == 0.0:
            x = _cho_solve(factor, k1)
            delta = u @ x.T
            d_new = d + delta
            residual = checked(d_new, None if moved else x)
            if residual <= RESIDUAL_TARGET:
                report = SolveReport(delta=delta, residual=residual,
                                     ridge_applied=lam, condition_estimate=cond)
        if report is None:
            if target is None:  # the rank-n form missed: formed again
                target = u @ k1.T
            delta = _cho_solve(factor, target.T).T
            d_new = d + delta
            residual = checked(d_new, None)
            if not np.isfinite(residual) or (lam == 0.0 and residual > RESIDUAL_TARGET):
                continue
            report = SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                                 condition_estimate=cond)
        if lam == 0.0:
            kept.seed(factor, cond, unit)
        return report, d_new
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
    if bk.w0 is not mem.w0 and not np.array_equal(bk.w0, mem.w0):
        raise InputError("the backlog is anchored at other original weights "
                         "than the memory's w0")


def _preserving_solve(mem: AssociativeMemory, bk: BacklogAccumulator | None,
                      batch: EditBatch, v_weight: float, az: float,
                      carry: Carry | None) -> SolveReport:
    """Lyaplock's solve, or with ``bk`` None baseline's corner of it (see
    the module docstring), on inputs the caller has checked."""
    k1 = batch.k1
    u0 = batch._u0(mem.w0)
    if carry is None:
        d = mem.w - mem.w0
        kp_gram = np.zeros_like(mem.k0_gram) if bk is None else bk.kp_gram
        ep = np.zeros_like(d) if _empty(kp_gram) else d @ kp_gram
        carry = Carry(e0=d @ mem.k0_gram, ep=ep, kp_gram=kp_gram, d=d)
    d, e0, kept = carry.d, carry.e0, carry.kept
    # Ep, exactly 0 while the backlog Gram is empty, is then not read.
    backlog = not _empty(carry.kp_gram)
    if bk is None:
        cross, kp_gram, ep = None, None, None
    else:
        cross, kp_gram = bk.u0kpt, bk.kp_gram
        ep = carry.ep if backlog else None
    kept.at(v_weight, az)
    if az == 1.0 and (bk is None or bk.absorbed == 0):
        if mem.k0_factor is None:
            kept.clear()
        else:
            kept.seed(*mem.k0_factor)
    with np.errstate(over="ignore"):
        vu0 = u0 if bk is None else v_weight * u0

        def fill(out, moved):
            """RHS_D into ``out``: lyaplock's v B + (v U0) K1^T, or
            baseline's E0 + U0 K1^T, with E0 at D the carried product until
            the solve ``moved`` it and D K0K0^T after."""
            if bk is not None:
                np.multiply(cross, v_weight, out=out)
            elif moved:
                np.matmul(d, mem.k0_gram, out=out)
            else:
                np.copyto(out, e0)
            add_outer(out, vu0, k1)
            return out

        rhs = fill(np.empty(d.shape), False)
        # Residual assembly: exact zeros survive, unlike rhs - d @ c.
        u = v_weight * (u0 - d @ k1)
        rest = None
        if bk is not None:  # the remainder v (B - Ep) - az E0
            rest = np.multiply(cross, v_weight)
            if ep is not None:
                add_scaled(rest, -v_weight, ep)
            add_scaled(rest, -az, e0)
        holds_rhs = True

        def residual_at(d_new, x):
            """D' C - RHS_D, assembled in the RHS buffer as
            -RHS_D + az E0 + v Ep + v (D' K1) K1^T; RHS_D is rebuilt there
            for every call after the first."""
            nonlocal holds_rhs
            _carry(carry, mem.k0_gram, d_new, u, x, backlog)
            carry.dk1 = d_new @ k1
            if not holds_rhs:
                fill(rhs, True)
            holds_rhs = False
            np.negative(rhs, out=rhs)
            add_scaled(rhs, az, e0)
            if ep is not None:
                add_scaled(rhs, v_weight, ep)
            add_outer(rhs, carry.dk1, k1, v_weight)
            return rhs

        def system():
            c = np.multiply(mem.k0_gram, az)
            if kp_gram is not None:
                add_scaled(c, v_weight, kp_gram)
            add_outer(c, k1, k1, v_weight)
            return c

        report, carry.d = _normal_solve(d, system, u, k1, rest, rhs, residual_at, kept)
    carry.fit = carry.dk1 - u0
    return report


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
    - carry: a step loop's :class:`Carry` at the deviation D, carried
      against ``bk.kp_gram``, whose D the solve reads in place of
      ``mem.w`` - ``mem.w0``, so ``mem.w`` is not read; the solve leaves
      it at D' = D + delta, with this solve's kept factor.  Without one,
      the solve seeds a carry at D = ``mem.w`` - ``mem.w0``, with the
      products formed densely and no kept factor.

    At an empty backlog and ``az`` = 1, C = K0K0^T + v_weight K1 K1^T, and
    the carry's kept factor is seeded with ``mem.k0_factor``, or cleared if
    the memory has none (see the module docstring).

    The perturbation is the unique minimizer whenever
    C = v_weight*(K1 K1^T + Kp Kp^T) + az*K0 K0^T is positive definite.
    """
    _check_lyaplock(mem, bk, batch, v_weight, az)
    return _preserving_solve(mem, bk, batch, v_weight, az, carry)


def solve_baseline(mem: AssociativeMemory, batch: EditBatch,
                   carry: Carry | None = None) -> SolveReport:
    """Bi-objective update: delta = (V1 - W K1) K1^T (K0 K0^T + K1 K1^T)^-1.

    This is the conventional one-shot trade-off between editing and
    preservation; it carries no backlog and no queue weighting, so its
    preservation loss accumulates over sequential use.  It is lyaplock's
    system at v = az = 1, anchored at the current weights and without the
    backlog (see the module docstring).

    ``carry`` is a step loop's :class:`Carry` at the deviation D, read in
    place of ``mem.w`` - ``mem.w0``, which the solve leaves at
    D' = D + delta.  The backlog enters only through ``carry.ep``, which the
    loop's backlog loss reads.  Without one, the solve seeds a carry with
    E0 = D K0K0^T against an empty backlog.
    """
    _check_batch(mem, batch)
    return _preserving_solve(mem, None, batch, 1.0, 1.0, carry)


def solve_edit_only(mem: AssociativeMemory, batch: EditBatch,
                    carry: Carry | None = None) -> SolveReport:
    """Ablation: minimum-Frobenius-norm perturbation fitting the batch exactly.

    Ignores preservation entirely.  With full-column-rank keys the post-edit
    editing loss is zero up to round-off; rank-deficient keys are ridged, and
    keys that stay numerically singular beyond the ladder raise.

    Edit-only fits V1 and ignores preservation, so W0 has no part in its
    problem: it solves at the absolute weights ``mem.w``, as a one-shot
    caller does, and its fit residual ||W' K1 - V1|| is judged against
    ||V1||.  ``carry`` is a step loop's :class:`Carry` at D = ``mem.w`` -
    ``mem.w0``, which the solve leaves at D' = D + delta, moving the
    products, which only PL and BL read, by the rank-n update.  Without
    one, nothing is carried.
    """
    _check_batch(mem, batch)
    w, k1, v1 = mem.w, batch.k1, batch.v1
    resid = v1 - w @ k1
    ref = max(_norm(v1), _TINY)
    last_cond = float("inf")
    for lam, factor, cond, _ in _ridge_attempts(k1.T @ k1, lambda: k1.T @ k1):
        last_cond = cond
        if factor is None:
            continue
        # delta = resid @ (K1^T K1)^-1 K1^T is the least-norm interpolant.
        xt = _cho_solve(factor, k1.T)
        delta = resid @ xt
        w_new = w + delta
        fit = w_new @ k1 - v1
        residual = _norm(fit) / ref
        if lam == 0.0 and residual > RESIDUAL_TARGET:
            continue
        if carry is not None:
            carry.d = carry.d + delta
            carry.dk1, carry.fit = carry.d @ k1, fit
            _carry(carry, mem.k0_gram, carry.d, resid, xt.T,
                   not _empty(carry.kp_gram))
        return SolveReport(delta=delta, residual=residual, ridge_applied=lam,
                           condition_estimate=cond)
    raise SingularSystemError(
        f"batch keys are rank deficient beyond ridge tolerance "
        f"(condition estimate {last_cond:.3e})",
        condition_estimate=last_cond,
    )
