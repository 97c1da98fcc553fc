"""Independent verifiers for the closed-form solvers and the queue theory.

Everything here deliberately re-derives its quantities instead of reusing the
solver internals: normal equations are reassembled from scratch, objectives
are minimized by conjugate gradient driven only by the objective's gradient,
and the queue bounds are checked by direct summation.  Agreement between the
two code paths is the point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import QueueParams
from .errors import InputError, OracleFailure
from .memory import AssociativeMemory, BacklogAccumulator, EditBatch
from .stream import SplitMix64, derive_seed

_TINY = float(np.finfo(np.float64).tiny)


def _system(mem: AssociativeMemory, bk: BacklogAccumulator, batch: EditBatch,
            v_weight: float, az: float):
    c = (v_weight * (batch.k1 @ batch.k1.T)
         + v_weight * bk.kp_gram
         + az * mem.k0_gram)
    rhs = (v_weight * (batch.v1 @ batch.k1.T)
           + v_weight * bk.vpkpt
           + az * mem.v0k0t)
    return c, rhs


def verify_normal_equations(mem: AssociativeMemory, bk: BacklogAccumulator,
                            batch: EditBatch, v_weight: float, az: float,
                            delta: np.ndarray) -> float:
    """Relative residual ||(W + delta) @ C - RHS|| / max(||RHS||, tiny)."""
    c, rhs = _system(mem, bk, batch, v_weight, az)
    num = float(np.linalg.norm((mem.w + delta) @ c - rhs))
    return num / max(float(np.linalg.norm(rhs)), _TINY)


def quadratic_objective(mem: AssociativeMemory, bk: BacklogAccumulator,
                        batch: EditBatch, v_weight: float, az: float,
                        delta: np.ndarray) -> float:
    """v_weight*(EL + BL) + az*PL at W + delta, without clamping.

    The backlog and preservation terms come from the stored Grams; the editing
    term uses the explicit batch matrices.
    """
    wd = mem.w + delta
    edit_resid = wd @ batch.k1 - batch.v1
    el = float(np.einsum("ij,ij->", edit_resid, edit_resid))
    bl = (float(np.einsum("ij,ij->", wd @ bk.kp_gram, wd))
          - 2.0 * float(np.einsum("ij,ij->", wd, bk.vpkpt))
          + bk.tr_vpvp)
    pl = (float(np.einsum("ij,ij->", wd @ mem.k0_gram, wd))
          - 2.0 * float(np.einsum("ij,ij->", wd, mem.v0k0t))
          + mem.tr_v0v0)
    return v_weight * (el + bl) + az * pl


def objective_gradient(mem: AssociativeMemory, bk: BacklogAccumulator,
                       batch: EditBatch, v_weight: float, az: float,
                       delta: np.ndarray) -> np.ndarray:
    """Gradient of :func:`quadratic_objective` with respect to delta."""
    wd = mem.w + delta
    return 2.0 * (
        v_weight * ((wd @ batch.k1 - batch.v1) @ batch.k1.T)
        + v_weight * (wd @ bk.kp_gram - bk.vpkpt)
        + az * (wd @ mem.k0_gram - mem.v0k0t)
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a, b))


def minimize_iteratively(mem: AssociativeMemory, bk: BacklogAccumulator,
                         batch: EditBatch, v_weight: float, az: float,
                         steps: int = 1000, init: np.ndarray | None = None):
    """Linear conjugate gradient on the per-step objective.

    The Hessian is ``I (x) 2C``, so CG reaches the minimum in at most d0
    iterations in exact arithmetic; ``steps`` caps the iteration count.
    Curvature comes only from differences of :func:`objective_gradient`
    (``H p = (g(delta + s p) - g(delta)) / s``, with the probe length ``s``
    taken near ``|W + delta|`` so that the difference keeps its digits), so
    the minimizer never touches the solver's factorization.  Each step is the
    exact line minimum along its direction, and the gradient is re-evaluated
    at every iterate rather than updated recursively.

    Returns (delta, objective).  The objective is evaluated at every candidate
    and is monotone non-increasing across iterations.  Iteration stops when
    ``|g|^2 <= (1e-15 (1 + |f|))^2`` or when a step gains no more than
    ``1e-12 (1 + |f|)``.  An :class:`OracleFailure` is raised when the
    curvature along a search direction is not positive (the objective is not
    strictly convex) or when a step raises the objective by more than that
    round-off allowance.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    delta = np.zeros_like(mem.w) if init is None else np.array(init, dtype=np.float64)
    obj = quadratic_objective(mem, bk, batch, v_weight, az, delta)
    grad = objective_gradient(mem, bk, batch, v_weight, az, delta)
    grad_sq = _dot(grad, grad)
    direction = -grad
    for _ in range(steps):
        scale = 1.0 + abs(obj)
        if grad_sq <= (1e-15 * scale) ** 2:
            break
        probe = (1.0 + float(np.linalg.norm(mem.w + delta))) / float(
            np.linalg.norm(direction))
        h_dir = (objective_gradient(mem, bk, batch, v_weight, az,
                                    delta + probe * direction) - grad) / probe
        curvature = _dot(direction, h_dir)
        if not curvature > 0.0:
            raise OracleFailure(
                f"curvature {curvature:.3e} along the search direction is not "
                f"positive; the objective is not strictly convex"
            )
        candidate = delta + (-_dot(grad, direction) / curvature) * direction
        cand_obj = quadratic_objective(mem, bk, batch, v_weight, az, candidate)
        if cand_obj > obj + 1e-12 * scale:
            raise OracleFailure(
                f"conjugate-gradient step raised the objective from {obj!r} "
                f"to {cand_obj!r}"
            )
        gain = obj - cand_obj
        if gain <= 0.0:
            break
        delta, obj = candidate, cand_obj
        if gain <= 1e-12 * scale:
            break
        new_grad = objective_gradient(mem, bk, batch, v_weight, az, delta)
        new_grad_sq = _dot(new_grad, new_grad)
        # Polak-Ribiere (equal to Hestenes-Stiefel under exact line searches),
        # restarted on steepest descent whenever rounding would leave it
        # without descent.
        beta = max(0.0, (new_grad_sq - _dot(new_grad, grad)) / grad_sq)
        direction = beta * direction - new_grad
        if _dot(new_grad, direction) >= 0.0:
            direction = -new_grad
        grad, grad_sq = new_grad, new_grad_sq
    return delta, obj


@dataclass(frozen=True)
class FuzzReport:
    samples: int
    violations: int
    worst_excess: float
    counterexample: tuple | None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_inequality_fuzz(samples: int, seed: int,
                          bounds: tuple[float, float] = (0.0, 10.0)) -> FuzzReport:
    """Fuzz the queue-update square bound on nonnegative quadruples.

    Checks (max(a + b - c, z))^2 <= a^2 + b^2 + c^2 + 2a(b - c) + z^2 for
    draws uniform over ``bounds`` in each coordinate, with absolute slack
    1e-9 * (1 + RHS).
    """
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    lo, hi = bounds
    if not (0.0 <= lo < hi):
        raise InputError(f"bounds must satisfy 0 <= lo < hi, got {bounds}")
    rng = SplitMix64(derive_seed(seed, 0xF022))
    draws = lo + (hi - lo) * rng.uniform(4 * samples).reshape(4, samples)
    a, b, c, z = draws
    lhs = np.maximum(a + b - c, z) ** 2
    rhs = a * a + b * b + c * c + 2.0 * a * (b - c) + z * z
    excess = lhs - rhs - 1e-9 * (1.0 + rhs)
    bad = np.flatnonzero(excess > 0.0)
    if bad.size:
        first = int(bad[0])
        counterexample = (float(a[first]), float(b[first]), float(c[first]),
                          float(z[first]))
        return FuzzReport(samples=samples, violations=int(bad.size),
                          worst_excess=float(excess.max()),
                          counterexample=counterexample)
    return FuzzReport(samples=samples, violations=0,
                      worst_excess=float(excess.max()), counterexample=None)


@dataclass(frozen=True)
class SufficiencyReport:
    telescoping_ok: bool
    bound_ok: bool
    implied_bound: float
    measured_avg_pl: float

    @property
    def passed(self) -> bool:
        return self.telescoping_ok and self.bound_ok


def check_sufficiency_empirical(pl_history, z_history,
                                params: QueueParams) -> SufficiencyReport:
    """Check the telescoped queue bound on a recorded run.

    ``pl_history`` holds PL(1..T); ``z_history`` holds Z(1..T+1).  Verifies
    Z(T+1) >= Z(1) + a*sum(PL) - a*T*D + T*b up to relative round-off, and
    that the measured average PL does not exceed the implied bound
    D + (Z(T+1) - Z(1)) / (a*T).
    """
    pl = np.asarray(pl_history, dtype=np.float64)
    z = np.asarray(z_history, dtype=np.float64)
    if pl.ndim != 1 or pl.size == 0:
        raise InputError("pl_history must be a non-empty 1-D sequence")
    if z.ndim != 1 or z.size != pl.size + 1:
        raise InputError(
            f"z_history must hold one more value than pl_history, got "
            f"{z.size} vs {pl.size}"
        )
    t = pl.size
    total_pl = float(np.sum(pl))
    rhs = params.a * total_pl - params.a * t * params.d_threshold + t * params.b
    lhs = float(z[-1]) - float(z[0])
    scale = max(1.0, abs(lhs),
                params.a * total_pl + params.a * t * params.d_threshold
                + t * abs(params.b))
    telescoping_ok = lhs >= rhs - 1e-10 * scale
    implied = params.d_threshold + (float(z[-1]) - float(z[0])) / (params.a * t)
    measured = total_pl / t
    bound_ok = measured <= implied + 1e-10 * max(1.0, abs(implied))
    return SufficiencyReport(
        telescoping_ok=telescoping_ok,
        bound_ok=bound_ok,
        implied_bound=implied,
        measured_avg_pl=measured,
    )

