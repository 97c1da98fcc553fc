"""Virtual-queue dynamics and the hyperparameter schedule.

The queue accumulates scaled constraint violation a*(PL - D) + b and is floored
at z_max, so it can never drop below that value.  Its growth rate Z(T)/T is the
stability signal: when it vanishes, the long-run average preservation loss is
provably within the threshold D.  The queue is a plain float: a run's drift
samples 0.5*Z(t+1)^2 - 0.5*Z(t)^2 and its peak loss follow from the Z and PL
histories it records.

A run keeps the queue in weight units, lambda = a*Z, the preservation weight
its solves read (see ``in_weight_units``); Z is derived from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class QueueParams:
    """Queue coefficients plus the schedule inputs they were derived from."""

    d_threshold: float
    a: float
    b: float
    z_init: float
    z_max: float
    v_weight: float
    alpha: float
    d_base: float


def derive_params(alpha: float, d_base: float) -> QueueParams:
    """Derive queue coefficients from the threshold multiplier and base loss.

    D = alpha * d_base, a = 1/sqrt(D), b = 0, z_init = z_max = sqrt(D) and the
    editing weight is 1.  With these choices the initial preservation weight
    a * z_init is 1, which a run keeps exactly (see ``in_weight_units``), and
    when a step's preservation loss reaches 2*D the weight doubles.  Raises
    InputError if D overflows, or underflows to 0.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise InputError(f"alpha must be positive and finite, got {alpha!r}")
    if not (d_base > 0.0) or not math.isfinite(d_base):
        raise InputError(f"d_base must be positive and finite, got {d_base!r}")
    d = alpha * d_base
    if not (d > 0.0) or not math.isfinite(d):
        raise InputError(f"the threshold D = alpha * d_base is not positive and "
                         f"finite: alpha={alpha!r} d_base={d_base!r} D={d!r}")
    root = math.sqrt(d)
    return QueueParams(
        d_threshold=d,
        a=1.0 / root,
        b=0.0,
        z_init=root,
        z_max=root,
        v_weight=1.0,
        alpha=alpha,
        d_base=d_base,
    )


def update_queue(z: float, params: QueueParams, pl: float) -> float:
    """Z(t+1) from Z(t) = ``z`` and the realized preservation loss.

    A loss of exactly D adds only b, even where ``a`` is infinite, as it is
    in weight units at a subnormal D.
    """
    if not math.isfinite(pl):
        raise InputError(f"preservation loss must be finite, got {pl!r}")
    if pl < 0.0:
        raise InputError(f"preservation loss must be nonnegative, got {pl!r}")
    excess = pl - params.d_threshold
    return max(z + (params.a * excess if excess else 0.0) + params.b, params.z_max)


def in_weight_units(params: QueueParams) -> QueueParams:
    """The queue of :func:`derive_params`' schedule in weight units: with
    these parameters ``update_queue`` advances lambda = a*Z.

    Multiplying the queue update by a = 1/sqrt(D) gives
    lambda(t+1) = max(lambda(t) + (PL - D)/D + a*b, a*z_max), with
    a*z_max = 1: so a = 1/D, b = a*b and z_init = z_max = 1 here.  The
    floor is exactly 1, where a*z_max in floating point may miss it by an
    ulp.  The form is scale-free: keys scaled by s scale PL and D by s^2
    and leave lambda as it is, where Z and a each move.  Z = lambda*z_max.
    """
    return replace(params, a=1.0 / params.d_threshold, b=params.a * params.b,
                   z_init=1.0, z_max=1.0)


def stability_ratio(z_history) -> float:
    """Z(T)/T for a queue trajectory over timestamps 1..T.

    A vanishing ratio certifies the long-term constraint; a ratio bounded away
    from zero flags an infeasible run.
    """
    arr = np.asarray(z_history, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("queue history must be a non-empty 1-D sequence")
    return float(arr[-1]) / arr.size
