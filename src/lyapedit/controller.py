"""Virtual-queue dynamics and the hyperparameter schedule.

The queue accumulates scaled constraint violation a*(PL - D) + b and is floored
at z_max, so it can never drop below that value.  Its growth rate Z(T)/T is the
stability signal: when it vanishes, the long-run average preservation loss is
provably within the threshold D.  The queue is a plain float: a run's drift
samples 0.5*Z(t+1)^2 - 0.5*Z(t)^2 and its peak loss follow from the Z and PL
histories it records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    a * z_init is exactly 1, and when a step's preservation loss reaches 2*D
    the weight doubles.  Raises InputError if D overflows, or underflows to 0.
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
    """Z(t+1) from Z(t) = ``z`` and the realized preservation loss."""
    if not math.isfinite(pl):
        raise InputError(f"preservation loss must be finite, got {pl!r}")
    if pl < 0.0:
        raise InputError(f"preservation loss must be nonnegative, got {pl!r}")
    return max(z + params.a * (pl - params.d_threshold) + params.b, params.z_max)


def stability_ratio(z_history) -> float:
    """Z(T)/T for a queue trajectory over timestamps 1..T.

    A vanishing ratio certifies the long-term constraint; a ratio bounded away
    from zero flags an infeasible run.
    """
    arr = np.asarray(z_history, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("queue history must be a non-empty 1-D sequence")
    return float(arr[-1]) / arr.size
