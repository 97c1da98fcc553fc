"""The reference loop on its own: scalar runs against their closed form."""
from __future__ import annotations

import math

import numpy as np
import pytest

from lyapedit import Dims, EditStream, RunConfig, StreamSpec
from reference import reference_run


def scalar_closed_form(config: RunConfig) -> dict[str, list[float]]:
    """A d0 = d1 = 1, n = 1 run worked out in scalars from the stream's own
    k0, k1 and v1.

    With g0 = sum(k0^2), the probe's baseline edit of batch 1 from w0 gives
    d_base = (w' - w0)^2 g0.  Each step's solve in closed form:
    - lyaplock minimizes v (EL + BL) + lam PL, so
      w' = (v (k1 v1 + sum kp vp) + lam g0 w0) / (v (k1^2 + sum kp^2) + lam g0)
    - baseline: w' = w + (v1 - w k1) k1 / (g0 + k1^2)
    - edit-only: w' = v1 / k1
    and the queue in weight units is lam' = max(lam + (PL - D) / D, 1).
    """
    stream = EditStream(config.stream)
    w0_m, k0 = stream.generate_preserved()
    w0, g0 = float(w0_m[0, 0]), float(np.sum(k0 * k0))
    pairs = [(float(b.k1[0, 0]), float(b.v1[0, 0]))
             for b in map(stream.batch, range(1, config.stream.total_batches + 1))]

    k, v1 = pairs[0]
    probe = w0 + (v1 - w0 * k) * k / (g0 + k * k)
    d_base = (probe - w0) ** 2 * g0
    d = config.alpha * d_base
    v, lam, w = config.v_weight, 1.0, w0
    out = {"pl": [], "el": [], "bl": [], "z": [math.sqrt(d)]}
    for t, (k, v1) in enumerate(pairs):
        past = pairs[:t]
        if config.editor == "lyaplock":
            num = v * (k * v1 + sum(kp * vp for kp, vp in past)) + lam * g0 * w0
            den = v * (k * k + sum(kp * kp for kp, _ in past)) + lam * g0
            w = num / den
        elif config.editor == "baseline":
            w = w + (v1 - w * k) * k / (g0 + k * k)
        else:
            w = v1 / k
        pl = (w - w0) ** 2 * g0
        out["pl"].append(pl)
        out["el"].append((w * k - v1) ** 2)
        out["bl"].append(sum((w * kp - vp) ** 2 for kp, vp in past))
        lam = max(lam + (pl - d) / d, 1.0)
        out["z"].append(lam * math.sqrt(d))
    out["d_base"], out["w"] = d_base, w
    out["v1_sq"] = max(v1 * v1 for _, v1 in pairs)
    return out


@pytest.mark.parametrize("mode", ["planted-teacher", "random-target"])
@pytest.mark.parametrize("editor, v_weight", [
    ("lyaplock", 1.0), ("lyaplock", 0.5), ("baseline", 1.0), ("edit-only", 1.0)])
def test_scalar_runs_match_their_closed_form(mode, editor, v_weight):
    spec = StreamSpec(dims=Dims(d0=1, d1=1), n_per_batch=1, total_batches=3,
                      key_scale=1.0, value_mode=mode, teacher_drift=0.7,
                      seed=31, m0=4)
    # alpha < 1 puts PL above D, so the queue leaves its floor.
    config = RunConfig(stream=spec, editor=editor, alpha=0.3, v_weight=v_weight)
    ref = reference_run(config)
    want = scalar_closed_form(config)
    assert ref.d_base == pytest.approx(want["d_base"], rel=1e-13)
    for name in ("pl", "bl", "z"):
        assert getattr(ref, f"{name}_history") == pytest.approx(
            want[name], rel=1e-12, abs=0.0), name
    # Edit-only fits each batch exactly, so its EL is round-off on both
    # sides: an absolute floor of 1e-24 ||V1||^2 covers it.
    assert ref.el_history == pytest.approx(want["el"], rel=1e-12,
                                           abs=1e-24 * want["v1_sq"])
    assert ref.w_final[0, 0] == pytest.approx(want["w"], rel=1e-13)
