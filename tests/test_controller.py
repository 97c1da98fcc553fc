"""Queue dynamics, schedule derivation, and the queue bounds."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from lyapedit import (
    QueueParams,
    derive_params,
    stability_ratio,
    update_queue,
)
from lyapedit.errors import InputError


class TestDeriveParams:
    def test_default_multiplier(self):
        params = derive_params(60.0, 1.0)
        assert params.d_threshold == pytest.approx(60.0, rel=1e-12)
        assert params.a == pytest.approx(1.0 / math.sqrt(60.0), rel=1e-12)
        assert params.b == 0.0
        assert params.z_init == pytest.approx(math.sqrt(60.0), rel=1e-12)
        assert params.z_max == params.z_init
        assert params.v_weight == 1.0

    def test_simple_arithmetic(self):
        params = derive_params(1.0, 16.0)
        assert params.d_threshold == pytest.approx(16.0, rel=1e-12)
        assert params.a == pytest.approx(0.25, rel=1e-12)
        assert params.z_init == pytest.approx(4.0, rel=1e-12)
        assert params.z_max == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("alpha,d_base", [(60.0, 1.0), (0.5, 3.7),
                                              (100.0, 1e-6), (7.0, 123.456)])
    def test_initial_preservation_weight_is_one(self, alpha, d_base):
        params = derive_params(alpha, d_base)
        assert params.a * params.z_init == pytest.approx(1.0, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            derive_params(0.0, 1.0)
        with pytest.raises(InputError):
            derive_params(60.0, -1.0)
        with pytest.raises(InputError):
            derive_params(math.inf, 1.0)

    @pytest.mark.parametrize("alpha,d_base,d", [(1e308, 2.56, "inf"),
                                                (5e-324, 0.1, "0.0")])
    def test_rejects_unrepresentable_threshold(self, alpha, d_base, d):
        message = f"alpha={alpha!r} d_base={d_base!r} D={d}"
        with pytest.raises(InputError, match=re.escape(message) + "$"):
            derive_params(alpha, d_base)

    def test_accepts_subnormal_threshold(self):
        params = derive_params(1e-315, 2.56)
        assert 0.0 < params.d_threshold < np.finfo(np.float64).tiny
        assert params.a * params.z_init == pytest.approx(1.0, rel=1e-12)


def _params(a=0.5, d=4.0, b=0.0, z_max=1.0):
    return QueueParams(d_threshold=d, a=a, b=b, z_init=max(z_max, 1.0),
                       z_max=z_max, v_weight=1.0, alpha=1.0, d_base=d)


class TestUpdateQueue:
    def test_boundary_loss_leaves_queue_unchanged(self):
        params = _params(a=0.7, d=3.0, z_max=0.5)
        assert update_queue(2.0, params, pl=3.0) == 2.0

    def test_growth_arithmetic(self):
        params = _params(a=0.5, d=4.0, z_max=1.0)
        assert update_queue(2.0, params, pl=6.0) == pytest.approx(3.0)

    def test_floor_engages(self):
        params = _params(a=0.5, d=4.0, z_max=1.0)
        assert update_queue(1.0, params, pl=0.0) == 1.0

    def test_floor_invariant_random_walk(self):
        params = _params(a=0.3, d=2.0, z_max=1.5)
        z = params.z_init
        rng = np.random.default_rng(11)
        for _ in range(500):
            z = update_queue(z, params, pl=float(rng.uniform(0, 5)))
            assert z >= params.z_max

    def test_rejects_bad_losses(self):
        params = _params()
        with pytest.raises(InputError):
            update_queue(1.0, params, pl=float("nan"))
        with pytest.raises(InputError):
            update_queue(1.0, params, pl=-0.5)


class TestDriftBound:
    def test_square_inequality_fuzz(self):
        rng = np.random.default_rng(7)
        a, b, c, z_max = rng.uniform(0, 10, size=(4, 100_000))
        lhs = np.maximum(a + b - c, z_max) ** 2
        rhs = a ** 2 + b ** 2 + c ** 2 + 2 * a * (b - c) + z_max ** 2
        assert np.all(lhs <= rhs + 1e-9 * (1 + rhs))


class TestStabilityRatio:
    def test_constant_queue_vanishes(self):
        history = np.full(1000, 3.0)
        assert stability_ratio(history) == pytest.approx(3.0 / 1000)

    def test_linear_growth_flags_infeasibility(self):
        c = 0.8
        history = c * np.arange(1, 2001)
        assert stability_ratio(history) == pytest.approx(c, rel=1e-3)

    def test_shift_equivalence(self):
        rng = np.random.default_rng(3)
        history = np.cumsum(rng.uniform(0, 0.1, size=5000)) + 1.0
        t = len(history)
        ratio_t = stability_ratio(history[:t - 1])
        ratio_t1 = stability_ratio(history)
        assert abs(ratio_t1 - ratio_t) <= (history[-1] / t) / t + 10.0 / t

    def test_empty_history_rejected(self):
        with pytest.raises(InputError):
            stability_ratio([])


class TestTelescopingBound:
    def test_direct_summation(self):
        params = _params(a=0.6, d=2.5, b=0.1, z_max=2.0)
        z = params.z_init
        rng = np.random.default_rng(31)
        pls = rng.uniform(0, 6, size=300)
        history = [z]
        for pl in pls:
            z = update_queue(z, params, float(pl))
            history.append(z)
        t = len(pls)
        lhs = history[-1]
        rhs = history[0] + params.a * float(np.sum(pls)) - params.a * t * params.d_threshold + t * params.b
        scale = max(1.0, abs(rhs), params.a * float(np.sum(pls)))
        assert lhs >= rhs - 1e-10 * scale

    def test_empirical_sufficiency_direction(self):
        # When the queue stays bounded the running mean respects the bound.
        params = _params(a=0.5, d=2.0, b=0.0, z_max=1.0)
        z = params.z_init
        rng = np.random.default_rng(41)
        pls = rng.uniform(0, 3.9, size=2000)
        history = [z]
        for pl in pls:
            z = update_queue(z, params, float(pl))
            history.append(z)
        t = len(pls)
        implied = params.d_threshold + (history[-1] - history[0]) / (params.a * t)
        assert float(np.mean(pls)) <= implied + 1e-12 * max(1.0, implied)
