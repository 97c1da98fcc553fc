"""Full-run behavior: invariants, determinism, comparisons, and sweeps."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyapedit import (
    Dims,
    RunConfig,
    StreamSpec,
    compare,
    run,
    sweep_alpha,
    update_queue,
)
from lyapedit.errors import InputError, RunAborted, SingularSystemError
from lyapedit.harness import running_average

HISTORIES = ("pl_history", "el_history", "bl_history", "z_history",
             "delta_fro_history", "ridge_history", "cond_history",
             "residual_history")


def small_spec(seed=17, total=120, drift=0.15, mode="planted-teacher"):
    return StreamSpec(dims=Dims(d0=12, d1=8), n_per_batch=3, total_batches=total,
                      key_scale=1.0, value_mode=mode, teacher_drift=drift,
                      seed=seed, m0=48)


def small_config(editor="lyaplock", **kwargs):
    spec = small_spec(**{k: v for k, v in kwargs.items()
                         if k in ("seed", "total", "drift", "mode")})
    extra = {k: v for k, v in kwargs.items()
             if k not in ("seed", "total", "drift", "mode")}
    return RunConfig(stream=spec, editor=editor, alpha=40.0, **extra)


class TestZeroEditStream:
    def test_fixed_point_run(self):
        result = run(small_config(drift=0.0, total=60))
        assert np.all(result.pl_history == 0.0)
        assert np.all(result.el_history == 0.0)
        assert np.all(result.z_history == result.params.z_init)
        assert np.array_equal(result.w_final, result.w_initial)
        assert np.all(result.delta_fro_history == 0.0)

    @pytest.mark.parametrize("editor", ["lyaplock", "baseline", "edit-only"])
    def test_every_editor_fits_exactly(self, editor):
        result = run(small_config(editor=editor, drift=0.0, total=40))
        assert np.all(result.el_history == 0.0)


class TestExactStream:
    """The probe floors d_base only on a stream whose values are W0 K1 in
    every batch, decided from W0 and the drift."""

    @pytest.mark.parametrize("mode, drift, exact", [
        ("planted-teacher", 0.0, True),
        ("planted-teacher", 1e-160, True),
        ("planted-teacher", 0.15, False),
        ("random-target", 0.0, False),
    ])
    def test_exact(self, mode, drift, exact):
        from lyapedit import EditStream

        assert EditStream(small_spec(drift=drift, mode=mode))._exact() is exact

    def test_the_bound_is_sound(self):
        """Just below the bound every batch's residual U0 is exactly 0; at
        it the stream is not called exact, wherever its wobbles round."""
        from lyapedit import EditStream
        from lyapedit.stream import _NORMAL_BOUND

        w0 = EditStream(small_spec()).generate_preserved()[0]
        bound = float(np.spacing(np.min(np.abs(w0)))) / 4.0 / _NORMAL_BOUND
        below = EditStream(small_spec(drift=0.99 * bound))
        assert below._exact()
        assert not any(below.batch(t)._u0(w0).any() for t in range(1, 121))
        assert not EditStream(small_spec(drift=bound))._exact()


class TestRunInvariants:
    def test_queue_recomputation_matches_records(self):
        result = run(small_config(total=100))
        state_z = result.params.z_init
        for z, pl in zip(result.z_history, result.pl_history):
            assert z == state_z
            state_z = max(state_z + result.params.a * (pl - result.params.d_threshold)
                          + result.params.b, result.params.z_max)
        assert state_z == result.z_history[-1]

    def test_update_queue_reproduces_history(self):
        result = run(small_config(total=80))
        z = result.params.z_init
        for t, pl in enumerate(result.pl_history, start=1):
            assert z == result.z_history[t - 1]
            z = update_queue(z, result.params, float(pl))
        assert z == result.z_history[-1]

    def test_running_averages_recompute(self):
        result = run(small_config(total=90))
        avg_pl = running_average(result.pl_history)
        avg_el = running_average(result.el_history)
        pl_sum = 0.0
        el_sum = 0.0
        for t in range(1, 91):
            pl_sum += result.pl_history[t - 1]
            el_sum += result.el_history[t - 1]
            assert avg_pl[t - 1] == pytest.approx(pl_sum / t, rel=1e-12)
            assert avg_el[t - 1] == pytest.approx(el_sum / t, rel=1e-12)
        # A sequential sum, so the summary equals the running sum exactly.
        assert result.summary.final_avg_pl == pl_sum / 90
        assert result.summary.final_avg_el == el_sum / 90

    def test_bit_identical_reruns(self):
        a = run(small_config(total=70))
        b = run(small_config(total=70))
        assert a.summary == b.summary
        for name in HISTORIES + ("w_final",):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_record_sampling(self):
        from lyapedit.cli import _step_csv
        config = small_config(total=95, record_every=10)
        result = run(config)
        assert all(h.size == 95 for h in (result.pl_history, result.ridge_history))
        rows = _step_csv(vars(result), config).splitlines()[1:]
        times = [int(row.split(",")[0]) for row in rows]
        assert times == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]

    def test_probe_matches_first_baseline_step(self):
        # The probe replays as the run's first edit, so its post-edit loss is
        # exactly the recorded first-step preservation loss.
        result = run(small_config(editor="baseline", total=30))
        assert result.pl_history[0] == result.d_base

    def test_probe_edits_the_original_weights(self):
        from lyapedit import EditStream, estimate_d_base
        stream = EditStream(small_spec())
        mem = stream.preserved_memory()
        moved = mem.with_weights(mem.w0 + 0.5)
        assert estimate_d_base(stream, moved) == estimate_d_base(stream, mem)

    def test_probe_excluded_from_backlog(self):
        result = run(small_config(total=5))
        # After a 5-step run, the first step is measured against an empty
        # backlog: its backlog loss must be exactly zero.
        assert result.bl_history[0] == 0.0


class TestAbortPaths:
    def test_singular_solver_aborts_with_partial_records(self, monkeypatch):
        import lyapedit.harness as harness

        calls = {"n": 0}
        original = harness._solve_step

        def explode(config, mem, backlog, batch, params, z, carry):
            calls["n"] += 1
            if calls["n"] >= 4:  # probe happens outside _solve_step
                raise SingularSystemError("synthetic failure", 1e99)
            return original(config, mem, backlog, batch, params, z, carry)

        full = harness.run(small_config(total=50))
        monkeypatch.setattr(harness, "_solve_step", explode)
        with pytest.raises(RunAborted) as err:
            harness.run(small_config(total=50))
        assert err.value.step == 4
        partial = err.value.histories
        assert sorted(partial) == sorted(HISTORIES)
        for name in HISTORIES:
            steps = 4 if name == "z_history" else 3  # Z(1)..Z(4)
            assert np.array_equal(partial[name], getattr(full, name)[:steps]), name

    @staticmethod
    def diverging_run(monkeypatch, editor):
        """Run ``editor`` with every step's edit made infinite; the step at
        which the run aborts."""
        import lyapedit.harness as harness
        from lyapedit.editors import SolveReport

        original = harness._solve_step

        def diverge(config, mem, backlog, batch, params, z, carry):
            original(config, mem, backlog, batch, params, z, carry)
            delta = np.full_like(carry.d, np.inf)
            if editor == "edit-only":
                w_new = mem.w + delta
            else:
                carry.d, w_new = carry.d + delta, None
            return SolveReport(delta=delta, residual=0.0, ridge_applied=0.0,
                               condition_estimate=1.0), w_new

        monkeypatch.setattr(harness, "_solve_step", diverge)
        with pytest.raises(RunAborted) as err:
            harness.run(small_config(editor=editor, total=10))
        return err.value.step

    def test_diverging_delta_aborts(self, monkeypatch):
        """A lyaplock path carries D' alone: a non-finite D' makes the
        step's PL <E0, D'> non-finite."""
        assert self.diverging_run(monkeypatch, "lyaplock") == 1

    def test_diverging_edit_only_weights_abort(self, monkeypatch):
        """Edit-only moves its memory to W + delta, whose finiteness check
        rejects a non-finite one."""
        assert self.diverging_run(monkeypatch, "edit-only") == 1


class TestSolveDiagnostics:
    """cond_history and residual_history record what every solve reported."""

    @staticmethod
    def acceptance_run(drift=0.1, total=2000):
        spec = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8,
                          total_batches=total, key_scale=1.0,
                          value_mode="planted-teacher", teacher_drift=drift,
                          seed=188, m0=2048)
        return run(RunConfig(stream=spec, editor="lyaplock", alpha=60.0))

    @staticmethod
    def assert_nan_only_on_zero_edits(result):
        unsolved = np.isnan(result.cond_history)
        assert np.all(result.delta_fro_history[unsolved] == 0.0)

    def test_acceptance_run(self):
        result = self.acceptance_run()
        plain = result.ridge_history == 0.0
        assert plain.any()
        assert np.all(result.residual_history[plain] <= 1e-8)
        cond = result.cond_history[plain]
        assert np.all(np.isfinite(cond))
        assert np.all(cond <= 1e12)
        self.assert_nan_only_on_zero_edits(result)

    def test_satisfied_systems_record_nan(self):
        result = self.acceptance_run(drift=0.0, total=60)
        assert np.all(np.isnan(result.cond_history))
        self.assert_nan_only_on_zero_edits(result)
        assert np.all(result.residual_history <= 1e-8)


class TestExplicitReplay:
    def test_full_run_matches_raw_matrix_replay(self):
        """Replay a whole run with raw matrices and dense solves.

        The replay keeps the preserved keys and every past batch explicitly,
        builds each step's normal equations from concatenated matrices, and
        solves them with a generic dense solver.  Trajectories must agree
        with the Gram-path run to high relative accuracy.
        """
        from lyapedit import EditStream

        config = small_config(total=60, drift=0.2, seed=77)
        result = run(config)

        stream = EditStream(config.stream)
        w0, k0 = stream.generate_preserved()
        v0 = w0 @ k0
        c0 = k0 @ k0.T

        first = stream.batch(1)
        probe = np.linalg.solve(
            (c0 + first.k1 @ first.k1.T).T,
            ((first.v1 - w0 @ first.k1) @ first.k1.T).T).T
        d_base = float(np.sum(((w0 + probe) @ k0 - v0) ** 2))
        assert d_base == pytest.approx(result.d_base, rel=1e-9)

        d = config.alpha * d_base
        a = 1.0 / np.sqrt(d)
        z = np.sqrt(d)
        w = w0.copy()
        kp = np.zeros((config.stream.dims.d0, 0))
        vp = np.zeros((config.stream.dims.d1, 0))
        for t in range(1, config.stream.total_batches + 1):
            batch = stream.batch(t)
            az = a * z
            kall = np.hstack([batch.k1, kp])
            vall = np.hstack([batch.v1, vp])
            c = kall @ kall.T + az * c0
            rhs = (vall - w @ kall) @ kall.T + az * (v0 - w @ k0) @ k0.T
            w = w + np.linalg.solve(c.T, rhs.T).T
            pl = float(np.sum((w @ k0 - v0) ** 2))
            el = float(np.sum((w @ batch.k1 - batch.v1) ** 2))
            bl = float(np.sum((w @ kp - vp) ** 2))
            scale = max(1.0, result.pl_history[t - 1])
            assert pl == pytest.approx(result.pl_history[t - 1], rel=1e-7,
                                       abs=1e-9 * scale)
            assert el == pytest.approx(result.el_history[t - 1], rel=1e-7,
                                       abs=1e-9 * max(1.0, el))
            assert bl == pytest.approx(result.bl_history[t - 1], rel=1e-6,
                                       abs=1e-9 * max(1.0, bl))
            z = max(z + a * (pl - d), np.sqrt(d))
            assert z == pytest.approx(result.z_history[t], rel=1e-8)
            kp = np.hstack([kp, batch.k1])
            vp = np.hstack([vp, batch.v1])
        assert w == pytest.approx(result.w_final, rel=1e-7, abs=1e-10)


class TestPublicStepReplay:
    def test_run_matches_replay_without_carried_products(self):
        """Replay a run through the public per-step functions.

        The replay recomputes every product from the weights and the Grams,
        where the run carries them from step to step; the two may differ
        only in rounding.
        """
        from lyapedit import (EditStream, absorb, backlog_loss,
                              derive_params, editing_loss, estimate_d_base,
                              new_memory, preservation_loss, solve_lyaplock)
        from lyapedit.memory import BacklogAccumulator

        config = small_config(total=80, drift=0.2, seed=5)
        result = run(config)

        stream = EditStream(config.stream)
        mem = new_memory(*stream.generate_preserved())
        params = derive_params(config.alpha, estimate_d_base(stream, mem))
        z = params.z_init
        backlog = BacklogAccumulator.empty(mem.w0)
        histories = {"pl": [], "el": [], "bl": [], "z": [z]}
        for t in range(1, config.stream.total_batches + 1):
            batch = stream.batch(t)
            report = solve_lyaplock(mem, backlog, batch, v_weight=params.v_weight,
                                    az=params.a * z)
            mem = mem.with_weights(mem.w + report.delta)
            pl = preservation_loss(mem, mem.w)
            histories["el"].append(editing_loss(mem.w, batch))
            histories["pl"].append(pl)
            histories["bl"].append(backlog_loss(mem.w, backlog))
            z = update_queue(z, params, pl)
            histories["z"].append(z)
            absorb(backlog, batch)

        for name, replayed in histories.items():
            got = getattr(result, f"{name}_history")
            assert np.allclose(got, replayed, rtol=1e-10, atol=0.0), name
        assert np.allclose(result.w_final, mem.w, rtol=1e-10, atol=1e-14)


class TestLockstep:
    def mixed_configs(self):
        from dataclasses import replace
        base = small_config(total=60, record_every=7)
        return [base, replace(base, editor="baseline"),
                replace(base, editor="edit-only"),
                replace(base, alpha=5.0, v_weight=0.5)]

    def test_members_bit_identical_to_standalone_runs(self):
        import lyapedit.harness as harness
        configs = self.mixed_configs()
        alone = [run(c) for c in configs]
        together = harness._run_lockstep(configs)
        for a, b in zip(alone, together):
            assert a.summary == b.summary
            for name in HISTORIES + ("w_initial", "w_final"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert compare(configs) == [r.summary for r in alone]

    def test_member_order_does_not_change_results(self):
        import lyapedit.harness as harness
        configs = self.mixed_configs()
        in_order = harness._run_lockstep(configs)
        # Reversed, two rotations and one swap.
        for order in ((3, 2, 1, 0), (1, 2, 3, 0), (2, 3, 0, 1), (0, 3, 2, 1)):
            permuted = harness._run_lockstep([configs[i] for i in order])
            for i, b in zip(order, permuted):
                a = in_order[i]
                assert a.config == b.config
                assert a.summary == b.summary
                for name in HISTORIES + ("w_final",):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (
                        order, name)

    def test_unrepresentable_threshold_fails_in_serial_order(self):
        """A member whose D overflows fails after an earlier member's abort."""
        from dataclasses import replace
        cfg = small_config(total=30)
        # d_base is about 1.36 here, so D = 1.5e308 * d_base overflows.
        with pytest.raises(InputError, match="alpha=1.5e[+]308"):
            run(replace(cfg, alpha=1.5e308))
        with pytest.raises(RunAborted) as serial:
            run(replace(cfg, alpha=1e-315))
        with pytest.raises(RunAborted) as lockstep:
            sweep_alpha(cfg, [1.5e308, 1e-315])
        assert serial.value.step == 2
        assert str(lockstep.value) == str(serial.value)

    def test_one_probe_for_all_members(self, monkeypatch):
        import lyapedit.harness as harness
        calls = []
        original = harness.estimate_d_base

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "estimate_d_base", counting)
        compare(self.mixed_configs())
        assert len(calls) == 1

    def test_the_loop_runs_the_public_solvers(self, monkeypatch):
        """Every step and the probe call ``harness.solve_*`` by name.

        Wrappers on these names, such as perfbench's editor layers, then see
        every solve a run makes.
        """
        from dataclasses import replace
        import lyapedit.harness as harness

        calls = dict.fromkeys(
            ("solve_lyaplock", "solve_baseline", "solve_edit_only"), 0)
        for name in calls:
            def counting(*args, _original=getattr(harness, name), _name=name):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(harness, name, counting)

        def counted(call):
            calls.update(dict.fromkeys(calls, 0))
            call()
            return tuple(calls.values())

        base = small_config(total=30)
        configs = [replace(base, editor=e)
                   for e in ("lyaplock", "baseline", "edit-only")]
        # 30 steps each, plus the one probe all members share.
        assert counted(lambda: compare(configs)) == (30, 31, 30)
        assert counted(lambda: run(base)) == (30, 1, 0)

    def test_run_forms_the_preserved_gram_once(self, monkeypatch):
        from pathlib import Path

        import lyapedit.memory as memory
        from lyapedit.cli import load_config

        config = load_config(Path(__file__).resolve().parent.parent
                             / "configs" / "quick.cfg")["run"]
        calls = []
        original = memory._preserved_gram

        def counting(k0):
            calls.append(k0.shape)
            return original(k0)

        # The one construction site, which new_memory calls.
        monkeypatch.setattr(memory, "_preserved_gram", counting)
        run(config)
        assert calls == [(16, 64)]

    def test_probe_failure_matches_serial_execution(self, monkeypatch):
        import lyapedit.harness as harness

        def singular(*args):
            raise SingularSystemError("synthetic probe failure")

        monkeypatch.setattr(harness, "solve_baseline", singular)
        configs = self.mixed_configs()
        with pytest.raises(SingularSystemError) as serial:
            run(configs[0])
        with pytest.raises(SingularSystemError) as lockstep:
            compare(configs)
        assert str(lockstep.value) == str(serial.value)

    def test_sweep_members_bit_identical_to_standalone_runs(self):
        from dataclasses import replace
        cfg = small_config(total=60)
        alphas = [80.0, 5.0, 40.0]
        assert sweep_alpha(cfg, alphas) == [
            run(replace(cfg, alpha=a)).summary for a in sorted(alphas)]

    @pytest.mark.parametrize("fail_at", [{20.0: 7, 40.0: 3}, {20.0: 3, 40.0: 7}])
    def test_abort_matches_serial_execution(self, monkeypatch, fail_at):
        """Two members abort at different steps; the same error as serial wins."""
        from dataclasses import replace
        import lyapedit.harness as harness

        original = harness._solve_step
        calls = {}

        def explode(config, mem, backlog, batch, params, z, carry):
            calls[config.alpha] = calls.get(config.alpha, 0) + 1
            if calls[config.alpha] == fail_at.get(config.alpha):
                raise SingularSystemError(f"synthetic failure of {config.alpha}")
            return original(config, mem, backlog, batch, params, z, carry)

        monkeypatch.setattr(harness, "_solve_step", explode)
        configs = [replace(small_config(total=30), alpha=a)
                   for a in (20.0, 40.0, 80.0)]
        with pytest.raises(RunAborted) as serial:
            for config in configs:
                run(config)
        calls.clear()
        with pytest.raises(RunAborted) as lockstep:
            sweep_alpha(configs[0], [80.0, 40.0, 20.0])
        assert serial.value.step == fail_at[20.0]
        assert lockstep.value.step == serial.value.step
        assert str(lockstep.value) == str(serial.value)
        for name in HISTORIES:
            got, want = lockstep.value.histories[name], serial.value.histories[name]
            assert np.array_equal(got, want), name
        assert lockstep.value.histories["pl_history"].size == fail_at[20.0] - 1

    @staticmethod
    def count_solves(monkeypatch):
        """Wrap ``harness.solve_*`` to count calls; lyaplock's record az."""
        import lyapedit.harness as harness
        calls = {"solve_lyaplock": [], "solve_baseline": [], "solve_edit_only": []}
        for name, record in calls.items():
            def counting(*args, _original=getattr(harness, name), _record=record):
                _record.append(args[4] if len(args) > 4 else None)
                return _original(*args)
            monkeypatch.setattr(harness, name, counting)
        return calls

    @staticmethod
    def assert_standalone(configs):
        import lyapedit.harness as harness
        for config, together in zip(configs, harness._run_lockstep(configs)):
            alone = run(config)
            assert alone.summary == together.summary
            for name in HISTORIES + ("w_final",):
                assert np.array_equal(getattr(alone, name),
                                      getattr(together, name)), name

    def test_equal_members_share_one_solve_per_step(self, monkeypatch):
        cfg = small_config(total=60)
        calls = self.count_solves(monkeypatch)
        sweep_alpha(cfg, [40.0, 40.0, 40.0])
        assert len(calls["solve_lyaplock"]) == 60
        monkeypatch.undo()
        self.assert_standalone([cfg] * 3)

    def test_members_fork_when_their_queue_weights_part(self, monkeypatch):
        """Alpha 5 leaves the queue floor at step 20; 40 and 80 stay on it."""
        from dataclasses import replace
        cfg = small_config(total=60)
        calls = self.count_solves(monkeypatch)
        sweep_alpha(cfg, [5.0, 40.0, 80.0])
        # One path for steps 1-19, two from step 20 on.
        assert len(calls["solve_lyaplock"]) == 19 + 2 * 41
        monkeypatch.undo()
        self.assert_standalone([replace(cfg, alpha=a) for a in (5.0, 40.0, 80.0)])

    def test_an_ulp_off_alpha_shares_the_floor_path(self, monkeypatch):
        """a * z_init misses 1 by an ulp for some alphas, but a member keeps
        its queue as the weight a*Z, floored at exactly 1: on the floor such
        a member shares the path, one solve per step, and still matches its
        standalone run."""
        from dataclasses import replace
        from lyapedit.controller import derive_params
        cfg = small_config(total=40)
        d_base = run(cfg).d_base

        def weight(alpha):
            params = derive_params(alpha, d_base)
            return params.a * params.z_init

        alphas = [40.0 + k / 8 for k in range(100)]
        on = next(a for a in alphas if weight(a) == 1.0)
        off = next(a for a in alphas if weight(a) != 1.0)
        calls = self.count_solves(monkeypatch)
        sweep_alpha(cfg, [on, off])
        # Both members sit on the floor throughout.
        assert calls["solve_lyaplock"] == [1.0] * 40
        monkeypatch.undo()
        self.assert_standalone([replace(cfg, alpha=a) for a in (on, off)])

    def test_baseline_sweep_makes_one_solve_per_step(self, monkeypatch):
        cfg = small_config(editor="baseline", total=30)
        calls = self.count_solves(monkeypatch)
        sweep_alpha(cfg, [5.0, 40.0, 80.0])
        # The probe, then one solve per step for all three members.
        assert len(calls["solve_baseline"]) == 31
        assert not calls["solve_lyaplock"]

    def test_shared_path_failure_matches_serial_execution(self, monkeypatch):
        from dataclasses import replace
        import lyapedit.harness as harness

        original = harness.solve_lyaplock
        calls = []

        def explode(*args):
            calls.append(args[4])
            if len(calls) == 5:
                raise SingularSystemError("synthetic failure")
            return original(*args)

        monkeypatch.setattr(harness, "solve_lyaplock", explode)
        base = small_config(total=30)
        configs = [replace(base, editor="edit-only"), base,
                   replace(base, alpha=80.0)]
        with pytest.raises(RunAborted) as serial:
            run(configs[1])  # configs[0], edit-only, makes no lyaplock solve
        calls.clear()
        with pytest.raises(RunAborted) as lockstep:
            compare(configs)
        # Both lyaplock members were on one path: five solves, not nine.
        assert len(calls) == 5
        assert lockstep.value.step == serial.value.step == 5
        assert str(lockstep.value) == str(serial.value)
        assert sorted(lockstep.value.histories) == sorted(serial.value.histories)
        for name in HISTORIES:
            got, want = lockstep.value.histories[name], serial.value.histories[name]
            assert np.array_equal(got, want), name

    def test_finished_run_leaves_no_carry_to_the_collector(self):
        """Members refer to paths and paths to no member, so reference
        counting alone frees every carry when the call returns."""
        import gc
        from lyapedit.editors import Carry

        def carries():
            return sum(isinstance(o, Carry) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = carries()
            sweep_alpha(small_config(total=30), [5.0, 40.0, 80.0])
            after = carries()
        finally:
            gc.enable()
        assert after == before

class TestRankNSteps:
    """Rank-n steps keep the full normal equations and the carried products."""

    @pytest.mark.parametrize("editor", ["lyaplock", "baseline", "edit-only"])
    def test_whole_run_against_dense_recomputation(self, monkeypatch, editor):
        from dataclasses import replace

        import lyapedit.editors as editors
        import lyapedit.harness as harness
        from lyapedit.oracle import verify_normal_equations

        # At alpha 2 the queue leaves its floor on about 60% of the steps.
        config = replace(small_config(editor=editor, total=300), alpha=2.0)
        d1 = config.stream.dims.d1
        wide_solves, drift_checks = [], []
        residuals, product_gaps, az_values = [], [], []
        original_cho, original_drifted = editors._cho_solve, editors._drifted
        original_step = harness._solve_step

        def cho_solve(factor, b):
            wide_solves.append(b.shape[1] == d1)
            return original_cho(factor, b)

        def drifted(*args):
            drift_checks.append(original_drifted(*args))
            return drift_checks[-1]

        def step(config, mem, backlog, batch, params, weight, carry):
            d = carry.d  # the solve replaces it, and writes no array in place
            report, w_new = original_step(config, mem, backlog, batch, params, weight,
                                          carry)
            az = weight
            az_values.append(az)
            if report.ridge_applied == 0.0:
                if config.editor == "lyaplock":
                    # The path's memory is not moved off W0; its weights
                    # are W0 + D.
                    residual = verify_normal_equations(
                        mem.with_weights(mem.w0 + d), backlog, batch,
                        params.v_weight, az, report.delta)
                elif config.editor == "baseline":
                    # The lyaplock system with v = az = 1, no backlog, and
                    # preservation anchored at the current weights: the
                    # right-hand side holds E0 = D K0K0^T, formed densely.
                    c = mem.k0_gram + batch.k1 @ batch.k1.T
                    rhs = (d @ mem.k0_gram
                           + (batch.v1 - mem.w0 @ batch.k1) @ batch.k1.T)
                    residual = (np.linalg.norm((d + report.delta) @ c - rhs)
                                / np.linalg.norm(rhs))
                else:
                    residual = (np.linalg.norm(w_new @ batch.k1 - batch.v1)
                                / np.linalg.norm(batch.v1))
                residuals.append(residual)
            for carried, gram in ((carry.e0, mem.k0_gram),
                                  (carry.ep, backlog.kp_gram)):
                dense = carry.d @ gram
                scale = np.linalg.norm(dense)
                product_gaps.append(np.linalg.norm(carried - dense) / scale
                                    if scale > 0.0 else np.linalg.norm(carried))
            return report, w_new

        monkeypatch.setattr(editors, "_cho_solve", cho_solve)
        monkeypatch.setattr(editors, "_drifted", drifted)
        monkeypatch.setattr(harness, "_solve_step", step)
        result = run(config)

        assert len(residuals) == config.stream.total_batches  # no step ridged
        assert max(residuals) <= 1e-8
        assert max(product_gaps) <= 1e-12
        # A step solves for d1 columns only when its az differs from the
        # previous step's; every other step (and the probe) is rank n.
        changed = sum(a != b for a, b in zip(az_values, az_values[1:]))
        assert sum(wide_solves) == (changed if editor == "lyaplock" else 0)
        if editor == "lyaplock":
            assert 0 < changed < config.stream.total_batches - 1
        rank_n_steps = len(az_values) + 1 - sum(wide_solves)  # with the probe
        assert len(drift_checks) == rank_n_steps
        assert not any(drift_checks)
        assert np.isfinite(result.summary.final_avg_pl)

    @staticmethod
    def rhs(mem, backlog, batch, params, weight):
        """The lyaplock right-hand side of one step in deviation coordinates,
        written out: the preservation term, anchored at W0, drops out."""
        u0 = batch.v1 - mem.w0 @ batch.k1
        return params.v_weight * (u0 @ batch.k1.T + backlog.u0kpt)

    @pytest.mark.parametrize("product", ["e0", "ep"])
    def test_corrupted_carry_is_not_silent(self, monkeypatch, product):
        """An error of 1e-6 ||RHS|| in a carried product ridges its step.

        The target is formed from the products, so the step solves for the
        wrong one.  The Freivalds check or the dense recompute puts the
        products back at D', the residual check then reads the miss, and
        the step misses the residual target on its unridged attempts.  The
        next step starts from correct products and is ridge-free.
        """
        from dataclasses import replace

        import lyapedit.harness as harness

        config = replace(small_config(total=40), alpha=2.0)
        clean = run(config)
        assert not clean.ridge_history.any()
        az = clean.params.a * clean.z_history[:-1]
        # Step s reads Z(s), entry s-1; the first step whose az equals the
        # previous one takes the rank-n path, the first that differs does not.
        same = next(s for s in range(2, 40) if az[s - 1] == az[s - 2])
        moved = next(s for s in range(2, 40) if az[s - 1] != az[s - 2])
        original = harness._solve_step
        for s in (same, moved):
            calls = []

            def step(config, mem, backlog, batch, params, weight, carry):
                calls.append(None)
                if len(calls) == s:
                    getattr(carry, product)[0, 0] += 1e-6 * np.linalg.norm(
                        self.rhs(mem, backlog, batch, params, weight))
                return original(config, mem, backlog, batch, params, weight, carry)

            monkeypatch.setattr(harness, "_solve_step", step)
            try:
                result = run(config)
            except RunAborted as exc:
                assert exc.step == s
                continue
            assert result.ridge_history[s - 1] > 0.0, s
            assert not result.ridge_history[s:].any(), s

    def test_drifted_products_are_recomputed(self, make_instance):
        import lyapedit.editors as editors

        inst = make_instance(d0=6, d1=4, n=2, m0=24, absorbed=2, seed=31)
        mem, bk = inst.mem.with_weights(2.0 * inst.mem.w0), inst.bk  # D = W0
        d = mem.w - mem.w0
        carry = editors.Carry(e0=d @ mem.k0_gram, ep=d @ bk.kp_gram,
                              kp_gram=bk.kp_gram, d=d)
        carry.e0 += 1e-9 * np.abs(carry.e0).max()  # drift far above CARRY_TOLERANCE
        editors.solve_edit_only(mem, inst.batch, carry)
        d_new = carry.d
        assert np.array_equal(carry.e0, d_new @ mem.k0_gram)
        assert np.array_equal(carry.ep, d_new @ bk.kp_gram)


class TestScaleCovariance:
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_key_scale_reproduces_unit_scale(self, monkeypatch, scale):
        """Scaled keys and values give the same edits and the same PL/D.

        Squared norms of the scaled systems overflow or underflow; the solver
        must neither snap to a zero edit nor floor the probed threshold.
        """
        from dataclasses import replace
        from pathlib import Path
        import lyapedit.harness as harness
        from lyapedit.cli import load_config

        reports = []
        original = harness._solve_step

        def recording(*args):
            report, w_new = original(*args)
            reports.append(report)
            return report, w_new

        monkeypatch.setattr(harness, "_solve_step", recording)
        path = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"
        config = load_config(path)["run"]
        unit = run(config)
        scaled = run(replace(config, stream=replace(config.stream, key_scale=scale)))
        assert scaled.d_base == pytest.approx(unit.d_base * scale ** 2, rel=1e-9)
        scaled_avg = running_average(scaled.pl_history) / scaled.params.d_threshold
        unit_avg = running_average(unit.pl_history) / unit.params.d_threshold
        for a, b in zip(scaled.delta_fro_history, unit.delta_fro_history):
            assert a > 0.0
            assert a == pytest.approx(b, rel=1e-9)
        for a, b in zip(scaled_avg, unit_avg):
            assert a == pytest.approx(b, rel=1e-9)
        assert len(reports) == 2 * config.stream.total_batches
        assert all(r.residual <= 1e-8 for r in reports if r.ridge_applied == 0.0)


    # (d0, d1, n, m0): quick.cfg's shape, n > d1, and n > d0 with m0 = d0,
    # where edit-only's n x n key Gram is singular and always ridged.
    SHAPES = ((16, 12, 4, 64), (16, 3, 6, 64), (6, 4, 8, 6))
    _unit_runs: dict = {}

    @classmethod
    def scale_free_view(cls, shape, editor, key_scale):
        """PL/D, a*Z and |delta|, and the number of steps a kept factor solved."""
        from unittest import mock

        import lyapedit.editors as editors

        d0, d1, n, m0 = shape
        spec = StreamSpec(dims=Dims(d0=d0, d1=d1), n_per_batch=n, total_batches=200,
                          key_scale=key_scale, value_mode="planted-teacher",
                          teacher_drift=0.1, seed=7, m0=m0)
        original, kept = editors._Kept.solve, []

        def counting(self, k1):
            solved = original(self, k1)
            kept.append(solved is not None)
            return solved

        with mock.patch.object(editors._Kept, "solve", counting):
            result = run(RunConfig(stream=spec, editor=editor, alpha=60.0))
        return (result.pl_history / result.params.d_threshold,
                result.params.a * result.z_history,
                result.delta_fro_history), sum(kept)

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    # Found by this test: a subnormal ridge and pivots at 2^-500, before the
    # solvers equilibrated the matrix they factor.
    @example(k=-500, shape=(6, 4, 8, 6), editor="edit-only")
    @given(k=st.integers(-500, 500), shape=st.sampled_from(SHAPES),
           editor=st.sampled_from(("lyaplock", "baseline", "edit-only")))
    def test_power_of_two_key_scale_is_bit_identical(self, k, shape, editor):
        """Keys scaled by 2^k give bit for bit the PL/D, a*Z and |delta| of 2^0.

        Every operation then scales exactly, rank-n, full and kept-factor
        steps alike, as long as nothing the solver forms is subnormal or
        overflows.  The probe and every baseline step solve by the preserved
        Gram's factor, and every lyaplock run has kept-factor steps.
        """
        if (shape, editor) not in self._unit_runs:
            self._unit_runs[(shape, editor)] = self.scale_free_view(shape, editor, 1.0)
        unit, unit_kept = self._unit_runs[(shape, editor)]
        scaled, scaled_kept = self.scale_free_view(shape, editor, 2.0 ** k)
        for name, a, b in zip(("PL/D", "a*Z", "|delta|"), unit, scaled):
            assert a.tobytes() == b.tobytes(), name
        assert scaled_kept == unit_kept
        steps_kept = unit_kept - 1  # the probe's
        assert (steps_kept > 0) == (editor != "edit-only")
        assert editor != "baseline" or steps_kept == 200


class TestDriftCovariance:
    """Scaling the planted teacher's drift by s scales every loss and D by
    s^2 and leaves a*Z and the PL/D trajectory unchanged.  The losses and
    solves work in D = W - W0, so the code keeps that symmetry at every
    drift; the stream's own rounding of W0 + drift N, about
    eps / (drift sqrt(d0)), sets the 1e-9 limit."""

    SPEC = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8, total_batches=200,
                      key_scale=1.0, value_mode="planted-teacher", teacher_drift=0.1,
                      seed=188, m0=2048)

    @classmethod
    def run_at(cls, drift, monkeypatch=None):
        """The run at ``drift`` and, with ``monkeypatch``, each step's D'."""
        from dataclasses import replace

        import lyapedit.harness as harness

        deviations = []
        if monkeypatch is not None:
            original = harness._solve_step

            def step(*args):
                report, w_new = original(*args)
                deviations.append(args[-1].d)
                return report, w_new

            monkeypatch.setattr(harness, "_solve_step", step)
        config = RunConfig(stream=replace(cls.SPEC, teacher_drift=drift),
                           editor="lyaplock", alpha=60.0)
        return run(config), deviations

    @pytest.fixture(scope="class")
    def reference(self):
        return self.run_at(0.1)[0]

    @pytest.mark.parametrize("drift", [1e-6, 1e-3, 0.3, 3.0])
    def test_matches_drift_one_tenth(self, reference, drift):
        result, _ = self.run_at(drift)
        for got, want in (
                (running_average(result.pl_history) / result.params.d_threshold,
                 running_average(reference.pl_history) / reference.params.d_threshold),
                (result.params.a * result.z_history,
                 reference.params.a * reference.z_history),
                (result.d_base / drift ** 2, reference.d_base / 0.1 ** 2)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        # The queue moves: the covariance covers the steps that refactor.
        assert (np.diff(reference.z_history) != 0.0).sum() > 100

    @pytest.mark.parametrize("drift", [1e-6, 0.1])
    def test_loop_pl_is_the_explicit_k0_loss(self, monkeypatch, drift):
        """Every step's PL is ||D' K0||^2 with the raw K0 of
        ``generate_preserved()`` within 1e-11 relative, and the final one is
        that of the returned weights, ||(W_T - W0) K0||^2."""
        from dataclasses import replace

        from lyapedit.stream import EditStream

        result, deviations = self.run_at(drift, monkeypatch)
        w0, k0 = EditStream(replace(self.SPEC, teacher_drift=drift)).generate_preserved()
        explicit = np.array([np.sum((d @ k0) ** 2) for d in deviations])
        np.testing.assert_allclose(result.pl_history, explicit, rtol=1e-11, atol=0.0)
        final = np.sum(((result.w_final - w0) @ k0) ** 2)
        assert result.pl_history[-1] == pytest.approx(final, rel=1e-11, abs=0.0)


class TestWorkingSet:
    """What a solve holds at once, in units of one d1 x d0 array.

    tracemalloc counts every array allocated inside the traced call at its
    full size, ``np.zeros`` included.  At d0 = 256, d1 = 192 the system C is
    4/3 of a unit.  A kept lyaplock step holds the RHS buffer, which then
    holds the residual, the remainder, which then holds the target, the
    edit and D' (4 units) beside the carry's E0, Ep and D; the probe on a
    ``new_memory`` memory, which carries the preserved Gram's factor, adds
    the fresh carry's three zero arrays and the empty backlog's Gram (about
    7.5 units).
    """

    SPEC = StreamSpec(dims=Dims(d0=256, d1=192), n_per_batch=8, total_batches=4,
                      key_scale=1.0, value_mode="planted-teacher", teacher_drift=0.1,
                      seed=188, m0=1024)
    UNIT = 192 * 256 * 8

    def traced(self, call):
        import tracemalloc

        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1] / self.UNIT
        finally:
            tracemalloc.stop()

    def test_kept_lyaplock_step(self, monkeypatch):
        import lyapedit.editors as editors
        import lyapedit.harness as harness

        original, potrf = harness._solve_step, editors._potrf
        steps, factored = [], []
        shape = (self.SPEC.dims.d1, self.SPEC.dims.d0)

        def step(*args):
            before = len(factored)
            out, peak = self.traced(lambda: original(*args))
            # The d1 x d0 arrays the carry holds from step to step.
            held = sum(isinstance(a, np.ndarray) and a.shape == shape
                       for a in vars(args[-1]).values())
            steps.append((held + peak, sum(factored[before:])))
            return out

        def recording(a, *args, **kwargs):
            factored.append(a.shape[0] == self.SPEC.dims.d0)
            return potrf(a, *args, **kwargs)

        monkeypatch.setattr(harness, "_solve_step", step)
        monkeypatch.setattr(editors, "_potrf", recording)
        run(RunConfig(stream=self.SPEC, editor="lyaplock", alpha=60.0))
        # On the queue's floor every step is kept: from the preserved Gram's
        # factor, with no d0 x d0 system factored.
        assert [systems for _, systems in steps] == [0] * self.SPEC.total_batches
        assert max(total for total, _ in steps) <= 7.5

    @pytest.mark.parametrize("editor", ["baseline", "lyaplock"])
    @pytest.mark.parametrize("factor", [True, False])
    def test_empty_backlog_leaves_ep_untouched(self, editor, factor):
        """The probe and every path's step 1 neither write D KpKp^T nor read
        it: it is made read-only, and the solves succeed."""
        from dataclasses import replace

        from lyapedit import BacklogAccumulator, EditStream, solve_baseline, solve_lyaplock
        from lyapedit.editors import Carry

        stream = EditStream(self.SPEC)
        mem = stream.preserved_memory()
        if not factor:
            mem = replace(mem, k0_factor=None)
        backlog = BacklogAccumulator.empty(mem.w0)
        carry = Carry.start(mem, backlog)
        carry.ep.flags.writeable = False
        if editor == "baseline":
            report = solve_baseline(mem, stream.batch(1), carry)
        else:
            report = solve_lyaplock(mem, backlog, stream.batch(1), 1.0, 1.0, carry)
        assert report.residual <= 1e-8
        assert not carry.ep.any()

    def test_probe_on_a_new_memory(self):
        from lyapedit import EditStream, estimate_d_base, new_memory

        stream = EditStream(self.SPEC)
        mem = new_memory(*stream.generate_preserved())
        stream.batch(1)  # the stream's block, made before the trace
        d_base, peak = self.traced(lambda: estimate_d_base(stream, mem))
        assert d_base > 0.0
        assert peak <= 8.0

    @pytest.mark.parametrize("acceptance", [False, True])
    def test_set_up_probe_gives_the_runs_d_base(self, acceptance):
        """A set-up of ``new_memory`` on the drawn preserved set and the probe
        yields the run's d_base bit for bit: both probe on the factor of one
        Gram.  The probe reads batch 1 only, so a short stream serves."""
        from dataclasses import replace
        from pathlib import Path

        from lyapedit import EditStream, estimate_d_base, new_memory
        from lyapedit.cli import load_config

        spec = self.SPEC
        if acceptance:
            spec = load_config(Path(__file__).resolve().parent.parent / "configs"
                               / "acceptance.cfg")["run"].stream
        spec = replace(spec, total_batches=4)
        stream = EditStream(spec)
        d_base = estimate_d_base(stream, new_memory(*stream.generate_preserved()))
        assert d_base == run(RunConfig(stream=spec, editor="lyaplock", alpha=60.0)).d_base


class TestKeptFactor:
    """Steps at an unchanged (v, a*Z) solve by the path's kept factor."""

    @staticmethod
    def no_kept_factor():
        from unittest import mock

        import lyapedit.editors as editors
        return mock.patch.object(editors, "_rank_cap", lambda d0, n: 0)

    # d0 = 16 and n = 2 give a cap of 4: two kept steps on the preserved
    # Gram's factor, then a full cap, a factored step and two kept steps.
    # Low alphas leave the floor early, and the members that share their
    # path split, often inside a kept stretch.  Baseline solves every step
    # on the preserved Gram's factor.
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @example(members=[("lyaplock", 2.0, 1.0), ("lyaplock", 60.0, 1.0),
                      ("baseline", 2.0, 1.0), ("lyaplock", 5.0, 2.0)], seed=3)
    @given(members=st.lists(st.tuples(st.sampled_from(("lyaplock", "lyaplock",
                                                       "baseline")),
                                      st.sampled_from((2.0, 5.0, 60.0)),
                                      st.sampled_from((1.0, 2.0))),
                            min_size=2, max_size=4),
           seed=st.integers(0, 7))
    def test_lockstep_is_standalone_and_refactoring_agrees(self, members, seed):
        """Lockstep members equal standalone runs bit for bit, and runs that
        refactor every step agree within 1e-10 relative: with a rank cap of
        0, neither a kept factor nor the preserved Gram's serves a step.

        A kept step's residual is the round-off of another factorization and
        its condition estimate an upper estimate, so those two histories are
        left out of the second comparison.
        """
        import lyapedit.harness as harness

        spec = StreamSpec(dims=Dims(d0=16, d1=12), n_per_batch=2, total_batches=60,
                          key_scale=1.0, value_mode="planted-teacher",
                          teacher_drift=0.15, seed=seed, m0=64)
        configs = [RunConfig(stream=spec, editor=editor, alpha=alpha, v_weight=v)
                   for editor, alpha, v in members]
        together = harness._run_lockstep(configs)
        for config, shared in zip(configs, together):
            alone = run(config)
            assert alone.summary == shared.summary
            for name in HISTORIES + ("w_final",):
                assert getattr(alone, name).tobytes() == getattr(shared, name).tobytes(), name
        with self.no_kept_factor():
            refactored = harness._run_lockstep(configs)
        for kept, factored in zip(together, refactored):
            for name in ("pl_history", "el_history", "bl_history", "z_history",
                         "delta_fro_history", "w_final"):
                assert np.allclose(getattr(kept, name), getattr(factored, name),
                                   rtol=1e-10, atol=0.0), name

    @pytest.mark.parametrize("editor", ["lyaplock", "baseline"])
    def test_no_factorization_after_the_check(self, monkeypatch, editor):
        """d0 = 64, n = 2 and T = 8, so T n = d0 / 4: the preserved Gram's
        factor, with every batch since pending, serves each lyaplock step on
        the queue's floor, and a fresh one each baseline step and the probe.
        The one d0 x d0 ``potrf`` is new_memory's factor of the Gram."""
        from lyapedit import lapack
        import lyapedit.editors as editors

        spec = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=2, total_batches=8,
                          key_scale=1.0, value_mode="planted-teacher",
                          teacher_drift=0.1, seed=188, m0=256)
        factored, potrf = [], lapack._potrf

        def recording(a, *args, **kwargs):
            factored.append(a.shape[0])
            return potrf(a, *args, **kwargs)

        # The solvers' name for potrf, and the one lapack._factor_gram calls.
        monkeypatch.setattr(editors, "_potrf", recording)
        monkeypatch.setattr(lapack, "_potrf", recording)
        result = run(RunConfig(stream=spec, editor=editor, alpha=60.0))
        assert factored.count(64) == 1
        assert not result.ridge_history.any()
        assert (result.z_history == result.params.z_max).all()

    @pytest.mark.long_horizon
    def test_long_horizon_matches_refactoring(self):
        """T = 10,000 on the acceptance stream, where Z sits on its floor on
        most steps: the histories agree within 1e-10 relative, and the
        telescoped certificate holds for both runs."""
        from lyapedit.oracle import check_sufficiency_empirical

        spec = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8,
                          total_batches=10_000, key_scale=1.0,
                          value_mode="planted-teacher", teacher_drift=0.1,
                          seed=188, m0=2048)
        config = RunConfig(stream=spec, editor="lyaplock", alpha=60.0)
        kept = run(config)
        with self.no_kept_factor():
            factored = run(config)
        for name in ("pl_history", "el_history", "bl_history", "z_history"):
            assert np.allclose(getattr(kept, name), getattr(factored, name),
                               rtol=1e-10, atol=0.0), name
        for result in (kept, factored):
            assert check_sufficiency_empirical(result.pl_history, result.z_history,
                                               result.params).passed


    @pytest.mark.long_horizon
    @pytest.mark.parametrize("seed", [188, 101])
    @pytest.mark.parametrize("value_mode", ["planted-teacher", "random-target"])
    def test_long_horizon_compare_matches_without_the_preserved_factor(self, value_mode,
                                                                       seed):
        """``compare``'s lockstep of lyaplock and baseline at T = 10,000 on
        the acceptance stream, with and without the preserved Gram's factor:
        the final avg PL, avg EL and Z agree within 1e-11 relative, the
        telescoped certificate holds for every run, and every run's final PL
        is ||(W_T - W0) K0||^2 with the raw K0 within 1e-11 relative.

        Baseline's running avg PL/D, the abstract's "progressive decline",
        is non-decreasing over the checkpoints and above 1 at each of them
        (seed 188: 3.17 / 3.36 / 3.49 / 3.55 on planted-teacher, 53.1 /
        69.4 / 79.9 / 83.3 on random-target)."""
        from dataclasses import replace
        from pathlib import Path
        from unittest import mock

        import lyapedit.harness as harness
        from lyapedit.cli import load_config
        from lyapedit.oracle import check_sufficiency_empirical
        from lyapedit.stream import EditStream

        config = load_config(Path(__file__).resolve().parent.parent
                             / "configs" / "acceptance.cfg")["run"]
        config = replace(config, stream=replace(config.stream, total_batches=10_000,
                                                value_mode=value_mode, seed=seed))
        configs = [replace(config, editor=e) for e in ("lyaplock", "baseline")]
        kept = harness._run_lockstep(configs)
        original = EditStream.preserved_memory

        def without_factor(stream):
            return replace(original(stream), k0_factor=None)

        with mock.patch.object(EditStream, "preserved_memory", without_factor):
            factored = harness._run_lockstep(configs)
        for a, b in zip(kept, factored):
            for name in ("final_avg_pl", "final_avg_el", "final_z"):
                x, y = getattr(a.summary, name), getattr(b.summary, name)
                assert abs(x - y) <= 1e-11 * abs(y), (a.config.editor, name)
            for result in (a, b):
                assert check_sufficiency_empirical(
                    result.pl_history, result.z_history, result.params).passed
        w0, k0 = EditStream(config.stream).generate_preserved()
        for result in kept + factored:
            explicit = np.sum(((result.w_final - w0) @ k0) ** 2)
            assert abs(result.pl_history[-1] - explicit) <= 1e-11 * explicit
        for result in (kept[1], factored[1]):
            avg = running_average(result.pl_history) / result.params.d_threshold
            checkpoints = avg[[999, 1999, 4999, 9999]]
            assert (checkpoints > 1.0).all(), checkpoints
            assert (np.diff(checkpoints) >= 0.0).all(), checkpoints


class TestCompare:
    def test_single_config_matches_run(self):
        cfg = small_config(total=40)
        table = compare([cfg])
        assert len(table) == 1
        assert table[0] == run(cfg).summary

    def test_requires_shared_stream(self):
        cfg_a = small_config(total=40)
        cfg_b = small_config(total=41)
        with pytest.raises(InputError):
            compare([cfg_a, cfg_b])

    def test_editor_directional_behavior(self):
        from dataclasses import replace
        base = small_config(total=150)
        table = compare([base, replace(base, editor="baseline"),
                         replace(base, editor="edit-only")])
        by_name = {s.editor: s for s in table}
        # Ignoring preservation lets edit-only fit each batch exactly.
        assert by_name["edit-only"].final_avg_el <= by_name["lyaplock"].final_avg_el
        assert by_name["edit-only"].final_avg_pl > by_name["lyaplock"].final_avg_pl


class TestSweep:
    def test_single_alpha_matches_run(self):
        cfg = small_config(total=40)
        rows = sweep_alpha(cfg, [40.0])
        assert rows == [run(cfg).summary]

    def test_duplicate_alphas_identical(self):
        cfg = small_config(total=40)
        rows = sweep_alpha(cfg, [40.0, 40.0])
        assert rows[0] == rows[1]

    def test_rows_ordered_by_alpha(self):
        cfg = small_config(total=30)
        rows = sweep_alpha(cfg, [80.0, 20.0, 40.0])
        assert [r.alpha for r in rows] == [20.0, 40.0, 80.0]

    def test_alphas_validated(self):
        cfg = small_config(total=5)
        with pytest.raises(InputError):
            sweep_alpha(cfg, [])
        with pytest.raises(InputError):
            sweep_alpha(cfg, [10.0, -1.0])


class TestConfigValidation:
    def test_editor_name_checked(self):
        with pytest.raises(InputError):
            RunConfig(stream=small_spec(), editor="rocket", alpha=1.0)

    def test_alpha_positive(self):
        with pytest.raises(InputError):
            RunConfig(stream=small_spec(), editor="lyaplock", alpha=0.0)

    def test_record_every_positive(self):
        with pytest.raises(InputError):
            RunConfig(stream=small_spec(), editor="lyaplock", alpha=1.0,
                      record_every=0)
