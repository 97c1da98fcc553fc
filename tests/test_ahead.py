"""The stream's generator process: same bits, its gate, its lifecycle and errors.

A sequential run's step loop runs inside ``EditStream.ahead``, which forks
one child to make the stream's next blocks.  The d0=64 streams here hold
300 batches, 1,075,200 generated values, which pass the 2**20-value gate.
Every test counts ``os.fork`` through a wrapper, so a gate that closed
silently fails the test, and every run path ends with no child left.  The
process is shown 2 CPUs, so the tests take the same path on a one-CPU host.
"""
from __future__ import annotations

import os
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lyapedit import Dims, EditStream, RunConfig, StreamSpec, harness, lapack
from lyapedit import stream as stream_module
from lyapedit.cli import main
from lyapedit.errors import GenerationError, RunAborted, SingularSystemError

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"
SPEC = StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8, total_batches=300,
                  key_scale=1.0, value_mode="planted-teacher", teacher_drift=0.1,
                  seed=188, m0=256)
# Generated values per batch of SPEC: keys 64*8 and the teacher wobble 48*64.
PER_BATCH = 64 * 8 + 48 * 64
EDITORS = ("lyaplock", "baseline", "edit-only")
FIELDS = ("pl_history", "el_history", "bl_history", "z_history",
          "delta_fro_history", "ridge_history", "cond_history",
          "residual_history", "w_final")


pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the stream forks its child on Linux only")


def config(editor="lyaplock", alpha=60.0, **stream):
    return RunConfig(stream=replace(SPEC, **stream), editor=editor, alpha=alpha)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(lapack, "_cpu_count", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` started in this process."""
    started = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return started


@pytest.fixture
def one_cpu(monkeypatch):
    def force():
        monkeypatch.setattr(lapack, "_cpu_count", lambda: 1)
    return force


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tables(results):
    return [[getattr(r, name).tobytes() for name in FIELDS] for r in results]


class TestSameBits:
    def test_run(self, forks, one_cpu):
        ahead = harness.run(config())
        assert len(forks) == 1
        one_cpu()
        alone = harness.run(config())
        assert len(forks) == 1
        assert tables([ahead]) == tables([alone])
        assert ahead.summary == alone.summary
        assert_no_child()

    def test_three_editor_lockstep(self, forks, one_cpu):
        configs = [config(editor) for editor in EDITORS]
        ahead = harness._run_lockstep(configs)
        assert len(forks) == 1
        one_cpu()
        alone = harness._run_lockstep(configs)
        assert len(forks) == 1
        assert tables(ahead) == tables(alone)
        assert_no_child()

    def test_compare_and_sweep_fork_once_each(self, forks):
        summaries = harness.compare([config(editor) for editor in EDITORS])
        assert len(forks) == 1
        assert summaries == [harness.run(config(e)).summary for e in EDITORS]
        assert len(forks) == 4
        harness.sweep_alpha(config(), [20.0, 60.0, 100.0])
        assert len(forks) == 5
        assert_no_child()

    def test_simulate_csv(self, forks, one_cpu, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join((
            "dims.d0 = 64", "dims.d1 = 48", "stream.n_per_batch = 8",
            "stream.total_batches = 300", "stream.seed = 188",
            "stream.mode = planted-teacher", "stream.m0 = 256",
            "stream.teacher_drift = 0.1", "alpha = 60", "editor = lyaplock",
            "record_every = 7")) + "\n")
        out = [tmp_path / "ahead.csv", tmp_path / "alone.csv"]
        assert main(["simulate", "--config", str(cfg), "--out", str(out[0]),
                     "--quiet"]) == 0
        assert len(forks) == 1
        one_cpu()
        assert main(["simulate", "--config", str(cfg), "--out", str(out[1]),
                     "--quiet"]) == 0
        assert len(forks) == 1
        assert out[0].read_bytes() == out[1].read_bytes()


class TestGate:
    def test_quick_cfg(self, forks, tmp_path):
        assert main(["simulate", "--config", str(QUICK),
                     "--out", str(tmp_path / "q.csv"), "--quiet"]) == 0
        assert forks == []

    def test_verify(self, forks, capsys):
        assert main(["verify", "--seed", "188"]) == 0
        assert forks == []

    def test_one_cpu(self, forks, one_cpu):
        one_cpu()
        harness.run(config())
        assert forks == []

    def test_second_live_thread(self, forks):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            harness.run(config())
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []
        harness.run(config())
        assert len(forks) == 1

    def test_values_to_come_at_and_below_the_gate(self, forks):
        at = stream_module._AHEAD_VALUES // PER_BATCH + 1
        assert (at - 1) * PER_BATCH < stream_module._AHEAD_VALUES <= at * PER_BATCH
        harness.run(config(total_batches=at - 1))
        assert forks == []
        harness.run(config(total_batches=at))
        assert len(forks) == 1
        assert_no_child()

    def test_counts_from_the_current_block(self, forks):
        stream = EditStream(replace(SPEC, total_batches=600))
        stream.batch(330)  # block 325..360: 276 batches to come, below the gate
        with stream.ahead():
            stream.batch(361)
        assert forks == []
        stream.batch(289)  # block 289..324: 312 batches to come
        with stream.ahead():
            stream.batch(325)
        assert len(forks) == 1
        assert_no_child()


class TestLifecycle:
    def test_completed_run(self, forks):
        harness.run(config())
        assert len(forks) == 1
        assert_no_child()

    def test_run_aborted(self, forks):
        with pytest.raises(RunAborted) as err:
            harness.run(config(alpha=1e-315))
        assert err.value.step == 2
        assert len(forks) == 1
        assert_no_child()

    def test_lockstep_member_failure(self, forks, monkeypatch):
        original = harness._solve_step
        calls = {}

        def explode(config, mem, backlog, batch, params, z, carry):
            calls[config.alpha] = calls.get(config.alpha, 0) + 1
            if config.alpha == 20.0 and calls[config.alpha] == 40:
                raise SingularSystemError("synthetic failure at step 40")
            return original(config, mem, backlog, batch, params, z, carry)

        monkeypatch.setattr(harness, "_solve_step", explode)
        with pytest.raises(RunAborted) as err:
            harness.sweep_alpha(config(), [20.0, 60.0, 100.0])
        assert err.value.step == 40
        assert len(forks) == 1
        assert_no_child()

    def test_keyboard_interrupt_in_the_loop(self, forks, monkeypatch):
        original = harness._solve_step
        calls = []

        def interrupt(*args):
            calls.append(None)
            if len(calls) == 50:
                raise KeyboardInterrupt
            return original(*args)

        monkeypatch.setattr(harness, "_solve_step", interrupt)
        with pytest.raises(KeyboardInterrupt):
            harness.run(config())
        assert len(forks) == 1
        assert_no_child()

    def test_killed_child_leaves_the_run_unchanged(self, forks, monkeypatch):
        want = tables([harness.run(config())])
        original = harness._solve_step
        calls = []

        def kill_child(*args):
            calls.append(None)
            if len(calls) == 10:
                os.kill(forks[-1], signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(harness, "_solve_step", kill_child)
        assert tables([harness.run(config())]) == want
        assert len(forks) == 2
        assert_no_child()


class TestChildFailure:
    def failing_blocks(self, monkeypatch):
        """Make block 3 (batches 73..108) raise; return the blocks this
        process was asked for."""
        original = EditStream._block_arrays
        asked = []

        def failing(stream, first):
            asked.append(first)
            if first == 73:
                raise GenerationError(f"synthetic failure making block {first}")
            return original(stream, first)

        monkeypatch.setattr(EditStream, "_block_arrays", failing)
        return asked

    def test_same_exception_at_the_same_step(self, forks, one_cpu, monkeypatch):
        asked = self.failing_blocks(monkeypatch)
        with pytest.raises(GenerationError) as ahead:
            harness.run(config())
        assert len(forks) == 1
        # The probe's block 1 was made here, blocks 37 and 73 by the child,
        # and block 73 again here after the child's error token.
        assert asked == [1, 73]
        assert_no_child()
        asked.clear()
        one_cpu()
        with pytest.raises(GenerationError) as alone:
            harness.run(config())
        assert asked == [1, 37, 73]
        assert len(forks) == 1
        assert str(ahead.value) == str(alone.value)

    def test_warning_in_the_child_is_made_here(self, forks, monkeypatch):
        original = EditStream._block_arrays

        def warning(stream, first):
            if first == 73:
                np.float64(1e308) * 10  # RuntimeWarning: overflow
            return original(stream, first)

        monkeypatch.setattr(EditStream, "_block_arrays", warning)
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = harness.run(config())
        assert len(forks) == 1
        monkeypatch.setattr(EditStream, "_block_arrays", original)
        assert tables([result]) == tables([harness.run(config())])
        assert_no_child()
