"""Kernels split across two threads: the same bytes as on one, and the gate.

``stream._normal_rows``, ``memory._preserved_gram`` and
``memory._memory_from_gram`` run a call of ``_SPLIT_PAIRS`` normal pairs or
``_SPLIT_MACS`` multiply-adds in two halves at once.  The tests lower those
gates to split small calls, and fix the CPU count that ``lapack.in_two``
reads, so they mean the same on a host with one CPU.
"""
from __future__ import annotations

import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from lyapedit import Dims, EditStream, StreamSpec, harness, lapack, memory, stream
from lyapedit.cli import main
from lyapedit.errors import GenerationError
from lyapedit.harness import RunConfig

EDITORS = ("lyaplock", "baseline", "edit-only")
QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"
NO_SPLIT = 1 << 62


@pytest.fixture
def starts(monkeypatch):
    """Two CPUs, and a list that grows by one per thread started."""
    monkeypatch.setattr(lapack, "_cpu_count", lambda: 2)
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def _gates(monkeypatch, value):
    monkeypatch.setattr(stream, "_SPLIT_PAIRS", value)
    monkeypatch.setattr(memory, "_SPLIT_MACS", value)


def _three_ways(monkeypatch, make):
    """``make()`` serial, split on two threads, and split with one CPU."""
    _gates(monkeypatch, NO_SPLIT)
    serial = make()
    _gates(monkeypatch, 1)
    monkeypatch.setattr(lapack, "_cpu_count", lambda: 2)
    split = make()
    monkeypatch.setattr(lapack, "_cpu_count", lambda: 1)
    return serial, split, make()


def _matrix(seed, rows, cols):
    return stream.SplitMix64(seed).matrix(rows, cols)


class TestSameBytes:
    @pytest.mark.parametrize("rows, n", [
        (1, 1), (1, 2), (1, 3 * stream._CHUNK_PAIRS + 1), (2, 2 * stream._CHUNK_PAIRS),
        (3, 5), (7, 4 * stream._CHUNK_PAIRS - 3), (36, 3072), (40, 511)])
    @pytest.mark.parametrize("drawn", [0, 5])
    def test_normal_rows(self, monkeypatch, rows, n, drawn):
        seeds = [stream.derive_seed(188, 3, t) for t in range(rows)]
        serial, split, one_cpu = _three_ways(
            monkeypatch, lambda: stream._normal_rows(seeds, n, drawn))
        assert split.tobytes() == serial.tobytes()
        assert one_cpu.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("d0, m0", [(128, 130), (129, 301), (191, 256),
                                        (256, 1024), (257, 512), (300, 777),
                                        (1024, 4096)])
    def test_preserved_gram(self, monkeypatch, d0, m0):
        """Exactly symmetric, and the same bytes on one CPU as on two.

        The block form may differ from one ``syrk`` in the last bit at some
        shapes; at the benchmark's d0 x m0 = 256 x 1024 and 1024 x 4096 it
        gives the same bytes.
        """
        k0 = _matrix(d0 + m0, d0, m0)
        serial, split, one_cpu = _three_ways(
            monkeypatch, lambda: memory._preserved_gram(k0))
        assert one_cpu.tobytes() == split.tobytes()
        assert (split == split.T).all()
        np.testing.assert_allclose(split, serial, rtol=1e-13, atol=1e-13 * m0)
        if (d0, m0) in ((256, 1024), (1024, 4096)):
            assert split.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("d1, d0", [(128, 64), (129, 65), (200, 130),
                                        (192, 256), (768, 1024)])
    def test_memory_from_gram(self, monkeypatch, d1, d0):
        """The same bytes on one CPU as on two; at d1 x d0 = 768 x 1024 (the
        wide benchmark's) and 192 x 256, also as one ``gemm``."""
        w0 = _matrix(d1, d1, d0)
        k0 = _matrix(d0, d0, d0 + 7)
        gram = k0 @ k0.T
        serial, split, one_cpu = _three_ways(
            monkeypatch, lambda: memory._memory_from_gram(w0, gram))
        assert one_cpu.v0k0t.tobytes() == split.v0k0t.tobytes()
        assert one_cpu.tr_v0v0 == split.tr_v0v0
        np.testing.assert_allclose(split.v0k0t, serial.v0k0t, rtol=1e-12,
                                   atol=1e-13 * np.abs(serial.v0k0t).max())
        if d0 in (256, 1024):
            assert split.v0k0t.tobytes() == serial.v0k0t.tobytes()


class TestGate:
    @pytest.mark.parametrize("pairs, splits", [(-1, 0), (0, 1)])
    def test_normal_rows_split_from_the_gate(self, starts, monkeypatch, pairs, splits):
        n = 2 * (stream._SPLIT_PAIRS + pairs)
        got = stream._normal_rows([11], n)
        assert len(starts) == splits
        monkeypatch.setattr(stream, "_SPLIT_PAIRS", NO_SPLIT)
        assert got.tobytes() == stream._normal_rows([11], n).tobytes()

    @pytest.mark.parametrize("columns, splits", [(-1, 0), (0, 1)])
    def test_preserved_gram_splits_from_the_gate(self, starts, monkeypatch,
                                                 columns, splits):
        d0 = 128
        k0 = _matrix(3, d0, memory._SPLIT_MACS // (d0 * d0) + columns)
        starts.clear()
        got = memory._preserved_gram(k0)
        assert len(starts) == splits
        monkeypatch.setattr(lapack, "_cpu_count", lambda: 1)
        assert got.tobytes() == memory._preserved_gram(k0).tobytes()

    @pytest.mark.parametrize("rows, splits", [(-1, 0), (0, 1)])
    def test_memory_from_gram_splits_from_the_gate(self, starts, monkeypatch,
                                                   rows, splits):
        d0 = 1024
        w0 = _matrix(1, memory._SPLIT_MACS // (d0 * d0) + rows, d0)
        gram = _matrix(2, d0, d0)
        starts.clear()
        got = memory._memory_from_gram(w0, gram).v0k0t
        assert len(starts) == splits
        monkeypatch.setattr(lapack, "_cpu_count", lambda: 1)
        assert got.tobytes() == memory._memory_from_gram(w0, gram).v0k0t.tobytes()

    def test_quick_run_starts_no_thread(self, starts, tmp_path):
        assert main(["simulate", "--config", str(QUICK), "--quiet",
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert starts == []

    def test_d256_compare_starts_no_thread(self, starts):
        spec = StreamSpec(dims=Dims(d0=256, d1=192), n_per_batch=8, total_batches=3,
                          key_scale=1.0, value_mode="planted-teacher",
                          teacher_drift=0.1, seed=188, m0=1024)
        harness.compare([RunConfig(stream=spec, editor=e, alpha=60.0) for e in EDITORS])
        assert starts == []

    def test_no_thread_outlives_a_split_call(self, starts, monkeypatch):
        k0 = _matrix(5, 128, 40)
        _gates(monkeypatch, 1)
        before = threading.active_count()
        stream._normal_rows([1, 2, 3], 999)
        memory._preserved_gram(k0)
        assert len(starts) == 2
        assert threading.active_count() == before


class TestWorkerHalf:
    def test_keeps_the_callers_error_state(self, starts, monkeypatch):
        """An overflowing Gram is reported as such, with no RuntimeWarning."""
        _gates(monkeypatch, 1)
        spec = StreamSpec(dims=Dims(d0=128, d1=96), n_per_batch=4, total_batches=2,
                          key_scale=3.35e153, value_mode="planted-teacher",
                          teacher_drift=0.1, seed=5, m0=256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GenerationError, match="overflowed"):
                EditStream(spec).generate_preserved()
        assert len(starts) == 3  # the draws of w0 and K0, and the Gram

    def test_exception_reaches_the_caller(self, starts):
        ran = []

        def fail():
            raise ValueError("worker half failed")

        with pytest.raises(ValueError, match="worker half failed"):
            lapack.in_two(fail, lambda: ran.append("second"))
        assert ran == ["second"]
        assert len(starts) == 1
