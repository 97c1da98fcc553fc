"""Stream determinism, planted-mode feasibility, and the KVMX format."""
from __future__ import annotations

import gc
import hashlib
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapedit import (
    Dims,
    EditStream,
    SplitMix64,
    StreamSpec,
    derive_seed,
    load_matrix_file,
    new_memory,
    save_matrix_file,
)
from lyapedit.errors import (
    GenerationError,
    InputError,
    KvmxBadMagicError,
    KvmxDimOverflowError,
    KvmxFormatError,
    KvmxNonFiniteError,
    KvmxTruncatedError,
    StreamExhausted,
)
from lyapedit import harness
from lyapedit import stream as stream_module
from lyapedit.harness import RunConfig
from lyapedit.oracle import kvmx_round_trip_failures


def spec(d0=8, d1=6, n=4, total=10, seed=99, mode="planted-teacher",
         drift=0.1, key_scale=1.0, m0=32):
    return StreamSpec(dims=Dims(d0=d0, d1=d1), n_per_batch=n, total_batches=total,
                      key_scale=key_scale, value_mode=mode, teacher_drift=drift,
                      seed=seed, m0=m0)


# The per-generator formulas the stream kernel replaced, kept as the reference:
# one sub-stream at a time, numpy uint64 arithmetic throughout.
_REF_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_REF_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_REF_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MAX = 0xFFFFFFFFFFFFFFFF


def reference_mix64(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _REF_MIX1
        z = (z ^ (z >> np.uint64(27))) * _REF_MIX2
        return z ^ (z >> np.uint64(31))


def reference_derive_seed(seed, *tags):
    state = np.uint64(seed & _U64_MAX)
    for tag in tags:
        with np.errstate(over="ignore"):
            folded = (state + np.uint64(1)) * _REF_GOLDEN + np.uint64(tag & _U64_MAX)
        state = reference_mix64(folded)
    return int(state)


def reference_uint64(seed, drawn, n):
    counters = np.arange(drawn + 1, drawn + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return reference_mix64(np.uint64(seed) + counters * _REF_GOLDEN)


def reference_normal(seed, drawn, n):
    pairs = (n + 1) // 2
    words = reference_uint64(seed, drawn, 2 * pairs)
    u1 = ((words[:pairs] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    u2 = (words[pairs:] >> np.uint64(11)) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


class TestNormalKernel:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seeds=st.lists(st.integers(0, _U64_MAX), min_size=1, max_size=5),
           drawn=st.integers(0, 7),
           n=st.integers(1, 3 * stream_module._CHUNK_PAIRS))
    def test_rows_equal_reference(self, seeds, drawn, n):
        rows = stream_module._normal_rows(seeds, n, drawn)
        assert rows.shape == (len(seeds), n)
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == reference_normal(seed, drawn, n).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, _U64_MAX), drawn=st.integers(0, 7),
           n=st.integers(1, 3 * stream_module._CHUNK_PAIRS))
    def test_generator_equals_reference(self, seed, drawn, n):
        gen = SplitMix64(seed)
        assert gen.uint64(drawn).tobytes() == reference_uint64(seed, 0, drawn).tobytes()
        assert gen.normal(n).tobytes() == reference_normal(seed, drawn, n).tobytes()
        drawn += 2 * ((n + 1) // 2)
        uniform = (reference_uint64(seed, drawn, n) >> np.uint64(11)) * 2.0 ** -53
        assert gen.uniform(n).tobytes() == uniform.tobytes()

    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, _U64_MAX),
           tags=st.lists(st.integers(0, _U64_MAX), max_size=4))
    def test_derive_seed_equals_reference(self, seed, tags):
        assert derive_seed(seed, *tags) == reference_derive_seed(seed, *tags)

    def test_chunk_boundaries_and_odd_lengths(self):
        chunk = stream_module._CHUNK_PAIRS
        for n in (1, 2, 3, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 2 * chunk + 2):
            seeds = [0, 7, _U64_MAX]
            rows = stream_module._normal_rows(seeds, n, 5)
            for row, seed in zip(rows, seeds):
                assert row.tobytes() == reference_normal(seed, 5, n).tobytes()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _pinned_spec(mode, drift, total, seed):
    return StreamSpec(dims=Dims(d0=64, d1=48), n_per_batch=8, total_batches=total,
                      key_scale=1.0, value_mode=mode, teacher_drift=drift,
                      seed=seed, m0=128)


# SHA-256 of generate_preserved() (w0 then k0) and of batch(t) (k1 then v1),
# computed with the per-batch generator before block generation existed.  The
# timestamps are batches 1 and 2, the last of block 1, the first of block 2,
# and T.
PINNED_STREAMS = {
    "planted": (
        _pinned_spec("planted-teacher", 0.1, 80, 188), 36,
        "2f15f657a058b836d8881cbcf698648580c8e7b9378cb1526b80a3d914f025a4",
        {1: "d7a74038d803a1b4dd8873dd56fe249ebe8ba287455b537d4adf3edfcb6007c0",
         2: "548a55a011408bc11920195c0f26e567523befba0a7e3df099300cb2b42582da",
         36: "e6487846c58eea90b0f01c9826bf5cef704118dde753dd6f8a492bcb4204f555",
         37: "3fe2885fbc5fab6f25e55c189c4602e62b5926f2d0197363d1011253f2660958",
         80: "2849c9f07b75047e8b415966dcc8d6e138089ccc8c18f8d9d01197c13cb37f66"},
    ),
    "exact": (
        _pinned_spec("planted-teacher", 0.0, 300, 101), 256,
        "2095d2c5c1aa41a7d050706d9b982e25affb8415add0f1a74d00a56ca5baca0d",
        {1: "e624d65692441b85081076ae6a50b255671a9095aba5dc847fb5aa239b100076",
         2: "e6ac7aa823bb7b3b765d4373b8007ba98b559c6e7190d37f74d3358e680bf7eb",
         256: "a2b35f74c9947573c9e195f63af91c878aae59320bc0218eb30ba50d50432858",
         257: "6aef5ee0246f9a88748b472b22d173246c855dead78dc1aceb1fc4c736b5ec97",
         300: "f74b3ebfd2d75c33ee3350763fcc8a9a519ad0e8a1b2b0d645e80278571fb2a9"},
    ),
    "random": (
        _pinned_spec("random-target", 0.1, 150, 7), 146,
        "6b38642d37a18f54dbc8bd1610ee78f6b4d9e57411b0dbefc4f58338c9e324c6",
        {1: "4c2cb84ae4e737aef8cb15850a36949b92915d8876bc65d5e7031caf5ddb8e2f",
         2: "4a503b4ac3538364777427092c886d20b00b17ce623f1d1b2a9100d4594a9909",
         146: "550ed4289c244838ac1a6743ccbcb2b8b5f1b0a62a1ce3840cbb2f28735631be",
         147: "c0258c241f603d6d6cbed103e45589379e70c5f44bb93bdd9267b49457d03ad0",
         150: "15dc9f107daacd0c63f1b59cc9a2340a53fe4c216495c09c46f319f03c013646"},
    ),
}


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_known_answers(self, name):
        spec_, block, preserved, batches = PINNED_STREAMS[name]
        stream = EditStream(spec_)
        assert stream._block_size == block
        assert _digest(*stream.generate_preserved()) == preserved
        for t, expected in batches.items():
            batch = stream.batch(t)
            assert _digest(batch.k1, batch.v1) == expected, t


class TestBlockCache:
    # Blocks of 36 batches: 1..36, 37..72 and the partial block 73..80.
    SPEC = _pinned_spec("planted-teacher", 0.1, 80, 188)

    def test_any_access_order_gives_identical_arrays(self):
        # Each reference batch comes from a fresh stream, asked for t alone.
        times = [80, 1, 36, 37, 73, 72, 2, 80, 36, 5, 79, 37, 1]
        reference = {t: EditStream(self.SPEC).batch(t) for t in set(times)}
        stream = EditStream(self.SPEC)
        for t in times + times[::-1]:
            got, want = stream.batch(t), reference[t]
            assert got.k1.tobytes() == want.k1.tobytes(), t
            assert got.v1.tobytes() == want.v1.tobytes(), t

    @pytest.mark.parametrize("mode,drift", [("planted-teacher", 0.1),
                                            ("planted-teacher", 0.0),
                                            ("random-target", 0.1)])
    def test_block_arrays_are_read_only(self, mode, drift):
        stream = EditStream(spec(mode=mode, drift=drift))
        for t in (1, 10):
            batch = stream.batch(t)
            with pytest.raises(ValueError):
                batch.k1[0, 0] = 1.0
            with pytest.raises(ValueError):
                batch.v1[0, 0] = 1.0

    def test_exhaustion_bounds_unchanged(self):
        stream = EditStream(self.SPEC)
        for t in (0, -1, 81):
            with pytest.raises(StreamExhausted):
                stream.batch(t)
        stream.batch(80)
        stream.batch(1)
        for t in (0, 81, 1000):
            with pytest.raises(StreamExhausted):
                stream.batch(t)

    def test_lockstep_compare_generates_each_batch_once(self, monkeypatch):
        # The d_base probe and step 1 both read batch 1; the kernel must
        # still make every sub-stream exactly once.
        made = []
        kernel = stream_module._normal_rows

        def counting(seeds, n, drawn=0):
            made.extend(seeds)
            return kernel(seeds, n, drawn)

        monkeypatch.setattr(stream_module, "_normal_rows", counting)
        total = 40
        spec_ = _pinned_spec("planted-teacher", 0.1, total, 188)
        base = RunConfig(stream=spec_, editor="lyaplock", alpha=60.0)
        harness.compare([base, RunConfig(stream=spec_, editor="baseline", alpha=60.0),
                         RunConfig(stream=spec_, editor="edit-only", alpha=60.0)])
        keys = [reference_derive_seed(188, 2, t) for t in range(1, total + 1)]
        wobbles = [reference_derive_seed(188, 3, t) for t in range(1, total + 1)]
        preserved = [reference_derive_seed(188, tag, 0) for tag in (0, 1)]
        assert sorted(made) == sorted(keys + wobbles + preserved)


class TestSplitMix64:
    def test_counter_based_reproducibility(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        first = a.uint64(10)
        assert np.array_equal(first, b.uint64(10))
        # Split draws continue the same sequence as one big draw.
        c = SplitMix64(123)
        rejoined = np.concatenate([c.uint64(4), c.uint64(6)])
        assert np.array_equal(first, rejoined)

    def test_uniform_range(self):
        u = SplitMix64(7).uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = SplitMix64(11).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_seed_independence(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(5) == derive_seed(5)


class TestGeneratePreserved:
    def test_same_seed_bitwise_identical(self):
        w0_a, k0_a = EditStream(spec()).generate_preserved()
        w0_b, k0_b = EditStream(spec()).generate_preserved()
        assert np.array_equal(w0_a, w0_b)
        assert np.array_equal(k0_a, k0_b)

    def test_full_rank_margin(self):
        d0 = 32
        stream = EditStream(spec(d0=d0, d1=8, m0=4 * d0, total=1))
        _, k0 = stream.generate_preserved()
        gram = k0 @ k0.T / (4 * d0)
        assert float(np.linalg.eigvalsh(gram).min()) > 0.1

    def test_zero_key_scale_rejected(self):
        stream = EditStream(spec(key_scale=0.0))
        with pytest.raises(GenerationError):
            stream.preserved_memory()

    def test_rank_deficiency_reports_smallest_eigenvalue(self):
        stream = EditStream(spec(key_scale=0.0))
        with pytest.raises(GenerationError, match=r"smallest Gram eigenvalue 0\.0\)"):
            stream.preserved_memory()

    def test_overflowed_gram_rejected_before_factoring(self):
        # K0 K0^T overflows here, though potrf factors the result without
        # complaint; only the finiteness test catches it.
        stream = EditStream(spec(d0=16, d1=12, m0=64, key_scale=3.35e153))
        with pytest.raises(GenerationError, match=r"K0 K0\^T overflowed at "
                                                  r"key_scale=3\.35e\+153"):
            stream.preserved_memory()

    def test_overflowed_keys_rejected(self):
        # K0 itself overflows here, with no RuntimeWarning.
        stream = EditStream(spec(d0=16, d1=12, m0=64, key_scale=1e308))
        with pytest.raises(GenerationError, match=r"K0 K0\^T overflowed at "
                                                  r"key_scale=1e\+308"):
            stream.preserved_memory()

    def test_stream_keeps_no_raw_k0(self):
        """Nor the Gram K0 K0^T or its factor: the memory holds those."""
        stream = EditStream(spec(d0=8, d1=6, m0=32))
        stream.preserved_memory()
        held = []
        for value in vars(stream).values():
            held += value if isinstance(value, (tuple, list)) else [value]
        assert not [v for v in held
                    if isinstance(v, np.ndarray) and v.shape in ((8, 32), (8, 8))]
        # A later call draws the same keys again, and they are the caller's.
        _, k0 = stream.generate_preserved()
        assert np.array_equal(k0, EditStream(spec(d0=8, d1=6, m0=32))
                              .generate_preserved()[1])
        dropped = weakref.ref(k0)
        del k0
        gc.collect()
        assert dropped() is None

    def test_transient_memory_is_small(self):
        """Besides K0 itself, the draw holds about 1.1 MiB more than w0's
        bytes, and forms no Gram.

        The kernel forms its counters per pass and K0 is scaled in place; the
        whole-row counters and a scaled copy took another 2 and 1 K0's bytes.
        """
        d0, m0 = 256, 8192
        stream = EditStream(spec(d0=d0, d1=192, m0=m0, total=1))
        tracemalloc.start()
        try:
            w0, k0 = stream.generate_preserved()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= k0.nbytes + w0.nbytes + 8 * d0 * d0 + (1 << 20)

    def test_preserved_memory_carries_the_checks_factor(self):
        """The factor of K0 K0^T that new_memory made, scaled by an even
        power of two as the solvers' unridged rung scales, read-only; a
        draw before it changes nothing, and a new_memory memory of the same
        draw carries the same bits."""
        stream = EditStream(spec(d0=16, d1=12, m0=64))
        stream.generate_preserved()
        mem = stream.preserved_memory()
        (lower, shift), cond, unit = mem.k0_factor
        assert not lower.flags.writeable
        low = np.tril(lower)
        gram = mem.k0_gram
        assert shift % 2 == 0
        assert np.allclose(low @ low.T * 2.0 ** shift, gram, rtol=0.0,
                           atol=1e-14 * np.abs(gram).max())
        assert unit == np.trace(gram) / 16 * 2.0 ** -shift
        assert 1.0 <= cond <= 1e3
        (plain_lower, plain_shift), plain_cond, plain_unit = new_memory(
            *EditStream(spec(d0=16, d1=12, m0=64)).generate_preserved()).k0_factor
        assert plain_lower.tobytes() == lower.tobytes()
        assert (plain_shift, plain_cond, plain_unit) == (shift, cond, unit)

    @pytest.mark.parametrize("key_scale", [1.1e-161, 2.0 ** 508])
    def test_no_factor_where_the_ridge_ladder_would_not_scale_the_gram(self,
                                                                     key_scale):
        """tr(K0 K0^T)/d0 is subnormal at 1.1e-161 and the trace overflows at
        2^508: the Gram is still checked, and keeps no factor."""
        mem = EditStream(spec(d0=16, d1=12, m0=64, key_scale=key_scale)
                         ).preserved_memory()
        assert mem.k0_factor is None

    def test_w0_scaling(self):
        stream = EditStream(spec(d0=64, d1=64, m0=64, total=1))
        w0, _ = stream.generate_preserved()
        # Entries are Gaussian / sqrt(d0); variance ~ 1/64.
        assert abs(w0.var() * 64 - 1.0) < 0.15


class TestBatches:
    def test_sequences_deterministic(self):
        s1, s2 = EditStream(spec()), EditStream(spec())
        for t in range(1, 11):
            b1, b2 = s1.batch(t), s2.batch(t)
            assert np.array_equal(b1.k1, b2.k1)
            assert np.array_equal(b1.v1, b2.v1)

    def test_prefix_consistency_across_horizons(self):
        short = EditStream(spec(total=5))
        long = EditStream(spec(total=50))
        for t in range(1, 6):
            assert np.array_equal(short.batch(t).k1, long.batch(t).k1)
            assert np.array_equal(short.batch(t).v1, long.batch(t).v1)

    def test_exhaustion(self):
        stream = EditStream(spec(total=2))
        stream.batch(1)
        stream.batch(2)
        with pytest.raises(StreamExhausted):
            stream.batch(3)

    def test_zero_drift_is_exactly_representable(self):
        stream = EditStream(spec(drift=0.0))
        w0, _ = stream.generate_preserved()
        batch = stream.batch(3)
        assert np.array_equal(batch.v1, w0 @ batch.k1)

    def test_random_target_moments(self):
        stream = EditStream(spec(d0=8, d1=8, n=8, mode="random-target"))
        v1 = stream.batch(1).v1
        assert abs(float(v1.mean())) < 0.2
        assert 0.7 <= float(v1.var()) <= 1.3

    def test_drift_separates_batches(self):
        stream = EditStream(spec(drift=0.5))
        w0, _ = stream.generate_preserved()
        batch = stream.batch(1)
        assert not np.allclose(batch.v1, w0 @ batch.k1)


class TestStreamSpecValidation:
    def test_m0_must_cover_d0(self):
        with pytest.raises(InputError):
            spec(d0=16, m0=8)

    def test_mode_checked(self):
        with pytest.raises(InputError):
            spec(mode="surprise")

    def test_counts_positive(self):
        with pytest.raises(InputError):
            spec(n=0)
        with pytest.raises(InputError):
            spec(total=0)


class TestKvmxFormat:
    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.kvmx"
        matrix = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        save_matrix_file(path, matrix)
        back = load_matrix_file(path)
        assert back.shape == (3, 2)
        assert np.array_equal(back, matrix)

    def test_many_random_round_trips(self):
        assert kvmx_round_trip_failures(200, 0xED17, max_side=11) == []
        assert kvmx_round_trip_failures(0, 0xED17, max_side=11) == []

    def test_complex_matrix_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "c.kvmx"
        with pytest.raises(InputError, match="complex128"):
            save_matrix_file(path, [[1 + 2j, 3]])
        assert not path.exists()

    @pytest.mark.parametrize("matrix", [np.array([["a", "b"]]),
                                        np.array([[1.0, None]], dtype=object)])
    def test_string_and_object_matrices_are_refused(self, tmp_path, matrix):
        path = tmp_path / "s.kvmx"
        with pytest.raises(InputError, match=str(matrix.dtype)):
            save_matrix_file(path, matrix)
        assert not path.exists()

    @pytest.mark.parametrize("matrix", [np.array([[True, False], [False, True]]),
                                        np.array([[1, -2, 3]], dtype=np.int32),
                                        np.array([[7, 8]], dtype=np.uint8)])
    def test_bool_and_integer_matrices_round_trip(self, tmp_path, matrix):
        path = tmp_path / "i.kvmx"
        save_matrix_file(path, matrix)
        back = load_matrix_file(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, matrix.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kvmx"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(KvmxBadMagicError):
            load_matrix_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.kvmx"
        header = struct.pack("<4sIQQ", b"KVMX", 1, 4, 4)
        path.write_bytes(header + b"\x00" * (8 * 3))  # promises 16 values
        with pytest.raises(KvmxTruncatedError):
            load_matrix_file(path)

    def test_dim_overflow(self, tmp_path):
        path = tmp_path / "huge.kvmx"
        header = struct.pack("<4sIQQ", b"KVMX", 1, 1 << 40, 1 << 40)
        path.write_bytes(header)
        with pytest.raises(KvmxDimOverflowError):
            load_matrix_file(path)

    def test_non_finite_entry_names_offset(self, tmp_path):
        path = tmp_path / "nan.kvmx"
        payload = np.array([[1.0, 2.0], [np.nan, 4.0]])
        header = struct.pack("<4sIQQ", b"KVMX", 1, 2, 2)
        path.write_bytes(header + payload.tobytes())
        with pytest.raises(KvmxNonFiniteError) as err:
            load_matrix_file(path)
        assert err.value.offset == 2
        assert "2" in str(err.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "extra.kvmx"
        save_matrix_file(path, np.eye(2))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(KvmxFormatError):
            load_matrix_file(path)

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "v9.kvmx"
        header = struct.pack("<4sIQQ", b"KVMX", 9, 1, 1)
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(KvmxFormatError):
            load_matrix_file(path)

    def test_writer_rejects_non_finite(self, tmp_path):
        with pytest.raises(Exception):
            save_matrix_file(tmp_path / "x.kvmx", np.array([[np.inf]]))
