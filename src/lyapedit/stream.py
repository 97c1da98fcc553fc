"""Edit-batch streams: seeded synthetic generation, and KVMX matrix files.

Randomness comes from SplitMix64, a counter-based 64-bit generator (output k is
a fixed bit-mix of ``seed + (k+1) * 0x9E3779B97F4A7C15``), with normal variates
produced by the Box-Muller transform.  Both algorithms are fully specified
here, so streams are reproducible independent of any library RNG and identical
across platforms up to libm rounding of log/cos/sin.

One kernel, ``_normal_rows``, makes the normals of many sub-streams at once,
in place, in passes of a fixed number of pairs; ``SplitMix64.normal`` is its
one-row case.  ``EditStream`` generates a block of consecutive batches per
kernel call (about 2**17 values: 36 batches of the d0=64 acceptance stream),
because at small d0 the fixed cost of a numpy call, not the arithmetic,
dominated a per-batch generator.  Blocks change no bit: ``batch(t)`` is the
same pure function of (spec, t) in any access order.

KVMX matrix files are little-endian: magic ``KVMX``, format version u32 = 1,
rows u64, cols u64, then rows*cols IEEE-754 binary64 values in row-major
order.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    GenerationError,
    InputError,
    KvmxBadMagicError,
    KvmxDimOverflowError,
    KvmxFormatError,
    KvmxNonFiniteError,
    KvmxTruncatedError,
    NonFiniteError,
    StreamExhausted,
)
from .lapack import _potrf
from .memory import (
    AssociativeMemory,
    Dims,
    EditBatch,
    _memory_from_gram,
    _preserved_gram,
)

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Normal pairs per pass of the kernel: each of its five work buffers is 64 KiB.
_CHUNK_PAIRS = 1 << 13


def _mix64_int(z: int) -> int:
    """SplitMix64's output mix on a Python integer below 2**64."""
    z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
    return z ^ (z >> 31)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64's output mix, in place on a uint64 array (wraps mod 2**64)."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.right_shift(z, 31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def _steps(first: int, count: int) -> np.ndarray:
    """k * GOLDEN mod 2**64 for the counters k = first .. first + count - 1."""
    return np.arange(first, first + count, dtype=np.uint64) * np.uint64(_GOLDEN)


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, giving independent sub-streams."""
    state = int(seed) & _U64_MASK
    for tag in tags:
        state = _mix64_int(((state + 1) * _GOLDEN + (int(tag) & _U64_MASK))
                           & _U64_MASK)
    return state


def _normal_rows(seeds, n: int, drawn: int = 0) -> np.ndarray:
    """Box-Muller normals of many SplitMix64 sub-streams, one row per seed.

    Row r equals ``SplitMix64(seeds[r]).normal(n)`` after ``drawn`` earlier
    words.  Of the 2p words a row draws (p = ceil(n/2)), the first p give
    u1 in (0, 1], so log(u1) is finite, and the last p give u2 in [0, 1);
    pair k yields ``r cos(a)`` and ``r sin(a)`` at positions 2k and 2k+1,
    with ``r = sqrt(-2 log u1_k)`` and ``a = 2 pi u2_k``.  The rows are made
    in passes of at most ``_CHUNK_PAIRS`` pairs (whole rows while they fit)
    in fixed work buffers, so the transcendental functions always run on
    contiguous arrays.
    """
    pairs = (n + 1) // 2
    seeds = np.array(seeds, dtype=np.uint64)
    rows = seeds.size
    out = np.empty((rows, 2 * pairs))
    steps1 = _steps(drawn + 1, pairs)
    steps2 = _steps(drawn + 1 + pairs, pairs)
    width = max(1, min(pairs, _CHUNK_PAIRS))
    height = min(rows, _CHUNK_PAIRS // width)
    words, tmp = np.empty((2, height * width), dtype=np.uint64)
    u1, u2, cos = np.empty((3, height * width))
    for r0 in range(0, rows, height):
        r1 = min(rows, r0 + height)
        seed = seeds[r0:r1, None]
        for p0 in range(0, pairs, width):
            p1 = min(pairs, p0 + width)
            size = (r1 - r0) * (p1 - p0)
            shape = (r1 - r0, p1 - p0)
            w, t = words[:size].reshape(shape), tmp[:size].reshape(shape)
            a, b, c = (buf[:size].reshape(shape) for buf in (u1, u2, cos))
            np.add(seed, steps1[p0:p1], out=w)
            _mix64(w, t)
            np.right_shift(w, 11, out=w)
            np.add(w, 1, out=w)
            np.multiply(w, 2.0 ** -53, out=a)
            np.add(seed, steps2[p0:p1], out=w)
            _mix64(w, t)
            np.right_shift(w, 11, out=w)
            np.multiply(w, 2.0 ** -53, out=b)
            np.log(a, out=a)
            np.multiply(a, -2.0, out=a)
            np.sqrt(a, out=a)          # radius
            np.multiply(b, 2.0 * np.pi, out=b)  # angle
            np.cos(b, out=c)
            np.sin(b, out=b)
            np.multiply(a, c, out=out[r0:r1, 2 * p0:2 * p1:2])
            np.multiply(a, b, out=out[r0:r1, 2 * p0 + 1:2 * p1:2])
    return out[:, :n]


class SplitMix64:
    """Seeded, counter-based uniform/normal generator over float64 arrays."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _U64_MASK
        self._drawn = 0

    def uint64(self, n: int) -> np.ndarray:
        words = np.uint64(self._seed) + _steps(self._drawn + 1, n)
        self._drawn += n
        _mix64(words, np.empty_like(words))
        return words

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1), using the top 53 bits of each word."""
        return (self.uint64(n) >> np.uint64(11)) * 2.0 ** -53

    def normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        out = _normal_rows([self._seed], n, self._drawn)[0]
        self._drawn += 2 * ((n + 1) // 2)
        return out

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normal(rows * cols).reshape(rows, cols)


VALUE_MODES = ("random-target", "planted-teacher")

# Sub-stream tags for the master seed.
_TAG_W0 = 0
_TAG_K0 = 1
_TAG_KEYS = 2
_TAG_TEACHER = 3

# Normals generated per block of batches: 36 batches of the d0=64 acceptance
# stream, one batch at d0=1024.
_BLOCK_VALUES = 1 << 17


def _checked_gram(k0: np.ndarray, key_scale: float) -> np.ndarray:
    """The preserved Gram of ``k0``, checked finite and positive definite.

    Finiteness is tested first: ``potrf`` can factor an overflowed Gram
    without complaint.  ``potrf`` gets the Fortran-ordered view ``gram.T``,
    the same matrix, without a transposing copy.  The smallest eigenvalue
    is computed only to report a rank deficiency.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _preserved_gram(k0)
    if not np.isfinite(gram).all():
        raise GenerationError(
            f"preserved key Gram K0 K0^T overflowed at key_scale={key_scale!r}; "
            f"the keys are not representable in double precision"
        )
    _, info = _potrf(gram.T, lower=True, clean=False)
    if info != 0:
        smallest = float(np.linalg.eigvalsh(gram)[0])
        raise GenerationError(
            f"preserved keys are rank deficient (smallest Gram eigenvalue "
            f"{smallest!r}); check key_scale, got {key_scale!r}"
        )
    return gram


@dataclass(frozen=True)
class StreamSpec:
    """Full description of a synthetic edit stream; batches are a pure function of it."""

    dims: Dims
    n_per_batch: int
    total_batches: int
    key_scale: float
    value_mode: str
    teacher_drift: float
    seed: int
    m0: int

    def __post_init__(self):
        if self.n_per_batch < 1:
            raise InputError(f"n_per_batch must be >= 1, got {self.n_per_batch}")
        if self.total_batches < 1:
            raise InputError(f"total_batches must be >= 1, got {self.total_batches}")
        if self.m0 < self.dims.d0:
            raise InputError(
                f"m0 must be >= d0 to keep the preserved Gram full rank, "
                f"got m0={self.m0}, d0={self.dims.d0}"
            )
        if self.value_mode not in VALUE_MODES:
            raise InputError(
                f"value_mode must be one of {VALUE_MODES}, got {self.value_mode!r}"
            )
        if not np.isfinite(self.key_scale) or self.key_scale < 0.0:
            raise InputError(f"key_scale must be finite and >= 0, got {self.key_scale!r}")
        if not np.isfinite(self.teacher_drift) or self.teacher_drift < 0.0:
            raise InputError(
                f"teacher_drift must be finite and >= 0, got {self.teacher_drift!r}"
            )
        if not 0 <= self.seed <= _U64_MASK:
            raise InputError(f"seed must fit in 64 bits, got {self.seed}")


class EditStream:
    """Deterministic batch source for one run.

    ``batch(t)`` is a pure function of (spec, t), so prefixes agree across
    streams that share a seed but differ in total_batches.  Batches are made
    in blocks of consecutive timestamps, sized to about ``_BLOCK_VALUES``
    generated normals; the stream keeps the latest block and serves any
    ``t`` inside it without generating again.  Every batch's arrays are
    read-only, since repeated calls return the same object.  Of the
    preserved set the stream keeps w0 and the checked Gram K0 K0^T, never
    the raw d0 x m0 keys K0.
    """

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        d0, d1, n = spec.dims.d0, spec.dims.d1, spec.n_per_batch
        # The last tag, 0, is the draw: one per stream.
        self._w0 = (SplitMix64(derive_seed(spec.seed, _TAG_W0, 0))
                    .matrix(d1, d0) / np.sqrt(d0))
        self._k0_gram = None
        per_batch = d0 * n
        if spec.value_mode == "random-target":
            per_batch += d1 * n
        elif spec.teacher_drift != 0.0:
            per_batch += d1 * d0
        self._block_size = max(1, _BLOCK_VALUES // per_batch)
        self._block_first = 0
        self._block: list[EditBatch] = []

    def generate_preserved(self):
        """Return (w0, k0): original weights and preserved keys.

        w0 entries are standard Gaussian scaled by 1/sqrt(d0); k0 columns are
        standard Gaussian scaled by key_scale; each call draws k0 again.
        The key Gram K0 K0^T is formed once and checked: it must be finite,
        and one Cholesky factorization must find it positive definite.
        Otherwise this raises GenerationError.  Such a failure comes from
        key_scale (zero, or beyond the range of double precision), so a
        fresh draw would not help and none is made.
        :meth:`preserved_memory` reuses the Gram.
        """
        spec = self.spec
        k0 = (SplitMix64(derive_seed(spec.seed, _TAG_K0, 0))
              .matrix(spec.dims.d0, spec.m0) * spec.key_scale)
        if self._k0_gram is None:
            self._k0_gram = _checked_gram(k0, spec.key_scale)
        return self._w0, k0

    def preserved_memory(self) -> AssociativeMemory:
        """The memory of ``generate_preserved()``, built on its checked Gram."""
        if self._k0_gram is None:
            self.generate_preserved()
        return _memory_from_gram(self._w0, self._k0_gram)

    def batch(self, t: int) -> EditBatch:
        """Batch for timestamp t (1-based)."""
        spec = self.spec
        if t < 1 or t > spec.total_batches:
            raise StreamExhausted(
                f"batch index {t} outside 1..{spec.total_batches}"
            )
        first = t - (t - 1) % self._block_size
        if first != self._block_first:
            self._block = self._make_block(first)
            self._block_first = first
        return self._block[t - first]

    def _make_block(self, first: int) -> list[EditBatch]:
        """Batches first .. first + block size - 1, capped at total_batches.

        One kernel call makes every batch's keys and one makes every
        teacher wobble (or random target); the values come from one stacked
        matmul.  Each batch's numbers are exactly those of generating it
        alone: row i of each kernel call is sub-stream ``first + i``.
        """
        spec = self.spec
        d0, d1, n = spec.dims.d0, spec.dims.d1, spec.n_per_batch
        times = range(first, min(first + self._block_size, spec.total_batches + 1))
        rows = len(times)

        def normals(tag, size):
            return _normal_rows([derive_seed(spec.seed, tag, t) for t in times], size)

        k1 = (normals(_TAG_KEYS, d0 * n) * spec.key_scale).reshape(rows, d0, n)
        if spec.value_mode == "random-target":
            v1 = normals(_TAG_TEACHER, d1 * n).reshape(rows, d1, n)
        else:
            if spec.teacher_drift == 0.0:
                # Exactly representable stream: values come straight from w0.
                v1 = np.matmul(self._w0, k1)
            else:
                wobble = normals(_TAG_TEACHER, d1 * d0)
                np.multiply(wobble, spec.teacher_drift, out=wobble)
                teacher = wobble.reshape(rows, d1, d0)
                np.add(self._w0, teacher, out=teacher)
                v1 = np.matmul(teacher, k1)
        k1.flags.writeable = False
        v1.flags.writeable = False
        return [EditBatch(k1=keys, v1=values) for keys, values in zip(k1, v1)]


# --- KVMX file format -------------------------------------------------------

_MATRIX_MAGIC = b"KVMX"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
# Refuse to materialize anything bigger than this many elements.
_MAX_ELEMENTS = 1 << 48


def save_matrix_file(path, matrix) -> None:
    arr = np.ascontiguousarray(matrix, dtype="<f8")
    if arr.ndim != 2:
        raise InputError(f"matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("refusing to write non-finite values to a KVMX file")
    header = _HEADER.pack(_MATRIX_MAGIC, _FORMAT_VERSION, arr.shape[0], arr.shape[1])
    Path(path).write_bytes(header + arr.tobytes(order="C"))


def load_matrix_file(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise KvmxTruncatedError(f"{path}: header truncated at byte 0")
    magic, version, rows, cols = _HEADER.unpack_from(buf)
    if magic != _MATRIX_MAGIC:
        raise KvmxBadMagicError(f"{path}: expected {_MATRIX_MAGIC!r}, found {magic!r}")
    if version != _FORMAT_VERSION:
        raise KvmxFormatError(f"{path}: unsupported format version {version}")
    if rows == 0 or cols == 0 or rows * cols > _MAX_ELEMENTS:
        raise KvmxDimOverflowError(f"{path}: header claims {rows} x {cols} values")
    count = rows * cols
    end = _HEADER.size + count * 8
    if len(buf) < end:
        raise KvmxTruncatedError(
            f"{path}: header claims {count} values but only "
            f"{(len(buf) - _HEADER.size) // 8} are present"
        )
    flat = np.frombuffer(buf, dtype="<f8", count=count, offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise KvmxNonFiniteError(
            f"{path}: non-finite value at element offset {int(bad[0])}",
            offset=int(bad[0]),
        )
    if len(buf) != end:
        raise KvmxFormatError(f"{path}: {len(buf) - end} trailing bytes after payload")
    return flat.astype(np.float64).reshape(rows, cols)
