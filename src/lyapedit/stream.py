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

``EditStream.ahead()`` moves that generation off the caller's core for a
long sequential run: a forked child makes the next blocks, in order, with the
same code, and hands each block's keys and values to ``batch`` through a
two-slot ring in shared memory (see ``_Ahead``).  The caller still wraps the
arrays into batches, so each batch is still made once and validated where it
is used, and no output bit changes.

KVMX matrix files are little-endian: magic ``KVMX``, format version u32 = 1,
rows u64, cols u64, then rows*cols IEEE-754 binary64 values in row-major
order.
"""
from __future__ import annotations

import contextlib
import mmap
import os
import struct
import sys
import threading
import warnings
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
from . import lapack
from .lapack import in_two
from .memory import AssociativeMemory, Dims, EditBatch, new_memory

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Normal pairs per pass of the kernel: each of its five work buffers is 128 KiB.
_CHUNK_PAIRS = 1 << 14
# Kernel calls of at least this many pairs (about 10 ms on one core) run in
# two halves at once.
_SPLIT_PAIRS = 1 << 18


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
    contiguous arrays, and each pass forms its own counters.  A call of
    ``_SPLIT_PAIRS`` pairs or more makes the first half of its passes on a
    worker thread (``in_two``); the passes write disjoint parts of the
    output, so the bits do not change.
    """
    pairs = (n + 1) // 2
    seeds = np.array(seeds, dtype=np.uint64)
    rows = seeds.size
    out = np.empty((rows, 2 * pairs))
    width = max(1, min(pairs, _CHUNK_PAIRS))
    height = max(1, min(rows, _CHUNK_PAIRS // width))
    # Word k of a row is mix(seed + k * GOLDEN); a pass adds its first k's
    # term to the seeds and the terms of 0 .. width - 1 to that.
    offsets = _steps(0, width)
    passes = [(r0, p0) for r0 in range(0, rows, height)
              for p0 in range(0, pairs, width)]

    def make(todo):
        words, tmp = np.empty((2, height * width), dtype=np.uint64)
        u1, u2, cos = np.empty((3, height * width))
        for r0, p0 in todo:
            r1, p1 = min(rows, r0 + height), min(pairs, p0 + width)
            size = (r1 - r0) * (p1 - p0)
            shape = (r1 - r0, p1 - p0)
            w, t = words[:size].reshape(shape), tmp[:size].reshape(shape)
            a, b, c = (buf[:size].reshape(shape) for buf in (u1, u2, cos))
            seed, offset = seeds[r0:r1, None], offsets[:p1 - p0]
            np.add(seed + _steps(drawn + 1 + p0, 1), offset, out=w)
            _mix64(w, t)
            np.right_shift(w, 11, out=w)
            np.add(w, 1, out=w)
            np.multiply(w, 2.0 ** -53, out=a)
            np.add(seed + _steps(drawn + 1 + pairs + p0, 1), offset, out=w)
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

    if rows * pairs >= _SPLIT_PAIRS:
        half = len(passes) // 2
        in_two(lambda: make(passes[:half]), lambda: make(passes[half:]))
    else:
        make(passes)
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
# No Box-Muller normal here exceeds sqrt(-2 log 2^-53) < 8.58 in magnitude.
_NORMAL_BOUND = 9.0

# Normals generated per block of batches: 36 batches of the d0=64 acceptance
# stream, one batch at d0=1024.
_BLOCK_VALUES = 1 << 17
# ``EditStream.ahead`` forks only when the batches still to come hold at least
# this many generated values: about 50 ms of kernel time on one core, against
# about 3 ms to fork and reap the child.
_AHEAD_VALUES = 1 << 20


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
    ``t`` inside it without generating again.  Inside :meth:`ahead` a block
    may have been made in a forked child; it is the same block.  Every
    batch's arrays are read-only, since repeated calls return the same
    object.  Of the preserved set the stream keeps w0 alone: never the raw
    d0 x m0 keys K0, nor their Gram K0 K0^T or its factor, which the
    memory of :meth:`preserved_memory` holds.
    """

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        d0, d1, n = spec.dims.d0, spec.dims.d1, spec.n_per_batch
        # The last tag, 0, is the draw: one per stream.
        self._w0 = (SplitMix64(derive_seed(spec.seed, _TAG_W0, 0))
                    .matrix(d1, d0) / np.sqrt(d0))
        # Normals generated per batch.
        self._per_batch = d0 * n
        if spec.value_mode == "random-target":
            self._per_batch += d1 * n
        elif spec.teacher_drift != 0.0:
            self._per_batch += d1 * d0
        self._block_size = max(1, _BLOCK_VALUES // self._per_batch)
        self._block_first = 0
        self._block: list[EditBatch] = []
        self._ahead: _Ahead | None = None

    def generate_preserved(self):
        """Return (w0, k0): original weights and preserved keys.

        w0 entries are standard Gaussian scaled by 1/sqrt(d0); k0 columns are
        standard Gaussian scaled by key_scale; each call draws k0 again.  It
        only draws: :meth:`preserved_memory` builds the memory and checks it.
        """
        spec = self.spec
        k0 = SplitMix64(derive_seed(spec.seed, _TAG_K0, 0)).matrix(spec.dims.d0,
                                                                   spec.m0)
        k0 *= spec.key_scale
        return self._w0, k0

    def preserved_memory(self) -> AssociativeMemory:
        """``new_memory(*self.generate_preserved())``, checked.

        The key Gram K0 K0^T must be finite and positive definite; otherwise
        this raises GenerationError.  Such a failure comes from key_scale
        (zero, or beyond the range of double precision), so a fresh draw
        would not help and none is made.  Finiteness is tested first, on
        every call: ``potrf`` can factor an overflowed Gram without
        complaint.  A memory that kept the Gram's factor is positive
        definite; only one that kept none is checked by ``potrf`` on the
        unscaled Gram, and the smallest eigenvalue is computed only to
        report a rank deficiency.
        """
        key_scale = self.spec.key_scale
        with np.errstate(over="ignore", invalid="ignore"):
            w0, k0 = self.generate_preserved()
            try:
                mem = new_memory(w0, k0)
            except NonFiniteError:  # K0 itself overflowed
                mem = None
        if mem is None or not np.isfinite(mem.k0_gram).all():
            raise GenerationError(
                f"preserved key Gram K0 K0^T overflowed at key_scale={key_scale!r}; "
                f"the keys are not representable in double precision")
        gram = mem.k0_gram
        if mem.k0_factor is None and lapack._potrf(gram.T, lower=True, clean=False)[1]:
            raise GenerationError(
                f"preserved keys are rank deficient (smallest Gram eigenvalue "
                f"{float(np.linalg.eigvalsh(gram)[0])!r}); check key_scale, got "
                f"{key_scale!r}")
        return mem

    def _exact(self) -> bool:
        """Whether every batch's values are exactly W0 K1.

        So they are for a planted teacher at drift 0, and at a drift whose
        wobble drift N rounds away at every entry of W0: W0 + x rounds to
        W0 wherever |x| is below a quarter of W0's spacing there (half the
        gap below a power of two), and |N| < ``_NORMAL_BOUND``.  Decided
        from W0 and the drift, so it holds for every batch, not only for
        the ones drawn so far.
        """
        spec = self.spec
        if spec.value_mode != "planted-teacher":
            return False
        if spec.teacher_drift == 0.0:
            return True
        smallest = float(np.spacing(np.min(np.abs(self._w0))))
        return _NORMAL_BOUND * spec.teacher_drift < smallest / 4.0

    def batch(self, t: int) -> EditBatch:
        """Batch for timestamp t (1-based)."""
        spec = self.spec
        if t < 1 or t > spec.total_batches:
            raise StreamExhausted(
                f"batch index {t} outside 1..{spec.total_batches}"
            )
        first = t - (t - 1) % self._block_size
        if first != self._block_first:
            arrays = self._ahead.take(first) if self._ahead else None
            k1, v1 = arrays or self._block_arrays(first)
            k1.flags.writeable = False
            v1.flags.writeable = False
            self._block = [EditBatch(k1=keys, v1=values)
                           for keys, values in zip(k1, v1)]
            self._block_first = first
        return self._block[t - first]

    def _block_rows(self, first: int) -> int:
        """The batches in the block that starts at ``first``."""
        return min(self._block_size, self.spec.total_batches + 1 - first)

    def _block_arrays(self, first: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys k1 (rows, d0, n) and values v1 (rows, d1, n) of the batches
        first .. first + block size - 1, capped at total_batches.

        One kernel call makes every batch's keys and one makes every
        teacher wobble (or random target); the values come from one stacked
        matmul.  Each batch's numbers are exactly those of generating it
        alone: row i of each kernel call is sub-stream ``first + i``.
        """
        spec = self.spec
        d0, d1, n = spec.dims.d0, spec.dims.d1, spec.n_per_batch
        rows = self._block_rows(first)
        seeds = range(first, first + rows)

        def normals(tag, size):
            return _normal_rows([derive_seed(spec.seed, tag, t) for t in seeds], size)

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
        return k1, v1

    @contextlib.contextmanager
    def ahead(self):
        """While the caller steps, make the blocks after the current one in a
        forked child.

        The child starts at the first block not yet made.  ``batch`` takes
        the child's next block from it when asked for it and makes any other
        block here, as outside this context.  The child is started only where
        it pays and is safe: on Linux, with at least 2 CPUs in this process's
        affinity mask, with no other live thread (forking a multi-threaded
        process can deadlock), and when the batches from the current block
        on hold at least ``_AHEAD_VALUES`` generated values.  Leaving the
        context, by any path, ends and reaps the child.
        """
        spec = self.spec
        first = self._block_first + self._block_size if self._block else 1
        still = spec.total_batches + 1 - max(self._block_first, 1)
        ahead = None
        if (first <= spec.total_batches
                and sys.platform.startswith("linux")
                and lapack._cpu_count() >= 2
                and threading.active_count() == 1
                and still * self._per_batch >= _AHEAD_VALUES):
            with contextlib.suppress(OSError):  # no fork: blocks are made here
                ahead = _Ahead(self, first)
        if ahead is None:
            yield
            return
        self._ahead = ahead
        try:
            yield
        finally:
            self._ahead = None
            ahead.close()


class _Ahead:
    """A forked child that makes a stream's blocks, in order, into a ring.

    The ring is a shared anonymous ``mmap`` of two slots, each the size of
    one full block's k1 and v1.  The child makes the blocks that start at
    ``first``, ``first + block size``, ... with ``EditStream._block_arrays``,
    copies block i into slot i % 2 and writes one token on the ready pipe:
    ``b"k"``, or ``b"e"`` if making the block raised or warned, after which
    it exits.  Before it reuses a slot it reads one "slot free" byte from
    the free pipe.  It ends with ``os._exit`` and writes nothing to stdio:
    after its last block, on EOF of the free pipe, or on EPIPE when the
    parent is gone.

    :meth:`take` copies the child's next block out of its slot and frees the
    slot.  On an error token or EOF the ring is closed, and the stream makes
    that block and every later one itself, so an error is raised by the
    caller's own ``_block_arrays`` at the same ``t`` as without a child.
    """

    def __init__(self, stream: EditStream, first: int):
        spec = stream.spec
        self._stream = stream
        self._firsts = range(first, spec.total_batches + 1, stream._block_size)
        self._slot = (stream._block_size * (spec.dims.d0 + spec.dims.d1)
                      * spec.n_per_batch)
        self._ring = mmap.mmap(-1, 2 * 8 * self._slot)
        self._values = np.frombuffer(self._ring, dtype=np.float64)
        self._taken = 0
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        ready_r, ready_w, free_r, free_w = fds
        if pid == 0:  # the child; it never returns into the caller's stack
            try:
                os.close(ready_r)
                os.close(free_w)
                self._serve(ready_w, free_r)
            finally:
                os._exit(0)
        os.close(ready_w)
        os.close(free_r)
        self._pid, self._ready, self._free = pid, ready_r, free_w

    def _serve(self, ready: int, free: int) -> None:
        """The child's loop: make each block into its slot, in order."""
        # A warning is an error token, so the parent makes that block and
        # warns itself.
        warnings.simplefilter("error")
        for i, first in enumerate(self._firsts):
            if i >= 2 and not os.read(free, 1):
                return
            try:
                k1, v1 = self._stream._block_arrays(first)
            except BaseException:  # the parent makes this block and raises
                os.write(ready, b"e")
                raise
            slot = self._values[(i % 2) * self._slot:][:k1.size + v1.size]
            slot[:k1.size] = k1.ravel()
            slot[k1.size:] = v1.ravel()
            os.write(ready, b"k")

    def take(self, first: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Block ``first``'s (k1, v1) from the child, or None if it has none."""
        i = self._taken
        if self._pid is None or i >= len(self._firsts) or first != self._firsts[i]:
            return None
        try:
            token = os.read(self._ready, 1)
        except OSError:
            token = b""
        if token != b"k":
            self.close()
            return None
        dims, n = self._stream.spec.dims, self._stream.spec.n_per_batch
        rows = self._stream._block_rows(first)
        slot = self._values[(i % 2) * self._slot:]
        keys = rows * dims.d0 * n
        k1 = slot[:keys].reshape(rows, dims.d0, n).copy()
        v1 = slot[keys:keys + rows * dims.d1 * n].reshape(rows, dims.d1, n).copy()
        self._taken = i + 1
        if i + 2 < len(self._firsts):
            try:
                os.write(self._free, b"f")
            except OSError:  # the child is gone; the next read sees EOF
                pass
        return k1, v1

    def close(self) -> None:
        """Close both pipes, unmap the ring and reap the child.

        The child exits at EOF of the free pipe or EPIPE on the ready pipe,
        at the latest once the block it is making is done.
        """
        if self._pid is None:
            return
        pid, self._pid = self._pid, None
        os.close(self._free)
        os.close(self._ready)
        self._values = None
        self._ring.close()
        os.waitpid(pid, 0)


# --- KVMX file format -------------------------------------------------------

_MATRIX_MAGIC = b"KVMX"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
# Refuse to materialize anything bigger than this many elements.
_MAX_ELEMENTS = 1 << 48


def save_matrix_file(path, matrix) -> None:
    """Write a 2-D matrix of bool, integer or floating values as KVMX.

    Any other dtype (complex, string, object) raises InputError before
    anything is written: a cast to float64 would drop an imaginary part.
    """
    arr = np.asarray(matrix)
    if arr.dtype.kind not in "biuf":
        raise InputError(
            f"matrix dtype {arr.dtype} is not bool, integer or floating; "
            f"KVMX files hold real float64 values")
    arr = np.ascontiguousarray(arr, dtype="<f8")
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
