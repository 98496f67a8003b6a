"""Deterministic counter-based random numbers.

All randomness in this package is derived from SplitMix64: draw ``k`` of
stream ``s`` under seed ``q`` is ``mix64(key(q, s) + (k + 1) * GOLDEN)``,
a pure function of ``(seed, stream, index)``. This makes every sampled
object reproducible bit-for-bit across machines and across any parallel
evaluation order, because there is no shared generator state to race on.

Dataset generators assign one stream per point index, so a dataset is
well-defined even if rows are filled out of order.

Each rule has one implementation. ``stream_key`` is the one place the
key is derived from (seed, stream), for one stream or an array of them,
and ``_draw_range`` the one place counters are mixed and turned into
uniforms or integers. ``uniform01``, ``integers`` and ``distinct_indices``
draw a range of one stream. The three matrix draws take their rows in
blocks of about ``_BLOCK_BYTES`` of uniforms (``_uniform_blocks``), each
block a column of stream keys side by side, on buffers made once per call.
``matrix_uniform01`` and ``matrix_normals`` draw straight into their
output rows, and the normals are transformed there; ``matrix_bits``
compares one reused block of uniforms with 0.5 into its output. Row i is
stream i whatever the blocking, so the blocks change no bit. A draw holds
its output plus one block of scratch words, one of uniforms for bits and
the Box-Muller temporaries of one block for normals: a few MiB at most.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
# Bytes of draws and stream keys in one row block of a matrix draw.
_BLOCK_BYTES = 2**20


def mix64(z):
    """SplitMix64 finalizer; accepts and returns uint64 scalars or arrays.

    All uint64 arithmetic here is modular by design; overflow warnings are
    suppressed accordingly.
    """
    with np.errstate(over="ignore"):
        z = np.array(z, dtype=np.uint64)
        return _mix64_into(z, np.empty_like(z))[()]


def _mix64_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``mix64`` of the uint64 array ``z``, written into ``out`` (a uint64
    array of its shape); ``z`` is overwritten as scratch."""
    np.bitwise_xor(z, np.right_shift(z, np.uint64(30), out=out), out=out)
    np.multiply(out, _MIX_A, out=out)
    np.bitwise_xor(out, np.right_shift(out, np.uint64(27), out=z), out=out)
    np.multiply(out, _MIX_B, out=out)
    return np.bitwise_xor(out, np.right_shift(out, np.uint64(31), out=z), out=out)


def _as_u64(value) -> np.uint64:
    return np.uint64(int(value) & _MASK64)


def stream_key(seed, stream=0):
    """Key of a named substream of ``seed``: a uint64 for an int
    ``stream``, and for a uint64 array of streams the array of their keys."""
    streams = stream if isinstance(stream, np.ndarray) else _as_u64(stream)
    with np.errstate(over="ignore"):
        return mix64(mix64(_as_u64(seed)) + _GOLDEN * streams)


def derive_seed(seed, *tags) -> int:
    """Fold integer tags into ``seed``, producing an independent child seed."""
    key = mix64(_as_u64(seed))
    with np.errstate(over="ignore"):
        for tag in tags:
            key = mix64(key + _GOLDEN * _as_u64(tag))
    return int(key)


def uniform01(seed, n, stream=0) -> np.ndarray:
    """n uniforms in [0, 1) with 53-bit resolution."""
    return _draw_range(stream_key(seed, stream), 0, n, None)


def integers(seed, n, bound, stream=0) -> np.ndarray:
    """n integers uniform on [0, bound).

    Implemented as floor(u * bound) from a 53-bit uniform; the bias is
    below bound * 2**-53 per value, vanishing at any bound used here.
    """
    return _draw_range(stream_key(seed, stream), 0, n, bound)


def _counter_steps(n: int) -> np.ndarray:
    """``(k + 1) * GOLDEN`` modulo 2**64 for k < n: the counters of draws
    0..n-1 less their key, which ``_draw_range`` shifts to any start."""
    with np.errstate(over="ignore"):
        return _GOLDEN * np.arange(1, n + 1, dtype=np.uint64)


def _draw_range(key, start, stop, bound, out=None, scratch=None, steps=None) -> np.ndarray:
    """Draws start..stop-1 of the stream whose ``stream_key`` is ``key``:
    uniform01 draws when ``bound`` is None, integers on [0, bound)
    otherwise. Every integer lies in [0, bound), also where ``u * bound``
    rounds up to ``bound``, so callers may index with it unchecked.

    Each draw is a pure function of its index, so this equals
    ``uniform01(seed, stop, stream)[start:]`` (or the ``integers`` slice)
    without drawing the prefix; chunked samplers call it directly, with
    the key computed once. ``key`` may also be an (R, 1) array of keys:
    the result is then (R, stop - start), row r the draws of stream key
    ``key[r, 0]``, so a block of streams is drawn side by side.

    ``out`` (float64 for uniforms, int64 for integers) receives the draws
    and ``scratch`` (any 8-byte dtype) the intermediate words; both have
    the result's shape, and their old contents are ignored. ``steps`` is
    ``_counter_steps(n)`` for any n >= stop - start, read only. A caller
    that passes all three allocates nothing per draw; without them, they
    are made here. The values are the same bits either way.
    """
    if bound is not None and bound <= 0:
        raise ValueError("bound must be positive")
    size = stop - start
    shape = np.shape(key)[:-1] + (size,)
    if out is None:
        out = np.empty(shape, dtype=np.float64 if bound is None else np.int64)
    words = np.empty(shape, dtype=np.uint64) if scratch is None else scratch.view(np.uint64)
    steps = _counter_steps(size) if steps is None else steps[:size]
    counters = out.view(np.uint64)
    # errstate is per thread, so it is entered here, in the drawing thread.
    with np.errstate(over="ignore"):
        # Counter k is key + (k + 1) * GOLDEN modulo 2**64.
        np.add(steps, key + _GOLDEN * np.uint64(start), out=counters)
        _mix64_into(counters, words)
    words >>= np.uint64(11)
    if bound is None:
        return np.multiply(words, _U53, out=out)
    u = np.multiply(words, _U53, out=out.view(np.float64))
    u *= bound
    np.copyto(words.view(np.int64), u, casting="unsafe")
    return np.minimum(words.view(np.int64), bound - 1, out=out)


def distinct_indices(seed, k, n, stream=0) -> np.ndarray:
    """First k distinct values of the integer stream on [0, n).

    The result for k is a prefix of the result for k' > k under the same
    seed and stream.
    """
    if k > n:
        raise ValueError("cannot draw more distinct indices than the range size")
    key = stream_key(seed, stream)
    chosen: list[int] = []
    seen: set[int] = set()
    offset = 0
    while len(chosen) < k:
        batch = _draw_range(key, offset, offset + 2 * k + 16, n)
        offset += len(batch)
        for value in batch.tolist():
            if value not in seen:
                seen.add(value)
                chosen.append(value)
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


def _uniform_blocks(seed, n_rows, n_cols, out=None):
    """Yields ``(rows, u)`` for consecutive row blocks of the (n_rows,
    n_cols) uniform matrix of ``seed``, row i stream i: ``rows`` is the
    block's slice of row indices and ``u`` its C-ordered uniforms.

    A block holds about ``_BLOCK_BYTES`` of draws and stream keys, and at
    least one row. With ``out`` (a C-ordered float64 (n_rows, n_cols)
    array) ``u`` is ``out[rows]``, drawn in place; without it ``u`` lives
    in one buffer that the next block overwrites."""
    step = max(1, _BLOCK_BYTES // (8 * (n_cols + 1)))
    block = min(step, n_rows)
    steps = _counter_steps(n_cols)
    scratch = np.empty((block, n_cols), dtype=np.uint64)
    buffer = np.empty((block, n_cols)) if out is None else None
    for lo in range(0, n_rows, step):
        rows = slice(lo, min(lo + step, n_rows))
        size = rows.stop - lo
        keys = stream_key(seed, np.arange(lo, rows.stop, dtype=np.uint64))
        target = buffer[:size] if out is None else out[rows]
        u = _draw_range(keys[:, None], 0, n_cols, None, out=target, scratch=scratch[:size], steps=steps)
        if rows.stop == n_rows:
            # Nothing reads these after the last draw; dropping them lets
            # the caller's work on the last block (the only one of a small
            # matrix) use their room.
            del steps, scratch
        yield rows, u


def matrix_uniform01(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) uniforms; row i is stream i of the seed."""
    out = np.empty((n_rows, n_cols))
    for _ in _uniform_blocks(seed, n_rows, n_cols, out):
        pass
    return out


def matrix_normals(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) standard normals via the Box-Muller transform.

    Each row consumes 2 * ceil(n_cols / 2) uniforms of its own stream; the
    transform is fixed so normal workloads are bit-reproducible. A row
    block's uniforms are drawn into its output rows and transformed there.
    Every operand has the layout that one pass over the whole matrix would
    give it (C-ordered blocks and their two halves), so numpy picks the
    same ``log``, ``sin`` and ``cos`` loops and every value keeps its bits.
    """
    pairs = (n_cols + 1) // 2
    out = np.empty((n_rows, 2 * pairs))
    for _, u in _uniform_blocks(seed, n_rows, 2 * pairs, out):
        # Both halves are read before the block is overwritten.
        radius = np.sqrt(-2.0 * np.log(u[:, :pairs] + _U53))  # shift into (0, 1] so log is finite
        angle = 2.0 * np.pi * u[:, pairs:]
        u[:, 0::2] = radius * np.cos(angle)
        u[:, 1::2] = radius * np.sin(angle)
    return out[:, :n_cols]


def matrix_bits(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) fair bits as uint8; row i is stream i."""
    out = np.empty((0, n_cols), dtype=np.uint8)
    for rows, u in _uniform_blocks(seed, n_rows, n_cols):
        if rows.start == 0:
            # Made after the first draw, which frees a one-block matrix's
            # scratch words.
            out = np.empty((n_rows, n_cols), dtype=np.uint8)
        np.less(u, 0.5, out=out[rows].view(np.bool_))
    return out
