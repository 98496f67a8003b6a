"""Deterministic counter-based random numbers.

All randomness in this package is derived from SplitMix64: draw ``k`` of
stream ``s`` under seed ``q`` is ``mix64(key(q, s) + (k + 1) * GOLDEN)``,
a pure function of ``(seed, stream, index)``. This makes every sampled
object reproducible bit-for-bit across machines and across any parallel
evaluation order, because there is no shared generator state to race on.

Dataset generators assign one stream per point index, so a dataset is
well-defined even if rows are filled out of order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def mix64(z):
    """SplitMix64 finalizer; accepts and returns uint64 scalars or arrays.

    All uint64 arithmetic here is modular by design; overflow warnings are
    suppressed accordingly.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _as_u64(value) -> np.uint64:
    return np.uint64(int(value) & _MASK64)


def stream_key(seed, stream=0) -> np.uint64:
    """Key of a named substream of ``seed``."""
    with np.errstate(over="ignore"):
        return np.uint64(mix64(mix64(_as_u64(seed)) + _GOLDEN * _as_u64(stream)))


def derive_seed(seed, *tags) -> int:
    """Fold integer tags into ``seed``, producing an independent child seed."""
    key = mix64(_as_u64(seed))
    with np.errstate(over="ignore"):
        for tag in tags:
            key = mix64(key + _GOLDEN * _as_u64(tag))
    return int(key)


def _raw(key: np.uint64, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(key + _GOLDEN * (idx + np.uint64(1)))


def uniform01(seed, n, stream=0) -> np.ndarray:
    """n uniforms in [0, 1) with 53-bit resolution."""
    return _draw_range(seed, 0, n, None, stream)


def integers(seed, n, bound, stream=0) -> np.ndarray:
    """n integers uniform on [0, bound).

    Implemented as floor(u * bound) from a 53-bit uniform; the bias is
    below bound * 2**-53 per value, vanishing at any bound used here.
    """
    return _draw_range(seed, 0, n, bound, stream)


def _draw_range(seed, start, stop, bound, stream) -> np.ndarray:
    """Draws start..stop-1 of a stream: uniform01 draws when ``bound`` is
    None, integers on [0, bound) otherwise.

    Each draw is a pure function of its index, so this equals
    ``uniform01(seed, stop, stream)[start:]`` (or the ``integers`` slice)
    without drawing the prefix; chunked samplers call it directly.
    """
    if bound is not None and bound <= 0:
        raise ValueError("bound must be positive")
    raw = _raw(stream_key(seed, stream), np.arange(start, stop, dtype=np.uint64))
    u = (raw >> np.uint64(11)).astype(np.float64) * _U53
    return u if bound is None else np.minimum((u * bound).astype(np.int64), bound - 1)


def distinct_indices(seed, k, n, stream=0) -> np.ndarray:
    """First k distinct values of the integer stream on [0, n).

    The result for k is a prefix of the result for k' > k under the same
    seed and stream.
    """
    if k > n:
        raise ValueError("cannot draw more distinct indices than the range size")
    chosen: list[int] = []
    seen: set[int] = set()
    offset = 0
    while len(chosen) < k:
        batch = integers(seed, offset + 2 * k + 16, n, stream)[offset:]
        offset += len(batch)
        for value in batch.tolist():
            if value not in seen:
                seen.add(value)
                chosen.append(value)
                if len(chosen) == k:
                    break
    return np.asarray(chosen, dtype=np.int64)


def matrix_uniform01(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) uniforms; row i is stream i of the seed."""
    with np.errstate(over="ignore"):
        rows = mix64(mix64(_as_u64(seed)) + _GOLDEN * np.arange(n_rows, dtype=np.uint64))
        idx = _GOLDEN * (np.arange(n_cols, dtype=np.uint64) + np.uint64(1))
        raw = mix64(rows[:, None] + idx[None, :])
    return (raw >> np.uint64(11)).astype(np.float64) * _U53


def matrix_normals(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) standard normals via the Box-Muller transform.

    Each row consumes 2 * ceil(n_cols / 2) uniforms of its own stream; the
    transform is fixed so normal workloads are bit-reproducible.
    """
    pairs = (n_cols + 1) // 2
    u = matrix_uniform01(seed, n_rows, 2 * pairs)
    u1 = u[:, :pairs] + _U53  # shift into (0, 1] so log is finite
    u2 = u[:, pairs:]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty((n_rows, 2 * pairs))
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :n_cols]


def matrix_bits(seed, n_rows, n_cols) -> np.ndarray:
    """(n_rows, n_cols) fair bits as uint8; row i is stream i."""
    return (matrix_uniform01(seed, n_rows, n_cols) < 0.5).astype(np.uint8)
