"""Points, metrics, datasets, the distance kernel and an evaluation-counting oracle.

A dataset is a homogeneous point matrix plus a metric. Real
vectors are float64 rows; bit vectors are uint8 rows of 0/1 and are the
only representation the normalized Hamming metric accepts. Every search
structure in this package measures its cost in metric evaluations, so the
counting oracle is threaded through all query paths.

Only this module knows how each metric is computed. ``_kernel`` is the one
unvalidated distance kernel. It reads rows in the kernel's form: the
float64 points for real metrics, and for Hamming the 0/1 rows packed into
uint64 words, whose differing bits one popcount counts. Hamming rows are
0/1 at the API and packed words in the kernel: a ``Dataset`` packs its
points once (``Dataset.kernel_rows``), ``Dataset.check_query`` packs a
query once, and the public ``pair_distances`` packs the rows it is given
and calls the same kernel.

Pairs of rows are enumerated in one place, the ball screen
``_BallScreen``. It is built from kernel rows and prepares them once per
use: for Euclidean, centred rows whose Gram values come with a rounding
band, and for Hamming, Manhattan, Chebyshev and every Euclidean block
outside the screen's range, the kernel's values in row chunks. So Hamming
distances have one implementation, the popcount kernel, whatever the row
width. Pairs the Euclidean band cannot decide go back to the kernel, and
only the screen knows where its bands lie and what its Gram operand
holds. These uses read the screen:

- Ball membership ``pair_distances(...) <= radius``, equal to the
  kernel's answer element by element (the screen decides the pairs its
  band can, the kernel the rest), through one sparse call that lists the
  pairs inside, ``_BallScreen.members``: a block of rows against one
  radius-free operand of rows (``ball_operand``; for Euclidean a
  (d+2)-term Gram operand, see ``within_radius``), made once per row set.
  The doubling probes make one of the distinct rows and read every
  probe's ball from it, a greedy cover makes one of its own rows and
  reads each block from it, and ``within_radius`` makes one of its two
  blocks and alone builds a dense matrix, at this public edge.
- ``all_pair_distances`` takes the upper triangles of the screen's row
  bands (rows i..i+B-1 against the rows after i).
- One pass over the same bands takes both extremes, the exact diameter
  and each row's nearest distance, equal to the kernel's bit for bit (the
  kernel re-measures, in one call per band, the Euclidean pairs near
  either).
- ``diststats.nn_statistics`` puts its queries and the data rows in one
  screen and takes each query's nearest data row from row bands of the
  queries against the data, again equal to the kernel's minimum bit for
  bit.

A pass over bands, a cover over its blocks and the probes over their
balls write every block's values into one buffer made for the pass, the
cover or the probes, and the kernel's blocks work in one scratch buffer
that the screen keeps.

Outside rows are checked by one rule, ``_check_rows`` (0/1 values for
Hamming, checked before the cast; finite float64 coordinates otherwise),
once, at entry: when a ``Dataset`` is built (``load_dataset`` and
``distances_to`` build one), and for each outside point
(``Dataset.check_query``, ``distance``), which must in addition not be
float-typed under Hamming. Internal loops over dataset rows call the kernel
directly, through ``Dataset.distances``. The kernel-level trio
``pair_distances``, ``within_radius`` and ``all_pair_distances`` checks
only the metric: every path into the kernel form refuses one that is not a
``MetricKind``.

Every distance is in the data's own units; a statistic that wants
normalized distances divides by its chosen length itself. Quantities that
many readers share are computed once per dataset and cached on the
``Dataset``: the band pass's extremes, the diameter bound (the pass's
maximum up to ``EXACT_DIAMETER_LIMIT`` rows, a triangle bound above, which
never starts the pass) and the distinct rows.

Precision: distances are computed in double precision; the Euclidean
metric is the square root of the sum of squared differences, so
coordinate differences below sqrt of the smallest normal double
(~1.5e-154) underflow and compare as zero. Within that (enormous) working
range the metric axioms hold exactly. Ball membership, the exact
diameter and the nearest-neighbour distances equal the kernel's answers
bit for bit. ``all_pair_distances`` equals the kernel's values bit for bit
for Hamming, Manhattan and Chebyshev, and within 1e-9 relative for
Euclidean, wherever the points lie short of overflow: the Gram values are
centred, so a translation does not cancel them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class InvalidInputError(ValueError):
    """A documented precondition was violated by caller input."""


class InvariantViolation(AssertionError):
    """An internal invariant failed during a self-test run."""


class _Degenerate:
    """Sentinel for unbounded dimension estimates (zero dispersion).

    Returned instead of a floating infinity so CSV output stays parseable;
    it renders as the string ``degenerate``.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "degenerate"


DEGENERATE = _Degenerate()

# Full pairwise scan is exact up to this size; above it the diameter is
# bounded via the triangle inequality from the first point.
EXACT_DIAMETER_LIMIT = 2048


class MetricKind(Enum):
    """A metric. Its distances are in the data's own units."""

    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    CHEBYSHEV = "chebyshev"
    HAMMING = "hamming"  # differing bits divided by length

    @property
    def uses_bits(self) -> bool:
        return self is MetricKind.HAMMING


def _check_metric(metric) -> MetricKind:
    """``metric`` itself, refused unless it is a ``MetricKind``."""
    if not isinstance(metric, MetricKind):
        raise InvalidInputError(f"the metric must be a MetricKind, got {type(metric).__name__}")
    return metric


def _check_rows(metric: MetricKind, arr: np.ndarray, what: str) -> np.ndarray:
    """The row rule of ``metric``, a checked ``MetricKind``: ``arr`` as a
    new C-ordered array of uint8 0/1 values for Hamming and of finite
    float64 coordinates for the real metrics, or ``InvalidInputError``
    (``what`` names rows that are not 0/1). Bit values are checked as
    given, before the cast, which would wrap 256 to 0 and truncate 0.5 to
    0: integer and bool rows by their least and greatest value, with no
    temporary of their size, other rows value by value. The copy keeps the
    caller's array writeable, and no later write to it can stale what was
    checked."""
    if metric.uses_bits:
        if arr.dtype.kind in "biu":
            valid = arr.min() >= 0 and arr.max() <= 1
        else:
            valid = ((arr == 0) | (arr == 1)).all()
        if not valid:
            raise InvalidInputError(f"{what} may only contain 0 and 1")
        return np.array(arr, dtype=np.uint8, order="C")
    if arr.dtype == np.uint8 or arr.dtype.kind == "b":
        raise InvalidInputError(f"{metric.value} metric requires real coordinates, got {arr.dtype} values")
    arr = np.array(arr, dtype=np.float64, order="C")
    if not np.isfinite(arr).all():
        raise InvalidInputError("coordinates must be finite (no NaN or infinity)")
    return arr


def _check_point(metric: MetricKind, x, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInputError(f"a point must be a 1-d sequence of length >= 1, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise InvalidInputError(f"point length mismatch: {arr.shape[0]} vs {dim}")
    if _check_metric(metric).uses_bits and arr.dtype.kind == "f":
        raise InvalidInputError("normalized Hamming metric requires a bit vector, got real coordinates")
    return _check_rows(metric, arr, "bit vectors")


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """0/1 rows (the last axis) packed into uint64 words, the last word
    zero-padded. Equal rows give equal words, and the XOR of two rows' words
    has one set bit per position where the rows differ."""
    nbytes = (bits.shape[-1] + 7) // 8
    packed = np.zeros(bits.shape[:-1] + (-(-nbytes // 8) * 8,), dtype=np.uint8)
    packed[..., :nbytes] = np.packbits(bits, axis=-1)
    return packed.view(np.uint64)


def _kernel_form(metric: MetricKind, rows: np.ndarray) -> np.ndarray:
    """Checked rows as ``_kernel`` reads them: packed words for Hamming.
    The metric is checked here, so every entry point that reaches the
    kernel refuses one that is not a ``MetricKind``."""
    return _pack_bits(rows) if _check_metric(metric).uses_bits else rows


def _kernel(
    metric: MetricKind,
    a: np.ndarray,
    b: np.ndarray,
    dim: int,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Distances between matching kernel-form rows of ``a`` and ``b``;
    ``dim`` is the bit length of Hamming rows, which their packed words do
    not show. Rows broadcast.

    With ``out``, a float64 array of the result's shape, the distances are
    written there and ``work`` (``a`` when none is given), which must then
    be a writeable array of the operands' broadcast shape, is overwritten
    as scratch. The call then allocates only Hamming's popcounts, uint8
    and an eighth of the XORed words' bytes: counting into the uint64
    scratch would cast every count, which made blocks of 64- to 512-bit
    rows 5-18 % slower. The arithmetic is the same either way, so the
    values are the same bits.

    Hamming adds up the popcounts of the XORed words one 64-bit word at a
    time, into a zeroed float64 result: numpy's ``sum`` over the short
    word axis took two to three times as long on blocks of rows of one to
    eight words. Bit counts are integers, exact in every dtype they pass
    through, so the order of the additions changes no bit. Each word
    costs one pass per call, so from about 64 words a row the loop is the
    slower of the two."""
    if out is not None and work is None:
        work = a
    if metric is MetricKind.EUCLIDEAN:
        diff = np.subtract(a, b, out=work)
        return np.sqrt(np.einsum("...i,...i->...", diff, diff, out=out), out=out)
    if metric is MetricKind.MANHATTAN:
        return np.abs(np.subtract(a, b, out=work), out=work).sum(axis=-1, out=out)
    if metric is MetricKind.CHEBYSHEV:
        return np.abs(np.subtract(a, b, out=work), out=work).max(axis=-1, out=out)
    counts = np.bitwise_count(np.bitwise_xor(a, b, out=work))
    total = np.empty(counts.shape[:-1]) if out is None else out
    total.fill(0.0)
    for word in range(counts.shape[-1]):
        total += counts[..., word]
    return np.divide(total, dim, out=out)


def pair_distances(metric: MetricKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between matching rows of ``a`` and ``b``.

    Rows broadcast, so one point against a matrix gives its distance to
    every row. Only the metric is checked (``_kernel_form``), not the rows:
    callers pass checked points. Hamming rows are 0/1 here; they are
    packed into words for the kernel, which counts differing bits with one
    popcount. Code that holds a ``Dataset``
    calls ``Dataset.distances`` on its packed rows instead.
    """
    return _kernel(metric, _kernel_form(metric, a), _kernel_form(metric, b), a.shape[-1])


# OpenBLAS runs a matrix product of at most 2**18 multiply-adds on the
# calling thread and wakes its worker threads for a larger one. For products
# issued one after another with other work between them, that wake-up cost
# about 15 ms a call on a 2-CPU machine, 200x the 0.07 ms product itself.
_GRAM_CHUNK = 2**18


def _chunked_matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ y`` in column chunks of at most ``_GRAM_CHUNK`` multiply-adds,
    written into ``out`` (a C-ordered float64 array of the product's shape)
    when one is given."""
    if out is None:
        out = np.empty((x.shape[0], y.shape[1]), dtype=np.result_type(x, y))
    step = max(1, _GRAM_CHUNK // (x.shape[0] * x.shape[1]))
    for j in range(0, y.shape[1], step):
        np.matmul(x, y[:, j : j + step], out=out[:, j : j + step])
    return out


# The Euclidean screen decides a pair only while the radius and the reach R
# lie in this range: no square overflows, and underflowed products stay far
# below the band.
_SCREEN_RANGE = (2.0**-256, 2.0**256)
_UNIT_ROUNDOFF = 2.0**-53

# A row band of the ball screen (all pairs, the extremes, nearest
# neighbours) holds at most this many bytes, 16 a pair: a float64 value and
# a mask. A kernel block runs in row chunks whose scratch (per pair, one row
# of differences, and the float64 value) holds at most this many bytes too;
# one kernel call per 65,536-pair cover block ran the covers of 10k x 16
# rows 1.6x slower for Manhattan and 1.3x for Chebyshev. 1 MiB kept
# nettree-stats' peak RSS where the row loop had it; 2 MiB raised it and
# was slower on narrow rows.
_SCAN_BYTES = 2**20


def _near_minimum(values: np.ndarray, band: float, axis: int, limit=np.inf) -> np.ndarray:
    """The pairs of a Euclidean band of Gram values (see
    ``_BallScreen._bands``) that may hold the kernel's smallest distance
    along ``axis``: those whose g lies within ``band`` of the smallest g
    along that axis, or of ``limit`` (a squared distance already measured)
    where that is smaller. g lies within half the band of the kernel's
    square, so every other pair is longer than one of these. NaN pairs are
    never kept."""
    low = np.minimum(np.fmin.reduce(values, axis=axis), limit)
    return values <= np.expand_dims(low + band, axis)


class _BallScreen:
    """The pair engine of one row set, with the per-row work done once:
    exact ball membership of a block of rows against a radius-free operand
    of rows (``ball_operand`` and ``members``), every pair in row bands
    (``_bands``), the extremes over those bands (``extremes``) and the
    nearest neighbours of some rows among the others (``nearest``).

    Built from kernel rows (packed words for Hamming, see ``_kernel_form``)
    and their length ``dim`` (the bit length for Hamming). A caller makes
    one operand of the rows its balls range over (``ball_operand``: for
    Euclidean a (d+2)-term Gram operand, see ``within_radius``) and asks
    ``members`` about any block of them at any radius. The band pass
    centres the Euclidean rows on ``rows[0]`` once and reads their squared
    norms beside them. Pairs that a Euclidean band leaves open are
    measured again by the kernel. Blocks that the kernel measures run on
    one scratch buffer that the screen keeps.
    """

    def __init__(self, metric: MetricKind, rows: np.ndarray, dim: int):
        self.metric = metric
        self.rows = rows
        self.dim = dim
        self._scratch = np.empty(0, dtype=rows.dtype)

    def _kernel_block(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` filled with the kernel's distances of the kernel rows
        ``a`` against the kernel rows ``b``, in row chunks of at most
        ``_SCAN_BYTES`` of scratch. The kernel works in the screen's
        scratch, so a block allocates nothing once that is as large as its
        chunks."""
        step = min(len(a), max(1, _SCAN_BYTES // (b.shape[0] * (b[0].nbytes + 16))))
        # At least _SCAN_BYTES, so the scratch has one size, cover after
        # cover: made to each cover's measure, it was served fresh pages
        # every time (the 64 covers of estimate --metric chebyshev on a
        # 3,000 x 8 file made about 5,700 minor faults instead of 160).
        if self._scratch.size < step * b.size:
            self._scratch = np.empty(max(step * b.size, _SCAN_BYTES // b.itemsize), dtype=self.rows.dtype)
        for k in range(0, len(a), step):
            rows = a[k : k + step, None]
            work = self._scratch[: rows.shape[0] * b.size].reshape((rows.shape[0],) + b.shape)
            _kernel(self.metric, rows, b[None], self.dim, out[k : k + step], work)
        return out

    def ball_operand(self, ib: np.ndarray) -> tuple[np.ndarray, float | None]:
        """Rows ``ib`` (a non-empty index array) as the operand of
        ``members``, as ``(operand, reach)``. The operand holds no radius,
        so one serves every ball over these rows.

        For Euclidean, with the reach R = 2 max |x'| inside
        ``_SCREEN_RANGE``, x' = x - rows[ib[0]], ``operand`` is the
        C-ordered (d+2) x m matrix whose column j is [x_j', 1, |x_j'|^2].
        Otherwise it is the kernel rows ``ib`` and ``reach`` is None."""
        if self.metric is MetricKind.EUCLIDEAN:
            d = self.dim
            operand = np.empty((d + 2, len(ib)))
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(self.rows[ib].T, self.rows[ib[0], :, None], out=operand[:d])
                np.einsum("ij,ij->j", operand[:d], operand[:d], out=operand[d + 1])
            reach = 2.0 * math.sqrt(operand[d + 1].max())
            lo, hi = _SCREEN_RANGE
            if lo <= reach <= hi:
                operand[d] = 1.0
                return operand, reach
        return self.rows[ib], None

    def members(
        self,
        held: np.ndarray,
        picks: np.ndarray,
        operand: np.ndarray,
        reach: float | None,
        radius: float,
        out: np.ndarray,
        start: int = 0,
    ) -> np.ndarray:
        """The flat positions, ascending, of the pairs within ``radius``,
        exactly as the kernel's ``<=`` decides them, in the block of the
        operand's points at positions ``picks`` against its points from
        position ``start`` on. ``operand`` and ``reach`` come from
        ``ball_operand``, perhaps cut to the points ``held`` (the row index
        of each point, an index array); ``out`` (a C-ordered float64 array
        of the block's shape) receives the block's values.

        For Euclidean, with t = radius inside ``_SCREEN_RANGE``, the block is
        one product: the rows [-2 x_i', |x_i'|^2 - t^2, 1] of the picks times
        the operand give g - t^2. A pair below minus the band
        8 (d + 8) u (R^2 + t^2) (see ``within_radius``) is inside, one above
        the band outside, and the kernel decides the pairs in between.
        Every other block is the kernel's distances, compared with the
        radius."""
        t = float(radius)
        lo, hi = _SCREEN_RANGE
        if reach is None or not lo <= t <= hi:
            b = operand[start:] if reach is None else self.rows[held[start:]]
            return (self._kernel_block(self.rows[held[picks]], b, out) <= radius).ravel().nonzero()[0]
        d = self.dim
        left = np.empty((len(picks), d + 2))
        np.multiply(operand[:d, picks].T, -2.0, out=left[:, :d])
        np.subtract(operand[d + 1, picks], t * t, out=left[:, d])
        left[:, d + 1] = 1.0
        values = _chunked_matmul(left, operand[:, start:], out).ravel()
        band = 8.0 * (d + 8) * _UNIT_ROUNDOFF * (reach * reach + t * t)
        hits = (values <= band).nonzero()[0]
        open_ = (values[hits] >= -band).nonzero()[0]
        if open_.size:
            ii, jj = np.divmod(hits[open_], out.shape[1])
            measured = _kernel(self.metric, self.rows[held[picks[ii]]], self.rows[held[start + jj]], self.dim)
            hits = np.delete(hits, open_[measured > radius])
        return hits

    def _remeasure(self, ia: np.ndarray, ib: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs that ``mask`` marks in the block of rows ``ia`` against
        rows ``ib`` (index arrays), as ``(ii, jj, distances)``: their row and
        column positions in the block and the kernel's distances."""
        ii, jj = np.divmod(np.flatnonzero(mask), mask.shape[1])
        return ii, jj, _kernel(self.metric, self.rows[ia[ii]], self.rows[ib[jj]], self.dim)

    def _bands(self, split: int | None = None):
        """Row pairs in bands, as ``(ia, ib, values, band)`` (index arrays
        ia and ib). Without ``split``: every row pair, rows ia = i..i+B-1
        against rows ib = i+1..n-1, i = 0, B, ...; a band also meets pairs
        it has already seen, reversed, and each of its rows itself. With
        ``split``: rows 0..split-1 against the rows from ``split`` on. B
        keeps a band within ``_SCAN_BYTES`` at 16 bytes a pair. Every band
        is written into one buffer made for the pass, so a caller reads each
        band before it asks for the next.

        With ``band`` None, ``values`` are the kernel's distances: for
        Hamming, Manhattan, Chebyshev and a Euclidean band whose reach R =
        max |a'| + max |b'| lies outside ``_SCREEN_RANGE``, x' = x - rows[0]
        (the rows are centred once, for the pass). Otherwise they are the
        squared distances g = |a'|^2 + |b'|^2 - 2 a'.b' and ``band`` is
        4 (d + 8) u R^2, with u = 2**-53: g errs from the exact square by at
        most 3 u R^2 (the centring) and gamma_d R^2 + 2 u R^2 (the product
        and its two additions), a quarter of the band to first order, and
        the kernel's square errs by at most gamma_{d+6} R^2, so g lies
        within half the band of the kernel's square."""
        n = self.rows.shape[0]
        stop = n - 1 if split is None else split
        buffer = np.empty(max(_SCAN_BYTES // 16, n))
        if self.metric is MetricKind.EUCLIDEAN:
            with np.errstate(over="ignore", invalid="ignore"):
                form = np.subtract(self.rows, self.rows[:1], dtype=np.float64)
                norms = np.einsum("ij,ij->i", form, form)
        lo, hi = _SCREEN_RANGE
        i = 0
        while i < stop:
            first = i + 1 if split is None else split
            step = max(1, _SCAN_BYTES // ((n - first) * 16))
            ia, ib = np.arange(i, min(i + step, stop)), np.arange(first, n)
            out = buffer[: ia.size * ib.size].reshape(ia.size, ib.size)
            i += step
            if self.metric is MetricKind.EUCLIDEAN:
                na, nb = norms[ia], norms[first:]
                reach = math.sqrt(na.max()) + math.sqrt(nb.max())
                if lo <= reach <= hi:
                    # |x - y|^2 = |x|^2 + |y|^2 - 2 x.y
                    ac = form[ia]
                    ac *= -2.0
                    gap = _chunked_matmul(ac, form[first:].T, out)
                    gap += na[:, None]
                    gap += nb[None, :]
                    yield ia, ib, gap, 4.0 * (self.dim + 8) * _UNIT_ROUNDOFF * (reach * reach)
                    continue
            yield ia, ib, self._kernel_block(self.rows[ia], self.rows[first:], out), None

    def extremes(self) -> tuple[float, np.ndarray]:
        """The largest distance between two rows, and each row's distance to
        its nearest other row (inf for a lone row), from one pass over
        ``_bands``. Both equal the kernel's bit for bit.

        Reversed pairs change no extreme, and a row against itself is
        masked out. Hamming, Manhattan and Chebyshev bands are the kernel's
        values. In a Euclidean band g is within half the band of the
        kernel's square. So a pair whose g lies more than the band below the
        band's largest g, or below the largest distance so far squared, is
        shorter than a pair already measured or about to be. Likewise a pair
        whose g lies more than the band above the smallest g of its band
        row, or above that row's nearest distance so far squared, is longer
        than a pair measured for that row, and the same holds for its
        column (``_near_minimum``). The kernel re-measures, in one call,
        every pair that one of these three tests keeps. It is symmetric bit
        for bit and works pair by pair, so each extreme equals that of the
        one-row-at-a-time loop."""
        top, nearest = 0.0, np.full(self.rows.shape[0], np.inf)
        for ia, ib, values, band in self._bands():
            # Row k of the band is row ia[k], which column k - 1 holds too.
            # NaN masks these self pairs: fmax and fmin skip it, and no
            # comparison keeps it.
            values[np.arange(1, ia.size), np.arange(ia.size - 1)] = np.nan
            high = float(np.fmax.reduce(values, axis=None))
            if band is None:
                top = max(top, high)
                nearest[ia] = np.minimum(nearest[ia], np.fmin.reduce(values, axis=1))
                nearest[ib] = np.minimum(nearest[ib], np.fmin.reduce(values, axis=0))
                continue
            near = (
                (values >= max(high, top * top) - band)
                | _near_minimum(values, band, 1, np.square(nearest[ia]))
                | _near_minimum(values, band, 0, np.square(nearest[ib]))
            )
            ii, jj, measured = self._remeasure(ia, ib, near)
            top = float(measured.max(initial=top))
            np.minimum.at(nearest, ia[ii], measured)
            np.minimum.at(nearest, ib[jj], measured)
        return top, nearest

    def nearest(self, split: int, leave_one_out: bool = False) -> np.ndarray:
        """Each row i < ``split``'s distance to its nearest row among the
        rows from ``split`` on, equal bit for bit to the kernel's minimum
        over them, from one pass over ``_bands(split)``.

        With ``leave_one_out`` the rows equal to row i word for word (value
        for value for real rows, so -0.0 equals 0.0) are left out, and a row
        that every one of them equals gets NaN. Equal rows are at distance
        0, so their g is within the band (their kernel value is 0 where the
        band is None), and only the pairs there have their rows compared.
        In a Euclidean band the kernel then re-measures the pairs that
        ``_near_minimum`` keeps, and each row's minimum is taken over
        those."""
        out = np.empty(split)
        for ia, ib, values, band in self._bands(split):
            if leave_one_out:
                ii, jj = np.divmod(np.flatnonzero(values <= (0.0 if band is None else band)), values.shape[1])
                same = (self.rows[ia[ii]] == self.rows[ib[jj]]).all(axis=1)
                values[ii[same], jj[same]] = np.nan
            if band is None:
                out[ia] = np.fmin.reduce(values, axis=1)
                continue
            ii, _, measured = self._remeasure(ia, ib, _near_minimum(values, band, 1))
            # A row with no pair left keeps NaN: fmin skips it otherwise.
            low = np.full(ia.size, np.nan)
            np.fmin.at(low, ii, measured)
            out[ia] = low
        return out


def within_radius(metric: MetricKind, a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """The boolean matrix ``pair_distances(metric, a[:, None], b[None]) <= radius``.

    The result equals that expression element by element, in bounded
    memory and, for Euclidean, at a fraction of its cost. ``a`` and ``b``
    are non-empty row blocks. This is the one-shot use of ``_BallScreen``:
    one operand of the rows of ``a`` and ``b`` (``ball_operand``), and one
    ``members`` call of the rows of ``a`` against those of ``b``, whose
    pairs are set in the matrix here. Hamming rows are packed into words
    once, here. Hamming, Manhattan and Chebyshev take the kernel's values
    in row chunks. As in ``pair_distances``, only the metric is checked,
    not the rows.

    Euclidean screens with one Gram product of d + 2 terms on coordinates
    centred on c = a[0]: with x' = x - c for every row x and the reach
    R = 2 max |x'| over both blocks, so that |a'| + |b'| <= R for every
    pair, the row [-2 a', |a'|^2 - t^2, 1] times the column [b', 1, |b'|^2]
    is g - t^2, with g = |a'|^2 + |b'|^2 - 2 a'.b' and t = radius. With
    u = 2**-53 the terms are exact apart from the two norms (gamma_d
    (|a'|^2 + |b'|^2) <= gamma_d R^2), t^2 (u t^2) and the one subtraction
    (u (|a'|^2 + t^2)). Their magnitudes sum to at most (|a'| + |b'|)^2 +
    t^2 <= R^2 + t^2, so the product adds gamma_{d+2} (R^2 + t^2). The
    centring errs in the squared distance by at most 3 u R^2, and the
    kernel (its differences, squares and sum and the square root) by
    gamma_{d+6} max(R^2, t^2). All of it is at most (3 d + 13) u (R^2 +
    t^2) to first order, and the band 8 (d + 8) u (R^2 + t^2) keeps more
    than twice that: a pair with |g - t^2| <= band is decided by
    ``pair_distances`` itself, and every other pair lies on the same side
    of the radius for both. The argument uses c only through R, so it
    holds for an operand cut to some of its points, as a greedy cover cuts
    it, with or without c. Inside ``_SCREEN_RANGE`` (t and R) every
    screen value is finite; outside it (a zero, subnormal or infinite
    radius, coordinates near overflow, all points equal to c) every pair
    goes to the kernel.
    """
    screen = _BallScreen(metric, _kernel_form(metric, np.concatenate([a, b])), a.shape[1])
    rows = np.arange(len(a) + len(b))
    operand, reach = screen.ball_operand(rows)
    inside = np.zeros((len(a), len(b)), dtype=bool)
    inside.ravel()[screen.members(rows, rows[: len(a)], operand, reach, radius, np.empty(inside.shape), len(a))] = True
    return inside


def all_pair_distances(metric: MetricKind, points: np.ndarray) -> np.ndarray:
    """Distances of every unordered pair (i, j > i) of rows, in that order:
    the upper triangle of each of the ball screen's row bands in turn.

    Hamming, Manhattan and Chebyshev values are the kernel's own, bit for
    bit. A Euclidean value is sqrt(g) from the centred Gram value g
    and is within 1e-9 relative of the kernel's: g errs by at most a
    quarter of the band at t = 0, so where g is at least band / 2e-9 the
    square root errs by less than 3e-10 relative, and every smaller g (near
    duplicates, and a whole band outside ``_SCREEN_RANGE``) is measured by
    the kernel.

    The output is one float64 vector of n(n-1)/2 values, allocated first;
    each band's triangle is copied into its place as soon as the band is
    measured. So the call holds one copy of the distances plus one band
    (at most ``_SCAN_BYTES`` of values and mask, and its triangle). As in
    ``pair_distances``, only the metric is checked, not the rows.
    """
    n = points.shape[0]
    screen = _BallScreen(metric, _kernel_form(metric, points), points.shape[1])
    out = np.empty(n * (n - 1) // 2)
    stop = 0
    for ia, ib, values, band in screen._bands():
        upper = ib > ia[:, None]
        if band is not None:
            ii, jj, measured = screen._remeasure(ia, ib, upper & (values < band / 2e-9))
            np.sqrt(np.maximum(values, 0.0, out=values), out=values)
            values[ii, jj] = measured
        triangle = values[upper]
        out[stop : stop + triangle.size] = triangle
        stop += triangle.size
    return out


def distance(metric: MetricKind, x, y) -> float:
    """Distance between two points under ``metric``."""
    a = _check_point(metric, x)
    return float(pair_distances(metric, a, _check_point(metric, y, a.shape[0])))


def distances_to(metric: MetricKind, x, points: np.ndarray) -> np.ndarray:
    """Distances from one point to every row of a point matrix. The matrix
    is checked as a ``Dataset``'s points are, and the point as that
    dataset's query."""
    ds = Dataset(points, metric)
    return ds.distances(ds.check_query(x), ds.kernel_rows)


@dataclass(frozen=True)
class Dataset:
    """A point matrix, its metric, and the seed that produced it (if any).

    The points are a private read-only copy of the caller's array.
    ``kernel_rows`` holds them in the kernel's form, made once: for Hamming
    the 0/1 rows packed into read-only uint64 words, for real metrics the
    points themselves. The band scan's extremes, the diameter bound and
    the distinct rows are computed once, on first use, and cached.
    """

    points: np.ndarray
    metric: MetricKind
    seed: int | None = None
    kernel_rows: np.ndarray = field(init=False, repr=False, compare=False)
    # Quantities computed on first use (see ``_cached``).
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError(f"dataset needs an (n, d) matrix with n, d >= 1, got shape {pts.shape}")
        pts = _check_rows(_check_metric(self.metric), pts, "bit datasets")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        rows = _kernel_form(self.metric, pts)
        rows.setflags(write=False)
        object.__setattr__(self, "kernel_rows", rows)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.points[i]

    def check_query(self, q) -> np.ndarray:
        """``q`` validated against this dataset's metric and dimension, in
        the kernel's form (packed words for Hamming)."""
        return _kernel_form(self.metric, _check_point(self.metric, q, self.dim))

    def distances(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Distances between matching rows of ``a`` and ``b``, which are
        kernel rows of this dataset or queries from ``check_query``. Rows
        broadcast, as in ``pair_distances``. With ``out`` the distances are
        written there and ``a`` is overwritten as scratch (see ``_kernel``)."""
        return _kernel(self.metric, a, b, self.dim, out)


class CountingOracle:
    """Counts every distance evaluation routed through it.

    The counter only grows (until reset) and is lock-protected so that
    per-worker batches from concurrent queries accumulate exactly.
    """

    def __init__(self, metric: MetricKind):
        self.metric = metric
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    def add(self, k: int = 1) -> None:
        with self._lock:
            self._count += k

    def reset(self) -> None:
        with self._lock:
            self._count = 0


def _cached(ds: Dataset, key: str, make):
    """``make(ds)``, computed once per dataset; callers read the value and
    never write it."""
    return ds._cache[key] if key in ds._cache else ds._cache.setdefault(key, make(ds))


def _extremes(ds: Dataset) -> tuple[float, np.ndarray]:
    """``_BallScreen.extremes`` of the points of ``ds``: the exact diameter
    and each row's nearest distance (0 for a duplicate row), from one band
    scan."""
    return _cached(ds, "extremes", lambda ds: _BallScreen(ds.metric, ds.kernel_rows, ds.dim).extremes())


def _diameter(ds: Dataset) -> float:
    """The diameter bound of ``ds``: the band scan's exact maximum when
    ``diameter_is_exact``, else 2 max_i d(points[0], points[i]), capped at 1
    for the normalized Hamming metric, which never exceeds it."""
    if diameter_is_exact(ds.n):
        return _extremes(ds)[0]
    bound = 2.0 * float(_kernel(ds.metric, ds.kernel_rows[0], ds.kernel_rows, ds.dim).max())
    return min(bound, 1.0) if ds.metric.uses_bits else bound


def _distinct_rows(ds: Dataset) -> np.ndarray:
    """``first_occurrence_indices(ds.points)``, computed once per dataset."""
    return _cached(ds, "distinct", lambda ds: first_occurrence_indices(ds.points))


def diameter_upper_bound(ds: Dataset) -> float:
    """An upper bound on the max pairwise distance; exact for small n.

    Up to EXACT_DIAMETER_LIMIT points the full pairwise scan is performed
    and the true maximum returned. Above that, the triangle-inequality
    bound 2 * max_i d(points[0], points[i]) is used, capped by the
    normalized Hamming metric's own bound 1. Use ``diameter_is_exact`` to
    report which branch applied. A bound that overflows the doubles
    (coordinates near 1e300) raises ``InvalidInputError``. The scan runs
    once per dataset and is cached on it.
    """
    if ds.n < 2:
        raise InvalidInputError("diameter bound needs at least 2 points")
    bound = _cached(ds, "diameter", _diameter)
    if not math.isfinite(bound):
        raise InvalidInputError(f"the diameter bound overflows to {bound}; the coordinates are too large")
    return bound


def diameter_is_exact(n: int) -> bool:
    return n <= EXACT_DIAMETER_LIMIT


def first_occurrence_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, ascending."""
    _, first = np.unique(points, axis=0, return_index=True)
    return np.sort(first)


# ---------------------------------------------------------------------------
# Dataset file format: one point per row. Real vectors are whitespace- or
# comma-separated numbers; bit vectors are strings of 0/1 characters
# (separators tolerated). Lines starting with '#' are header/comment lines.
# ---------------------------------------------------------------------------


def _parse_real_row(line: str, lineno: int) -> list[float]:
    fields = line.replace(",", " ").split()
    try:
        values = list(map(float, fields))
    except ValueError as exc:
        raise InvalidInputError(f"line {lineno}: not a numeric row: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"line {lineno}: coordinates must be finite")
    return values


def _parse_bit_row(line: str, lineno: int) -> np.ndarray:
    compact = line.replace(",", "").replace(" ", "").replace("\t", "")
    # Every byte other than "0" and "1" (48, 49) maps above 1, wrapping below 48.
    bits = np.frombuffer(compact.encode(), np.uint8) - 48
    if not bits.size or (bits > 1).any():
        raise InvalidInputError(f"line {lineno}: expected a 0/1 string, got {line.strip()!r}")
    return bits


def _parse_real_lines(lines: list[str]) -> np.ndarray | None:
    """The rows of ``lines`` (stripped data lines) as numpy's C parser
    reads them, commas read as spaces, or None where it refuses a line,
    skips one (a line of commas alone) or reads a value that is not finite.
    It reads a number as Python's ``float`` does (both call CPython's
    ``PyOS_string_to_double``), but refuses some that ``float`` takes, such
    as ``1_000`` and non-ASCII digits."""
    try:
        points = np.loadtxt([line.replace(",", " ") for line in lines], ndmin=2, comments=None)
    except ValueError:
        return None
    if points.shape[0] != len(lines) or not np.isfinite(points).all():
        return None
    return points


def load_dataset(path, metric: MetricKind) -> Dataset:
    """Read a dataset file. The metric is supplied by the caller, never inferred.

    Real-valued files are parsed whole by numpy's C parser
    (``_parse_real_lines``). A file that it refuses, or with a value that
    is not finite, is parsed again one row at a time, which takes what
    ``float`` takes and otherwise names the first bad line and its reason.
    So every file keeps the values and the refusal it would get from the
    per-row parse alone.
    """
    bits = _check_metric(metric).uses_bits
    text = Path(path).read_text()
    numbered = [
        (lineno, stripped)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
    if not numbered:
        raise InvalidInputError(f"{path}: no data rows found")
    points = None if bits else _parse_real_lines([line for _, line in numbered])
    if points is None:
        rows = []
        for lineno, line in numbered:
            row = _parse_bit_row(line, lineno) if bits else _parse_real_row(line, lineno)
            if rows and len(row) != len(rows[0]):
                raise InvalidInputError(f"line {lineno}: row has {len(row)} coordinates, expected {len(rows[0])}")
            rows.append(row)
        points = np.asarray(rows, dtype=np.uint8 if bits else np.float64)
    return Dataset(points, metric)


def format_points(ds: Dataset) -> str:
    """Render points in the ingestion format (no header)."""
    if ds.metric.uses_bits:
        # Each 0/1 row as the characters "0"/"1", one newline column after.
        chars = np.full((ds.n, ds.dim + 1), ord("\n"), dtype=np.uint8)
        np.add(ds.points, ord("0"), out=chars[:, :-1])
        return str(chars.data, "ascii")
    lines = [" ".join(repr(float(v)) for v in row) for row in ds.points]
    return "\n".join(lines) + "\n"
