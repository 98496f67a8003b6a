"""Points, metrics, datasets, the distance kernel and an evaluation-counting oracle.

A dataset is a homogeneous point matrix plus a metric descriptor. Real
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
``_BallScreen``. It prepares a row set once (rows centred on the first
one and their squared norms, or float32 bits and bit counts) and measures
any two index blocks of it in one private helper: the centred Gram gap and
its rounding band for Euclidean, exact differing-bit counts for Hamming,
and the kernel's values for Manhattan, Chebyshev and every Euclidean block
outside the screen's range. Four uses read that helper:
``within_radius`` and a greedy cover's blocks ask for ball membership
``pair_distances(...) <= radius``, equal to the kernel's answer element
by element (the screen decides the pairs its band can, the kernel the
rest); ``all_pair_distances`` takes the upper triangles of the screen's
row bands (rows i..i+B-1 against the rows after i); and two scans take
the extremes over the same bands: the exact diameter scan the maximum,
and the nearest-neighbour scan each row's minimum, both equal to the
kernel's bit for bit (the kernel re-measures the Euclidean pairs near
them). A greedy cover, which screens many blocks of the same rows, pays
the preparation once. Rows are validated when a ``Dataset`` is built
(``load_dataset`` builds one); each public entry point that takes an
outside point validates it once, at entry (``Dataset.check_query``);
internal loops over dataset rows call the kernel directly, through
``Dataset.distances``.

The diameter bound is one quantity per dataset: it is scanned once, at
scale 1, cached on the ``Dataset`` and shared with every rescaled copy,
which gives the same bits as a fresh scan at the new scale.

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

import copy
import math
import threading
from dataclasses import dataclass, field, replace
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
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    CHEBYSHEV = "chebyshev"
    HAMMING = "hamming"  # differing bits divided by length

    @property
    def uses_bits(self) -> bool:
        return self is MetricKind.HAMMING


@dataclass(frozen=True)
class MetricDescriptor:
    """A metric kind plus a positive divisor applied to raw distances.

    ``scale`` exists so any dataset can be diameter-normalized into [0, 1]
    before concentration analysis.
    """

    kind: MetricKind
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise InvalidInputError(f"metric scale must be a positive finite real, got {self.scale}")

    def rescaled(self, scale: float) -> "MetricDescriptor":
        return replace(self, scale=scale)


def _check_point(metric: MetricDescriptor, x, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInputError(f"a point must be a 1-d sequence of length >= 1, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise InvalidInputError(f"point length mismatch: {arr.shape[0]} vs {dim}")
    if metric.kind.uses_bits:
        if arr.dtype.kind == "f":
            raise InvalidInputError("normalized Hamming metric requires a bit vector, got real coordinates")
        return _as_bits(arr, "bit vectors")
    if arr.dtype == np.uint8 or arr.dtype.kind == "b":
        raise InvalidInputError(f"{metric.kind.value} metric requires real coordinates, got a bit vector")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError("coordinates must be finite (no NaN or infinity)")
    return arr


def _as_bits(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as uint8 0/1 values. The values are checked as given, before
    the cast, which would wrap 256 to 0 and truncate 0.5 to 0."""
    if not ((arr == 0) | (arr == 1)).all():
        raise InvalidInputError(f"{what} may only contain 0 and 1")
    return arr.astype(np.uint8, copy=False)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """0/1 rows (the last axis) packed into uint64 words, the last word
    zero-padded. Equal rows give equal words, and the XOR of two rows' words
    has one set bit per position where the rows differ."""
    nbytes = (bits.shape[-1] + 7) // 8
    packed = np.zeros(bits.shape[:-1] + (-(-nbytes // 8) * 8,), dtype=np.uint8)
    packed[..., :nbytes] = np.packbits(bits, axis=-1)
    return packed.view(np.uint64)


def _kernel_form(metric: MetricDescriptor, rows: np.ndarray) -> np.ndarray:
    """Checked rows as ``_kernel`` reads them: packed words for Hamming."""
    return _pack_bits(rows) if metric.kind.uses_bits else rows


def _kernel(metric: MetricDescriptor, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Distances between matching kernel-form rows of ``a`` and ``b``
    (raw value / scale); ``dim`` is the bit length of Hamming rows, which
    their packed words do not show. Rows broadcast."""
    kind = metric.kind
    if kind is MetricKind.EUCLIDEAN:
        diff = a - b
        raw = np.sqrt(np.einsum("...i,...i->...", diff, diff))
    elif kind is MetricKind.MANHATTAN:
        raw = np.abs(a - b).sum(axis=-1)
    elif kind is MetricKind.CHEBYSHEV:
        raw = np.abs(a - b).max(axis=-1)
    else:
        raw = np.bitwise_count(a ^ b).sum(axis=-1) / dim
    return raw / metric.scale


def pair_distances(metric: MetricDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between matching rows of ``a`` and ``b`` (raw value / scale).

    Rows broadcast, so one point against a matrix gives its distance to
    every row. Nothing is validated: callers pass checked points. Hamming
    rows are 0/1 here; they are packed into words for the kernel, which
    counts differing bits with one popcount. Code that holds a ``Dataset``
    calls ``Dataset.distances`` on its packed rows instead.
    """
    return _kernel(metric, _kernel_form(metric, a), _kernel_form(metric, b), a.shape[-1])


# OpenBLAS runs a matrix product of at most 2**18 multiply-adds on the
# calling thread and wakes its worker threads for a larger one. For products
# issued one after another with other work between them, that wake-up cost
# about 15 ms a call on a 2-CPU machine, 200x the 0.07 ms product itself.
_GRAM_CHUNK = 2**18


def _chunked_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` in column chunks of at most ``_GRAM_CHUNK`` multiply-adds."""
    out = np.empty((x.shape[0], y.shape[1]), dtype=np.result_type(x, y))
    step = max(1, _GRAM_CHUNK // (x.shape[0] * x.shape[1]))
    for j in range(0, y.shape[1], step):
        np.matmul(x, y[:, j : j + step], out=out[:, j : j + step])
    return out


# The Euclidean screen decides a pair only while the radius, the raw radius
# (radius * scale) and the reach R lie in this range: no square overflows,
# and underflowed products stay far below the band.
_SCREEN_RANGE = (2.0**-256, 2.0**256)
_UNIT_ROUNDOFF = 2.0**-53

# A row band of the ball screen (all pairs, the exact diameter) holds at
# most this many bytes, 16 a pair: a float64 value and a mask. A kernel
# block runs in row chunks whose temporaries (per pair, one row of
# differences and two float64 results) hold at most this many bytes too;
# one kernel call per 65,536-pair cover block ran the covers of 10k x 16
# rows 1.6x slower for Manhattan and 1.3x for Chebyshev. 1 MiB kept
# nettree-stats' peak RSS where the row loop had it; 2 MiB raised it and
# was slower on narrow rows.
_SCAN_BYTES = 2**20


class _BallScreen:
    """The pair engine of one row set, with the per-row work done once:
    exact ball membership between index blocks (``within``) and every pair
    in row bands (``_bands``).

    Built from checked rows (0/1 rows for Hamming), it holds the metric's
    prepared form: for Euclidean the rows centred on ``rows[0]`` and their
    squared norms, for Hamming the rows as float32 and their bit counts, for
    Manhattan and Chebyshev the rows themselves. ``_block`` measures two
    index blocks from it, and both uses read ``_block``, so a caller that
    screens many blocks of the same rows (a greedy cover) prepares them
    once.
    """

    def __init__(self, metric: MetricDescriptor, rows: np.ndarray):
        self.metric = metric
        self.rows = rows
        if metric.kind is MetricKind.EUCLIDEAN:
            with np.errstate(over="ignore", invalid="ignore"):
                self._form = np.subtract(rows, rows[0], dtype=np.float64)
                self._norms = np.einsum("ij,ij->i", self._form, self._form)
        elif metric.kind is MetricKind.HAMMING:
            self._form = rows.astype(np.float32)
            self._norms = self._form.sum(axis=1)

    def _block(self, ia: np.ndarray, ib: np.ndarray | slice, radius: float = 0.0) -> tuple[np.ndarray, float | None]:
        """Rows ``ia`` (an index array) against rows ``ib`` (an index array
        or a slice), as ``(values, band)``.

        With ``band`` None, ``values`` are the distances themselves, equal
        to the kernel's bit for bit: exact differing-bit counts for Hamming,
        and for Manhattan, Chebyshev and a Euclidean block outside
        ``_SCREEN_RANGE`` the kernel's values, in row chunks of at most
        ``_SCAN_BYTES`` of temporaries. Otherwise ``values`` hold the
        centred Gram gap g - t^2 of each pair, t = radius * scale, and a
        pair with |g - t^2| > band lies on the same side of t as the
        kernel's distance (see ``within_radius``). Radius 0 screens the
        squared distances g."""
        kind, dim = self.metric.kind, self.rows.shape[1]
        if kind in (MetricKind.EUCLIDEAN, MetricKind.HAMMING):
            euclid = kind is MetricKind.EUCLIDEAN
            t = float(radius) * self.metric.scale if euclid else 0.0
            na, nb = self._norms[ia], self._norms[ib]
            reach = math.sqrt(na.max()) + math.sqrt(nb.max())
            lo, hi = _SCREEN_RANGE
            if not euclid or all(lo <= x <= hi for x in ((reach,) if radius == 0.0 else (radius, t, reach))):
                # |x - y|^2 = |x|^2 + |y|^2 - 2 x.y. For 0/1 rows it is the
                # differing-bit count, and in float32 every partial sum is an
                # integer below 2**24, exact in any order for d < 2**23.
                ac = self._form[ia]
                ac *= -2.0
                gap = _chunked_matmul(ac, self._form[ib].T)
                gap += na[:, None]
                gap += (nb - t * t)[None, :]
                if euclid:
                    return gap, 4.0 * (dim + 8) * _UNIT_ROUNDOFF * (reach * reach + t * t)
                values = gap.astype(np.float64)
                values /= dim
                values /= self.metric.scale
                return values, None
        b = self.rows[ib]
        out = np.empty((len(ia), b.shape[0]))
        step = max(1, _SCAN_BYTES // (b.shape[0] * (b[0].nbytes + 16)))
        for k in range(0, len(ia), step):
            out[k : k + step] = _kernel(self.metric, self.rows[ia[k : k + step], None], b[None], dim)
        return out, None

    def within(self, ia: np.ndarray, ib: np.ndarray, radius: float) -> np.ndarray:
        """The boolean matrix ``pair_distances(metric, rows[ia][:, None],
        rows[ib][None]) <= radius``, equal to it element by element. ``ia``
        and ``ib`` are non-empty integer index arrays; neither needs to hold
        the centre row."""
        values, band = self._block(ia, ib, radius)
        if band is None:
            return values <= radius
        inside = values <= 0.0
        ambiguous = np.abs(values, out=values) <= band
        if ambiguous.any():
            ii, jj = np.divmod(np.flatnonzero(ambiguous), ambiguous.shape[1])
            inside[ii, jj] = pair_distances(self.metric, self.rows[ia[ii]], self.rows[ib[jj]]) <= radius
        return inside

    def _bands(self):
        """Every row pair, as ``(i, values, band)`` from ``_block`` at
        radius 0 for rows i..i+B-1 against rows i+1..n-1, i = 0, B, ... A
        band also meets pairs it has already seen, reversed, and each of its
        rows itself. B keeps a band within ``_SCAN_BYTES`` at 16 bytes a
        pair."""
        n = self.rows.shape[0]
        i = 0
        while i < n - 1:
            step = max(1, _SCAN_BYTES // ((n - 1 - i) * 16))
            yield (i, *self._block(np.arange(i, min(i + step, n - 1)), slice(i + 1, n)))
            i += step


def within_radius(metric: MetricDescriptor, a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """The boolean matrix ``pair_distances(metric, a[:, None], b[None]) <= radius``.

    The result equals that expression element by element, at a fraction of
    its cost. ``a`` and ``b`` are non-empty row blocks. This is the one-shot
    use of ``_BallScreen`` on the rows of ``a`` and ``b``, centred on
    ``a[0]``. Hamming counts differing bits with the exact Gram identity;
    Manhattan and Chebyshev take the kernel's values in row chunks.

    Euclidean screens with a Gram product on coordinates centred on a
    shared centre c, one of the screen's rows: with a' = a - c and
    b' = b - c, g = |a'|^2 + |b'|^2 - 2 a'.b' against t^2, t = radius * scale.
    With u = 2**-53 and the reach R = max |a'| + max |b'| over the two
    blocks (no distance between them exceeds it, wherever c lies), the
    squared-distance error of the centring is at most 3 u R^2, of the Gram
    product and its three additions gamma_d R^2 + 3 u (R^2 + t^2), of t^2
    3 u t^2, and of the kernel (its differences, squares and sum, the
    square root and the division by scale) gamma_{d+6} max(R^2, t^2). They
    sum to at most (2 d + 12) u (R^2 + t^2) to first order, and the band
    keeps more than twice that: a pair with |g - t^2| <= 4 (d + 8) u
    (R^2 + t^2) is decided by ``pair_distances`` itself, and every other
    pair lies on the same side of the radius for both. The argument uses c
    only through R, so it holds for blocks that do not contain c. Inside
    ``_SCREEN_RANGE`` every screen value is finite; outside it (an infinite
    radius, coordinates near overflow, all points equal to c) every pair
    goes to the kernel.
    """
    screen = _BallScreen(metric, np.concatenate([a, b]))
    return screen.within(np.arange(len(a)), np.arange(len(a), len(a) + len(b)), radius)


def all_pair_distances(metric: MetricDescriptor, points: np.ndarray) -> np.ndarray:
    """Distances of every unordered pair (i, j > i) of rows, in that order:
    the upper triangle of each of the ball screen's row bands in turn.

    Hamming, Manhattan and Chebyshev values are the kernel's own, bit for
    bit. A Euclidean value is sqrt(g) / scale from the centred Gram value g
    and is within 1e-9 relative of the kernel's: g errs by at most a
    quarter of the band at t = 0, so where g is at least band / 2e-9 the
    square root errs by less than 3e-10 relative, and every smaller g (near
    duplicates, and a whole band outside ``_SCREEN_RANGE``) is measured by
    the kernel.
    """
    out = [np.empty(0)]
    for i, values, band in _BallScreen(metric, points)._bands():
        upper = np.arange(values.shape[1]) >= np.arange(values.shape[0])[:, None]
        if band is not None:
            ii, jj = np.divmod(np.flatnonzero(upper & (values < band / 2e-9)), values.shape[1])
            np.sqrt(np.maximum(values, 0.0, out=values), out=values)
            values /= metric.scale
            values[ii, jj] = _kernel(metric, points[i + ii], points[i + 1 + jj], points.shape[1])
        out.append(values[upper])
    return np.concatenate(out)


def distance(metric: MetricDescriptor, x, y) -> float:
    """Distance between two points under ``metric`` (raw value / scale)."""
    a = _check_point(metric, x)
    return float(pair_distances(metric, a, _check_point(metric, y, a.shape[0])))


def distances_to(metric: MetricDescriptor, x, points: np.ndarray) -> np.ndarray:
    """Distances from one point to every row of a point matrix."""
    if points.ndim != 2:
        raise InvalidInputError("point matrix incompatible with the query point")
    return pair_distances(metric, _check_point(metric, x, points.shape[1]), points)


@dataclass(frozen=True)
class Dataset:
    """A point matrix, its metric, and the seed that produced it (if any).

    The points are a private read-only copy of the caller's array.
    ``kernel_rows`` holds them in the kernel's form, made once: for Hamming
    the 0/1 rows packed into read-only uint64 words, for real metrics the
    points themselves. The diameter bound is scanned once, on first use,
    and cached. Rescaled copies share the points, the kernel rows and the
    bound (see ``diameter_upper_bound``).
    """

    points: np.ndarray
    metric: MetricDescriptor
    seed: int | None = None
    kernel_rows: np.ndarray = field(init=False, repr=False, compare=False)
    # The raw (scale 1) diameter bound, under "raw" once scanned. Rescaled
    # copies hold this same dict, so one scan serves every scale.
    _bound: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError(f"dataset needs an (n, d) matrix with n, d >= 1, got shape {pts.shape}")
        bits = self.metric.kind.uses_bits
        if bits:
            pts = _as_bits(pts, "bit datasets")
        elif pts.dtype == np.uint8 or pts.dtype.kind == "b":
            raise InvalidInputError(f"{self.metric.kind.value} metric requires real coordinates")
        # A copy, so the caller's array stays writeable and cannot stale the cached bound.
        pts = np.array(pts, dtype=np.uint8 if bits else np.float64, order="C")
        if not bits and not np.isfinite(pts).all():
            raise InvalidInputError("coordinates must be finite (no NaN or infinity)")
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

    def distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances between matching rows of ``a`` and ``b``, which are
        kernel rows of this dataset or queries from ``check_query``. Rows
        broadcast, as in ``pair_distances``."""
        return _kernel(self.metric, a, b, self.dim)

    def rescaled(self, scale: float) -> "Dataset":
        """This dataset under the metric divided by ``scale``. The copy shares
        the checked point matrix, its kernel rows and the cached diameter
        bound."""
        out = copy.copy(self)
        object.__setattr__(out, "metric", self.metric.rescaled(scale))
        return out


class CountingOracle:
    """Counts every distance evaluation routed through it.

    The counter only grows (until reset) and is lock-protected so that
    per-worker batches from concurrent queries accumulate exactly.
    """

    def __init__(self, metric: MetricDescriptor):
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


def counted_distance(oracle: CountingOracle, x, y) -> float:
    value = distance(oracle.metric, x, y)
    oracle.add(1)
    return value


def counted_distances_to(oracle: CountingOracle, x, points: np.ndarray) -> np.ndarray:
    values = distances_to(oracle.metric, x, points)
    oracle.add(points.shape[0])
    return values


def _raw_diameter(ds: Dataset) -> float:
    """The diameter bound of ``ds`` at scale 1: the exact maximum up to
    EXACT_DIAMETER_LIMIT rows, else 2 max_i d(points[0], points[i]), capped
    at 1 for the normalized Hamming metric, which never exceeds it.

    The exact maximum runs over the ball screen's row bands, which also
    hold reversed pairs and each row against itself; neither changes it.
    Hamming, Manhattan and Chebyshev bands are the kernel's values. In a
    Euclidean band g is within half the band of the kernel's square, so a
    pair whose Gram value g lies more than the band below the band's
    largest g is shorter than the pair with that g, and one more than the
    band below the best distance so far squared is shorter than the best;
    the kernel measures the rest. The kernel is symmetric bit for
    bit and works pair by pair, so the maximum equals that of the
    one-row-at-a-time loop."""
    metric = MetricDescriptor(ds.metric.kind)
    if ds.n <= EXACT_DIAMETER_LIMIT:
        best = 0.0
        for i, values, band in _BallScreen(metric, ds.points)._bands():
            if band is not None:
                near = np.flatnonzero(values >= max(float(values.max()), best * best) - band)
                ii, jj = np.divmod(near, values.shape[1])
                values = _kernel(metric, ds.points[i + ii], ds.points[i + 1 + jj], ds.dim)
            best = float(values.max(initial=best))
        return best
    rows = ds.kernel_rows
    bound = 2.0 * float(_kernel(metric, rows[0], rows, ds.dim).max())
    return min(bound, 1.0) if metric.kind.uses_bits else bound


def _nearest_distances(ds: Dataset) -> np.ndarray:
    """Each row's distance to its nearest other row under ``ds.metric``,
    equal to the kernel's minimum bit for bit: 0 for a duplicate row, inf
    for the row of a 1-point dataset.

    One pass over the ball screen's row bands at scale 1 meets every pair,
    and each band updates the best distance of its rows and of its columns.
    A band also meets pairs it has already seen, reversed, which change no
    minimum, and each of its rows itself, which is masked out. Hamming,
    Manhattan and Chebyshev bands are the kernel's values. In a Euclidean
    band g is within half the band of the kernel's square, so a pair whose g
    lies more than the band above the smallest g of its band row, or above
    that row's best distance so far squared, is longer than a pair measured
    for that row, and likewise for its column; the kernel measures every
    pair not ruled out on both sides. The kernel is symmetric bit for bit,
    and dividing by the scale is monotone, so each minimum equals the
    kernel's at the dataset's scale."""
    metric = MetricDescriptor(ds.metric.kind)
    best = np.full(ds.n, np.inf)
    for i, values, band in _BallScreen(metric, ds.points)._bands():
        size, width = values.shape
        # Row k of the band is row i + k, and column k - 1 holds it too.
        values[np.arange(1, size), np.arange(size - 1)] = np.inf
        head, tail = best[i : i + size], best[i + 1 :]
        if band is None:
            np.minimum(head, values.min(axis=1), out=head)
            np.minimum(tail, values.min(axis=0), out=tail)
            continue
        row_limit = np.minimum(values.min(axis=1), head * head) + band
        col_limit = np.minimum(values.min(axis=0), tail * tail) + band
        near = (values <= row_limit[:, None]) | (values <= col_limit)
        ii, jj = np.divmod(np.flatnonzero(near), width)
        measured = _kernel(metric, ds.points[i + ii], ds.points[i + 1 + jj], ds.dim)
        np.minimum.at(head, ii, measured)
        np.minimum.at(tail, jj, measured)
    return best / ds.metric.scale


def diameter_upper_bound(ds: Dataset) -> float:
    """An upper bound on the max pairwise distance; exact for small n.

    Up to EXACT_DIAMETER_LIMIT points the full pairwise scan is performed
    and the true maximum returned. Above that, the triangle-inequality
    bound 2 * max_i d(points[0], points[i]) is used, capped by the
    normalized Hamming metric's own bound 1 / scale. Use
    ``diameter_is_exact`` to report which branch applied.

    The scan runs once per dataset, at scale 1, and is shared with its
    rescaled copies; this divides it by the scale. Division by a positive
    scale is monotone under correct rounding and doubling is exact, so the
    result equals a fresh scan at that scale bit for bit (outside the
    overflow and subnormal ranges).
    """
    if ds.n < 2:
        raise InvalidInputError("diameter bound needs at least 2 points")
    if "raw" not in ds._bound:
        ds._bound["raw"] = _raw_diameter(ds)
    return ds._bound["raw"] / ds.metric.scale


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


def load_dataset(path, metric: MetricDescriptor, seed: int | None = None) -> Dataset:
    """Read a dataset file. The metric is supplied by the caller, never inferred."""
    text = Path(path).read_text()
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = _parse_bit_row(stripped, lineno) if metric.kind.uses_bits else _parse_real_row(stripped, lineno)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InvalidInputError(f"line {lineno}: row has {len(row)} coordinates, expected {width}")
        rows.append(row)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows found")
    dtype = np.uint8 if metric.kind.uses_bits else np.float64
    return Dataset(np.asarray(rows, dtype=dtype), metric, seed)


def format_points(ds: Dataset) -> str:
    """Render points in the ingestion format (no header)."""
    lines = []
    if ds.metric.kind.uses_bits:
        for row in ds.points:
            lines.append("".join("1" if b else "0" for b in row))
    else:
        for row in ds.points:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
