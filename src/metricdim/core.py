"""Points, metrics, datasets, the distance kernel and an evaluation-counting oracle.

A dataset is a homogeneous point matrix plus a metric descriptor. Real
vectors are float64 rows; bit vectors are uint8 rows of 0/1 and are the
only representation the normalized Hamming metric accepts. Every search
structure in this package measures its cost in metric evaluations, so the
counting oracle is threaded through all query paths.

Only this module knows how each metric is computed: ``pair_distances`` is
the one unvalidated kernel, and ``all_pair_distances`` beside it adds the
Gram-identity enumeration. Rows are validated when a ``Dataset`` is built
(``load_dataset`` builds one); each public entry point that takes an
outside point validates it once, at entry (``Dataset.check_query``);
internal loops over dataset rows call the kernel directly.

Precision: distances are computed in double precision; the Euclidean
metric is the square root of the sum of squared differences, so
coordinate differences below sqrt of the smallest normal double
(~1.5e-154) underflow and compare as zero. Within that (enormous) working
range the metric axioms hold exactly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
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
        arr = arr.astype(np.uint8, casting="unsafe") if arr.dtype != np.uint8 else arr
        if not np.isin(arr, (0, 1)).all():
            raise InvalidInputError("bit vectors may only contain 0 and 1")
        return arr
    if arr.dtype == np.uint8 or arr.dtype.kind == "b":
        raise InvalidInputError(f"{metric.kind.value} metric requires real coordinates, got a bit vector")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError("coordinates must be finite (no NaN or infinity)")
    return arr


def pair_distances(metric: MetricDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between matching rows of ``a`` and ``b`` (raw value / scale).

    Rows broadcast, so one point against a matrix gives its distance to
    every row. Nothing is validated: callers pass checked points.
    """
    kind = metric.kind
    if kind is MetricKind.EUCLIDEAN:
        diff = a - b
        raw = np.sqrt(np.einsum("...i,...i->...", diff, diff))
    elif kind is MetricKind.MANHATTAN:
        raw = np.abs(a - b).sum(axis=-1)
    elif kind is MetricKind.CHEBYSHEV:
        raw = np.abs(a - b).max(axis=-1)
    else:
        raw = (a != b).sum(axis=-1) / a.shape[-1]
    return raw / metric.scale


def all_pair_distances(metric: MetricDescriptor, points: np.ndarray) -> np.ndarray:
    """Distances of every unordered pair (i, j > i) of rows, in that order.

    Euclidean and Hamming use one Gram matrix product, |x - y|^2 =
    |x|^2 + |y|^2 - 2 x.y; the other metrics scan rows through the kernel.
    """
    n = points.shape[0]
    if metric.kind in (MetricKind.MANHATTAN, MetricKind.CHEBYSHEV):
        return np.concatenate([pair_distances(metric, points[i], points[i + 1 :]) for i in range(n)])
    iu, ju = np.triu_indices(n, k=1)
    if metric.kind is MetricKind.EUCLIDEAN:
        sq = np.einsum("ij,ij->i", points, points)
        gram = points @ points.T
        d2 = sq[iu] + sq[ju] - 2.0 * gram[iu, ju]
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2) / metric.scale
    # Bits: |x XOR y| = |x| + |y| - 2 x.y, exact in float32 for d < 2**24.
    bits = points.astype(np.float32)
    ones = bits.sum(axis=1)
    gram = bits @ bits.T
    diff = ones[iu] + ones[ju] - 2.0 * gram[iu, ju]
    return diff.astype(np.float64) / points.shape[1] / metric.scale


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
    """A point matrix, its metric, and the seed that produced it (if any)."""

    points: np.ndarray
    metric: MetricDescriptor
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError(f"dataset needs an (n, d) matrix with n, d >= 1, got shape {pts.shape}")
        if self.metric.kind.uses_bits:
            if pts.dtype != np.uint8:
                pts = pts.astype(np.uint8)
            if not np.isin(pts, (0, 1)).all():
                raise InvalidInputError("bit datasets may only contain 0 and 1")
        else:
            if pts.dtype == np.uint8 or pts.dtype.kind == "b":
                raise InvalidInputError(f"{self.metric.kind.value} metric requires real coordinates")
            pts = pts.astype(np.float64)
            if not np.isfinite(pts).all():
                raise InvalidInputError("coordinates must be finite (no NaN or infinity)")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def point(self, i: int) -> np.ndarray:
        return self.points[i]

    def check_query(self, q) -> np.ndarray:
        """``q`` validated against this dataset's metric and dimension."""
        return _check_point(self.metric, q, self.dim)

    def rescaled(self, scale: float) -> "Dataset":
        return Dataset(self.points, self.metric.rescaled(scale), self.seed)


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


def _metric_cap(metric: MetricDescriptor) -> float:
    # The normalized Hamming metric never exceeds 1 regardless of the data.
    if metric.kind.uses_bits:
        return 1.0 / metric.scale
    return math.inf


def diameter_upper_bound(ds: Dataset) -> float:
    """An upper bound on the max pairwise distance; exact for small n.

    Up to EXACT_DIAMETER_LIMIT points the full pairwise scan is performed
    and the true maximum returned. Above that, the triangle-inequality
    bound 2 * max_i d(points[0], points[i]) is used, capped by any metric-
    level bound (normalized Hamming distances never exceed 1 / scale).
    Use ``diameter_is_exact`` to report which branch applied.
    """
    if ds.n < 2:
        raise InvalidInputError("diameter bound needs at least 2 points")
    if ds.n <= EXACT_DIAMETER_LIMIT:
        best = 0.0
        for i in range(ds.n - 1):
            row = pair_distances(ds.metric, ds.points[i], ds.points[i + 1 :])
            best = max(best, float(row.max()))
        return best
    radial = pair_distances(ds.metric, ds.points[0], ds.points)
    return min(2.0 * float(radial.max()), _metric_cap(ds.metric))


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
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise InvalidInputError(f"line {lineno}: not a numeric row: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError(f"line {lineno}: coordinates must be finite")
    return values


def _parse_bit_row(line: str, lineno: int) -> list[int]:
    compact = line.replace(",", "").replace(" ", "").replace("\t", "")
    if not compact or any(c not in "01" for c in compact):
        raise InvalidInputError(f"line {lineno}: expected a 0/1 string, got {line.strip()!r}")
    return [int(c) for c in compact]


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
