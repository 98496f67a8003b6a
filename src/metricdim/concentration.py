"""Empirical concentration function, its closed-form bounds on bit cubes,
and the concentration-dimension integral.

The empirical curve watches a family of witness functions f_a = d(a, .)
for seeded anchor points a. Those are 1-Lipschitz, so the fraction of
points on which f_a strays from its median by more than eps is a lower
bound for the worst case over all 1-Lipschitz functions: the reported
curve and the dimension derived from it are a lower bound on alpha and
hence an upper bound on the dimension of the underlying distance-witness
family. The gap to the full Lipschitz class is not quantified here.

Two closed forms on the d-bit cube under the normalized Hamming metric
cover two different curves:

- ``chernoff_alpha``, min(1, exp(-2 * eps^2 * d)), bounds the one-sided
  concentration function alpha of the cube. It is the analytic reference
  ``fig-c`` prints. It does not bound the two-sided witness curve at
  small or odd d: for a 1-Lipschitz f only mu(|f - M| > eps) <=
  2 alpha(eps) holds (Ledoux, "The Concentration of Measure Phenomenon",
  ch. 1).
- ``two_sided_alpha``, min(1, 2 * exp(-2 * d * (eps - 1/(2d))_+^2)),
  bounds the witness curve. A witness d(a, .) on uniform bits is a
  Binomial(d, 1/2) / d variable: Hoeffding bounds its two-sided deviation
  from the mean 1/2, and its median lies within 1/(2d) of that mean.
  ``fig-c --self-test`` holds every curve to it.

Slack used when checking empirical curves against a reference:
3 * sqrt(ln(2 * grid * k) / (2n)) -- a Hoeffding deviation for each of
the grid * k (anchor, eps) cells, union-bounded over cells and doubled
for the two tail sides, at three standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import (
    DEGENERATE,
    Dataset,
    InvalidInputError,
    _check_indices,
    diameter_upper_bound,
)

DEFAULT_GRID_SIZE = 201
_NORMALIZATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConcentrationCurve:
    """alpha values on an increasing eps grid spanning [0, 1]."""

    grid: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2 or alpha.shape != grid.shape:
            raise InvalidInputError("curve needs aligned 1-d grid and alpha arrays of size >= 2")
        if grid[0] != 0.0 or grid[-1] != 1.0 or (np.diff(grid) <= 0).any():
            raise InvalidInputError("eps grid must increase from 0 to 1")
        if (alpha < 0).any() or (alpha > 1).any():
            raise InvalidInputError("alpha values must lie in [0, 1]")
        if (np.diff(alpha) > 1e-12).any():
            raise InvalidInputError("alpha must be nonincreasing along the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "alpha", alpha)


def select_witnesses(ds: Dataset, k: int, seed: int) -> np.ndarray:
    """``k`` distinct seeded anchor indices; a larger ``k`` extends the draw."""
    if not 1 <= k <= ds.n:
        raise InvalidInputError(f"witness count must be in [1, {ds.n}], got {k}")
    return rng.distinct_indices(seed, k, ds.n)


def _check_length(ds: Dataset, length: float) -> None:
    if not (length > 0 and math.isfinite(length)):
        raise InvalidInputError(f"the normalizing length must be a positive finite real, got {length}")
    if ds.n >= 2 and diameter_upper_bound(ds) / length > 1.0 + _NORMALIZATION_TOLERANCE:
        raise InvalidInputError(
            "the normalizing length is below the diameter bound; the distances divided by it must lie in [0, 1]"
        )


def witness_curve(ds: Dataset, anchors, grid_size: int, length: float = 1.0) -> ConcentrationCurve:
    """Evaluate max-over-anchors deviation fractions on a uniform eps grid.

    ``anchors`` is a non-empty 1-d array of integer point indices in
    [0, n), such as ``select_witnesses`` draws; anything else is refused
    with ``InvalidInputError``. For anchor a with values
    f_a = d(a, .) / length over all points and interpolated median m_a,
    the curve at eps is the largest fraction of points with |f_a - m_a|
    strictly greater than eps. ``length`` is the normalizing length, at
    least the diameter bound, so every f_a lies in [0, 1]; normalized
    Hamming distances already do, at the default 1.
    """
    anchors = _check_indices(anchors, ds.n, "the witness anchors")
    if grid_size < 2:
        raise InvalidInputError("grid size must be >= 2")
    _check_length(ds, length)
    grid = np.linspace(0.0, 1.0, grid_size)
    alpha = np.zeros(grid_size)
    for anchor in anchors:
        f = ds.distances(ds.kernel_rows[anchor], ds.kernel_rows)
        f /= length
        median = float(np.quantile(f, 0.5))
        deviations = np.sort(np.abs(f - median))
        exceed = ds.n - np.searchsorted(deviations, grid, side="right")
        np.maximum(alpha, exceed / ds.n, out=alpha)
    return ConcentrationCurve(grid, alpha)


def empirical_concentration(
    ds: Dataset, k: int, grid_size: int = DEFAULT_GRID_SIZE, seed: int = 0, length: float = 1.0
) -> ConcentrationCurve:
    """``witness_curve`` of ``k`` seeded anchors, distances divided by ``length``."""
    return witness_curve(ds, select_witnesses(ds, k, seed), grid_size, length)


def chernoff_alpha(d: int, eps: float) -> float:
    """min(1, exp(-2 * eps^2 * d)); equals 1 at eps = 0."""
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    return min(1.0, math.exp(-2.0 * eps * eps * d))


def two_sided_alpha(d: int, eps: float) -> float:
    """min(1, 2 * exp(-2 * d * (eps - 1/(2d))_+^2)), the witness curve's
    bound on the d-bit cube (see the module docstring)."""
    shifted = max(0.0, eps - 0.5 / d)
    return min(1.0, 2.0 * math.exp(-2.0 * d * shifted * shifted))


def chernoff_curve(d: int, grid_size: int = DEFAULT_GRID_SIZE) -> ConcentrationCurve:
    grid = np.linspace(0.0, 1.0, grid_size)
    alpha = np.minimum(1.0, np.exp(-2.0 * d * grid * grid))
    return ConcentrationCurve(grid, alpha)


def union_bound_slack(n: int, k: int, grid_size: int) -> float:
    """Sampling slack for comparing an empirical curve against a bound."""
    return 3.0 * math.sqrt(math.log(2.0 * grid_size * k) / (2.0 * n))


def concentration_dimension(curve: ConcentrationCurve):
    """1 / (2 * integral of alpha)^2 by trapezoidal quadrature on the grid.

    DEGENERATE when the integral vanishes (curve identically ~0).
    """
    integral = float(np.trapezoid(curve.alpha, curve.grid))
    if integral == 0.0:
        return DEGENERATE
    return 1.0 / (2.0 * integral) ** 2
