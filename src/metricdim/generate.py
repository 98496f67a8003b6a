"""Seeded synthetic workloads: uniform cube, standard Gaussian, Hamming cube.

Generation is a pure function of its GeneratorSpec. Point i draws from
substream i of the seed (see rng), and normal coordinates use a fixed
Box-Muller transform, so identical GeneratorSpecs produce identical
datasets bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import rng
from .core import Dataset, InvalidInputError, MetricKind


class Family(Enum):
    UNIFORM_CUBE = "uniform-cube"
    GAUSSIAN = "gaussian"
    HAMMING_UNIFORM = "hamming"


@dataclass(frozen=True)
class GeneratorSpec:
    family: Family
    dim: int
    count: int
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"dimension must be >= 1, got {self.dim}")
        if self.count < 1:
            raise InvalidInputError(f"point count must be >= 1, got {self.count}")


def generate(spec: GeneratorSpec) -> Dataset:
    """Materialize the dataset described by ``spec``."""
    if spec.family is Family.UNIFORM_CUBE:
        points = rng.matrix_uniform01(spec.seed, spec.count, spec.dim)
        metric = MetricKind.EUCLIDEAN
    elif spec.family is Family.GAUSSIAN:
        points = rng.matrix_normals(spec.seed, spec.count, spec.dim)
        metric = MetricKind.EUCLIDEAN
    else:
        points = rng.matrix_bits(spec.seed, spec.count, spec.dim)
        metric = MetricKind.HAMMING
    return Dataset(points, metric, seed=spec.seed)
