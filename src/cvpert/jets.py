"""Jets and dual jets on the support of a discrete measure.

A jet assigns to every support point a scalar (weight change) and a vector
(point displacement).  A dual jet assigns a scalar and a covector; the
pairing is pointwise.  Both name their parts ``scalar`` and ``vector`` and
share one implementation, which rejects non-finite entries and sums of
another kind or shape.  Flattened vectors use point-major layout: for point
i the block [scalar, vector_1 .. vector_m].  The jets of a
``measure.SupportStack`` carry its leading axis, with one norm per start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class _PointPairs:
    """Per-point pair (scalar s_i, vector v_i in R^m): what jets and dual jets share."""

    scalar: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.atleast_2d(np.asarray(self.vector, dtype=float))
        self.scalar = np.asarray(self.scalar, dtype=float)
        if self.scalar.size != math.prod(self.vector.shape[:-1]):
            raise ShapeError("scalar and vector parts must have equal length")
        self.scalar = self.scalar.reshape(self.vector.shape[:-1])
        if (np.count_nonzero(np.isfinite(self.scalar)) < self.scalar.size  # cheaper than .all()
                or np.count_nonzero(np.isfinite(self.vector)) < self.vector.size):
            raise ShapeError(f"non-finite {type(self).__name__} entries")

    @classmethod
    def zero(cls, n_points: int, dim: int):
        return cls(np.zeros(n_points), np.zeros((n_points, dim)))

    @property
    def size(self) -> int:
        return self.vector.shape[-2]

    @property
    def dimension(self) -> int:
        return self.vector.shape[-1]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.scalar[..., None], self.vector], axis=-1).reshape(
            self.scalar.shape[:-1] + (-1,))

    @classmethod
    def unflatten(cls, vec, dim: int):
        vec = np.asarray(vec, dtype=float)
        arr = vec.reshape(vec.shape[:-1] + (-1, 1 + dim))
        return cls(arr[..., 0].copy(), arr[..., 1:].copy())

    def norm(self):
        """Sup norm over the support (max of |s_i| and |v_i| entries; 0 if empty)."""
        top = np.maximum(np.max(np.abs(self.scalar), axis=-1, initial=0.0),
                         np.max(np.abs(self.vector), axis=(-2, -1), initial=0.0))
        return float(top) if top.ndim == 0 else top

    def _like(self, other):
        if type(other) is not type(self) or other.vector.shape != self.vector.shape:
            raise ShapeError(f"a {type(self).__name__} combined with another kind or shape")
        return other

    def __add__(self, other):
        return type(self)(self.scalar + self._like(other).scalar, self.vector + other.vector)

    def __sub__(self, other):
        return type(self)(self.scalar - self._like(other).scalar, self.vector - other.vector)

    def __mul__(self, factor: float):
        return type(self)(self.scalar * factor, self.vector * factor)

    __rmul__ = __mul__


class Jet(_PointPairs):
    """Per-point pair (scalar a_i, vector u_i): the variation of a weight and a point."""


class DualJet(_PointPairs):
    """Per-point pair (scalar g_i, covector phi_i); pairs pointwise with jets."""


def check_on_support(jets, n_points: int, dim: int, what: str = "jet") -> None:
    """ShapeError unless every jet or dual jet has one entry per point of a
    support of ``n_points`` points, with vectors of dimension ``dim``."""
    for w in jets:
        if w.size != n_points or w.dimension != dim:
            raise ShapeError(f"{what} shapes do not fit {n_points} points in dimension {dim}")


def pairing(dual: DualJet, jet: Jet) -> np.ndarray:
    """Pointwise dual pairing g_i a_i + phi_i . u_i."""
    if dual.vector.shape != jet.vector.shape:
        raise ShapeError("dual jet and jet shapes do not match")
    return dual.scalar * jet.scalar + np.einsum("ij,ij->i", dual.vector, jet.vector)


class TestBasis:
    """A list of jets spanning the test space.

    ``full_space`` marks the canonical basis of the whole jet space; the
    scalar component is then nowhere trivial, mirroring the requirement that
    test jets can scale the weight at every point.
    """

    def __init__(self, jets: list[Jet], full_space: bool = False):
        if not jets:
            raise ShapeError("test basis needs at least one jet")
        check_on_support(jets, jets[0].size, jets[0].dimension, "test basis")
        flat = np.array([jet.flatten() for jet in jets])
        gram = flat @ flat.T
        if np.linalg.matrix_rank(gram, tol=1e-12 * max(1.0, np.max(np.abs(gram)))) < len(jets):
            raise ShapeError("test basis jets are linearly dependent")
        if full_space:
            scal = np.array([j.scalar for j in jets])
            if np.any(np.max(np.abs(scal), axis=0) == 0.0):
                raise ShapeError("full test space must have a nonzero scalar at every point")
        self.jets = jets
        self.full_space = full_space

    @classmethod
    def full(cls, n_points: int, dim: int) -> "TestBasis":
        """The unit jets, in the point-major order of ``flatten``."""
        return cls([Jet.unflatten(row, dim) for row in np.eye(n_points * (1 + dim))],
                   full_space=True)

    def __len__(self) -> int:
        return len(self.jets)


@dataclass
class MultiJet:
    """Subsystem-indexed jet: one Jet per subsystem index a = 1..L."""

    jets: list

    def __post_init__(self):
        if not self.jets:
            raise ShapeError("multi-jet needs at least one subsystem")
        check_on_support(self.jets, self.size, self.dimension, "subsystem jet")

    @property
    def n_subsystems(self) -> int:
        return len(self.jets)

    @property
    def size(self) -> int:
        return self.jets[0].size

    @property
    def dimension(self) -> int:
        return self.jets[0].dimension

    @classmethod
    def zero(cls, n_subsystems: int, n_points: int, dim: int) -> "MultiJet":
        return cls([Jet.zero(n_points, dim) for _ in range(n_subsystems)])

    def flatten(self) -> np.ndarray:
        return np.concatenate([j.flatten() for j in self.jets])

    @classmethod
    def unflatten(cls, vec, n_subsystems: int, dim: int) -> "MultiJet":
        parts = np.split(np.asarray(vec, dtype=float), n_subsystems)
        return cls([Jet.unflatten(p, dim) for p in parts])

    def norm(self) -> float:
        return max(j.norm() for j in self.jets)

    def __add__(self, other: "MultiJet") -> "MultiJet":
        if other.n_subsystems != self.n_subsystems:
            raise ShapeError("multi-jets of different subsystem counts")
        return MultiJet([a + b for a, b in zip(self.jets, other.jets)])

    def __mul__(self, factor: float) -> "MultiJet":
        return MultiJet([j * factor for j in self.jets])

    __rmul__ = __mul__
