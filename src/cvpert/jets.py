"""Jets and dual jets on the support of a discrete measure.

A jet assigns to every support point a scalar (weight change) and a vector
(point displacement).  A dual jet assigns a scalar and a covector; the
pairing is pointwise.  Both name their parts ``scalar`` and ``vector`` and
share one implementation, which rejects non-finite entries and sums of
another kind or shape.  Flattened vectors use point-major layout: for point
i the block [scalar, vector_1 .. vector_m].  The jets of a
``measure.SupportStack`` carry its leading axis, with one norm per start.
A multi-jet is a jet with a leading subsystem axis: it shares the sums,
differences and checks, flattens subsystem major into one vector, has one
norm over all subsystems, and its ``jets`` are views of its parts.
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
        if vec.ndim == 0 or vec.shape[-1] % (1 + dim):
            raise ShapeError(f"a flat vector of shape {vec.shape} is no whole number of "
                             f"{1 + dim}-slot points")
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


class MultiJet(_PointPairs):
    """Subsystem-indexed jet: a jet whose parts carry a leading subsystem axis
    a = 1..L, scalar (L, N) and vector (L, N, m).  Built from its two parts
    or from a list of one Jet per subsystem."""

    def __init__(self, scalar, vector=None):
        if vector is None:
            if not isinstance(scalar, (list, tuple)) or not all(
                    isinstance(j, Jet) for j in scalar):
                raise ShapeError("a multi-jet takes its two parts or a list of Jets, "
                                 f"not one {type(scalar).__name__}")
            if not scalar:
                raise ShapeError("multi-jet needs at least one subsystem")
            check_on_support(scalar, scalar[0].size, scalar[0].dimension, "subsystem jet")
            scalar, vector = [j.scalar for j in scalar], [j.vector for j in scalar]
        super().__init__(scalar, vector)

    def __post_init__(self):
        super().__post_init__()
        if self.vector.ndim != 3 or not len(self.vector):
            raise ShapeError(f"multi-jet parts of shape {self.vector.shape} carry no "
                             f"leading subsystem axis")

    @property
    def n_subsystems(self) -> int:
        return len(self.vector)

    @property
    def jets(self) -> list:
        """One Jet per subsystem, each a view of the parts."""
        return [Jet(s, v) for s, v in zip(self.scalar, self.vector)]

    @classmethod
    def zero(cls, n_subsystems: int, n_points: int, dim: int) -> "MultiJet":
        return cls(np.zeros((n_subsystems, n_points)), np.zeros((n_subsystems, n_points, dim)))

    def flatten(self) -> np.ndarray:
        """Subsystem major: the subsystem jets' ``flatten`` one after another."""
        return super().flatten().ravel()

    @classmethod
    def unflatten(cls, vec, n_subsystems: int, dim: int) -> "MultiJet":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or n_subsystems < 1 or len(vec) % n_subsystems:
            raise ShapeError(f"a flat vector of shape {vec.shape} splits into no "
                             f"{n_subsystems} equal subsystems")
        return super().unflatten(vec.reshape(n_subsystems, -1), dim)

    def norm(self) -> float:
        return float(np.max(super().norm()))


def check_multi(jets, what: str = "multi-jet") -> None:
    """ShapeError unless every entry is a MultiJet."""
    for w in jets:
        if not isinstance(w, MultiJet):
            raise ShapeError(f"{what} is a {type(w).__name__}, not a MultiJet")
