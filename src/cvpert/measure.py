"""Discrete measures: weighted point sets in a single global chart.

Integrals against the measure are weighted sums over the support.  Points
within ``TOL_POINT_MERGE`` (max norm, chart units) are close; a support has
no close pair.  ``merge_close`` merges each chain of close points (a~b, b~c,
a not~ c) into its lowest-index point, whatever the input order: at the
fixed point of its min-label propagation every chain is labelled by that
point, the one point that labels itself.  The search for close pairs sorts
by a projection on a fixed generic direction (``close_pairs``) and orders
the pairs it finds by the same stable argsort, on their flat index.  A
``SupportStack`` holds measures of one support size on a leading axis;
``push`` returns its pushed starts stacked by size and merges only those
whose keys fail the search's first test.  A pair reader (``pair_reader``)
reads the pair tables of a model and its partials on a support, a list of
partials at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidMeasure, NumericalFailure, ShapeError, overflow_fails
from .lagrangian import check_points, pair_table, pair_tables
from .series import basis_values

TOL_POINT_MERGE = 1e-9
_EPS = float(np.finfo(float).eps)


@cache
def _sort_direction(m: int) -> np.ndarray:
    """The square roots of the first m primes: linearly independent over the
    rationals, so distinct points of a lattice in any m coordinates project
    to distinct keys."""
    primes: list = []
    k = 2
    while len(primes) < m:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return np.sqrt(primes)


def _keys(points) -> tuple:
    """Keys p . u (..., n) of points (..., n, m) on the direction u, and the
    reach (...) that holds the keys of close points: twice tol |u|_1, plus a
    bound on their rounding, (m + 1) eps |p| . u <= (m + 1) eps max|p| |u|_1."""
    u = _sort_direction(points.shape[-1])
    rounding = 4 * (len(u) + 1) * _EPS * np.abs(points).max(axis=(-2, -1))
    return (points * u).sum(axis=-1), u.sum() * (2 * TOL_POINT_MERGE + rounding)


def close_pairs(points) -> np.ndarray:
    """Lexicographically sorted index pairs (i, j), i < j, of close points.

    Sorts by the projection keys on a fixed generic direction (``_keys``),
    so a lattice support, whose coordinates each take few values, still
    spreads out; ``searchsorted`` finds each window of one reach, then
    candidates are checked on all axes, so no close pair is dropped at any
    coordinate size.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return np.empty((0, 2), dtype=np.intp)
    keys, reach = _keys(pts)
    order = np.argsort(keys, kind="stable")
    key, pos = keys[order], np.arange(len(pts))
    width = np.searchsorted(key, key + reach, side="right") - pos
    found = [np.empty((0, 2), dtype=np.intp)]
    if width.max() < 2:  # no window holds a second point
        return found[0]
    for k in range(1, int(width.max())):  # candidates k places apart in sorted order
        s = pos[width > k]
        a, b = order[s], order[s + k]
        i, j = np.minimum(a, b), np.maximum(a, b)
        near = np.max(np.abs(pts[i] - pts[j]), axis=1) <= TOL_POINT_MERGE
        found.append(np.stack([i[near], j[near]], axis=1))
    pairs = np.concatenate(found)
    # each pair is found once, so one stable sort of i n + j orders them as (i, j)
    return pairs[np.argsort(pairs[:, 0] * len(pts) + pairs[:, 1], kind="stable")]


def merge_close(points, weights) -> tuple:
    """Merge each connected component of the close-pair graph into its
    lowest-index point (coordinates kept, weights summed); the kept points
    stay in input order, so an input without close pairs comes back unchanged.

    Min-label propagation stops at its fixed point, where every component
    carries the label of its lowest index and that index labels itself:
    the kept rows are the fixed points of the labelling, and a point's
    cluster is the rank of its label among them."""
    points = np.asarray(points, dtype=float)
    pairs = close_pairs(points)
    if not len(pairs):
        return points, np.asarray(weights, dtype=float)
    i, j = pairs.T
    label = np.arange(len(points))
    while True:  # min-label propagation with pointer jumping
        low = label.copy()
        np.minimum.at(low, j, label[i])
        np.minimum.at(low, i, label[j])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    kept = np.flatnonzero(label == np.arange(len(points)))
    return points[kept], np.bincount(kept.searchsorted(label), weights=weights,
                                     minlength=len(kept))


def pair_reader(lagrangian, points):
    """Reader table(alpha, beta) of T[i, j] = d^alpha_x d^beta_y L(p_i, p_j)
    over the rows p of ``points`` (..., n, m), one table per leading index,
    each table computed on first read, by ``pair_table``.
    ``table.tables(partials)`` reads a list of partials (alpha, beta), one
    table per partial in the order given, all new ones in one
    ``pair_tables``.  A model that takes series evaluates its basis on the
    points once, on the first read of a partial of order >= 1, and gathers
    the partials of each read from those values; order 0 comes from the
    factored form."""
    check_points(lagrangian, points)
    read = {}

    @cache
    def values():
        with np.errstate(all="ignore"):
            V = basis_values(lagrangian.basis, points[..., None])
        return V, V

    def tables(partials) -> list:
        new = [p for p in partials if p not in read]
        if new:
            read.update(zip(new, pair_tables(lagrangian, points, points, new, values)))
        return [read[p] for p in partials]

    def table(alpha, beta):
        key = alpha, beta
        if key not in read:
            read[key] = pair_table(lagrangian, points, points, alpha, beta, values)
        return read[key]

    table.tables = tables
    return table


class _Support:
    """Pair tables, size N and dimension m of ``points`` (..., N, m)."""

    def pair_tables(self, lagrangian):
        """Reader table(alpha, beta) of T[i, j] = d^alpha_x d^beta_y L(x_i, x_j)
        on the support (``pair_reader``), one per model, kept with the
        measure: each partial is read once, and a polynomial evaluates its
        basis on the support once."""
        if lagrangian not in self._tables:
            self._tables[lagrangian] = pair_reader(lagrangian, self.points)
        return self._tables[lagrangian]

    @property
    def size(self) -> int:
        return self.weights.shape[-1]

    @property
    def dimension(self) -> int:
        return self.points.shape[-1]


@dataclass(frozen=True)
class DiscreteMeasure(_Support):
    """Positive measure with finite support: points (N, m) and weights (N,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ShapeError("points must be an (N, m) array with m >= 1")
        if len(wts) != len(pts):
            raise ShapeError("points and weights must have equal length")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(wts)):
            raise NumericalFailure("non-finite entries in measure data")
        if np.any(wts <= 0):
            raise InvalidMeasure("weights must be strictly positive")
        pairs = () if getattr(self, "_merged", False) else close_pairs(pts)
        if len(pairs):
            i, j = pairs[0]
            raise InvalidMeasure(f"support points {i} and {j} coincide within tolerance")
        object.__setattr__(self, "_tables", {})

    @classmethod
    def merged(cls, points, weights) -> "DiscreteMeasure":
        """The measure of ``merge_close(points, weights)``, built by the
        constructor with every check but the close-pair search, which the
        merge has made: its result has no close pair."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "_merged", True)
        measure.__init__(*merge_close(points, weights))
        return measure

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.weights))

    def to_json(self) -> list:
        return [{"point": [float(c) for c in p], "weight": float(w)}
                for p, w in zip(self.points, self.weights)]

    @classmethod
    def from_json(cls, data) -> "DiscreteMeasure":
        try:
            if isinstance(data, str):
                data = json.loads(data)  # JSONDecodeError is a ValueError
            pts = np.array([entry["point"] for entry in data], dtype=float)
            wts = np.array([entry["weight"] for entry in data], dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ShapeError(f"a measure document is a list of {{point, weight}} entries: "
                             f"{err!r}") from None
        return cls(pts, wts)


@dataclass(frozen=True)
class SupportStack(_Support):
    """G measures of one support size N on a leading axis, points (G, N, m)
    and weights (G, N), each start the data of a DiscreteMeasure.  The
    kernels that take a measure take a stack too, with one result per start,
    bit for bit as for the start alone."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_tables", {})

    def push(self, log_weight, shift) -> list:
        """``push_forward`` of every start as (indices, stack) per support size,
        in order of first appearance, the indices in C order of the leading
        axes of log-weights (..., N) and shifts (..., N, m).  Only a start
        with two sorted keys within its reach (``close_pairs``' own test) is
        merged by ``DiscreteMeasure.merged``; the others keep their rows."""
        pts, wts = _pushed(self.points, self.weights, log_weight, shift)
        n = pts.shape[-2]
        pts, wts = pts.reshape(-1, *pts.shape[-2:]), wts.reshape(-1, n)
        keys, reach = _keys(pts)
        # sorted as close_pairs sorts: a first quicksort maps 0.2 MB more of numpy's code
        keys = np.take_along_axis(keys, np.argsort(keys, kind="stable"), -1)
        flagged = np.any(keys[:, 1:] <= keys[:, :-1] + reach[:, None], axis=-1)
        if np.any(wts[~flagged] <= 0):
            raise InvalidMeasure("weights must be strictly positive")
        merged = {g: DiscreteMeasure.merged(pts[g], wts[g]) for g in flagged.nonzero()[0].tolist()}
        size = np.array([merged[g].size if g in merged else n for g in range(len(pts))])
        groups = []
        for s in dict.fromkeys(size.tolist()):
            idx = np.flatnonzero(size == s)
            rows = (pts[idx], wts[idx]) if s == n else map(np.stack, zip(*(
                (merged[g].points, merged[g].weights) for g in idx)))  # the merged starts' rows
            groups.append((idx, SupportStack(*rows)))
        return groups


def _pushed(points, weights, log_weight, shift) -> tuple:
    """(points + shift, weights * exp(log_weight)), checked for shape and finiteness."""
    log_weight, shift = np.asarray(log_weight, dtype=float), np.asarray(shift, dtype=float)
    if log_weight.shape + points.shape[-1:] != shift.shape or shift.shape[-2:] != points.shape[-2:]:
        raise ShapeError("log-weights (..., N) and shifts (..., N, m) do not match the support")
    with overflow_fails("exp of log-weight field"):
        factors = np.exp(log_weight)
    pushed = points + shift, weights * factors
    if not all(np.all(np.isfinite(a)) for a in pushed):
        raise NumericalFailure("non-finite push-forward result")
    return pushed


def push_forward(measure: DiscreteMeasure, log_weight, shift) -> DiscreteMeasure:
    """Push the measure forward: new points x_i + shift_i, weights w_i * exp(c_i).

    Colliding points are merged by ``merge_close``: a chain of close points
    becomes its lowest-index point, whose coordinates are kept, with the summed
    weight.  A weight that underflows to 0 and merges with nothing is invalid.
    """
    log_weight = np.asarray(log_weight, dtype=float).ravel()
    shift = np.atleast_2d(np.asarray(shift, dtype=float))
    return DiscreteMeasure.merged(*_pushed(measure.points, measure.weights, log_weight, shift))
