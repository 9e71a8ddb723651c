"""Discrete measures: weighted point sets in a single global chart.

Integrals against the measure are weighted sums over the support.  Points
that collide under a push-forward are merged; ``TOL_POINT_MERGE`` is the
collision tolerance in chart units.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMeasure, NumericalFailure, ShapeError

TOL_POINT_MERGE = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
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
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.max(np.abs(pts[i] - pts[j])) <= TOL_POINT_MERGE:
                    raise InvalidMeasure(f"support points {i} and {j} coincide within tolerance")

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.weights))

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.points).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        return h.hexdigest()[:16]

    def to_json(self) -> list:
        return [
            {"point": [float(c) for c in p], "weight": float(w)}
            for p, w in zip(self.points, self.weights)
        ]

    @classmethod
    def from_json(cls, data) -> "DiscreteMeasure":
        if isinstance(data, str):
            data = json.loads(data)
        pts = [entry["point"] for entry in data]
        wts = [entry["weight"] for entry in data]
        return cls(np.array(pts, dtype=float), np.array(wts, dtype=float))


def push_forward(measure: DiscreteMeasure, log_weight, shift) -> DiscreteMeasure:
    """Push the measure forward: new points x_i + shift_i, weights w_i * exp(c_i).

    Pushed points that collide within ``TOL_POINT_MERGE`` are merged, adding
    their weights (the first point's coordinates are kept).
    """
    log_weight = np.asarray(log_weight, dtype=float).ravel()
    shift = np.atleast_2d(np.asarray(shift, dtype=float))
    if len(log_weight) != measure.size or shift.shape != measure.points.shape:
        raise ShapeError("log_weight/shift shapes do not match the support")
    with np.errstate(over="raise"):
        try:
            factors = np.exp(log_weight)
        except FloatingPointError as exc:
            raise NumericalFailure("overflow in exp of log-weight field") from exc
    new_pts = measure.points + shift
    new_wts = measure.weights * factors
    if not np.all(np.isfinite(new_pts)) or not np.all(np.isfinite(new_wts)):
        raise NumericalFailure("non-finite push-forward result")

    merged_pts: list[np.ndarray] = []
    merged_wts: list[float] = []
    for p, w in zip(new_pts, new_wts):
        for k, q in enumerate(merged_pts):
            if np.max(np.abs(p - q)) <= TOL_POINT_MERGE:
                merged_wts[k] += w
                break
        else:
            merged_pts.append(p)
            merged_wts.append(float(w))
    return DiscreteMeasure(np.array(merged_pts), np.array(merged_wts))
