"""Shared log-log slope fitting for convergence-order estimation."""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFit


def loglog_slope(xs, ys, floor: float = 0.0):
    """Least-squares slope of log y against log x, for finite x > 0 (else DegenerateFit).

    Values at or below ``floor`` are dropped; if fewer than two points
    survive the fit degenerates and (inf, 0.0) is returned as the sentinel
    for "residuals at machine zero".  Survivors at fewer than two distinct x
    values fix no slope (DegenerateFit).  Returns (slope, max abs log residual).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise DegenerateFit("log-log fit needs finite positive x values")
    keep = ys > floor
    if np.count_nonzero(keep) < 2:
        return math.inf, 0.0
    if np.all(xs[keep] == xs[keep][0]):
        raise DegenerateFit(f"log-log fit needs two distinct x values, got {xs[keep].tolist()}")
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    coeffs = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeffs, lx)
    return float(coeffs[0]), float(np.max(np.abs(fit - ly)))


def strict_loglog_slope(xs, ys):
    """Slope fit for tabulated data: needs >= 4 positive rows at two distinct
    x values at least, else DegenerateFit.

    Returns (slope, r_squared); a constant y column gives exactly (0.0, 1.0).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4 or len(xs) != len(ys):
        raise DegenerateFit("need at least 4 rows of equal length")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateFit("log-log fit needs positive values")
    if np.all(xs == xs[0]):
        raise DegenerateFit(f"log-log fit needs two distinct x values, got {xs.tolist()}")
    if np.allclose(ys, ys[0]):
        return 0.0, 1.0
    lx, ly = np.log(xs), np.log(ys)
    coeffs = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeffs, lx)
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coeffs[0]), r2
