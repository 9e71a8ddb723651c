"""Shared log-log slope fitting for convergence-order estimation."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DegenerateFit, shown


def check_distinct(xs):
    """DegenerateFit unless the 1-D xs hold two distinct values: a fit over
    one x fixes no slope."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0 or np.all(xs == xs[0]):
        raise DegenerateFit(f"log-log fit needs two distinct x values, got {xs.tolist()}")


def _numbers(raw) -> bool:
    """Whether every entry of the array is a number, not text that numpy would
    parse as one; a complex array, which numpy would cast to its real part,
    is none."""
    kind = raw.dtype.kind
    return kind in "biuf" or kind == "O" and all(isinstance(v, numbers.Number) for v in raw.flat)


def lambda_grid(grid, least, what, error, shape_error=None) -> np.ndarray:
    """grid as a float array, checked before any work on it: ``error``
    unless it is 1-D with at least ``least`` finite lambdas > 0 (the log-log
    fits need lambda > 0), ``shape_error`` for the shape instead if given,
    and DegenerateFit unless two lambdas differ (``check_distinct``).  A grid
    that is no array of numbers (text, even text of a number, ragged, an int
    too large for a float) raises ``error``."""
    message = f"{what}: lambda_grid must be at least {least} finite numbers > 0, got "
    try:
        if not _numbers(np.asarray(grid)):
            raise TypeError
        grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(message + shown(grid)) from None
    short = grid.ndim != 1 or len(grid) < least
    if short and shape_error is not None:
        raise shape_error(f"{what}: lambda_grid must be 1-D with at least {least} points, "
                          f"got shape {grid.shape}")
    if short or not np.all(np.isfinite(grid) & (grid > 0)):
        raise error(message + repr(grid.tolist()))
    check_distinct(grid)
    return grid


def loglog_slope(xs, ys, floor: float = 0.0):
    """Least-squares slope of log y against log x, for finite x > 0 and
    finite y, one y per x (else DegenerateFit).

    Values at or below ``floor`` are dropped; if fewer than two points
    survive the fit degenerates and (inf, 0.0) is returned as the sentinel
    for "residuals at machine zero".  Survivors at fewer than two distinct x
    values fix no slope (DegenerateFit).  Returns (slope, max abs log residual).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise DegenerateFit(f"log-log fit needs one y per x, got shapes {xs.shape}, {ys.shape}")
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise DegenerateFit("log-log fit needs finite positive x values")
    if not np.all(np.isfinite(ys)):
        raise DegenerateFit(f"log-log fit needs finite y values, got {ys.tolist()}")
    keep = ys > floor
    if np.count_nonzero(keep) < 2:
        return math.inf, 0.0
    check_distinct(xs[keep])
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    coeffs = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeffs, lx)
    return float(coeffs[0]), float(np.max(np.abs(fit - ly)))


def strict_loglog_slope(xs, ys):
    """Slope fit for tabulated data: needs >= 4 finite positive rows at two
    distinct x values at least, else DegenerateFit.

    Returns (slope, r_squared); a constant y column gives exactly (0.0, 1.0).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4 or len(xs) != len(ys):
        raise DegenerateFit("need at least 4 rows of equal length")
    if not np.all(np.isfinite(xs) & np.isfinite(ys)):
        raise DegenerateFit("log-log fit needs finite values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateFit("log-log fit needs positive values")
    check_distinct(xs)
    if np.allclose(ys, ys[0]):
        return 0.0, 1.0
    lx, ly = np.log(xs), np.log(ys)
    coeffs = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeffs, lx)
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coeffs[0]), r2
