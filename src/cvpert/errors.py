"""Exception types shared across the package, the two scalar input checks
every layer shares, each taking the class to raise from its caller
(``ConfigError`` for configs, ``ArgError`` or ``ShapeError`` for the API),
the one way a rejected value is shown (``shown``), and the one overflow
guard."""

import math
import numbers
from contextlib import contextmanager

import numpy as np


class CvpError(Exception):
    """Base class for all package errors."""


class NumericalFailure(CvpError):
    """A numerical evaluation produced a non-finite or unusable result."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotCritical(CvpError):
    """The measure does not satisfy the Euler-Lagrange conditions within tolerance."""

    def __init__(self, deviation, message=None):
        super().__init__(message or f"measure not critical, deviation {deviation:.3e}")
        self.deviation = deviation


class ShapeError(CvpError, ValueError):
    """Mismatched array lengths or dimensions."""


class OrderUnsupported(CvpError):
    """A derivative of higher order than the model provides was requested."""


class ArgError(CvpError):
    """Invalid argument combination."""


class OutOfRange(CvpError):
    """A dual jet has a component outside the range of the linearized operator.

    ``order`` is the expansion order whose solve failed, when known.
    """

    def __init__(self, residual, message=None, order=None):
        super().__init__(message or f"dual jet outside operator range, residual {residual:.3e}")
        self.residual = residual
        self.order = order


class NotLinearized(CvpError):
    """The supplied jet is not a solution of the linearized field equations."""


class LedgerMissing(CvpError):
    """The series was built without ledger retention."""


class DegenerateFit(CvpError):
    """Slope fit input is degenerate (too few rows or non-positive values)."""


class NotWellPosed(CvpError):
    """Fragmentation ansatz failed the well-posedness check."""


class InconclusiveFit(CvpError):
    """Log-log fit residual too large to decide well-posedness."""


class VanishingLocalTrace(CvpError):
    """tr(psi* psi) vanishes, the local correlation map is undefined."""


class SingularChart(CvpError):
    """The restricted differential of the correlation map is rank deficient."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NotUnitary(CvpError):
    """Matrix fails the unitarity check."""


class NotOnMinimalStratum(CvpError):
    """|(Uv)^a| != 1 for some subsystem, decomposition undefined."""


class InvalidMeasure(CvpError, ValueError):
    """Measure data break the support conditions: a non-positive weight or
    coincident points."""


class ConfigError(CvpError):
    """Scenario configuration is invalid."""


class UnknownModel(ConfigError, KeyError):
    """No Lagrangian model is registered under the configured name."""

    __str__ = Exception.__str__  # the message as given, not KeyError's repr of it


def integer(value, least, what, error):
    """value as an int; ``error`` unless it is an integer >= least: a
    ``numbers.Integral`` that is not a bool (2.0 and True are none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {shown(value)}")
    return int(value)


def finite_real(value, what, error):
    """value as a float; ``error`` unless it is a finite real number (a bool is
    none, nor is an integer too large for a float)."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise error(f"{what} must be a finite number, got {shown(value)}")
    return float(value)


def shown(value) -> str:
    """repr(value), or the digit count of an int too long for Python to print."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} integer of about {int(math.log10(abs(value))) + 1} digits"
        return f"a {type(value).__name__} holding an integer too long to print"


@contextmanager
def overflow_fails(what: str):
    """Turn an overflow in the block (or the decorated call) into NumericalFailure."""
    with np.errstate(over="raise"):
        try:
            yield
        except (FloatingPointError, OverflowError) as exc:  # numpy's, Python's float **
            raise NumericalFailure(f"overflow in {what}") from exc
