"""Two-point Lagrangians with a partial-derivative provider.

Three backends are supplied:

* polynomials held as a monomial table, an exponent matrix E (T x 2m, the
  x slots then the y slots) and coefficients c.  The partial
  d^alpha_x d^beta_y is E shifted by (alpha, beta), its coefficients times
  falling factorials.  Every shifted x or y exponent lies in one monomial
  basis U per model (``basis``: each exponent vector below a term's,
  indexed by mixed-radix codes), so a partial is stored as rows into U
  with its coefficients.  The basis is evaluated once per point set,
  V = basis_values(U, X) on plain or on truncated-series coordinates
  (``series``), and each table over all pairs of points is the gathered
  sum (V[ix] c)^T V[iy], never a dense product with U; the partials of a
  list that share a term count are gathered by one contraction
  (``gathered_sums``), planned on the list's first read and kept with the
  table (``_plans``), and a partial without terms is zero.  The built-in
  models build their tables in numpy, once per process and parameter set:
  each ``build_lagrangian`` call returns a new model that shares the
  read-only table and its plans and keeps its own ``_cache``.  A sympy
  polynomial is converted once;
* any other sympy expression, whose partials are differentiated and
  lambdified, each compiled once per model;
* central finite differences with one Richardson step, used as the
  cross-validation oracle and as the only backend for charted models whose
  evaluator is a black box.

sympy is imported on first use, never with this module: the module
attribute ``sp`` is resolved by the module ``__getattr__`` (PEP 562), and
every sympy call here reads it through ``_sympy()`` at call time, so a
stand-in assigned to ``lagrangian.sp`` sees every call.

Partial derivatives are addressed by a pair of multi-indices (alpha on the
x slot, beta on the y slot); derivatives commute, and jets passed to the
higher operators are never differentiated.
"""

from __future__ import annotations

import copy
import functools
import math
import sys

import numpy as np

from .errors import (ArgError, ConfigError, NumericalFailure, OrderUnsupported, ShapeError,
                     UnknownModel, finite_real, integer, shown)
from .series import TruncatedSeries, _Arithmetic, basis_values, cauchy_matmul, lower_set


def __getattr__(name):
    # ``sp`` is sympy, imported on first access
    if name == "sp":
        global sp
        import sympy as sp

        return sp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sympy():
    """sympy as the module attribute ``sp``, read at call time."""
    return sys.modules[__name__].sp


def _multi_indices(lag, alpha, beta) -> tuple:
    """(alpha, beta) as tuples, after checking that they are multi-indices of
    the model's dimension whose total order the model provides."""
    alpha, beta = tuple(map(int, alpha)), tuple(map(int, beta))
    if len(alpha) != lag.dim or len(beta) != lag.dim or min(alpha + beta, default=0) < 0:
        raise ShapeError(f"bad multi-indices {alpha}, {beta} for dimension {lag.dim}")
    if sum(alpha) + sum(beta) > lag.max_order:
        raise OrderUnsupported(f"{lag.name}: order {sum(alpha) + sum(beta)} exceeds "
                               f"max_order {lag.max_order}")
    return alpha, beta


def check_points(lag, *points, series=False):
    """ShapeError unless every point array (..., n, m), or (..., n, m, K) for
    ``series``, has the model's dimension m and the leading axes (...) of the
    first."""
    axis = -2 if series else -1
    for P in points:
        if P.ndim < 1 - axis or P.shape[axis] != lag.dim:
            raise ShapeError(f"{lag.name}: points of shape {P.shape} for dimension {lag.dim}")
        if P.shape[:axis - 1] != points[0].shape[:axis - 1]:
            raise ShapeError(f"{lag.name}: points of shapes {points[0].shape} and {P.shape} "
                             "have unequal leading axes")


class LagrangianModel:
    """Symmetric two-point function with derivatives up to ``max_order``."""

    def __init__(self, name: str, dim: int, max_order: int = 8, nonnegative: bool = False):
        self.name = name
        self.dim = dim
        self.max_order = max_order
        self.nonnegative = nonnegative

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def partial(self, x, y, alpha, beta) -> float:
        """Mixed partial d^|alpha|_x d^|beta|_y L(x, y)."""
        raise NotImplementedError


def _compiled_partial(expr, xs, ys, alpha, beta):
    """d^alpha_x d^beta_y expr, differentiated and lambdified over (xs, ys)."""
    sympy = _sympy()
    e = expr
    for sym, k in zip(xs + ys, alpha + beta):
        if k:
            e = sympy.diff(e, sym, k)
    return sympy.lambdify(xs + ys, e, "numpy")


def _combined(exponents, coefs):
    """The table with equal monomials summed in input order, zero terms dropped."""
    exponents, sums = np.asarray(exponents, dtype=int), {}
    for row, c in zip(map(tuple, exponents.tolist()), np.asarray(coefs, dtype=float).tolist()):
        sums[row] = sums.get(row, 0.0) + c
    rows = sorted(row for row, c in sums.items() if c != 0.0)
    return (np.array(rows, dtype=int).reshape(len(rows), exponents.shape[1]),
            np.array([sums[row] for row in rows], dtype=float))


def _falling_factorials(top):
    """F[e, k] = e! / (e - k)!, zero for k > e, for e, k <= top."""
    return np.array([[math.perm(e, k) for k in range(top + 1)] for e in range(top + 1)],
                    dtype=float)


class PolynomialLagrangian(LagrangianModel):
    """Lagrangian given by a sympy expression in x0..x{m-1}, y0..y{m-1}, or
    by a numpy formula (``from_formula``).

    Values (order 0) come from the factored form: the compiled expression of
    a model given as one, the numpy formula of a built-in.  Expanded into
    monomials, a value near x = y loses the cancellation of its factors, so
    the factored form keeps the rounding that finite differences and sums of
    values rely on.  A polynomial takes every partial of order >= 1, and
    every truncated series, from its table: the shifted table with its
    falling-factorial coefficients, held as the rows of its x and y
    monomials in ``basis`` (U x m: every exponent vector below a term's x or
    y exponents, sorted by mixed-radix code).  A list of partials reads their
    terms and groups by term count from ``_plans``, made with the table and
    shared with it, one partial from ``_cache``, which records every partial
    read.  A non-polynomial expression compiles each partial through
    ``_compiled_partial`` into ``_cache``; ``is_polynomial`` is then False
    and it takes no series.
    """

    def __init__(self, name, dim, expr, xs, ys, max_order=8, nonnegative=False):
        super().__init__(name, dim, max_order, nonnegative)
        self._symbolic = (expr, tuple(xs), tuple(ys))
        self._value_fn = None  # compiled on first use
        self._cache = {}
        self.is_polynomial = bool(expr.is_polynomial(*xs, *ys))
        if self.is_polynomial:
            terms = _sympy().Poly(expr, *xs, *ys).terms()
            exponents = np.array([e for e, _ in terms], dtype=int).reshape(len(terms), 2 * dim)
            self._set_table(exponents, [float(c) for _, c in terms])

    @classmethod
    def from_formula(cls, name, dim, value, nonnegative=False):
        """L given by ``value(x0, .., x{m-1}, y0, .., y{m-1})``, a formula in
        +, -, * and non-negative integer powers evaluated elementwise on
        broadcast coordinates, or a constant.  Its monomial table is the same
        formula run on the coordinate monomials, without sympy; any other
        formula raises ArgError."""
        lag = cls.__new__(cls)
        LagrangianModel.__init__(lag, name, dim, nonnegative=nonnegative)
        lag._symbolic = None  # written from the table on first use
        lag._value_fn = value
        lag._cache = {}
        lag.is_polynomial = True
        try:
            expansion = value(*_Expansion.variables(2 * dim))
        except (TypeError, ValueError, OverflowError) as err:  # ** nan, ** inf
            raise ArgError(f"{name}: the formula is no polynomial: {err}") from None
        if not isinstance(expansion, _Expansion):  # a constant
            expansion = _Expansion(np.zeros((1, 2 * dim), dtype=int),
                                   [finite_real(expansion, f"{name}: the value", ArgError)])
        lag._set_table(expansion.exponents, expansion.coefs)
        return lag

    def _set_table(self, exponents, coefs):
        self._exponents, self._coefs = _combined(exponents, coefs)
        self._falling = _falling_factorials(int(self._exponents.max(initial=0)))
        self.basis, self._place, self._codes = lower_set(self._exponents.reshape(-1, self.dim))
        self._plans = {}, {}  # each partial's terms; each list's (groups, terms)

    def _symbols(self):
        """(expr, xs, ys) of the model."""
        if self._symbolic is None:
            sympy = _sympy()
            xs = sympy.symbols(f"x0:{self.dim}", real=True)
            ys = sympy.symbols(f"y0:{self.dim}", real=True)
            expr = sympy.Add(*(sympy.Rational(c) * sympy.Mul(*map(pow, xs + ys, row))
                               for row, c in zip(self._exponents.tolist(), self._coefs.tolist())))
            self._symbolic = (expr, xs, ys)
        return self._symbolic

    @property
    def expr(self):
        return self._symbols()[0]

    @property
    def _xs(self):
        return self._symbols()[1]

    @property
    def _ys(self):
        return self._symbols()[2]

    def _values(self):
        """L(x0, .., y{m-1}) in factored form."""
        if self._value_fn is None:
            zero = (0,) * self.dim
            self._value_fn = _compiled_partial(*self._symbolic, zero, zero)
        return self._value_fn

    def _partial(self, alpha, beta):
        """The partial's terms (ix, iy, c) for a polynomial (``_terms``), its
        compiled code otherwise; built once per instance."""
        key = (alpha, beta)
        if key not in self._cache:
            self._cache[key] = (self._terms([key])[0] if self.is_polynomial
                                else _compiled_partial(*self._symbols(), alpha, beta))
        return self._cache[key]

    def _terms(self, partials) -> list:
        """The terms (ix, iy, c) of each partial (alpha, beta) of the
        polynomial, the rows of its x and y monomials in ``basis`` and its
        coefficients, from the table shifted by all the partials at once."""
        shift = np.array([alpha + beta for alpha, beta in partials])
        lowered = self._exponents - shift[:, None]  # (partial, term, slot)
        k, t = (lowered.min(axis=2) >= 0).nonzero()  # the kept terms, partial by partial
        coefs = self._coefs[t] * self._falling[self._exponents[t], shift[k]].prod(axis=1)
        ix, iy = self._codes.searchsorted((lowered[k, t].reshape(-1, 2, self.dim)
                                           @ self._place).T)
        bounds = k.searchsorted(np.arange(len(partials) + 1)).tolist()
        return [(ix[a:b], iy[a:b], coefs[a:b]) for a, b in zip(bounds, bounds[1:])]

    def gathered_sums(self, partials, VX, VY) -> list:
        """The (..., n, n', K) series of each partial (alpha, beta) at every
        pair of points whose basis values are VX (..., U, n, K) and VY (..., U,
        n', K): the sum over its terms c_t VX[ix_t, i] VY[iy_t, j], gathered
        from the values, never a dense product with the basis.  The partials
        with one term count share one ``cauchy_matmul`` on a partial axis; the
        partials without terms share one zero array, with no product.  A list
        of two or more partials reads its terms and groups from the table's
        ``_plans``, made on the list's first read by any model sharing the
        table, and records its partials in ``_cache``; a single partial is
        read through ``_cache`` alone.  The model must be a polynomial."""
        if len(partials) == 1:
            groups = _groups([self._partial(*partials[0])])
        else:
            terms, plans = self._plans
            key = tuple(partials)
            if key not in plans:
                new = [p for p in dict.fromkeys(partials) if p not in terms]
                terms.update(zip(new, self._terms(new) if new else []))
                plans[key] = _groups([terms[p] for p in partials]), {p: terms[p] for p in key}
            groups, read = plans[key]
            self._cache.update(read)
        zero = np.zeros(VX.shape[:-3] + (VX.shape[-2], VY.shape[-2], VX.shape[-1]))
        sums = [zero] * len(partials)
        for rows, ix, iy, coefs in groups:
            group = cauchy_matmul(VX[..., ix, :, :] * coefs[..., None, None], VY[..., iy, :, :])
            for g, k in enumerate(rows):
                sums[k] = group[..., g, :, :, :]
        return sums

    def _tables(self, X, Y, partials, values) -> np.ndarray:
        """(P, ..., n, n') tables of the P partials at the rows of X and Y.  A
        polynomial gathers those of order >= 1 in one ``gathered_sums`` from
        the basis values (VX, VY) of X and Y, those that ``values()`` returns
        if the caller keeps them; values (order 0) come from the factored
        form, and the partials of a non-polynomial expression from their
        compiled code."""
        gathered = [self.is_polynomial and any(map(any, p)) for p in partials]
        if any(gathered):
            if values is None:
                VX = basis_values(self.basis, X[..., None])
                VXY = VX, VX if Y is X else basis_values(self.basis, Y[..., None])
            else:
                VXY = values()
            sums = iter(self.gathered_sums([p for p, g in zip(partials, gathered) if g], *VXY))
        tables = np.empty((len(partials),) + X.shape[:-1] + Y.shape[-2:-1])
        for table, (alpha, beta), g in zip(tables, partials, gathered):
            if g:
                table[...] = next(sums)[..., 0]
            else:
                fn = self._partial(alpha, beta) if any(alpha) or any(beta) else self._values()
                table[...] = fn(*(X[..., :, None, k] for k in range(self.dim)),
                                *(Y[..., None, :, k] for k in range(self.dim)))
        return tables

    def __call__(self, x, y) -> float:
        """The 1 x 1 order-0 case of ``pair_table``."""
        return float(pair_table(self, x, y, (0,) * self.dim, (0,) * self.dim)[0, 0])

    def partial(self, x, y, alpha, beta) -> float:
        """The 1 x 1 case of ``pair_table``."""
        return float(pair_table(self, x, y, alpha, beta)[0, 0])


def pair_tables(lag, X, Y, partials, values=None) -> np.ndarray:
    """Tables T[k, i, j] = d^alpha_x d^beta_y L(X[i], Y[j]) of the partials
    (alpha, beta) over all pairs of rows, stacked on a leading axis in the
    order given; X and Y may carry equal leading stack axes, one table per
    partial and index.

    A polynomial model gathers its partials of order >= 1 together from the
    basis values of X and Y (``PolynomialLagrangian.gathered_sums``, the
    K = 1 case of ``pair_series``); ``values``, when the caller keeps those
    values as a measure's tables do (``measure.pair_reader``), returns them
    (VX, VY) and is called only if a partial is gathered; they are evaluated
    here otherwise.
    Values, and the partials of a non-polynomial expression, are evaluated
    once per partial on broadcast coordinates, from the factored form or the
    compiled code.  Any other model (finite differences, charted or
    duck-typed) loops over the pairs, calling L itself for order zero and
    ``partial`` otherwise, start by start; that loop is also the reference
    for the vectorized path.  Raises NumericalFailure on a non-finite entry.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    check_points(lag, X, Y)
    partials = [_multi_indices(lag, alpha, beta) for alpha, beta in partials]
    if X.ndim > 2 and not isinstance(lag, PolynomialLagrangian):
        return np.stack([pair_tables(lag, x, y, partials) for x, y in zip(X, Y)], axis=1)
    if isinstance(lag, PolynomialLagrangian):
        with np.errstate(all="ignore"):
            tables = lag._tables(X, Y, partials, values)
    else:
        tables = np.empty((len(partials),) + X.shape[:-1] + Y.shape[-2:-1])
        for table, (alpha, beta) in zip(tables, partials):
            if not any(alpha) and not any(beta):
                table[...] = [[lag(x, y) for y in Y] for x in X]
            else:
                table[...] = [[lag.partial(x, y, alpha, beta) for y in Y] for x in X]
    _check_finite(lag, np.isfinite(tables), partials, X, Y)
    return tables


def _check_finite(lag, finite, partials, X, Y):
    """NumericalFailure naming the partial and the pair of points of the first
    False in ``finite`` (P, ..., n, n'), whether each partial is finite at
    each pair of rows of X and Y."""
    if not finite.all():
        k, *g, i, j = np.argwhere(~finite)[0]
        alpha, beta = partials[k]
        raise NumericalFailure(f"{lag.name}: partial {alpha}, {beta} not finite at pair",
                               pair=(X[(*g, i)], Y[(*g, j)]))


def pair_table(lag, X, Y, alpha, beta, values=None) -> np.ndarray:
    """Table T[i, j] = d^alpha_x d^beta_y L(X[i], Y[j]): the one-partial case
    of ``pair_tables``."""
    return pair_tables(lag, X, Y, [(alpha, beta)], values)[0]


def takes_series(lag) -> bool:
    """True when the model's partials can be evaluated on truncated series:
    a model held as a monomial table."""
    return isinstance(lag, PolynomialLagrangian) and lag.is_polynomial


def pair_series(lag: PolynomialLagrangian, X, Y, alpha, beta) -> TruncatedSeries:
    """pair_table on series points: X (n, m, K) and Y (n', m, K) hold the
    lambda-coefficients of the coordinates, the result is the (n, n', K)
    series of d^alpha_x d^beta_y L(X[i], Y[j]), gathered from the basis values
    of X and Y as in pair_table, with Cauchy products on the coefficient axis.
    The model must take series; a non-finite coefficient raises
    NumericalFailure, as in pair_tables."""
    if not takes_series(lag):
        raise ArgError(f"{lag.name}: truncated series need a polynomial model")
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    check_points(lag, X, Y, series=True)
    if X.shape[-1] != Y.shape[-1]:
        raise ShapeError(f"{lag.name}: series points of unequal coefficient counts")
    alpha, beta = _multi_indices(lag, alpha, beta)
    with np.errstate(all="ignore"):
        VX = basis_values(lag.basis, X)
        VY = VX if Y is X else basis_values(lag.basis, Y)
        coef = lag.gathered_sums([(alpha, beta)], VX, VY)[0]
    _check_finite(lag, np.isfinite(coef).all(axis=-1)[None], [(alpha, beta)], X, Y)
    return TruncatedSeries(coef)


def fd_step(total_order: int) -> float:
    """Step size h_k = (1e-6)^(1/(k+1)) for a derivative of total order k."""
    return (1e-6) ** (1.0 / (total_order + 1))


def _central_diff(fn, x, y, alpha, beta, h):
    """Nested central differences for the mixed partial, fixed step h; the
    outermost difference is along the first x coordinate left in alpha,
    then along beta."""
    if not any(alpha) and not any(beta):
        return fn(x, y)
    side = 0 if any(alpha) else 1
    orders = [list(alpha), list(beta)]
    idx = next(i for i, k in enumerate(orders[side]) if k)
    orders[side][idx] -= 1
    plus, minus = ([np.array(x, float), np.array(y, float)] for _ in range(2))
    plus[side][idx] += h
    minus[side][idx] -= h
    up = _central_diff(fn, *plus, tuple(orders[0]), tuple(orders[1]), h)
    dn = _central_diff(fn, *minus, tuple(orders[0]), tuple(orders[1]), h)
    return (up - dn) / (2.0 * h)


def numeric_partial(fn, x, y, alpha, beta):
    """Finite-difference mixed partial: central differences at the step
    h = fd_step(|alpha| + |beta|) and at h/2, one Richardson step apart.

    The h**2 truncation term is eliminated, which makes the result exact
    (up to round-off) for polynomials of degree <= |alpha|+|beta|+3.  At
    order 0 it is the value fn(x, y) from one call.
    """
    total = sum(alpha) + sum(beta)
    if total == 0:
        return fn(x, y)
    h = fd_step(total)
    d_h = _central_diff(fn, x, y, tuple(alpha), tuple(beta), h)
    d_h2 = _central_diff(fn, x, y, tuple(alpha), tuple(beta), h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


class NumericLagrangian(LagrangianModel):
    """Wraps a black-box symmetric evaluator; all partials by finite differences."""

    def __init__(self, name, dim, evaluator, max_order=4):
        super().__init__(name, dim, max_order)
        self._evaluator = evaluator

    def __call__(self, x, y) -> float:
        return float(self._evaluator(np.asarray(x, float), np.asarray(y, float)))

    def partial(self, x, y, alpha, beta) -> float:
        alpha, beta = _multi_indices(self, alpha, beta)
        return float(numeric_partial(self._evaluator, x, y, alpha, beta))


class _Expansion(_Arithmetic):
    """A polynomial as a monomial table (exponents, coefs) under + and *
    (subtraction and non-negative integer powers come from ``_Arithmetic``),
    so that a formula run on ``variables`` expands itself; equal monomials
    are summed by ``_combined`` later."""

    def __init__(self, exponents, coefs):
        self.exponents, self.coefs = exponents, np.asarray(coefs, dtype=float)

    @classmethod
    def variables(cls, width):
        return [cls(row[None], [1.0]) for row in np.eye(width, dtype=int)]

    def _lift(self, other):
        if isinstance(other, _Expansion):
            return other
        return _Expansion(np.zeros((1, self.exponents.shape[1]), dtype=int), [other])

    def __add__(self, other):
        other = self._lift(other)
        return _Expansion(np.concatenate([self.exponents, other.exponents]),
                          np.concatenate([self.coefs, other.coefs]))

    def __mul__(self, other):
        other = self._lift(other)
        exponents = self.exponents[:, None] + other.exponents[None]
        return _Expansion(exponents.reshape(-1, exponents.shape[-1]),
                          (self.coefs[:, None] * other.coefs[None]).ravel())


# -- built-in polynomial models, each written once in factored form: on arrays
# the formula gives the values, on ``_Expansion`` variables the monomial table

def _example52(x0, x1, y0, y1):
    return (x0 - y0) ** 4 - (x0 - y0) ** 2 * (x1 + y1) ** 2 + (x1 - y1) ** 2


def _example52_regularized(x0, x1, y0, y1):
    return (x0 ** 6 + x1 ** 6 + y0 ** 6 + y1 ** 6 + (x0 - y0) ** 4
            - (x0 - y0) ** 2 * (x1 + y1) ** 2 + (x1 - y1) ** 2)


def _groups(terms) -> list:
    """(rows, ix, iy, c) per term count > 0 of the partials' terms (ix, iy, c):
    the positions of the partials with that count, their terms stacked."""
    counts = [len(c) for _, _, c in terms]
    return [(rows, *map(np.array, zip(*(terms[k] for k in rows))))
            for rows in ([k for k, c in enumerate(counts) if c == count]
                         for count in sorted(set(counts) - {0}))]


@functools.lru_cache(maxsize=32)
def _prototype(make, *args):
    """The model ``make(*args)`` builds, once per process and arguments (the
    builder's validated values) for the 32 read last, with its table arrays
    read-only.  It is never handed out: ``_shared`` copies it."""
    model = make(*args)
    for table in (model._exponents, model._coefs, model._falling, model.basis, model._place,
                  model._codes):
        table.flags.writeable = False
    return model


def _shared(make, *args):
    """A new model sharing the table, its read plans and the formula of
    ``_prototype(make, *args)``, with its own ``_cache``, settings and
    symbolic form."""
    model = copy.copy(_prototype(make, *args))
    model._cache = {}
    return model


def _build_example52(params):
    return _shared(PolynomialLagrangian.from_formula, "example52", 2, _example52)


def _build_example52_regularized(params):
    return _shared(PolynomialLagrangian.from_formula, "example52_regularized", 2,
                   _example52_regularized)


def _quartic_pair(dim, s):
    # sum_k c(x_k) + c(y_k) + (x_k - y_k)^4, with the sextic double well
    # c(t) = t^2 (t^2 - s^2)^2 >= 0
    s2 = s ** 2

    def value(*coords):
        x, y = coords[:dim], coords[dim:]
        return sum([t ** 2 * (t ** 2 - s2) ** 2 for t in coords]
                   + [(x[k] - y[k]) ** 4 for k in range(dim)])

    return PolynomialLagrangian.from_formula("quartic_pair", dim, value, nonnegative=True)


def _build_quartic_pair(params):
    return _shared(_quartic_pair, integer(params.get("dim", 1), 1, "dim", ConfigError),
                   finite_real(params.get("well_scale", 4.0), "well_scale", ConfigError))


def _pair_distance(d):
    # ((x-y)^2 - d^2)^2 in 1-D: translation invariant, preferred pair distance d
    d2 = d ** 2
    return PolynomialLagrangian.from_formula("pair_distance", 1,
                                             lambda x0, y0: ((x0 - y0) ** 2 - d2) ** 2,
                                             nonnegative=True)


def _build_pair_distance(params):
    return _shared(_pair_distance,
                   finite_real(params.get("distance", 1.0), "distance", ConfigError))


def _build_cfs(params):
    from .cfs import build_cfs_lagrangian  # deferred: cfs imports this module

    return build_cfs_lagrangian(params)


REGISTRY = {  # name: (builder, the parameters it reads)
    "example52": (_build_example52, ()),
    "example52_regularized": (_build_example52_regularized, ()),
    "quartic_pair": (_build_quartic_pair, ("dim", "well_scale")),
    "pair_distance": (_build_pair_distance, ("distance",)),
    "cfs": (_build_cfs, ("hilbert_dim", "spin_dim", "trace_constant", "kappa", "max_order",
                         "chart")),
}


def build_lagrangian(name: str, params: dict | None = None) -> LagrangianModel:
    try:
        builder, keys = REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: a name that does not hash, e.g. a list
        raise UnknownModel(f"unknown Lagrangian model {shown(name)}, "
                           f"have {sorted(REGISTRY)}") from None
    params = dict(params or {})
    unknown = sorted(k for k in params if k not in keys)
    if unknown:
        raise ConfigError(f"{name} reads no parameters {unknown}; it reads {sorted(keys)}")
    return builder(params)
