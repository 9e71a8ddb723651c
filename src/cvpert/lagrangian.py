"""Two-point Lagrangians with a partial-derivative provider.

Two interchangeable backends are supplied:

* symbolic polynomials (exact partials via lambdified expressions), used by
  all built-in models;
* central finite differences with one Richardson step, used as the
  cross-validation oracle and as the only backend for charted models whose
  evaluator is a black box.

Partial derivatives are addressed by a pair of multi-indices (alpha on the
x slot, beta on the y slot); derivatives commute, and jets passed to the
higher operators are never differentiated.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import sympy as sp

from .errors import NumericalFailure, OrderUnsupported


def _as_multi_index(alpha, m) -> tuple:
    alpha = tuple(int(k) for k in alpha)
    if len(alpha) != m or any(k < 0 for k in alpha):
        raise ValueError(f"bad multi-index {alpha} for dimension {m}")
    return alpha


def _check_order(lag, alpha, beta):
    total = sum(alpha) + sum(beta)
    if total > lag.max_order:
        raise OrderUnsupported(
            f"{lag.name}: order {total} exceeds max_order {lag.max_order}")


class LagrangianModel:
    """Symmetric two-point function with derivatives up to ``max_order``."""

    def __init__(self, name: str, dim: int, max_order: int = 8,
                 params: dict | None = None, nonnegative: bool = False):
        self.name = name
        self.dim = dim
        self.max_order = max_order
        self.params = dict(params or {})
        self.nonnegative = nonnegative

    def __call__(self, x, y) -> float:
        raise NotImplementedError

    def partial(self, x, y, alpha, beta) -> float:
        """Mixed partial d^|alpha|_x d^|beta|_y L(x, y)."""
        raise NotImplementedError


class PolynomialLagrangian(LagrangianModel):
    """Lagrangian given by a sympy expression in x0..x{m-1}, y0..y{m-1}.

    Partials are generated symbolically and cached per multi-index pair, so
    repeated evaluation inside the multilinear operators is cheap and exact.
    ``is_polynomial`` is False when the expression holds a non-polynomial
    function of the coordinates (then it cannot take truncated series).
    """

    def __init__(self, name, dim, expr, xs, ys, max_order=8, params=None, nonnegative=False):
        super().__init__(name, dim, max_order, params, nonnegative)
        self.expr = expr
        self._xs = xs
        self._ys = ys
        self._cache = {}
        self.is_polynomial = bool(expr.is_polynomial(*xs, *ys))

    def _fn(self, alpha, beta):
        key = (alpha, beta)
        fn = self._cache.get(key)
        if fn is None:
            e = self.expr
            for i, k in enumerate(alpha):
                if k:
                    e = sp.diff(e, self._xs[i], k)
            for i, k in enumerate(beta):
                if k:
                    e = sp.diff(e, self._ys[i], k)
            fn = sp.lambdify(tuple(self._xs) + tuple(self._ys), e, "numpy")
            self._cache[key] = fn
        return fn

    def __call__(self, x, y) -> float:
        zero = (0,) * self.dim
        return float(self._fn(zero, zero)(*np.asarray(x, float), *np.asarray(y, float)))

    def partial(self, x, y, alpha, beta) -> float:
        alpha = _as_multi_index(alpha, self.dim)
        beta = _as_multi_index(beta, self.dim)
        _check_order(self, alpha, beta)
        return float(self._fn(alpha, beta)(*np.asarray(x, float), *np.asarray(y, float)))


def pair_table(lag, X, Y, alpha, beta) -> np.ndarray:
    """Table T[i, j] = d^alpha_x d^beta_y L(X[i], Y[j]) over all pairs of rows.

    A polynomial model evaluates its cached lambdified partial once on
    broadcast coordinates.  Any other model (finite differences, charted or
    duck-typed) loops over the pairs, calling L itself for order zero and
    ``partial`` otherwise; that loop is also the reference for the
    vectorized path.  Raises NumericalFailure on a non-finite entry.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    alpha = _as_multi_index(alpha, lag.dim)
    beta = _as_multi_index(beta, lag.dim)
    _check_order(lag, alpha, beta)
    table = np.empty((len(X), len(Y)))
    if isinstance(lag, PolynomialLagrangian):
        with np.errstate(all="ignore"):
            table[...] = lag._fn(alpha, beta)(*(X[:, None, k] for k in range(lag.dim)),
                                              *(Y[None, :, k] for k in range(lag.dim)))
    elif not any(alpha) and not any(beta):
        table[...] = [[lag(x, y) for y in Y] for x in X]
    else:
        table[...] = [[lag.partial(x, y, alpha, beta) for y in Y] for x in X]
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise NumericalFailure(f"{lag.name}: partial {alpha}, {beta} not finite at pair",
                               pair=(X[i], Y[j]))
    return table


class TruncatedSeries:
    """Power series in lambda cut after lambda^(K-1), with numpy coefficients
    on a trailing axis of length K (Taylor propagation, Griewank & Walther,
    *Evaluating Derivatives*, ch. 13).

    Supports +, -, * (the truncated Cauchy product) and non-negative integer
    powers, with another series or with a scalar, broadcasting the leading
    axes; that is all the lambdified code of a polynomial uses.
    """

    __array_ufunc__ = None  # a numpy scalar operand defers to the reflected operator

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coef + other.coef)
        coef = self.coef.copy()
        coef[..., 0] += other
        return TruncatedSeries(coef)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coef)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coef * other)
        a, b = self.coef, other.coef
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
        for k in range(out.shape[-1]):
            out[..., k] = np.sum(a[..., :k + 1] * b[..., k::-1], axis=-1)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n != int(n) or n < 0:
            raise TypeError(f"a truncated series takes only non-negative integer powers, not {n!r}")
        n, result, base = int(n), None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self * 0.0 + 1.0 if result is None else result

    def exp(self) -> "TruncatedSeries":
        """exp of the series, from e' = a' e: e_k = sum_{j=1..k} j a_j e_{k-j} / k."""
        a = self.coef
        e = np.empty_like(a)
        e[..., 0] = np.exp(a[..., 0])
        for k in range(1, a.shape[-1]):
            e[..., k] = sum(j * a[..., j] * e[..., k - j] for j in range(1, k + 1)) / k
        return TruncatedSeries(e)


def takes_series(lag) -> bool:
    """True when the model's partials can be evaluated on truncated series:
    a symbolic model whose expression is a polynomial in its coordinates."""
    return isinstance(lag, PolynomialLagrangian) and lag.is_polynomial


def pair_series(lag: PolynomialLagrangian, X, Y, alpha, beta) -> TruncatedSeries:
    """pair_table on series points: X (n, m, K) and Y (n', m, K) hold the
    lambda-coefficients of the coordinates, the result is the (n, n', K)
    series of d^alpha_x d^beta_y L(X[i], Y[j]).  Calls the same cached
    lambdified partial as pair_table, so the model must take series."""
    alpha = _as_multi_index(alpha, lag.dim)
    beta = _as_multi_index(beta, lag.dim)
    _check_order(lag, alpha, beta)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    shape = (len(X), len(Y), X.shape[-1])
    with np.errstate(all="ignore"):
        out = lag._fn(alpha, beta)(*(TruncatedSeries(X[:, None, k]) for k in range(lag.dim)),
                                   *(TruncatedSeries(Y[None, :, k]) for k in range(lag.dim)))
    if isinstance(out, TruncatedSeries):
        return TruncatedSeries(np.broadcast_to(out.coef, shape))
    return TruncatedSeries(np.zeros(shape)) + out  # a constant partial


def fd_step(total_order: int) -> float:
    """Step size h_k = (1e-6)^(1/(k+1)) for a derivative of total order k."""
    return (1e-6) ** (1.0 / (total_order + 1))


def _central_diff(fn, x, y, alpha, beta, h):
    """Nested central differences for the mixed partial, fixed step h."""
    slots = []
    for i, k in enumerate(alpha):
        slots.extend([(0, i)] * k)
    for i, k in enumerate(beta):
        slots.extend([(1, i)] * k)
    if not slots:
        return fn(x, y)
    (side, idx), rest = slots[0], slots[1:]
    ra = list(alpha)
    rb = list(beta)
    if side == 0:
        ra[idx] -= 1
    else:
        rb[idx] -= 1
    xp, xm = np.array(x, float), np.array(x, float)
    yp, ym = np.array(y, float), np.array(y, float)
    if side == 0:
        xp[idx] += h
        xm[idx] -= h
    else:
        yp[idx] += h
        ym[idx] -= h
    up = _central_diff(fn, xp, yp, tuple(ra), tuple(rb), h)
    dn = _central_diff(fn, xm, ym, tuple(ra), tuple(rb), h)
    return (up - dn) / (2.0 * h)


def numeric_partial(fn, x, y, alpha, beta, h=None):
    """Finite-difference mixed partial with one Richardson extrapolation step.

    The h**2 truncation term is eliminated, which makes the result exact
    (up to round-off) for polynomials of degree <= |alpha|+|beta|+3.
    """
    total = sum(alpha) + sum(beta)
    if h is None:
        h = fd_step(total)
    d_h = _central_diff(fn, x, y, tuple(alpha), tuple(beta), h)
    d_h2 = _central_diff(fn, x, y, tuple(alpha), tuple(beta), h / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0


class NumericLagrangian(LagrangianModel):
    """Wraps a black-box symmetric evaluator; all partials by finite differences."""

    def __init__(self, name, dim, evaluator, max_order=4, params=None):
        super().__init__(name, dim, max_order, params)
        self._evaluator = evaluator

    def __call__(self, x, y) -> float:
        return float(self._evaluator(np.asarray(x, float), np.asarray(y, float)))

    def partial(self, x, y, alpha, beta) -> float:
        alpha = _as_multi_index(alpha, self.dim)
        beta = _as_multi_index(beta, self.dim)
        _check_order(self, alpha, beta)
        return float(numeric_partial(self._evaluator, x, y, alpha, beta))


def _example52_expr(regularized: bool):
    x0, x1, y0, y1 = sp.symbols("x0 x1 y0 y1", real=True)
    expr = (x0 - y0) ** 4 + (x1 - y1) ** 2 - (x1 + y1) ** 2 * (x0 - y0) ** 2
    if regularized:
        expr = expr + x0 ** 6 + x1 ** 6 + y0 ** 6 + y1 ** 6
    return expr, (x0, x1), (y0, y1)


def _build_example52(params):
    expr, xs, ys = _example52_expr(False)
    return PolynomialLagrangian("example52", 2, expr, xs, ys, params=params)


def _build_example52_regularized(params):
    expr, xs, ys = _example52_expr(True)
    return PolynomialLagrangian("example52_regularized", 2, expr, xs, ys, params=params)


def _build_quartic_pair(params):
    dim = int(params.get("dim", 1))
    s = float(params.get("well_scale", 4.0))
    xs = sp.symbols(f"x0:{dim}", real=True)
    ys = sp.symbols(f"y0:{dim}", real=True)
    confine = lambda t: t ** 2 * (t ** 2 - s ** 2) ** 2  # sextic double-well, >= 0
    expr = sum((xs[k] - ys[k]) ** 4 + confine(xs[k]) + confine(ys[k]) for k in range(dim))
    return PolynomialLagrangian("quartic_pair", dim, expr, xs, ys,
                                params={"dim": dim, "well_scale": s}, nonnegative=True)


def _build_pair_distance(params):
    # ((x-y)^2 - d^2)^2 in 1-D: translation invariant, preferred pair distance d
    d = float(params.get("distance", 1.0))
    x0, = sp.symbols("x0:1", real=True)
    y0, = sp.symbols("y0:1", real=True)
    expr = ((x0 - y0) ** 2 - d ** 2) ** 2
    return PolynomialLagrangian("pair_distance", 1, expr, (x0,), (y0,),
                                params={"distance": d}, nonnegative=True)


def _build_cfs(params):
    from .cfs import build_cfs_lagrangian  # deferred: cfs imports this module

    return build_cfs_lagrangian(params)


REGISTRY = {
    "example52": _build_example52,
    "example52_regularized": _build_example52_regularized,
    "quartic_pair": _build_quartic_pair,
    "pair_distance": _build_pair_distance,
    "cfs": _build_cfs,
}


def build_lagrangian(name: str, params: dict | None = None) -> LagrangianModel:
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown Lagrangian model {name!r}, have {sorted(REGISTRY)}") from None
    return builder(dict(params or {}))


def symmetry_defect(lag: LagrangianModel, rng, n_probes=1000, scale=1.0) -> float:
    """Max |L(x,y) - L(y,x)| / (1 + |L|) over random probe pairs."""
    worst = 0.0
    for _ in range(n_probes):
        x = rng.uniform(-scale, scale, size=lag.dim)
        y = rng.uniform(-scale, scale, size=lag.dim)
        a, b = lag(x, y), lag(y, x)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def derivative_defect(lag: LagrangianModel, rng, max_total=3, n_probes=25, scale=0.8) -> float:
    """Max relative gap between analytic partials and the finite-difference oracle."""
    worst = 0.0
    m = lag.dim
    indices = [idx for idx in product(range(max_total + 1), repeat=2 * m)
               if 1 <= sum(idx) <= max_total]
    for _ in range(n_probes):
        x = rng.uniform(-scale, scale, size=m)
        y = rng.uniform(-scale, scale, size=m)
        for idx in indices:
            alpha, beta = idx[:m], idx[m:]
            ana = lag.partial(x, y, alpha, beta)
            num = numeric_partial(lambda a, b: lag(a, b), x, y, alpha, beta)
            worst = max(worst, abs(ana - num) / (1.0 + abs(ana)))
    return worst
