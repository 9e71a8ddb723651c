"""Truncated power series in lambda, and monomial bases evaluated on them.

A series is cut after lambda^(K-1) and held as numpy coefficients on a
trailing axis of length K (Taylor propagation, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13); K = 1 is a plain number.  A
monomial basis is a list of exponent vectors closed under lowering any
exponent (``lower_set``); ``basis_values`` evaluates it once per point set,
and ``cauchy_matmul`` contracts such values over their support axis; both
take leading stack axes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ArgError


@lru_cache(maxsize=None)
def _antidiagonals(K):
    """(K*K, K) 0/1 matrix summing the (j, l) entries of a flattened K x K
    outer product into coefficient j + l, dropping j + l >= K."""
    j, l = np.divmod(np.arange(K * K), K)
    return (j + l == np.arange(K)[:, None]).T.astype(float)


def _cauchy(a, b):
    """Truncated Cauchy product of coefficient arrays on the last axis,
    broadcasting the leading axes."""
    K = a.shape[-1]
    if K == 1:
        return a * b
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (K * K,)) @ _antidiagonals(K)


class _Arithmetic:
    """Subtraction, negation, the reflected + and *, and non-negative integer
    powers (by squaring), derived from a subclass's + and *."""

    __array_ufunc__ = None  # a numpy scalar operand defers to the reflected operator

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n):
        if n != int(n) or n < 0:
            raise TypeError(f"only non-negative integer powers are defined, not {n!r}")
        n, result, base = int(n), None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self * 0.0 + 1.0 if result is None else result


class TruncatedSeries(_Arithmetic):
    """Power series in lambda cut after lambda^(K-1), with numpy coefficients
    on a trailing axis of length K (Taylor propagation, Griewank & Walther,
    *Evaluating Derivatives*, ch. 13).

    Supports + and * (the truncated Cauchy product), and from ``_Arithmetic``
    subtraction and non-negative integer powers, with another series or with
    a scalar, broadcasting the leading axes.
    """

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coef + other.coef)
        coef = self.coef.copy()
        coef[..., 0] += other
        return TruncatedSeries(coef)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coef * other)
        return TruncatedSeries(_cauchy(self.coef, other.coef))

    def exp(self) -> "TruncatedSeries":
        """exp of the series, from e' = a' e: e_k = sum_{j=1..k} j a_j e_{k-j} / k."""
        a = self.coef
        e = np.empty_like(a)
        e[..., 0] = np.exp(a[..., 0])
        for k in range(1, a.shape[-1]):
            e[..., k] = sum(j * a[..., j] * e[..., k - j] for j in range(1, k + 1)) / k
        return TruncatedSeries(e)


def basis_values(basis, X):
    """(..., U, n, K) series prod_k X[..., :, k]^basis[u, k] at the points X
    (..., n, m, K), lambda-coefficients on the last axis, for the exponent
    vectors basis (U, m).  On plain coordinates (K = 1) each value is a
    product of correctly rounded powers; on series, of Cauchy powers."""
    *lead, n, m, K = X.shape
    if K == 1:
        return np.multiply.reduce(X[..., None, :, :, 0] ** basis[:, None, :], axis=-1)[..., None]
    cols = np.flatnonzero(basis.any(axis=0))
    if not len(cols):
        return np.broadcast_to(np.eye(1, K), (*lead, len(basis), n, K))
    # one table of the Cauchy powers of every coordinate that occurs, coordinate first
    X = np.moveaxis(X[..., cols, :], -2, 0)
    powers = np.zeros((int(basis.max()) + 1,) + X.shape)
    powers[0, ..., 0] = 1.0
    powers[1] = X
    for e in range(2, len(powers)):
        powers[e] = _cauchy(powers[e - 1], X)
    factors = powers[basis[:, cols], np.arange(len(cols))]  # (U, cols, ..., n, K)
    out = factors[:, 0]
    for k in range(1, len(cols)):
        out = _cauchy(out, factors[:, k])
    return np.moveaxis(out, 0, -3)


def cauchy_matmul(P, Q):
    """(..., n, n', K) series sum_t P[..., t, i] Q[..., t, j] of P (..., T, n, K)
    and Q (..., T, n', K), Cauchy products on the coefficient axis, as one
    matrix product out[i, (j, k)] = sum_{t, a} P[t, i, a] Q[t, j, k - a]."""
    *lead, T, n, K = P.shape
    m = Q.shape[-2]
    shifted = np.zeros((*lead, T, K, m, K))  # shifted[t, a, j, k] = Q[t, j, k - a], 0 for k < a
    for a in range(K):
        shifted[..., a, :, a:] = Q[..., :K - a]
    # P enters as a transposed (T K, n) array, the operand layout of the
    # other products here, so no further BLAS kernel is paged in
    out = (P.swapaxes(-1, -2).reshape(*lead, T * K, n).swapaxes(-1, -2)
           @ shifted.reshape(*lead, T * K, m * K))
    return out.reshape(*lead, n, m, K)


def _sorted_distinct(codes):
    """The distinct entries of an integer array, ascending.  A model has a few
    hundred codes at most, and a Python set dedupes them without the
    first-call cost of np.unique (an import of numpy.ma: 17 ms, 0.6 MB) or of
    np.sort (0.25 MB of sort kernels paged in)."""
    return np.array(sorted(set(codes.tolist())), dtype=np.int64)


def lower_set(parts):
    """(basis, place, codes): every exponent vector u with 0 <= u <= some row
    of parts (R, m), as the rows of basis sorted by their mixed-radix codes
    u . place, which ``codes`` lists.  Digits are read with np.divmod, whose
    integer loops the series products already use (``_antidiagonals``)."""
    radix = parts.max(axis=0, initial=0) + 1
    if math.prod(radix.tolist()) >= 2 ** 63:
        raise ArgError(f"{parts.shape[1]} coordinates of degree up to {radix.max() - 1} "
                       "have too many monomials to index")
    place = np.cumprod(np.r_[1, radix[:-1]])
    codes = parts @ place
    for k, r in enumerate(radix.tolist()):  # lower digit k to every value below it
        digit = np.divmod(codes, place[k])[0] % r
        lowered = codes[:, None] - place[k] * np.arange(r)
        codes = _sorted_distinct(lowered[np.arange(r) <= digit[:, None]])
    return np.divmod(codes[:, None], place)[0] % radix, place, codes
