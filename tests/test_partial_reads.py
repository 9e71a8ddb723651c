"""One store and one checked read path for a polynomial's partials.

A ``PolynomialLagrangian`` keeps the terms of each partial once, in
``_cache``; ``gathered_sums`` groups them by term count on every read.  The
scalar ``partial`` is the 1 x 1 case of ``pair_table``, so it takes the same
point and finiteness checks, and ``pair_series`` checks its coefficients
the same way.
"""

import itertools
import warnings

import numpy as np
import pytest

from cvpert import build_lagrangian
from cvpert.errors import CvpError, NumericalFailure, ShapeError
from cvpert.lagrangian import pair_series, pair_table
from cvpert.series import basis_values
from tests.test_batched_tables import MODELS, partials_up_to, user_polynomial


def dict_sizes(lag) -> dict:
    return {name: len(value) for name, value in vars(lag).items() if isinstance(value, dict)}


def test_scalar_reads_fill_only_the_per_partial_store():
    # the reads of the deep-orders set-up: every partial of total order <= 5
    lag = build_lagrangian("example52_regularized")
    before = dict_sizes(lag)
    x, y = np.full(2, 0.3), np.full(2, -0.2)
    reads = [idx for idx in itertools.product(range(6), repeat=4) if sum(idx) <= 5]
    for idx in reads:
        lag.partial(x, y, idx[:2], idx[2:])
    assert len(reads) == 126
    grown = {name for name, size in dict_sizes(lag).items() if size != before.get(name)}
    assert grown == {"_cache"}
    assert len(lag._cache) == 125  # the value comes from the factored form


QUARTIC = build_lagrangian("quartic_pair")  # a 1-D model
SERIES_POINTS = np.array([[[0.3, 0.1]], [[1e200, 0.0]]])  # (n, m, K): one overflowing row

ROWS = [
    ("partial/dimension", lambda: QUARTIC.partial([1.0, 2.0], [0.5, 1.0], (1,), (0,)),
     ShapeError),
    ("partial/overflow", lambda: QUARTIC.partial([1e200], [0.5], (1,), (0,)), NumericalFailure),
    ("pair_series/overflow",
     lambda: pair_series(QUARTIC, SERIES_POINTS, SERIES_POINTS, (1,), (0,)), NumericalFailure),
]


@pytest.mark.parametrize("call,error", [pytest.param(call, error, id=name)
                                        for name, call, error in ROWS])
def test_bad_input_raises_typed_error(call, error):
    assert issubclass(error, CvpError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_non_finite_series_names_the_partial_and_the_pair():
    with pytest.raises(NumericalFailure, match=r"^quartic_pair: partial \(1,\), \(0,\) "
                                               r"not finite at pair$") as info:
        pair_series(QUARTIC, SERIES_POINTS, SERIES_POINTS, (1,), (0,))
    x, y = info.value.pair
    assert np.array_equal(x, SERIES_POINTS[0]) and np.array_equal(y, SERIES_POINTS[1])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gathered_sums_do_not_depend_on_the_order_of_the_list(name):
    first, second = MODELS[name](), MODELS[name]()
    m = first.dim
    points = np.random.default_rng(7).normal(size=(5, m))
    V = basis_values(first.basis, points[..., None])
    partials = partials_up_to(m, 2 if m > 2 else 3)
    forward = first.gathered_sums(partials, V, V)
    backward = second.gathered_sums(partials[::-1], V, V)[::-1]
    for got, want, partial in zip(forward, backward, partials):
        assert np.array_equal(got, want), partial


@pytest.mark.parametrize("make", [lambda: build_lagrangian("example52_regularized"),
                                  lambda: build_lagrangian("quartic_pair"), user_polynomial],
                         ids=["example52_regularized", "quartic_pair", "user-sympy"])
def test_scalar_partial_is_the_one_by_one_pair_table(make):
    lag, fresh = make(), make()
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=lag.dim), rng.normal(size=lag.dim)
    for alpha, beta in partials_up_to(lag.dim, 4):
        table = pair_table(fresh, x[None], y[None], alpha, beta)
        assert lag.partial(x, y, alpha, beta) == table[0, 0], (alpha, beta)
