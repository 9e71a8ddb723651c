"""A polynomial model's value L(x, y) is the order-0 entry of its pair table,
and a formula's powers are the repeated products of its own *."""

import numpy as np
import pytest

from cvpert import build_lagrangian
from cvpert.lagrangian import _combined, _Expansion, pair_table

MODELS = [("example52", {}), ("example52_regularized", {}), ("quartic_pair", {}),
          ("quartic_pair", {"dim": 2, "well_scale": 3.0}), ("quartic_pair", {"dim": 5}),
          ("pair_distance", {}), ("pair_distance", {"distance": 1.7}),
          ("pair_distance", {"distance": 0.7})]


@pytest.mark.parametrize("name,params", MODELS, ids=[f"{n}-{p}" for n, p in MODELS])
def test_value_is_the_order_0_pair_table_entry_bit_for_bit(name, params):
    lag = build_lagrangian(name, params)
    rng = np.random.default_rng(7)
    zero = (0,) * lag.dim
    for x, y in rng.uniform(-2.0, 2.0, size=(300, 2, lag.dim)):
        assert lag(x, y) == pair_table(lag, x, y, zero, zero)[0, 0]


def test_formula_powers_are_taken_by_squaring_and_refused_off_the_integers():
    x0, x1, y0, y1 = _Expansion.variables(4)
    base = x0 - 2 * y0 + x1 * y1 - 3
    for n in range(6):
        repeated = base * 0.0 + 1.0
        for _ in range(n):
            repeated = repeated * base
        power = base ** n
        for got, want in zip(_combined(power.exponents, power.coefs),
                             _combined(repeated.exponents, repeated.coefs)):
            assert np.array_equal(got, want)
    for n in (-2, -1, 0.5, 2.5):
        with pytest.raises(TypeError):
            base ** n
