import numpy as np
import pytest

from cvpert import DiscreteMeasure, build_lagrangian, lagrangian


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def example52():
    return build_lagrangian("example52")


@pytest.fixture(scope="session")
def example52_reg():
    return build_lagrangian("example52_regularized")


@pytest.fixture(scope="session")
def quartic_pair():
    return build_lagrangian("quartic_pair")


@pytest.fixture(scope="session")
def dirac_origin_2d():
    return DiscreteMeasure(np.zeros((1, 2)), np.ones(1))


@pytest.fixture(scope="session")
def quartic_base():
    # exact critical pair of the quartic_pair model at well_scale 4:
    # 3 t^4 + (8 - 4 s^2) t^2 + s^4 = 0 has the exact root t^2 = 8
    t = 2.0 * np.sqrt(2.0)
    return DiscreteMeasure(np.array([[t], [-t]]), np.array([1.0, 1.0]))


class _CountingSympy:
    """Stands in for ``sympy`` inside ``cvpert.lagrangian`` and records the
    expression of every ``lambdify`` call, i.e. every compiled partial."""

    def __init__(self, module, calls):
        self._module = module
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._module, name)

    def lambdify(self, args, expr, *rest, **kwargs):
        self._calls.append(expr)
        return self._module.lambdify(args, expr, *rest, **kwargs)


@pytest.fixture
def compiles(monkeypatch):
    """List of the partials cvpert.lagrangian compiles during the test."""
    calls = []
    monkeypatch.setattr(lagrangian, "sp", _CountingSympy(lagrangian.sp, calls))
    return calls
