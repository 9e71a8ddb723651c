import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, TestBasis, calibrate_nu, ell, pairing, weak_el_residual
from cvpert.el import grad_ell, residual_norm
from cvpert.errors import NotCritical
from cvpert.jets import DualJet
from cvpert.lagrangian import build_lagrangian


def test_ell_example52_closed_form(example52, dirac_origin_2d, rng):
    # ell(x1, x2) = x1^4 + x2^2 - x2^2 x1^2 at the Dirac origin with nu = 0
    for _ in range(50):
        x = rng.uniform(-1, 1, size=2)
        expected = x[0] ** 4 + x[1] ** 2 - x[1] ** 2 * x[0] ** 2
        assert ell(dirac_origin_2d, example52, 0.0, x) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_ell_zero_lagrangian(rng):
    lag = build_lagrangian("quartic_pair", {"well_scale": 4.0})

    class Zero:
        dim = 1
        max_order = 8
        name = "zero"

        def __call__(self, x, y):
            return 0.0

        def partial(self, x, y, a, b):
            return 0.0

    mu = DiscreteMeasure(rng.normal(size=(3, 1)), np.ones(3))
    assert ell(mu, Zero(), 0.0, np.array([0.3])) == 0.0


def test_ell_two_point_hand_sum():
    # {0, 1} weights 1, L = (x - y)^2, x = 0.5 -> 0.25 + 0.25
    import sympy as sp

    x0, y0 = sp.symbols("x0 y0", real=True)
    from cvpert.lagrangian import PolynomialLagrangian

    lag = PolynomialLagrangian("sq", 1, (x0 - y0) ** 2, (x0,), (y0,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    assert ell(mu, lag, 0.0, np.array([0.5])) == pytest.approx(0.5, rel=1e-15)


def split_ell(lagrangian, p1, w1, p2, w2, nu, x):
    """ell(rho1 + rho2) + nu/2 and the sum of the two parts' ell + nu/2."""
    combined = DiscreteMeasure(np.vstack([p1, p2]), np.hstack([w1, w2]))
    lhs = ell(combined, lagrangian, nu, x) + nu / 2
    rhs = ((ell(DiscreteMeasure(p1, w1), lagrangian, nu, x) + nu / 2)
           + (ell(DiscreteMeasure(p2, w2), lagrangian, nu, x) + nu / 2))
    return lhs, rhs


def test_ell_linearity_in_measure(example52):
    # on dyadic data (integer points, power-of-two weights and nu) every
    # product and partial sum is exact, so ell(rho1 + rho2) + nu/2 splits exactly
    p1 = np.array([[0.0, 1.0], [2.0, -1.0]])
    p2 = np.array([[1.0, 1.0], [-1.0, 0.0], [3.0, 2.0]])
    lhs, rhs = split_ell(example52, p1, np.array([0.5, 2.0]), p2,
                         np.array([1.0, 0.25, 4.0]), 8.0, np.array([1.0, -2.0]))
    assert lhs == rhs
    # on random data it splits up to the rounding of the support sums
    rng = np.random.default_rng(52)
    eps = np.finfo(float).eps
    for _ in range(20):
        p1, p2 = rng.normal(size=(2, 2)), rng.normal(size=(3, 2))
        w1, w2 = np.abs(rng.normal(size=2)) + 0.1, np.abs(rng.normal(size=3)) + 0.1
        x, nu = rng.normal(size=2), 0.7
        lhs, rhs = split_ell(example52, p1, w1, p2, w2, nu, x)
        terms = sum(abs(w * example52(x, y))
                    for w, y in zip(np.hstack([w1, w2]), np.vstack([p1, p2])))
        assert abs(lhs - rhs) <= 8 * eps * (terms + abs(nu))


def test_calibrate_nu_example52_origin(example52, dirac_origin_2d):
    assert calibrate_nu(dirac_origin_2d, example52) == 0.0


def test_calibrate_nu_single_point_zero_diagonal(example52_reg):
    mu = DiscreteMeasure(np.zeros((1, 2)), np.array([2.0]))
    assert calibrate_nu(mu, example52_reg) == 0.0


def test_calibrate_nu_symmetric_pair_hand_sum():
    # each point sees the integral L(1,1) + L(1,-1) = 0 + 16; the
    # calibration constant is twice that mean (DECISIONS.md, D4, on a
    # garbled reference value)
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("q4", 1, (x0 - y0) ** 4, (x0,), (y0,))
    mu = DiscreteMeasure(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    assert calibrate_nu(mu, lag) == pytest.approx(32.0, rel=1e-15)


def test_calibrate_nu_rejects_noncritical(example52_reg):
    # nonzero diagonal L(p, p) makes the per-point integrals differ
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [0.4, 0.3]]), np.array([1.0, 1.0]))
    with pytest.raises(NotCritical):
        calibrate_nu(mu, example52_reg)


def test_weak_el_residual_critical_origin(example52, dirac_origin_2d):
    tb = TestBasis.full(1, 2)
    res = weak_el_residual(dirac_origin_2d, example52, 0.0, tb)
    assert np.max(np.abs(res)) == 0.0


def test_grad_ell_at_shifted_point(example52, dirac_origin_2d):
    # ell of the origin scenario is x1^4 + x2^2 - x2^2 x1^2; its x1-partial
    # at the candidate point (0.1, 0) is 4 * 0.1^3
    g = grad_ell(dirac_origin_2d, example52, np.array([0.1, 0.0]))
    assert g[0] == pytest.approx(4e-3, rel=1e-12)
    assert g[1] == pytest.approx(0.0, abs=1e-15)


def test_weak_el_residual_linear_in_test_jet(example52, rng):
    mu = DiscreteMeasure(rng.normal(size=(3, 2)) * 0.5, np.abs(rng.normal(size=3)) + 0.5)
    u = Jet(rng.normal(size=3), rng.normal(size=(3, 2)))
    v = Jet(rng.normal(size=3), rng.normal(size=(3, 2)))
    a, b = 0.7, -1.3
    combo = Jet(a * u.scalar + b * v.scalar, a * u.vector + b * v.vector)
    ru = weak_el_residual(mu, example52, 0.2, TestBasis([u]))
    rv = weak_el_residual(mu, example52, 0.2, TestBasis([v]))
    rc = weak_el_residual(mu, example52, 0.2, TestBasis([combo]))
    assert np.allclose(rc, a * ru + b * rv, atol=1e-12)


def test_pairing_values():
    d = DualJet(np.array([1.0]), np.array([[2.0]]))
    j = Jet(np.array([3.0]), np.array([[4.0]]))
    assert pairing(d, j)[0] == pytest.approx(11.0)
    z = Jet.zero(1, 1)
    assert pairing(d, z)[0] == 0.0
    d2 = DualJet(np.array([0.0]), np.array([[1.0, 0.0]]))
    j2 = Jet(np.array([5.0]), np.array([[0.0, 1.0]]))
    assert pairing(d2, j2)[0] == 0.0


def test_grad_ell_quartic_base(quartic_pair, quartic_base):
    for p in quartic_base.points:
        g = grad_ell(quartic_base, quartic_pair, p)
        assert np.max(np.abs(g)) < 1e-10 * 3072


def test_residual_norm_quartic_base(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    assert nu == pytest.approx(6144.0, rel=1e-12)
    tb = TestBasis.full(2, 1)
    assert residual_norm(quartic_base, quartic_pair, nu, tb) <= 1e-9 * 6144


class PerPairValues:
    """Duck-typed view of a model, read pair by pair; with ``values_only``
    every partial of order >= 1 raises."""

    def __init__(self, lag, values_only=False):
        self._lag = lag
        self.name, self.dim, self.max_order = lag.name, lag.dim, lag.max_order
        self.values_only = values_only

    def __call__(self, x, y):
        return self._lag(x, y)

    def partial(self, x, y, alpha, beta):
        if self.values_only and sum(alpha) + sum(beta) > 0:
            raise AssertionError(f"partial {alpha}, {beta} read")
        return self._lag.partial(x, y, alpha, beta)


def test_scalar_basis_residual_reads_no_gradient(example52_reg, rng):
    n = 4
    mu = DiscreteMeasure(rng.normal(size=(n, 2)) * 0.6, rng.uniform(0.5, 1.5, n))
    scalar_jets = [Jet(rng.normal(size=n), np.zeros((n, 2))), Jet(np.ones(n), np.zeros((n, 2)))]
    vector_jet = Jet(rng.normal(size=n), rng.normal(size=(n, 2)))
    values_only = PerPairValues(example52_reg, values_only=True)
    fast = weak_el_residual(mu, values_only, 0.3, TestBasis(scalar_jets))
    full = weak_el_residual(mu, PerPairValues(example52_reg), 0.3,
                            TestBasis(scalar_jets + [vector_jet]))
    assert fast.shape == (2, n)
    assert np.array_equal(fast, full[:2])
    assert residual_norm(mu, values_only, 0.3, TestBasis(scalar_jets)) == \
        float(np.max(np.abs(full[:2])))
    with pytest.raises(AssertionError):
        weak_el_residual(mu, values_only, 0.3, TestBasis(scalar_jets + [vector_jet]))
