import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, TestBasis, calibrate_nu
from cvpert.errors import OutOfRange
from cvpert.jets import DualJet
from cvpert.el import ell_on_support
from cvpert.linops import (GreensOperator, assemble_delta, delta_ell, kernel_basis,
                           mixed_directional)
from cvpert.measure import push_forward


@pytest.fixture(scope="module")
def generic_measure(rng):
    return DiscreteMeasure(rng.normal(size=(3, 2)) * 0.4,
                           np.abs(rng.normal(size=3)) + 0.5)


def random_jet(rng, n, m, scale=1.0):
    return Jet(rng.normal(size=n) * scale, rng.normal(size=(n, m)) * scale)


def test_delta_zero_matches_calibration(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    vals = ell_on_support(quartic_base, quartic_pair, nu)
    assert np.max(np.abs(vals)) <= 1e-12 * abs(nu)


def test_delta_zero_origin(example52, dirac_origin_2d):
    assert ell_on_support(dirac_origin_2d, example52, 0.0)[0] == 0.0


def test_delta_zero_two_point_hand_sum():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("q4", 1, (x0 - y0) ** 4, (x0,), (y0,))
    mu = DiscreteMeasure(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    assert np.allclose(ell_on_support(mu, lag, 0.0), [16.0, 16.0])


def test_delta_ell_first_order_critical(example52, dirac_origin_2d, rng):
    # all first partials vanish at the origin, so Delta_1 of any jet is 0
    w = random_jet(rng, 1, 2)
    vals = delta_ell(1, [w], dirac_origin_2d, example52, 0.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)


def test_delta_ell_second_order_e2_cancellation(example52, dirac_origin_2d):
    # (x2 - y2)^2 contributes (2, -2, 2) with multiplicities (1, 2, 1): zero sum
    w = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    vals = delta_ell(2, [w, w], dirac_origin_2d, example52, 0.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)


def test_delta_ell_zero_jets(example52, generic_measure):
    zero = Jet.zero(3, 2)
    for ell_order in (1, 2, 3):
        vals = delta_ell(ell_order, [zero] * ell_order, generic_measure, example52, 0.3)
        assert np.max(np.abs(vals)) == 0.0


def test_delta_ell_permutation_symmetry(example52, generic_measure, rng):
    jets = [random_jet(rng, 3, 2) for _ in range(3)]
    base = delta_ell(3, jets, generic_measure, example52, 0.4)
    for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        vals = delta_ell(3, [jets[k] for k in perm], generic_measure, example52, 0.4)
        assert np.allclose(vals, base, atol=1e-12 * max(1.0, np.max(np.abs(base))))


def test_delta_ell_multilinearity(example52, generic_measure, rng):
    u = random_jet(rng, 3, 2)
    v = random_jet(rng, 3, 2)
    w = random_jet(rng, 3, 2)
    a, b = 0.6, -1.7
    combo = Jet(a * u.scalar + b * v.scalar, a * u.vector + b * v.vector)
    lhs = delta_ell(2, [combo, w], generic_measure, example52, 0.2)
    rhs = a * delta_ell(2, [u, w], generic_measure, example52, 0.2) \
        + b * delta_ell(2, [v, w], generic_measure, example52, 0.2)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_delta_ell_exponential_identity(example52_reg, generic_measure, rng):
    """Taylor check: sum_l t^l Delta_l[w..w] matches the pushed evaluation
    e^{t c(x)} sum_j w_j L(x_i + t u_i, x_j + t u_j) e^{t c(x_j)} - nu/2 e^{t c(x_i)}
    through order 4, remainder O(t^5)."""
    nu = 0.8
    mu = generic_measure
    w = random_jet(rng, 3, 2, scale=0.7)
    parts = [ell_on_support(mu, example52_reg, nu)]
    for l in range(1, 5):
        parts.append(delta_ell(l, [w] * l, mu, example52_reg, nu))

    def pushed(t, i):
        total = 0.0
        for j in range(mu.size):
            total += mu.weights[j] * np.exp(t * w.scalar[j]) * example52_reg(
                mu.points[i] + t * w.vector[i], mu.points[j] + t * w.vector[j])
        return np.exp(t * w.scalar[i]) * (total - 0.0) - nu / 2 * np.exp(t * w.scalar[i])

    ts = np.geomspace(1e-3, 1e-2, 5)
    errs = []
    for t in ts:
        taylor = sum(t ** l * parts[l] for l in range(5))
        direct = np.array([pushed(t, i) for i in range(mu.size)])
        errs.append(np.max(np.abs(direct - taylor)))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 4.7


def test_delta_ell_breve_coincides_for_vector_jets(example52, generic_measure, rng):
    # zero scalar components: both conventions are the same multilinear operator
    jets = [Jet(np.zeros(3), rng.normal(size=(3, 2))) for _ in range(2)]
    a = delta_ell(2, jets, generic_measure, example52, 0.0)
    b = delta_ell(2, jets, generic_measure, example52, 0.0, convention="breve")
    assert np.allclose(a, b, atol=1e-13)


def test_delta_ell_breve_pure_scalar(example52, generic_measure):
    # constant scalar jet c: only the y-slot scalar acts, value c * integral of L
    c = 0.37
    jet = Jet(np.full(3, c), np.zeros((3, 2)))
    vals = delta_ell(1, [jet], generic_measure, example52, 0.0, convention="breve")
    expected = c * np.array([
        sum(wj * example52(pi, pj) for pj, wj in zip(generic_measure.points,
                                                     generic_measure.weights))
        for pi in generic_measure.points])
    assert np.allclose(vals, expected, rtol=1e-12)


def test_assemble_delta_zero_lagrangian():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("null", 1, x0 * 0, (x0,), (y0,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    delta = assemble_delta(mu, lag, 0.0)
    assert np.max(np.abs(delta.matrix)) == 0.0


def test_assemble_delta_symmetry(example52_reg, generic_measure):
    delta = assemble_delta(generic_measure, example52_reg, 0.5)
    assert delta.symmetry_defect() <= 1e-10


def test_assemble_delta_sextic_origin_vector_block():
    # single point, L = (x-y)^4 + x^6 + y^6: vector-vector block vanishes at 0
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("qs", 1, (x0 - y0) ** 4 + x0 ** 6 + y0 ** 6, (x0,), (y0,))
    mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    delta = assemble_delta(mu, lag, 0.0)
    assert delta.matrix[1, 1] == pytest.approx(0.0, abs=1e-14)


def test_assemble_delta_matches_flow_derivative(quartic_pair, quartic_base):
    """Directional consistency at a critical base: the matrix pairing equals
    the finite-difference derivative of the weak EL residual under the
    push-forward e^{t b}, id + t v (standard = breve on a critical measure)."""
    from cvpert.el import weak_el_residual

    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    rng = np.random.default_rng(7)
    u = random_jet(rng, 2, 1)
    v = random_jet(rng, 2, 1)
    W = delta.weight_vector()
    pairing_matrix = float(u.flatten() @ (W * delta.apply(v).flatten()))

    def tested_residual(t):
        pushed = push_forward(quartic_base, t * v.scalar, t * v.vector)
        res = weak_el_residual(pushed, quartic_pair, nu, TestBasis([u]))
        return float(np.sum(quartic_base.weights * res[0]))

    h = 1e-6
    fd = (tested_residual(h) - tested_residual(-h)) / (2 * h)
    assert pairing_matrix == pytest.approx(fd, rel=1e-5)


def test_breve_matrix_matches_flow_derivative_off_critical(example52_reg, generic_measure, rng):
    # off criticality the flow derivative of the plain residual is the breve form
    from cvpert.el import weak_el_residual

    nu = 0.3
    delta = assemble_delta(generic_measure, example52_reg, nu, convention="breve")
    u = random_jet(rng, 3, 2)
    v = random_jet(rng, 3, 2)
    W = delta.weight_vector()
    pairing_matrix = float(u.flatten() @ (W * delta.apply(v).flatten()))

    def tested_residual(t):
        pushed = push_forward(generic_measure, t * v.scalar, t * v.vector)
        res = weak_el_residual(pushed, example52_reg, nu, TestBasis([u]))
        return float(np.sum(generic_measure.weights * res[0]))

    h = 1e-6
    fd = (tested_residual(h) - tested_residual(-h)) / (2 * h)
    assert pairing_matrix == pytest.approx(fd, rel=1e-5)


def test_kernel_basis_trivial_cases(rng):
    from cvpert.linops import DeltaMatrix

    zero = DeltaMatrix(np.zeros((4, 4)), 0.0, np.ones(2))
    kb = kernel_basis(zero)
    assert len(kb) == 4
    inv = DeltaMatrix(np.eye(4) + 0.1 * np.diag(rng.normal(size=4)), 0.0, np.ones(2))
    assert len(kernel_basis(inv)) == 0


def test_kernel_basis_example52_full_space(example52, dirac_origin_2d):
    # the origin Dirac has vanishing Delta: the whole jet space is kernel,
    # containing in particular the (a, u1, 0) fluctuation pattern
    delta = assemble_delta(dirac_origin_2d, example52, 0.0)
    kb = kernel_basis(delta)
    assert len(kb) == 3
    span = np.array([j.flatten() for j in kb.jets])
    target = Jet(np.array([0.3]), np.array([[0.7, 0.0]])).flatten()
    coeffs, res, *_ = np.linalg.lstsq(span.T, target, rcond=None)
    assert np.linalg.norm(span.T @ coeffs - target) <= 1e-12


def test_kernel_jets_annihilated(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    kb = kernel_basis(delta)
    norm = delta.operator_norm()
    for jet in kb.jets:
        assert np.linalg.norm(delta.matrix @ jet.flatten()) <= 1e-8 * norm


def test_greens_identity_random_duals(quartic_pair, quartic_base, rng):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    greens = GreensOperator(delta)
    W = delta.weight_vector()
    u, s, vt = np.linalg.svd(delta.matrix)
    rank = int(np.sum(s > 1e-8 * s[0]))
    for _ in range(100):
        dual = DualJet(rng.normal(size=2), rng.normal(size=(2, 1)))
        jet, rel = greens.apply(dual)
        # Delta (S v) = -proj_range(v) in the weighted convention
        rhs = W * dual.flatten()
        proj = u[:, :rank] @ (u[:, :rank].T @ rhs)
        lhs = delta.matrix @ jet.flatten()
        assert np.linalg.norm(lhs + proj) <= 1e-8 * max(1.0, np.linalg.norm(proj))


def test_greens_reconstructs_known_preimage(quartic_pair, quartic_base, rng):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    greens = GreensOperator(delta)
    W = delta.weight_vector()
    for _ in range(20):
        u_jet = random_jet(rng, 2, 1)
        # v = -Delta u as a pointwise dual jet
        dual = DualJet.unflatten(-(delta.matrix @ u_jet.flatten()) / W, 1)
        w_jet, rel = greens.apply(dual)
        assert rel <= 1e-10
        # Delta w = -v up to kernel components
        assert np.allclose(delta.matrix @ w_jet.flatten(),
                           delta.matrix @ u_jet.flatten(), atol=1e-8)


def test_greens_zero_dual(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    jet, _ = GreensOperator(delta).apply(DualJet.zero(2, 1))
    assert jet.norm() == 0.0


def test_greens_strict_out_of_range(example52, dirac_origin_2d, rng):
    # Delta vanishes at the origin Dirac: any nonzero dual jet is out of range
    delta = assemble_delta(dirac_origin_2d, example52, 0.0)
    greens = GreensOperator(delta, strict=True)
    with pytest.raises(OutOfRange):
        greens.apply(DualJet(np.array([1.0]), np.zeros((1, 2))))


def test_restricted_test_rows_shape(example52_reg, generic_measure, rng):
    jets = [random_jet(rng, 3, 2) for _ in range(2)]
    tb = TestBasis(jets)
    delta = assemble_delta(generic_measure, example52_reg, 0.1, testbasis=tb)
    assert delta.test_rows.shape == (2 * 3, 3 * 3)
    # restricted rows are the contraction of the full rows by the basis jets
    full = assemble_delta(generic_measure, example52_reg, 0.1)
    for k, jet in enumerate(jets):
        sel = jet.flatten()
        for i in range(3):
            row = sel[i * 3:(i + 1) * 3] @ full.matrix[i * 3:(i + 1) * 3]
            assert np.allclose(delta.test_rows[k * 3 + i], row)


def test_mixed_directional_quadratic():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x = sp.symbols("x0 x1", real=True)
    y = sp.symbols("y0 y1", real=True)
    lag = PolynomialLagrangian("mix", 2, (x[0] - y[1]) ** 2 * (x[1] + y[0]),
                               x, y, max_order=8)
    xv, yv = np.array([0.2, -0.3]), np.array([0.4, 0.1])
    d1 = np.array([1.0, 2.0])
    d2 = np.array([-0.5, 1.5])
    val = mixed_directional(lag, xv, yv, [d1], [d2])
    h = 1e-6
    fd = (lag(xv + h * d1, yv + h * d2) - lag(xv + h * d1, yv - h * d2)
          - lag(xv - h * d1, yv + h * d2) + lag(xv - h * d1, yv - h * d2)) / (4 * h * h)
    assert val == pytest.approx(fd, rel=1e-6)


def test_delta_matrix_exports(quartic_pair, quartic_base, tmp_path):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    delta = assemble_delta(quartic_base, quartic_pair, nu)
    blob = delta.to_json()
    assert blob["shape"] == [4, 4]
    assert blob["nu"] == nu
    assert len(blob["rows"]) == 4
    path = tmp_path / "singular.csv"
    delta.singular_values_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,singular_value"
    assert len(lines) == 5
    kb = kernel_basis(delta)
    out = kb.to_json()
    assert out["count"] == len(kb)
    assert len(out["singular_values"]) == 4


def test_restricted_greens_solve(quartic_pair, quartic_base, rng):
    # solving against a restricted test basis enforces exactly the tested
    # weak equations
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    jets = [random_jet(rng, 2, 1) for _ in range(2)]
    tb = TestBasis(jets)
    delta = assemble_delta(quartic_base, quartic_pair, nu, testbasis=tb)
    greens = GreensOperator(delta)
    dual = DualJet(rng.normal(size=2), rng.normal(size=(2, 1)))
    w, rel = greens.apply(dual)
    rhs = greens._rhs(dual)
    assert np.linalg.norm(delta.test_rows @ w.flatten() + rhs) <= 1e-8 * max(
        1.0, np.linalg.norm(rhs))
