"""Fragmentation: multi-subsystem measures and their perturbation theory.

A fragmented measure is a convex combination of L differently pushed copies
of a base measure.  Jets acquire a subsystem index and split into their
mean (seen by the unfragmented operator) and zero-mean fluctuations.  On
the fluctuation-neutral directions (zero-mean patterns tensored with null
directions of the ell-Hessian, plus free scalar fluctuations) the
unperturbed operator vanishes; there the dynamics is governed by the
perturbed form assembled on the fragmented support, which a well-posed
ansatz makes definite of a single order lambda^r after the microstructure
rescaling of the vector components by lambda^q.

The expansion driver corrects the configuration sector by sector (mean and
complement through the operator of the current configuration, the neutral
directions through the perturbed form), one sweep per order.  The exact
combinatorial bookkeeping of the fragmented higher orders is open; the
sweep below is a damped sector-by-sector realization of the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import InconclusiveFit, NotWellPosed, NumericalFailure, ShapeError
from .el import ell_field, integrate_partial
from .fitting import loglog_slope
from .jets import Jet, MultiJet, TestBasis
from .lagrangian import LagrangianModel
from .measure import DiscreteMeasure, merge_close, push_forward

RESIDUAL_FLOOR = 5e-15


def split_mean_fluct(mj: MultiJet) -> tuple:
    """Decompose a multi-jet into its subsystem mean and zero-mean remainder."""
    L = mj.n_subsystems
    mean_scal = sum(j.scalar for j in mj.jets) / L
    mean_vec = sum(j.vector for j in mj.jets) / L
    mean = Jet(mean_scal, mean_vec)
    fluct = MultiJet([Jet(j.scalar - mean_scal, j.vector - mean_vec) for j in mj.jets])
    return mean, fluct


@dataclass
class FragmentationAnsatz:
    """Leading-order data of a fragmentation.

    f0 are the volume-preserving subsystem weights ((1/L) sum f0_a = 1);
    the first-order jet is lambda^p (mean_jet + compl_fluct) +
    lambda^q linf_fluct with min(p, q) = 1.  The two fluctuation jets carry
    no scalar component.
    """

    f0: np.ndarray
    p: float
    q: float
    mean_jet: Jet
    compl_fluct: MultiJet | None = None
    linf_fluct: MultiJet | None = None

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float).ravel()
        if np.any(self.f0 < 0):
            raise ShapeError("subsystem weights must be non-negative")
        if abs(np.mean(self.f0) - 1.0) > 1e-14:
            raise ShapeError("weights must satisfy (1/L) sum f0 = 1")
        if min(self.p, self.q) != 1:
            raise ShapeError("exponents must satisfy min(p, q) = 1")
        L = len(self.f0)
        n, m = self.mean_jet.size, self.mean_jet.dimension
        if self.compl_fluct is None:
            self.compl_fluct = MultiJet.zero(L, n, m)
        if self.linf_fluct is None:
            self.linf_fluct = MultiJet.zero(L, n, m)
        for mj in (self.compl_fluct, self.linf_fluct):
            if mj.n_subsystems != L or mj.size != n or mj.dimension != m:
                raise ShapeError("fluctuation jets do not match (L, N, m)")
            if max(np.max(np.abs(j.scalar)) for j in mj.jets) > 0.0:
                raise ShapeError("fluctuation jets must have zero scalar part")
            mean, _ = split_mean_fluct(mj)
            if mean.norm() > 1e-13:
                raise ShapeError("fluctuation jets must have zero subsystem mean")

    @property
    def n_subsystems(self) -> int:
        return len(self.f0)

    def order_one_jets(self, lam: float) -> MultiJet:
        """lambda^p (mean + complement) + lambda^q lin-F, per subsystem."""
        L = self.n_subsystems
        out = []
        for a in range(L):
            scal = lam ** self.p * (self.mean_jet.scalar + self.compl_fluct.jets[a].scalar)
            vec = (lam ** self.p * (self.mean_jet.vector + self.compl_fluct.jets[a].vector)
                   + lam ** self.q * self.linf_fluct.jets[a].vector)
            out.append(Jet(scal, vec))
        return MultiJet(out)


@dataclass
class FragmentedMeasure:
    """Base measure plus per-subsystem log-weight and shift fields.

    Subsystem a carries the measure (f0_a / L) e^{c_a} rho pushed by its
    shift field; log_weights already includes log f0_a.
    """

    base: DiscreteMeasure
    log_weights: np.ndarray  # (L, N)
    shifts: np.ndarray       # (L, N, m)

    def __post_init__(self):
        self.log_weights = np.atleast_2d(np.asarray(self.log_weights, dtype=float))
        self.shifts = np.asarray(self.shifts, dtype=float)
        L, n = self.log_weights.shape
        if self.shifts.shape != (L, n, self.base.dimension) or n != self.base.size:
            raise ShapeError("fragmented field shapes do not match (L, N, m)")

    @property
    def n_subsystems(self) -> int:
        return self.log_weights.shape[0]

    def positions(self) -> np.ndarray:
        return self.base.points[None, :, :] + self.shifts

    def weights(self) -> np.ndarray:
        L = self.n_subsystems
        return self.base.weights[None, :] * np.exp(self.log_weights) / L

    @property
    def total_volume(self) -> float:
        return float(np.sum(self.weights()))

    def as_measure(self) -> DiscreteMeasure:
        """Flatten to a plain discrete measure: massless points (f0_a = 0) are
        dropped and collisions merged by ``merge_close``."""
        points, weights, _ = _flat_support(self)
        massive = ~(weights <= 0.0)  # a NaN weight stays and is rejected below
        points, weights = points[massive], weights[massive]
        if not np.all(np.isfinite(points)) or not np.all(np.isfinite(weights)):
            raise NumericalFailure("non-finite entries in fragmented measure data")
        return DiscreteMeasure(*merge_close(points, weights))

    def support_table(self, lam: float | None = None) -> list:
        rows = []
        pos, wts = self.positions(), self.weights()
        for a in range(self.n_subsystems):
            for i in range(self.base.size):
                rows.append({"subsystem": a + 1,
                             "point": [float(c) for c in pos[a, i]],
                             "weight": float(wts[a, i]),
                             "lambda": lam})
        return rows


def fragment_measure(measure: DiscreteMeasure, ansatz: FragmentationAnsatz,
                     lam: float) -> FragmentedMeasure:
    """Apply the fragmentation ansatz at coupling lambda."""
    jets = ansatz.order_one_jets(lam).jets
    with np.errstate(divide="ignore"):  # f0_a = 0: a massless subsystem
        log_w = np.log(ansatz.f0)[:, None] + np.array([j.scalar for j in jets])
    return FragmentedMeasure(measure, log_w, np.array([j.vector for j in jets]))


def assemble_delta_bar(measure, lagrangian, nu, testbasis=None):
    """Mean-sector operator: identical to the unfragmented assembly."""
    return linops.assemble_delta(measure, lagrangian, nu, testbasis=testbasis)


@dataclass
class FluctuationForm:
    """Block-diagonal form (1/L) sum_a D_u D_v ell(x_i): the ell-Hessians."""

    hessians: np.ndarray  # (N, m, m)

    def form(self, u: MultiJet, v: MultiJet, weights=None) -> float:
        L = u.n_subsystems
        if v.n_subsystems != L:
            raise ShapeError("subsystem counts differ")
        w = np.ones(u.size) if weights is None else np.asarray(weights, float)
        total = 0.0
        for a in range(L):
            for i in range(u.size):
                total += w[i] * u.jets[a].vector[i] @ self.hessians[i] @ v.jets[a].vector[i]
        return total / L

    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([np.linalg.eigvalsh(h) for h in self.hessians])


def assemble_delta_F(measure: DiscreteMeasure, lagrangian: LagrangianModel) -> FluctuationForm:
    """Per-point Hessians of ell; the scalar components do not enter."""
    n, m = measure.size, measure.dimension
    units = np.eye(m, dtype=int)
    hess = np.zeros((n, m, m))
    for a in range(m):
        for b in range(a, m):
            hess[:, a, b] = hess[:, b, a] = integrate_partial(
                lagrangian, measure.points, measure.points, measure.weights, units[a] + units[b])
    return FluctuationForm(hess)


def _zero_mean_patterns(L: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace of R^L (Helmert rows)."""
    rows = []
    for k in range(1, L):
        v = np.zeros(L)
        v[:k] = 1.0
        v[k] = -k
        rows.append(v / np.linalg.norm(v))
    return np.array(rows) if rows else np.zeros((0, L))


def lin_fluct_basis(measure: DiscreteMeasure, lagrangian: LagrangianModel,
                    n_subsystems: int, tol_rank: float = linops.TOL_RANK) -> list:
    """Orthonormal basis of the linearized-fluctuation space.

    Zero-mean subsystem patterns tensored with the per-point null directions
    of the ell-Hessian, plus free scalar fluctuation components.
    """
    L = n_subsystems
    n, m = measure.size, measure.dimension
    dF = assemble_delta_F(measure, lagrangian)
    patterns = _zero_mean_patterns(L)
    basis = []
    scale = max(float(np.max(np.abs(dF.hessians))), 1.0)
    for chi in patterns:
        for i in range(n):
            jets = [Jet.zero(n, m) for _ in range(L)]
            for a in range(L):
                jets[a].scalar[i] = chi[a]
            basis.append(MultiJet(jets))
        for i in range(n):
            evals, evecs = np.linalg.eigh(dF.hessians[i])
            for k in range(m):
                if abs(evals[k]) <= tol_rank * scale:
                    jets = [Jet.zero(n, m) for _ in range(L)]
                    for a in range(L):
                        jets[a].vector[i] = chi[a] * evecs[:, k]
                    basis.append(MultiJet(jets))
    return basis


# ---------------------------------------------------------------------------
# fragmented configurations: residuals and the flow Jacobian


def _flat_support(frag: FragmentedMeasure) -> tuple:
    """Subsystem-major flattened support (points, weights) and the row
    weights rho_i / L of the subsystem average."""
    L, n = frag.log_weights.shape
    points = frag.positions().reshape(L * n, frag.base.dimension)
    return points, frag.weights().reshape(L * n), np.tile(frag.base.weights, L) / L


def fragmented_residual(frag: FragmentedMeasure, lagrangian, nu) -> np.ndarray:
    """Row-weighted weak EL data per subsystem point.

    Layout: subsystem major, point minor, slots (value, gradient); each
    block carries the test weight rho_i / L of the subsystem average.
    """
    points, weights, rw = _flat_support(frag)
    vals, grads = ell_field(lagrangian, nu, points, points, weights)
    return (rw[:, None] * np.hstack([vals[:, None], grads])).ravel()


def fragmented_jacobian(frag: FragmentedMeasure, lagrangian, nu) -> np.ndarray:
    """Derivative of the row-weighted residual along subsystem jets.

    Columns follow the same subsystem-major jet layout; the derivative is
    taken along the flow (weights times e^{t b}, positions plus t v), the
    alternative formulation in which the scalar component acts only through
    the y slot, so the Lagrange multiplier drops out.  That is the breve
    assembly of the linearized operator on the flattened L*N support, with
    the rows of point (a, i) reweighted by rho_i / L.
    """
    points, weights, rw = _flat_support(frag)
    blocks = linops._pointwise_blocks(points, weights, lagrangian, nu, "breve")
    return np.repeat(rw, 1 + frag.base.dimension)[:, None] * blocks


def apply_increment(frag: FragmentedMeasure, mj: MultiJet) -> FragmentedMeasure:
    return FragmentedMeasure(frag.base, frag.log_weights + [j.scalar for j in mj.jets],
                             frag.shifts + [j.vector for j in mj.jets])


def perturbed_laplacian_linF(measure: DiscreteMeasure, lagrangian: LagrangianModel,
                             ansatz: FragmentationAnsatz, lam: float,
                             directions: list | None = None,
                             nu: float = 0.0) -> np.ndarray:
    """Bilinear form <u, Delta-tilde v> on fluctuation directions of the
    fragmented measure at coupling lambda.

    Rows are test directions, columns argument directions; the derivative of
    the subsystem-averaged EL data along the argument flow.  Defaults to the
    orthonormal linearized-fluctuation basis of the base measure.
    """
    if directions is None:
        directions = lin_fluct_basis(measure, lagrangian, ansatz.n_subsystems)
    frag = fragment_measure(measure, ansatz, lam)
    J = fragmented_jacobian(frag, lagrangian, nu)
    cols = np.array([d.flatten() for d in directions]).T
    return cols.T @ J @ cols


# ---------------------------------------------------------------------------
# scenarios, well-posedness, the fragmented expansion


@dataclass
class Scenario:
    """Bundle of a fragmentation study: base data plus the ansatz."""

    name: str
    measure: DiscreteMeasure
    lagrangian: LagrangianModel
    nu: float
    n_subsystems: int
    ansatz: FragmentationAnsatz
    lam_grid: np.ndarray = field(default_factory=lambda: np.geomspace(0.02, 0.1, 5))
    testbasis: TestBasis | None = None


def example52_scenario(f1: float = 1.0, w: float | None = None,
                       regularized: bool = False,
                       lam_grid=None) -> Scenario:
    """The two-subsystem worked example: Dirac at the origin, fragmentation
    along the flat direction with weights (f1, 2 - f1) and spread w."""
    from .lagrangian import build_lagrangian

    if w is None:
        w = 1.0 / math.sqrt(2.0)
    lag = build_lagrangian("example52_regularized" if regularized else "example52")
    measure = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    mean_jet = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    linf = MultiJet([Jet(np.zeros(1), np.array([[w, 0.0]])),
                     Jet(np.zeros(1), np.array([[-w, 0.0]]))])
    ansatz = FragmentationAnsatz(np.array([f1, 2.0 - f1]), 1.0, 1.0, mean_jet,
                                 linf_fluct=linf)
    grid = np.geomspace(0.02, 0.1, 5) if lam_grid is None else np.asarray(lam_grid)
    name = "example52" + ("-regularized" if regularized else "")
    return Scenario(name, measure, lag, 0.0, 2, ansatz, grid)


@dataclass
class WellPosednessReport:
    r_estimate: float
    fit_residual: float
    error_exponent: float
    verdict: str
    q: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "r_estimate": self.r_estimate,
            "fit_residual": self.fit_residual,
            "error_exponent": self.error_exponent if math.isfinite(self.error_exponent) else "inf",
            "verdict": self.verdict,
            "q": self.q,
            "details": {k: (v if np.isscalar(v) else list(np.asarray(v).ravel()))
                        for k, v in self.details.items()},
        }


def _q_scaled(directions, q, lam):
    out = []
    for d in directions:
        out.append(MultiJet([Jet(j.scalar.copy(), lam ** q * j.vector) for j in d.jets]))
    return out


def wellposedness_check(scenario: Scenario, lam_grid=None,
                        max_fit_residual: float = 0.1) -> WellPosednessReport:
    """Estimate the definiteness order r of the perturbed form on the
    linearized-fluctuation space and compare it with the EL error exponent.

    Vector components of test and argument directions are rescaled by
    lambda^q (differentiating the microstructure costs a factor lambda^-q).
    Well-posed needs r > q and error exponent >= r + 1 - 0.2.
    """
    grid = np.asarray(scenario.lam_grid if lam_grid is None else lam_grid, dtype=float)
    if len(grid) < 4:
        raise ShapeError("need a geometric grid with at least 4 points")
    basis = lin_fluct_basis(scenario.measure, scenario.lagrangian, scenario.n_subsystems)
    if not basis:
        return WellPosednessReport(math.nan, 0.0, math.inf, "inconclusive",
                                   scenario.ansatz.q,
                                   {"reason": "empty linearized-fluctuation space"})
    q = scenario.ansatz.q
    smin, smax, errs = [], [], []
    for lam in grid:
        scaled = _q_scaled(basis, q, lam)
        M = perturbed_laplacian_linF(scenario.measure, scenario.lagrangian,
                                     scenario.ansatz, lam, directions=scaled,
                                     nu=scenario.nu)
        s = np.linalg.svd(M, compute_uv=False)
        smin.append(s[-1])
        smax.append(s[0])
        frag = fragment_measure(scenario.measure, scenario.ansatz, lam)
        res = fragmented_residual(frag, scenario.lagrangian, scenario.nu)
        errs.append(max(abs(float(d.flatten() @ res)) for d in scaled))
    r_min, fit_min = loglog_slope(grid, np.array(smin), floor=RESIDUAL_FLOOR)
    r_max, fit_max = loglog_slope(grid, np.array(smax), floor=RESIDUAL_FLOOR)
    err_exp, _ = loglog_slope(grid, np.array(errs), floor=RESIDUAL_FLOOR)
    if not math.isfinite(r_min):
        return WellPosednessReport(math.nan, 0.0, err_exp, "inconclusive",
                                   q, {"reason": "degenerate form values"})
    if max(fit_min, fit_max) > max_fit_residual:
        raise InconclusiveFit(
            f"log-log fit residual {max(fit_min, fit_max):.3f} exceeds {max_fit_residual}")
    uniform = abs(r_min - r_max) <= 0.5
    r = r_min
    ok = uniform and r > q and err_exp >= r + 1.0 - 0.2
    verdict = "well-posed" if ok else "ill-posed"
    details = {"sigma_min": smin, "sigma_max": smax, "errors": errs,
               "r_from_sigma_max": r_max, "uniform_order": uniform}
    return WellPosednessReport(r, max(fit_min, fit_max), err_exp, verdict, q, details)


def _sector_projectors(measure, lagrangian, L, tol_rank=linops.TOL_RANK):
    """Orthonormal column blocks for mean, complement, lin-F coordinates."""
    n, m = measure.size, measure.dimension
    width = 1 + m
    D = L * n * width
    mean_cols = []
    for i in range(n):
        for s in range(width):
            v = np.zeros(D)
            for a in range(L):
                v[(a * n + i) * width + s] = 1.0 / math.sqrt(L)
            mean_cols.append(v)
    mean = np.array(mean_cols).T
    linf = np.array([mj.flatten() for mj in lin_fluct_basis(measure, lagrangian, L,
                                                            tol_rank)]).T
    if linf.size == 0:
        linf = np.zeros((D, 0))
    taken = np.hstack([mean, linf])
    proj = np.eye(D) - taken @ taken.T
    u, s, _ = np.linalg.svd(proj)
    compl = u[:, s > 0.5]
    return mean, compl, linf


@dataclass
class FragmentedExpansion:
    scenario: Scenario
    lam: float
    order: int
    measure: FragmentedMeasure
    increments: list
    sector_residuals: list
    series: object = None  # L = 1 delegation


def fragment_expand(scenario: Scenario, order: int, lam: float | None = None,
                    report: WellPosednessReport | None = None,
                    sector_rcond: float = 0.1) -> FragmentedExpansion:
    """Sector-by-sector correction sweeps on the fragmented configuration.

    One sweep per order beyond the ansatz: first the mean and complement
    sectors are corrected through the operator of the current configuration,
    then the neutral directions through the perturbed form (the inverse the
    well-posedness order r guarantees).  For a single subsystem this reduces
    to the plain expansion, to which the call is delegated.

    ``sector_rcond`` is the relative column cut of the mean and complement
    solve: directions on which the operator is perturbatively small are
    deferred to later sweeps instead of being inverted, which would throw
    the iteration off the lambda microstructure.
    """
    if lam is None:
        lam = float(np.sqrt(scenario.lam_grid[0] * scenario.lam_grid[-1]))
    L = scenario.n_subsystems
    measure, lagrangian, nu = scenario.measure, scenario.lagrangian, scenario.nu
    if L == 1:
        from . import expansion

        jets = scenario.ansatz.order_one_jets(lam)
        start = push_forward(measure, jets.jets[0].scalar, jets.jets[0].vector)
        series = expansion.expand(start, lagrangian, nu, order)
        frag = FragmentedMeasure(
            start, np.zeros((1, start.size)), np.zeros((1, start.size, start.dimension)))
        corrected = expansion.reconstruct(series, 1.0)
        final = FragmentedMeasure(corrected, np.zeros((1, corrected.size)),
                                  np.zeros((1, corrected.size, corrected.dimension)))
        return FragmentedExpansion(scenario, lam, order, final, [], [], series=series)

    if report is None:
        report = wellposedness_check(scenario)
    if report.verdict != "well-posed":
        raise NotWellPosed(f"fragmentation verdict: {report.verdict}")

    n, m = measure.size, measure.dimension
    mean_P, compl_P, linf_P = _sector_projectors(measure, lagrangian, L)
    frag = fragment_measure(measure, scenario.ansatz, lam)
    q = scenario.ansatz.q

    def sector_norms(res_vec):
        linf_scaled = []
        for col in linf_P.T:
            mj = MultiJet.unflatten(col, L, m)
            scaled = MultiJet([Jet(j.scalar, lam ** q * j.vector) for j in mj.jets])
            linf_scaled.append(scaled.flatten())
        return {
            "mean": float(np.max(np.abs(mean_P.T @ res_vec))) if mean_P.size else 0.0,
            "complement": float(np.max(np.abs(compl_P.T @ res_vec))) if compl_P.size else 0.0,
            "lin_f": float(max((abs(v @ res_vec) for v in linf_scaled), default=0.0)),
        }

    def damped(frag_in, res_in, step_vec, sector: np.ndarray):
        """Take the step only if it clearly reduces its own sector residual.

        The sector operators of a fragmented configuration are graded in
        lambda; an undamped solve can leave the microstructure scale along
        nearly-neutral directions.  A step is accepted only when it improves
        the targeted sector substantially without inflating the rest,
        otherwise the correction is deferred to a later order."""
        own = lambda r: np.linalg.norm(sector.T @ r) if sector.size else 0.0
        base_own = own(res_in)
        base_total = np.linalg.norm(res_in)
        for scale in (1.0, 0.5):
            mj = MultiJet.unflatten(step_vec * scale, L, m)
            cand = apply_increment(frag_in, mj)
            res = fragmented_residual(cand, lagrangian, nu)
            if own(res) < 0.5 * base_own and np.linalg.norm(res) <= 2.0 * base_total:
                return cand, res, mj
        return frag_in, res_in, None

    def graded_solve(A, rhs, col_floor=1e-4):
        """Least-squares restricted to directions the operator can support.

        Directions whose operator column is perturbatively small relative to
        the largest one cannot be corrected at the current order; they are
        excluded rather than inverted."""
        norms = np.linalg.norm(A, axis=0)
        top = norms.max() if norms.size else 0.0
        keep = norms >= col_floor * top if top > 0 else norms > 0
        x = np.zeros(A.shape[1])
        if np.any(keep):
            sub = np.ix_(keep, keep)
            x[keep] = np.linalg.lstsq(A[sub], rhs[keep], rcond=1e-10)[0]
        return x

    increments = []
    residual = fragmented_residual(frag, lagrangian, nu)
    history = [sector_norms(residual)]
    for sweep in range(2, order + 1):
        J = fragmented_jacobian(frag, lagrangian, nu)
        # mean + complement step through the current operator
        mc = np.hstack([mean_P, compl_P])
        A = mc.T @ J @ mc
        rhs = mc.T @ residual
        step = -mc @ graded_solve(A, rhs, col_floor=sector_rcond)
        frag, residual, taken = damped(frag, residual, step, mc)
        if taken is not None:
            increments.append(taken)
        # neutral directions through the perturbed form
        if linf_P.size:
            J2 = fragmented_jacobian(frag, lagrangian, nu)
            A_f = linf_P.T @ J2 @ linf_P
            rhs_f = linf_P.T @ residual
            step_f = -linf_P @ np.linalg.lstsq(A_f, rhs_f, rcond=1e-12)[0]
            frag, residual, taken_f = damped(frag, residual, step_f, linf_P)
            if taken_f is not None:
                increments.append(taken_f)
        history.append(sector_norms(residual))
    return FragmentedExpansion(scenario, lam, order, frag, increments, history)


def fragment_expand_study(scenario: Scenario, order: int, lam_grid=None) -> dict:
    """Per-sector residual decay exponents of the order-P sweeps over a grid."""
    grid = np.asarray(scenario.lam_grid if lam_grid is None else lam_grid, dtype=float)
    report = None
    if scenario.n_subsystems > 1:
        report = wellposedness_check(scenario)
    rows = []
    for lam in grid:
        out = fragment_expand(scenario, order, lam, report=report)
        if out.series is not None:
            from . import expansion

            corrected = expansion.reconstruct(out.series, 1.0)
            val = linops.delta_zero_dual(corrected, scenario.lagrangian, scenario.nu).norm()
            rows.append({"lambda": lam, "mean": val, "complement": 0.0, "lin_f": 0.0})
        else:
            rows.append({"lambda": lam, **out.sector_residuals[-1]})
    slopes = {}
    for key in ("mean", "complement", "lin_f"):
        vals = np.array([r[key] for r in rows])
        slopes[key], _ = loglog_slope(grid, vals, floor=RESIDUAL_FLOOR)
    return {"rows": rows, "slopes": slopes, "report": report}
