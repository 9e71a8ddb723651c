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

Fragmented directions are flat columns in the layout of ``MultiJet.flatten``
(subsystem major, then point-major blocks [scalar, vector]).  One ``eigh``
of the ell-Hessians splits each point's slots into neutral ones (scalar and
null eigendirections) and the others; the mean sector is kron(1/sqrt(L),
slots), lin-F and complement are kron(zero-mean pattern, neutral or other
slot), and the lambda^q rescaling is one diagonal on those columns.

The weak EL residual and its flow Jacobian of a fragmented configuration
are read from its flattened L*N support by one helper, which takes a
leading stack axis: the well-posedness check stacks the supports of its
whole lambda grid and reads them in one pass.

The expansion driver corrects the neutral directions through the perturbed
form of the current configuration, one step per order taken whole or not
at all, and reports the mean, complement and lin-F residuals after each
sweep.  The mean and complement are not corrected yet: their exact
order-by-order solve through the operator of the configuration, and the
exact combinatorial bookkeeping of the fragmented higher orders, are open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import ArgError, InconclusiveFit, NotWellPosed, NumericalFailure, ShapeError
from .el import ell_field
from .fitting import loglog_slope
from .jets import Jet, MultiJet, check_on_support
from .lagrangian import LagrangianModel
from .measure import DiscreteMeasure, pair_reader, push_forward

RESIDUAL_FLOOR = 5e-15
MAX_FIT_RESIDUAL = 0.1  # a worse log-log fit of the form's singular values is inconclusive


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
        if not np.all(np.isfinite(np.r_[self.f0, self.p, self.q])) or np.any(self.f0 < 0):
            raise ShapeError("subsystem weights must be finite and non-negative, exponents finite")
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
        return DiscreteMeasure.merged(points, weights)

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
    """Apply the fragmentation ansatz at coupling lambda >= 0: subsystem a
    carries the order-one jet lambda^p (mean + complement_a) + lambda^q
    lin-F_a, whose scalar part adds to log f0_a."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ArgError(f"coupling lambda must be finite and >= 0, got {lam}")
    mean, compl, linf = ansatz.mean_jet, ansatz.compl_fluct.jets, ansatz.linf_fluct.jets
    scalars = lam ** ansatz.p * (mean.scalar + [j.scalar for j in compl])
    with np.errstate(divide="ignore"):  # f0_a = 0: a massless subsystem
        log_w = np.log(ansatz.f0)[:, None] + scalars
    shifts = (lam ** ansatz.p * (mean.vector + [j.vector for j in compl])
              + lam ** ansatz.q * np.array([j.vector for j in linf]))
    return FragmentedMeasure(measure, log_w, shifts)


@dataclass
class FluctuationForm:
    """Block-diagonal form (1/L) sum_a D_u D_v ell(x_i): the ell-Hessians."""

    hessians: np.ndarray  # (N, m, m)

    def form(self, u: MultiJet, v: MultiJet) -> float:
        if v.n_subsystems != u.n_subsystems:
            raise ShapeError("subsystem counts differ")
        U, V = (np.array([j.vector for j in mj.jets]) for mj in (u, v))
        return float(np.einsum("aik,ikl,ail->", U, self.hessians, V)) / u.n_subsystems

    def eigenvalues(self) -> np.ndarray:
        return np.concatenate([np.linalg.eigvalsh(h) for h in self.hessians])


def assemble_delta_F(measure: DiscreteMeasure, lagrangian: LagrangianModel) -> FluctuationForm:
    """Per-point Hessians of ell (``ell_field``); the scalar components do not enter."""
    return FluctuationForm(ell_field(lagrangian, 0.0, measure.weights,
                                     measure.pair_tables(lagrangian), order=2)[2])


def _zero_mean_patterns(L: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace of R^L (Helmert rows)."""
    rows = []
    for k in range(1, L):
        v = np.zeros(L)
        v[:k] = 1.0
        v[k] = -k
        rows.append(v / np.linalg.norm(v))
    return np.array(rows) if rows else np.zeros((0, L))


def _slot_split(measure: DiscreteMeasure, lagrangian: LagrangianModel) -> tuple:
    """Each point's slots as flat columns of the N(1+m) jet space, split by
    one ``eigh`` of the ell-Hessians: (neutral, other).  Neutral are the
    scalar slot of every point, then the per-point null eigendirections of
    the Hessian (point major); other are the remaining eigendirections."""
    n, width = measure.size, 1 + measure.dimension
    hess = assemble_delta_F(measure, lagrangian).hessians
    evals, evecs = np.linalg.eigh(hess)
    null = np.abs(evals) <= linops.TOL_RANK * max(float(np.max(np.abs(hess))), 1.0)
    split = []
    for mask in (null, ~null):
        pts, ks = np.nonzero(mask)
        cols = np.zeros((n, width, len(pts)))
        cols[pts, 1:, np.arange(len(pts))] = evecs[pts, :, ks]
        split.append(cols.reshape(n * width, len(pts)))
    return np.hstack([np.eye(n * width)[:, ::width], split[0]]), split[1]


def lin_fluct_columns(measure: DiscreteMeasure, lagrangian: LagrangianModel,
                      n_subsystems: int) -> np.ndarray:
    """Orthonormal basis of the linearized-fluctuation space as flat columns
    kron(pattern, slot): each zero-mean subsystem pattern with the neutral
    slots of ``_slot_split`` (pattern major, slot minor)."""
    return np.kron(_zero_mean_patterns(n_subsystems).T, _slot_split(measure, lagrangian)[0])


def lin_fluct_basis(measure: DiscreteMeasure, lagrangian: LagrangianModel,
                    n_subsystems: int) -> list:
    """The ``lin_fluct_columns`` basis as multi-jets."""
    cols = lin_fluct_columns(measure, lagrangian, n_subsystems)
    return [MultiJet.unflatten(c, n_subsystems, measure.dimension) for c in cols.T]


def _q_scaling(measure: DiscreteMeasure, n_subsystems: int, lam: float, q: float) -> np.ndarray:
    """Flat diagonal of the microstructure rescaling: 1 on scalar slots,
    lambda^q on vector slots."""
    return np.tile(np.r_[1.0, np.full(measure.dimension, lam ** q)], n_subsystems * measure.size)


# ---------------------------------------------------------------------------
# fragmented configurations: residuals and the flow Jacobian


def _flat_support(frag: FragmentedMeasure) -> tuple:
    """Subsystem-major flattened support (points, weights), no DiscreteMeasure
    (points may coincide or be massless), and the row weights rho_i / L."""
    L, n = frag.log_weights.shape
    points = frag.positions().reshape(L * n, frag.base.dimension)
    return points, frag.weights().reshape(L * n), np.tile(frag.base.weights, L) / L


def _weak_el(lagrangian, points, weights, rw, nu=None, jacobian=False) -> tuple:
    """Row-weighted weak EL data of flattened supports: points (..., K, m),
    weights (..., K), row weights rw (..., K), all read through one pair
    reader.  Returns (residual, Jacobian): the residual (..., K(1+m)) for a
    given nu (else None), slots (value, gradient) per point, and with
    ``jacobian`` its derivative along the flow, the breve blocks (...,
    K(1+m), K(1+m)) with the rows of each point reweighted (else None)."""
    table = pair_reader(lagrangian, points)
    residual = J = None
    if nu is not None:
        vals, grads = ell_field(lagrangian, nu, weights, table)
        data = np.concatenate([vals[..., None], grads], axis=-1)
        residual = (rw[..., None] * data).reshape(vals.shape[:-1] + (-1,))
    if jacobian:
        blocks = linops._pointwise_blocks(weights, lagrangian, 0.0, "breve", table)
        J = np.repeat(rw, 1 + points.shape[-1], axis=-1)[..., :, None] * blocks
    return residual, J


def fragmented_residual(frag: FragmentedMeasure, lagrangian, nu) -> np.ndarray:
    """Row-weighted weak EL data per subsystem point.

    Layout: subsystem major, point minor, slots (value, gradient); each
    block carries the test weight rho_i / L of the subsystem average.
    """
    return _weak_el(lagrangian, *_flat_support(frag), nu=nu)[0]


def fragmented_jacobian(frag: FragmentedMeasure, lagrangian) -> np.ndarray:
    """Derivative of the row-weighted residual along subsystem jets.

    Columns follow the same subsystem-major jet layout; the derivative is
    taken along the flow (weights times e^{t b}, positions plus t v), the
    alternative formulation in which the scalar component acts only through
    the y slot, so the Lagrange multiplier drops out.  That is the breve
    assembly of the linearized operator on the flattened L*N support, with
    the rows of point (a, i) reweighted by rho_i / L; nu is not read.
    """
    return _weak_el(lagrangian, *_flat_support(frag), jacobian=True)[1]


def apply_increment(frag: FragmentedMeasure, mj: MultiJet) -> FragmentedMeasure:
    return FragmentedMeasure(frag.base, frag.log_weights + [j.scalar for j in mj.jets],
                             frag.shifts + [j.vector for j in mj.jets])


def perturbed_laplacian_linF(measure: DiscreteMeasure, lagrangian: LagrangianModel,
                             ansatz: FragmentationAnsatz, lam: float,
                             directions: list | None = None) -> np.ndarray:
    """Bilinear form <u, Delta-tilde v> on fluctuation directions of the
    fragmented measure at coupling lambda.

    Rows are test directions, columns argument directions; the derivative of
    the subsystem-averaged EL data along the argument flow (the breve
    ``fragmented_jacobian``, which reads no nu).  Defaults to the orthonormal
    linearized-fluctuation basis of the base measure (``lin_fluct_columns``).
    Given directions must fit the support and the ansatz's subsystem count.
    """
    if directions is None:
        cols = lin_fluct_columns(measure, lagrangian, ansatz.n_subsystems)
    else:
        check_on_support(directions, measure.size, measure.dimension, "direction")
        if any(d.n_subsystems != ansatz.n_subsystems for d in directions):
            raise ShapeError(f"directions need {ansatz.n_subsystems} subsystems")
        cols = np.array([d.flatten() for d in directions]).T
    frag = fragment_measure(measure, ansatz, lam)
    return cols.T @ fragmented_jacobian(frag, lagrangian) @ cols


# ---------------------------------------------------------------------------
# scenarios, well-posedness, the fragmented expansion


@dataclass
class Scenario:
    """Bundle of a fragmentation study: base data plus the ansatz, which
    fixes the number of subsystems (``n_subsystems``)."""

    name: str
    measure: DiscreteMeasure
    lagrangian: LagrangianModel
    nu: float
    ansatz: FragmentationAnsatz
    lam_grid: np.ndarray = field(default_factory=lambda: np.geomspace(0.02, 0.1, 5))

    def __post_init__(self):
        if not isinstance(self.ansatz, FragmentationAnsatz):
            raise ArgError(f"ansatz is a {type(self.ansatz).__name__}, not a FragmentationAnsatz")
        check_on_support([self.ansatz.mean_jet], *self.measure.points.shape, "ansatz")

    @property
    def n_subsystems(self) -> int:
        return self.ansatz.n_subsystems


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
    return Scenario(name, measure, lag, 0.0, ansatz, grid)


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


def wellposedness_check(scenario: Scenario) -> WellPosednessReport:
    """Estimate the definiteness order r of the perturbed form on the
    linearized-fluctuation space and compare it with the EL error exponent.

    Vector components of test and argument directions are rescaled by
    lambda^q (differentiating the microstructure costs a factor lambda^-q).
    The grid is one stacked pass: one fragmented measure per lambda of
    ``scenario.lam_grid``, whose flattened supports are stacked and read
    through one pair reader by one Jacobian and one residual, then one
    batched form and one SVD over the stack.  A grid that is not 1-D with at
    least 4 points raises ShapeError, a lambda that is not finite and > 0
    (the log-log fits need lambda > 0) ArgError, both before any assembly.
    Well-posed needs r > q and error exponent >= r + 1 - 0.2.
    """
    grid = np.asarray(scenario.lam_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 4:
        raise ShapeError(f"need a geometric grid with at least 4 points, got shape {grid.shape}")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ArgError(f"coupling lambdas must be finite and > 0, got {grid.tolist()}")
    measure, lagrangian, nu = scenario.measure, scenario.lagrangian, scenario.nu
    L, q = scenario.n_subsystems, scenario.ansatz.q
    basis = lin_fluct_columns(measure, lagrangian, L)
    if not basis.size:
        return WellPosednessReport(math.nan, 0.0, math.inf, "inconclusive", q,
                                   {"reason": "empty linearized-fluctuation space"})
    points, weights, rw = zip(*(_flat_support(fragment_measure(measure, scenario.ansatz, lam))
                                for lam in grid))
    residual, J = _weak_el(lagrangian, np.stack(points), np.stack(weights), rw[0], nu,
                           jacobian=True)
    cols = basis * np.array([_q_scaling(measure, L, lam, q) for lam in grid])[:, :, None]
    colsT = np.swapaxes(cols, -1, -2)
    s = np.linalg.svd(colsT @ J @ cols, compute_uv=False)
    smin, smax = list(s[:, -1]), list(s[:, 0])
    errs = [float(e) for e in np.max(np.abs(colsT @ residual[..., None]), axis=(-2, -1))]
    r_min, fit_min = loglog_slope(grid, np.array(smin), floor=RESIDUAL_FLOOR)
    r_max, fit_max = loglog_slope(grid, np.array(smax), floor=RESIDUAL_FLOOR)
    err_exp, _ = loglog_slope(grid, np.array(errs), floor=RESIDUAL_FLOOR)
    if not math.isfinite(r_min):
        return WellPosednessReport(math.nan, 0.0, err_exp, "inconclusive",
                                   q, {"reason": "degenerate form values"})
    if max(fit_min, fit_max) > MAX_FIT_RESIDUAL:
        raise InconclusiveFit(
            f"log-log fit residual {max(fit_min, fit_max):.3f} exceeds {MAX_FIT_RESIDUAL}")
    uniform = abs(r_min - r_max) <= 0.5
    r = r_min
    ok = uniform and r > q and err_exp >= r + 1.0 - 0.2
    verdict = "well-posed" if ok else "ill-posed"
    details = {"sigma_min": smin, "sigma_max": smax, "errors": errs,
               "r_from_sigma_max": r_max, "uniform_order": uniform}
    return WellPosednessReport(r, max(fit_min, fit_max), err_exp, verdict, q, details)


def _sector_projectors(measure, lagrangian, L):
    """Orthonormal column blocks for the mean, complement and lin-F
    coordinates: kron(1/sqrt(L), identity), then each zero-mean pattern with
    the other and the neutral slots of ``_slot_split``.  Together they span
    the LN(1+m) jet space."""
    patterns = _zero_mean_patterns(L).T
    neutral, other = _slot_split(measure, lagrangian)
    mean = np.kron(np.full((L, 1), 1.0 / math.sqrt(L)), np.eye(len(neutral)))
    return mean, np.kron(patterns, other), np.kron(patterns, neutral)


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
                    report: WellPosednessReport | None = None) -> FragmentedExpansion:
    """Neutral-direction correction sweeps on the fragmented configuration.

    One sweep per order beyond the ansatz: the neutral directions are
    corrected through the perturbed form of the current configuration (the
    inverse the well-posedness order r guarantees), the step taken whole or
    not at all, and the mean, complement and lin-F residuals are recorded.
    The mean and complement residuals are reported but not corrected.  For
    a single subsystem this reduces to the plain expansion, to which the
    call is delegated.
    """
    if lam is None:
        lam = float(np.sqrt(scenario.lam_grid[0] * scenario.lam_grid[-1]))
    L = scenario.n_subsystems
    measure, lagrangian, nu = scenario.measure, scenario.lagrangian, scenario.nu
    if L == 1:
        from . import expansion

        frag = fragment_measure(measure, scenario.ansatz, lam)  # log f0 = 0 for f0 = [1.0]
        start = push_forward(measure, frag.log_weights[0], frag.shifts[0])
        series = expansion.expand(start, lagrangian, nu, order)
        corrected = expansion.reconstruct(series, 1.0)
        final = FragmentedMeasure(corrected, np.zeros((1, corrected.size)),
                                  np.zeros((1, corrected.size, corrected.dimension)))
        return FragmentedExpansion(scenario, lam, order, final, [], [], series=series)

    if report is None:
        report = wellposedness_check(scenario)
    if report.verdict != "well-posed":
        raise NotWellPosed(f"fragmentation verdict: {report.verdict}")

    m = measure.dimension
    mean_P, compl_P, linf_P = _sector_projectors(measure, lagrangian, L)
    linf_q = linf_P * _q_scaling(measure, L, lam, scenario.ansatz.q)[:, None]
    frag = fragment_measure(measure, scenario.ansatz, lam)

    def sector_norms(res_vec):
        sup = lambda P: float(np.max(np.abs(P.T @ res_vec))) if P.size else 0.0
        return {"mean": sup(mean_P), "complement": sup(compl_P), "lin_f": sup(linf_q)}

    def damped(frag_in, res_in, step_vec, sector: np.ndarray):
        """Take the whole step only if it clearly reduces its own sector residual.

        The sector operators of a fragmented configuration are graded in
        lambda; an undamped solve can leave the microstructure scale along
        nearly-neutral directions.  The step is accepted only when it improves
        the targeted sector substantially without inflating the rest;
        otherwise none of it is taken, and a later order tries again."""
        own = lambda r: np.linalg.norm(sector.T @ r) if sector.size else 0.0
        mj = MultiJet.unflatten(step_vec, L, m)
        cand = apply_increment(frag_in, mj)
        res = fragmented_residual(cand, lagrangian, nu)
        if own(res) < 0.5 * own(res_in) and np.linalg.norm(res) <= 2.0 * np.linalg.norm(res_in):
            return cand, res, mj
        return frag_in, res_in, None

    increments = []
    residual = fragmented_residual(frag, lagrangian, nu)
    history = [sector_norms(residual)]
    for _ in range(2, order + 1):  # a well-posed verdict implies a non-empty lin-F basis
        A = linf_P.T @ fragmented_jacobian(frag, lagrangian) @ linf_P
        step = -linf_P @ np.linalg.lstsq(A, linf_P.T @ residual, rcond=1e-12)[0]
        frag, residual, taken = damped(frag, residual, step, linf_P)
        if taken is not None:
            increments.append(taken)
        history.append(sector_norms(residual))
    return FragmentedExpansion(scenario, lam, order, frag, increments, history)


def fragment_expand_study(scenario: Scenario, order: int) -> dict:
    """Per-sector residual decay exponents of the order-P sweeps over
    ``scenario.lam_grid``."""
    grid = np.asarray(scenario.lam_grid, dtype=float)
    report = wellposedness_check(scenario) if scenario.n_subsystems > 1 else None
    rows = []
    for lam in grid:
        out = fragment_expand(scenario, order, lam, report=report)
        if out.series is not None:
            val = linops.delta_zero_dual(out.measure.base, scenario.lagrangian,
                                         scenario.nu).norm()
            rows.append({"lambda": lam, "mean": val, "complement": 0.0, "lin_f": 0.0})
        else:
            rows.append({"lambda": lam, **out.sector_residuals[-1]})
    slopes = {}
    for key in ("mean", "complement", "lin_f"):
        vals = np.array([r[key] for r in rows])
        slopes[key], _ = loglog_slope(grid, vals, floor=RESIDUAL_FLOOR)
    return {"rows": rows, "slopes": slopes, "report": report}
