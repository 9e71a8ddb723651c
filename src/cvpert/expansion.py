"""Order-by-order perturbation driver.

The jets w^(p) solve Delta w^(p) = -E^(p), where E^(1) is the dual lift of
Delta_0 and, for p >= 2, E^(p) sums Delta_l over all ordered compositions
q_1 + ... + q_l = p with l >= 2.  That sum is one Taylor coefficient: the
lambda^p coefficient of the weak EL dual jet along the jet series truncated
before order p, which every model computes in one pass
(``linops.taylor_error_dual``).  Only the diagram ledger sums the Delta_l
terms, each polarized from that coefficient along lines; a series builds
its ledger from its jets on first access (the expansion only produces tree
diagrams, so the exported document is a forest).  Delta, Delta_0, every E^(p)
and the ledger read the partial tables the base measure keeps, so a model
without series reads each partial once per support.

One order recursion (``_recursion``) solves for every jet: the expansion
and its inhomogeneous form run it from no jets, a family from the jets
[w1] of a linearized solution.

Evaluating the series at lambda pushes the base measure forward with the
accumulated log-weight and shift fields (``PerturbationSeries.partial_sums``,
one per cut of the series); lambda itself is only the
book-keeping parameter of the formal series.  Since w^(p) depends only on
the lower orders, a series cut after order p is the order-p expansion, bit
for bit.  The order-scaling check stacks the starts of its whole lambda
grid (``measure.SupportStack.push``, one stack per support size), expands the
stack once, to the highest order it fits, and reads every lower order from
the cut series; each start's rows are those of its own expansion, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import linops
from .errors import (ArgError, DegenerateFit, LedgerMissing, NotCritical, NotLinearized,
                     OutOfRange, ShapeError, finite_real, integer, overflow_fails, shown)
from .fitting import lambda_grid, loglog_slope
from .jets import DualJet, Jet, check_on_support
from .lagrangian import LagrangianModel
from .measure import DiscreteMeasure, SupportStack, push_forward

SLOPE_BAND = 0.2  # acceptance band on fitted exponents, next-order contamination
TOL_CRITICAL = 1e-9  # |Delta_0| up to which a family's base counts as critical
RESIDUAL_FLOOR = 1e-14


def _check_order(order, least=0, what="order"):
    return integer(order, least, what, ArgError)  # every order of the API raises ArgError


def compositions(p: int, ell: int) -> list[tuple]:
    """All ordered tuples (q_1..q_ell) of positive integers with sum p.

    Lexicographic order; the count is C(p-1, ell-1).
    """
    if _check_order(ell, 1, "ell") > _check_order(p, 1, "p"):
        raise ArgError(f"need 1 <= ell <= p, got ell={ell}, p={p}")
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (p,)))
            for cuts in combinations(range(1, p), ell - 1)]


@dataclass
class LedgerTerm:
    order: int
    composition: tuple
    dual: DualJet

    @property
    def ell(self) -> int:
        return len(self.composition)

    def to_json(self) -> dict:
        return {"ell": self.ell, "composition": list(self.composition), "norm": self.dual.norm()}


@dataclass
class DiagramLedger:
    """Per order: the Delta_l composition terms making up E^(p)."""

    terms: dict = field(default_factory=dict)

    def add(self, term: LedgerTerm):
        self.terms.setdefault(term.order, []).append(term)

    def order_sum(self, p: int, n_points: int, dim: int) -> DualJet:
        return sum((term.dual for term in self.terms.get(p, [])), DualJet.zero(n_points, dim))

    def to_json(self) -> dict:
        return {str(p): [t.to_json() for t in terms] for p, terms in sorted(self.terms.items())}


@dataclass
class Inhomogeneity:
    """Prescribed jets v^(1..P) describing a perturbation of the vacuum."""

    jets: list

    @classmethod
    def zero(cls, order: int, n_points: int, dim: int) -> "Inhomogeneity":
        return cls([Jet.zero(n_points, dim) for _ in range(order)])


@dataclass
class PerturbationSeries:
    """Ordered jets w^(1..P) over a base measure, plus the diagram ledger;
    the order P (``order``) is the number of jets.

    ``range_defects`` logs, per order, the relative norm of the error-term
    component outside range(Delta) that permissive mode projected away.
    ``ledger_source`` is (lagrangian, first order) when the series keeps its
    ledger, which is then built from the jets on first access.
    """

    base: DiscreteMeasure
    nu: float
    jets: list
    convention: str = "standard"
    range_defects: list = field(default_factory=list)
    ledger_source: tuple | None = field(default=None, repr=False)
    _ledger: DiagramLedger | None = field(default=None, init=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.jets)

    @property
    def ledger(self) -> DiagramLedger | None:
        """Composition terms of every E^(p); None without ledger retention."""
        if self._ledger is None and self.ledger_source is not None:
            lagrangian, first = self.ledger_source
            ledger = DiagramLedger()
            for p in range(first, self.order + 1):
                error_term(p, self.jets, self.base, lagrangian, self.nu,
                           self.convention, ledger)
            self._ledger = ledger
        return self._ledger

    def truncated(self, order: int) -> "PerturbationSeries":
        """The series cut after w^(order).  Each w^(p) depends only on
        w^(1..p-1), so this is the order-``order`` expansion, bit for bit."""
        if _check_order(order, what="cut order") > self.order:
            raise ArgError(f"cut order {order} outside 0..{self.order}")
        return replace(self, jets=self.jets[:order],
                       range_defects=self.range_defects[:order])

    def partial_sums(self, lam: float) -> tuple:
        """Log-weight and shift fields sum_{p <= P} lambda^p w^(p) for every
        cut P = 0..order, stacked along a new leading axis; NumericalFailure
        when a term overflows."""
        scalars, vectors = [np.zeros(self.base.weights.shape)], [np.zeros(self.base.points.shape)]
        with overflow_fails(f"the partial sums at lambda {lam}"):
            for p, w in enumerate(self.jets, start=1):
                scalars.append(lam ** p * w.scalar)
                vectors.append(lam ** p * w.vector)
            return np.cumsum(scalars, axis=0), np.cumsum(vectors, axis=0)

    def to_json(self) -> dict:
        return {"order": self.order, "nu": float(self.nu), "convention": self.convention,
                "base": self.base.to_json(),
                "jets": [{"c": [float(v) for v in j.scalar],
                          "F": [[float(v) for v in row] for row in j.vector]} for j in self.jets]}

    @classmethod
    def from_json(cls, data) -> "PerturbationSeries":
        try:
            order, nu, base = data["order"], float(data["nu"]), data["base"]
            parts = [(np.array(j["c"], dtype=float), np.array(j["F"], dtype=float))
                     for j in data["jets"]]
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ShapeError(f"a series document needs order, nu, base and jets {{c, F}}: "
                             f"{err!r}") from None
        if integer(order, 0, "a series document's order", ShapeError) != len(parts):
            raise ShapeError(f"order {shown(order)} given with {len(parts)} jets")
        return cls(DiscreteMeasure.from_json(base), nu, [Jet(c, F) for c, F in parts],
                   convention=data.get("convention", "standard"))


def error_term(p: int, jets_so_far: list, measure: DiscreteMeasure, lagrangian: LagrangianModel,
               nu: float, convention: str = "standard",
               ledger: DiagramLedger | None = None) -> DualJet:
    """E^(p) as a dual jet, from the jets w^(1..p-1).

    For p >= 2 it is one Taylor coefficient (``linops.taylor_error_dual``).
    A call with a ledger instead sums the polarized Delta_l over the
    compositions of p (``linops.composition_duals``), recorded in the ledger.
    """
    if _check_order(p, 1) == 1:
        dual = linops.delta_zero_dual(measure, lagrangian, nu)
        if ledger is not None:
            ledger.add(LedgerTerm(1, (), dual))
        return dual
    if len(jets_so_far) < p - 1:
        raise ArgError(f"E^({p}) needs jets w^(1..{p - 1})")
    if ledger is None:
        return linops.taylor_error_dual(p, jets_so_far[:p - 1], measure, lagrangian, nu,
                                        convention)
    comps = [comp for ell in range(2, p + 1) for comp in compositions(p, ell)]
    duals = linops.composition_duals(comps, jets_so_far, measure, lagrangian, nu, convention)
    total = DualJet.zero(measure.size, measure.dimension)
    for comp, dual in zip(comps, duals):
        total = total + dual
        ledger.add(LedgerTerm(p, comp, dual))
    return total


def _solve(greens: linops.GreensOperator, rhs: DualJet, p: int) -> tuple:
    """greens.apply, with a strict-mode failure naming the order p."""
    try:
        return greens.apply(rhs)
    except OutOfRange as err:
        raise OutOfRange(err.residual, f"order {p}: right-hand side outside range(Delta), "
                                       f"relative residual {err.residual:.3e}",
                         order=p) from err


def _zero_jets(inhom: Inhomogeneity | None, order, measure) -> list:
    given = [] if inhom is None else list(inhom.jets[:order])
    check_on_support(given, measure.size, measure.dimension, "inhomogeneity")
    return given + [Jet(np.zeros(measure.weights.shape),
                        np.zeros(measure.points.shape))] * (order - len(given))


def _recursion(jets: list, defects: list, vjets: list, measure, lagrangian, nu,
               delta: linops.DeltaMatrix, greens: linops.GreensOperator,
               convention: str = "standard") -> tuple:
    """Extend the jets w^(1..k) and their range defects, in place, to the
    orders k+1..len(vjets): w^(p) = v^(p) + S (E^(p) + Delta v^(p))."""
    for p in range(len(jets) + 1, len(vjets) + 1):
        E = error_term(p, jets, measure, lagrangian, nu, convention)
        v = vjets[p - 1]
        correction, defect = _solve(greens, E + delta.apply(v), p)
        defects.append(defect)
        jets.append(v + correction)
    return jets, defects


def expand_inhomogeneous(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float,
                         order: int, inhom: Inhomogeneity | None = None,
                         convention: str = "standard", strict: bool = False,
                         keep_ledger: bool = True) -> PerturbationSeries:
    """Iterative solve w^(p) = v^(p) + S^(p) (E^(p) + Delta v^(p)).

    Since S Delta v = -(v minus its kernel part), w^(p) is the min-norm
    solution of Delta w^(p) = -E^(p) plus the kernel part of v^(p): the
    solve keeps only that part, the gauge, whose one source is the
    inhomogeneity (a zero one gives the plain expansion, bit for bit).  In
    permissive mode the right-hand side's component outside range(Delta) is
    projected away.  A ``SupportStack`` (with no inhomogeneity) expands
    every start at once, into jets and range defects with its leading axis.
    """
    _check_order(order)
    delta = linops.assemble_delta(measure, lagrangian, nu, convention=convention)
    vjets = _zero_jets(inhom, order, measure)
    greens = linops.GreensOperator(delta, strict=strict)
    jets, defects = _recursion([], [], vjets, measure, lagrangian, nu, delta, greens, convention)
    return PerturbationSeries(measure, nu, jets, convention, range_defects=defects,
                              ledger_source=(lagrangian, 1) if keep_ledger else None)


def expand(measure, lagrangian, nu, order, convention="standard", strict=False,
           keep_ledger=True) -> PerturbationSeries:
    """Order-by-order expansion w^(p) = S^(p) E^(p), the min-norm gauge."""
    return expand_inhomogeneous(measure, lagrangian, nu, order, convention=convention,
                                strict=strict, keep_ledger=keep_ledger)


def family_from_linearized(w1: Jet, measure, lagrangian, nu, order,
                           strict=False) -> PerturbationSeries:
    """One-parameter family of solutions whose first variation is w1.

    Requires a critical base (|Delta_0| <= TOL_CRITICAL) and w1 in ker Delta
    (|Delta w1| <= TOL_RANK |Delta| max(|w1|, 1)); higher orders follow the
    recursion of ``expand_inhomogeneous`` from the jets [w1] with a zero
    inhomogeneity, starting at p = 2 (Delta_0 and Delta_1[w1] both vanish).
    """
    _check_order(order, 1, "a family's order")
    linops._one_start(measure.weights, "family_from_linearized")
    check_on_support([w1], measure.size, measure.dimension, "w1")
    d0 = linops.delta_zero_dual(measure, lagrangian, nu)
    if d0.norm() > TOL_CRITICAL:
        raise NotCritical(d0.norm(), "family construction needs a critical base")
    delta = linops.assemble_delta(measure, lagrangian, nu)
    greens = linops.GreensOperator(delta, strict=strict)
    dw1 = delta.apply(w1)
    scale = delta.operator_norm() * max(w1.norm(), 1.0)
    if dw1.norm() > linops.TOL_RANK * max(scale, 1.0):
        raise NotLinearized(
            f"|Delta w1| = {dw1.norm():.3e} exceeds {linops.TOL_RANK:.1e} * {scale:.3e}")
    jets, defects = _recursion([w1], [0.0], _zero_jets(None, order, measure), measure,
                               lagrangian, nu, delta, greens)
    return PerturbationSeries(measure, nu, jets, range_defects=defects,
                              ledger_source=(lagrangian, 2))


def reconstruct(series: PerturbationSeries, lam: float) -> DiscreteMeasure:
    """Evaluate the series: push the base forward with the lambda-weighted jets."""
    finite_real(lam, "lambda", ArgError)
    n, m = series.base.size, series.base.dimension
    check_on_support(series.jets, n, m, "series jet")
    if lam == 0.0 or not series.jets:
        return series.base
    log_w, shift = series.partial_sums(lam)
    return push_forward(series.base, log_w[-1], shift[-1])


def residual_slope(series: PerturbationSeries, lagrangian, nu, lam_grid) -> tuple:
    """Fitted exponent of the weak EL residual of reconstruct(lambda), over
    the full test space (the norm of Delta_0 on the reconstructed support).

    Returns (slope, max log-fit residual); (inf, 0.0) when the residuals
    sit below the degeneracy floor (exactly critical series).  A grid that
    is not at least 2 finite lambdas > 0, two of them distinct, raises
    DegenerateFit before any reconstruction.
    """
    lam_grid = lambda_grid(lam_grid, 2, "residual_slope", DegenerateFit)
    vals = [linops.delta_zero_dual(reconstruct(series, lam), lagrangian, nu).norm()
            for lam in lam_grid]
    return loglog_slope(lam_grid, np.array(vals), floor=RESIDUAL_FLOOR)


def export_diagrams(series: PerturbationSeries) -> dict:
    """Ledger as a JSON forest: one node per order, composition leaves below."""
    if series.ledger is None:
        raise LedgerMissing("series was built without ledger retention")
    forest = []
    for p in sorted(series.ledger.terms):
        terms = series.ledger.terms[p]
        if p == 1:
            forest.append({"p": 1, "source": "Delta_0",
                           "norm": terms[0].dual.norm() if terms else 0.0})
        else:
            forest.append({"p": p, "children": [t.to_json() for t in terms]})
    return {"tree_diagrams_only": True, "orders": forest}


def order_scaling_slopes(base: DiscreteMeasure, lagrangian, nu, deviation: Jet,
                         orders, lam_grid, convention="standard") -> dict:
    """Fitted decay exponents of the residual left after order-P corrections,
    for every P in ``orders``.

    For each lambda the base is pushed along lambda * deviation; the push
    (``SupportStack.push``) returns the starts stacked by support size (a
    merge in the push-forward shrinks one), and each stack is expanded at
    once, to the highest order.  For each P the series cut after w^(P),
    which is the order-P expansion bit for bit, corrects every start, and
    the corrected starts' weak EL residuals are measured on the stacks that
    the second push returns.  A correct order-P scheme
    leaves a residual O(lambda^(P+1)).  Returns {P: (slope, residual table
    of (lambda, residual) rows)}, each row bit for bit that of the start's
    own expansion.  An order that is no integer >= 0, or a grid that is not
    at least 2 finite lambdas > 0, raises ArgError, and a grid without two
    distinct lambdas DegenerateFit, before any start is built.
    """
    check_on_support([deviation], base.size, base.dimension, "deviation")
    cuts = [_check_order(p, what="every order") for p in dict.fromkeys(orders)]
    grid = lambda_grid(lam_grid, 2, "order_scaling_slopes", ArgError)
    if not cuts:
        return {}
    residuals = np.empty((len(cuts), len(grid)))
    for idx, stack in SupportStack(base.points[None], base.weights[None]).push(
            grid[:, None] * deviation.scalar, grid[:, None, None] * deviation.vector):
        series = expand(stack, lagrangian, nu, max(cuts), convention=convention,
                        keep_ledger=False)
        log_w, shift = series.partial_sums(1.0)  # reconstruct(series.truncated(P), 1.0)
        rows = np.empty((len(cuts), len(idx)))  # order-major, then start
        for cidx, cstack in stack.push(log_w[cuts], shift[cuts]):
            rows.flat[cidx] = linops.delta_zero_dual(cstack, lagrangian, nu).norm()
        residuals[:, idx] = rows
    return {p: (loglog_slope(grid, row, floor=RESIDUAL_FLOOR)[0],
                [(float(lam), float(r)) for lam, r in zip(grid, row)])
            for p, row in zip(cuts, residuals)}


def order_scaling_slope(base: DiscreteMeasure, lagrangian, nu, deviation: Jet,
                        order: int, lam_grid, convention="standard") -> tuple:
    """``order_scaling_slopes`` for the one order P: (slope, residual table)."""
    return order_scaling_slopes(base, lagrangian, nu, deviation, [order], lam_grid,
                                convention=convention)[order]
