"""Multilinear operators Delta_l, the linearized operator as a matrix, and
Green's operators.  Delta_0 is ``delta_zero_dual``, ell and its gradient
on the support.

Delta_l applies l factors of (scalar-at-x + scalar-at-y + derivative-at-x +
derivative-at-y) to the Lagrangian, divided by l!, minus the nu-term; jets
are never differentiated.  Every Delta_l and E^(p) is one Taylor
coefficient of the weak EL dual jet along a curve of log-weights and
points.  E^(p), the sum of Delta_l over the compositions of p, is the
lambda^p coefficient along the truncated jet series, for every model;
Delta_l[s^l] is the lambda^l coefficient along the line x + lambda s, and
the multilinear Delta_l follows by polarization over the 2^l - 1 non-empty
subsets of its arguments (Griewank, Utke and Walther, Math. Comp. 69
(2000) 1117-1130).  A polynomial model evaluates its monomial basis on the
curve once and folds the mass into the y side before the sum over the
support; any other model gets the exact Taylor lift of the curve from its
partial tables at lambda = 0, the measure's own
(``DiscreteMeasure.pair_tables``).  ``assemble_delta`` reads all (1+m)^2
slot-block tables of Delta in one read of that reader.
The composition sum of polarized Delta_l only fills the diagram ledger.

Two conventions are supported.  "standard" carries the scalar component on
both slots plus the nu-term; "breve" drops the x-slot scalar and the
nu-term (the weight function divided out of the EL equations).  At a
critical measure the two linearized operators coincide.  ``delta_ell``
and ``delta_ell_dual`` take the convention as an argument.

The assembled DeltaMatrix stores the weight-multiplied bilinear form
B[(i,s),(j,t)] = w_i * <unit jet (i,s), Delta unit jet (j,t)>(x_i)
in point-major layout (scalar slot, then m vector slots), which is exactly
the second variation of the action and therefore symmetric in the standard
convention.  Each DeltaMatrix is decomposed once, on first use: by ``eigh``
when that form is symmetric to rounding (for a stack, when every start
is), by the thin SVD otherwise.  Its Green's operator (the min-norm
pseudo-inverse with the sign convention Delta S v = -v), its kernel and its
singular values all read that one decomposition, cut at TOL_RANK *
sigma_max; a stack of any ranks is cut by one mask per start.  The solves
are min-norm; a kernel part (the gauge) enters only through the
expansion's inhomogeneity (``expansion.Inhomogeneity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from operator import add

import numpy as np

from .el import ell_field
from .errors import NumericalFailure, OrderUnsupported, OutOfRange, ShapeError
from .jets import DualJet, Jet, TestBasis, check_on_support
from .lagrangian import LagrangianModel, check_points, takes_series
from .measure import DiscreteMeasure
from .series import TruncatedSeries, _cauchy, basis_values, cauchy_matmul

TOL_RANK = 1e-8
TOL_SOLVE = 1e-8
_EPS = float(np.finfo(float).eps)
TOL_SYMMETRIC = 1e-14  # relative symmetry defect up to which Delta is decomposed by eigh


def mixed_directional(lag: LagrangianModel, x, y, xdirs, ydirs) -> float:
    """Directional derivative of L contracting xdirs on the x slot, ydirs on y.

    Enumerates coordinate assignments directly; fine for small dimension and
    total order <= max_order.
    """
    m = lag.dim
    total = 0.0
    for ii in product(range(m), repeat=len(xdirs)):
        for jj in product(range(m), repeat=len(ydirs)):
            coeff = 1.0
            alpha = [0] * m
            beta = [0] * m
            for k, a in enumerate(ii):
                coeff *= xdirs[k][a]
                alpha[a] += 1
            for k, b in enumerate(jj):
                coeff *= ydirs[k][b]
                beta[b] += 1
            if coeff == 0.0:
                continue
            total += coeff * lag.partial(x, y, tuple(alpha), tuple(beta))
    return total


def delta_zero_dual(measure, lagrangian, nu) -> DualJet:
    """Delta_0: ell and its x-gradient on the support as a dual jet, whose
    norm is the weak EL residual over the full test space."""
    return DualJet(*ell_field(lagrangian, nu, measure.weights, measure.pair_tables(lagrangian)))


def _check_jets(count, jets, measure):
    check_on_support(jets, measure.size, measure.dimension)
    if len(jets) != count:
        raise ShapeError(f"need {count} jets, got {len(jets)}")


def _require_order(lagrangian, order, what):
    if order > lagrangian.max_order:
        raise OrderUnsupported(f"{lagrangian.name}: {what} needs order {order}, "
                               f"max_order is {lagrangian.max_order}")


def _finite(top, lagrangian, what):
    """top, after checking that every entry is finite."""
    if not np.all(np.isfinite(top)):
        raise NumericalFailure(f"{lagrangian.name}: {what} not finite")
    return top


def _weak_el_coefficient(lagrangian, measure, nu, convention, c, x, gradient):
    """Top lam-coefficient of the weak EL dual jet, as columns (value, x-gradient
    if ``gradient``), along the curve with log-weights c (..., n, K) and points
    x (..., n, m, K), lam-coefficients on the last axis, c(0) = 0 and x(0) the
    support points of the measure, or of each start of a stack:
        value_i = e^{c_i} (sum_j w_j e^{c_j} L(x_i, x_j) - nu/2),
        gradient_i = e^{c_i} sum_j w_j e^{c_j} d_x L(x_i, x_j);
    breve drops the factor e^{c_i} and the nu-term.  The callers check that
    the columns are finite (``_finite``); overflow is left to that check.

    A model that takes series evaluates its basis on the curve once,
    V = basis_values(x), and folds the mass m_j = w_j e^{c_j} in on the y
    side first, Vm[u] = sum_j V[u, j] m_j, so each support sum
        sum_j d^alpha_x L(x_i, x_j) m_j = sum_t c_t V[ix_t, i] Vm[iy_t]
    is K matrix products over the n points, with no (n, n, K) table, and
    the value and gradient sums are gathered in one ``gathered_sums``.  Any
    other model gets the exact Taylor lift
        sum_{|g|+|d|<K} d^{alpha+g}_x d^d_y L(x_i(0), x_j(0)) dx_i^g dx_j^d / (g! d!)
    with dx = x - x(0), from the measure's partial tables at lam = 0, with
    the mass folded into the dx_j^d factor the same way.
    """
    check_points(lagrangian, x, series=True)
    m, K = x.shape[-2:]
    zero = (0,) * m
    with np.errstate(all="ignore"):
        growth = TruncatedSeries(c).exp()
        mass = measure.weights[..., None] * growth.coef
        if takes_series(lagrangian):
            V = basis_values(lagrangian.basis, x)
            # contiguous, so that cauchy_matmul hands BLAS its usual layout
            Vm = cauchy_matmul(np.ascontiguousarray(V.swapaxes(-3, -2)), mass[..., None, :])

            def support_sums(alphas):
                return [s[..., 0, :] for s in lagrangian.gathered_sums([(a, zero) for a in alphas],
                                                                       V, Vm)]
        else:
            lifts = [tuple(slots.count(s) for s in range(2 * m)) for k in range(K)
                     for slots in combinations_with_replacement(range(2 * m), k)]
            dx = x.copy()
            dx[..., 0] = 0.0
            gs, ds = np.split(np.moveaxis(basis_values(
                np.vstack(np.hsplit(np.array(lifts), [m])), dx), -3, 0), 2)
            dms = _cauchy(ds, mass)
            table = measure.pair_tables(lagrangian)

            def support_sums(alphas):
                return [sum(_cauchy(g, table(tuple(map(add, alpha, idx[:m])), idx[m:]) @ dm)
                            / math.prod(map(math.factorial, idx))
                            for idx, g, dm in zip(lifts, gs, dms)) for alpha in alphas]
        alphas = [zero] + ([tuple(e) for e in np.eye(m, dtype=int).tolist()] if gradient else [])
        parts = [TruncatedSeries(s) for s in support_sums(alphas)]
        if convention == "standard":
            parts = [growth * (parts[0] - nu / 2.0)] + [growth * g for g in parts[1:]]
    return np.stack([s.coef[..., -1] for s in parts], axis=-1)


def _polarized(order, jets, measure, lagrangian, nu, convention, with_gradient):
    """Columns (value, x-gradient if ``with_gradient``) of Delta_l[a_1..a_l] by
        l! Delta_l[a_1..a_l] = sum_S (-1)^(l-|S|) Delta_l[(sum_{k in S} a_k)^l]
    over the non-empty subsets S of {1..l}; Delta_l[s^l] is the lam^l
    coefficient along the line c = lam s.scalar, x = points + lam s.vector.
    The jets are scaled to unit sup-norm, and the norms multiplied back in,
    so that disparate scales lose no accuracy; a zero jet gives exact zeros."""
    if order < 1:
        raise ShapeError("order must be >= 1")
    _check_jets(order, jets, measure)
    what = f"Delta_{order} gradient" if with_gradient else f"Delta_{order}"
    _require_order(lagrangian, order + 1 if with_gradient else order, what)
    n, m = measure.size, measure.dimension
    total = np.zeros((n, 1 + m if with_gradient else 1))
    norms = [w.norm() for w in jets]
    if min(norms) == 0.0:
        return total
    units = [Jet(w.scalar / s, w.vector / s) for w, s in zip(jets, norms)]
    c = np.zeros((n, order + 1))
    x = np.zeros((n, m, order + 1))
    x[..., 0] = measure.points
    for size in range(1, order + 1):
        for subset in combinations(units, size):
            c[:, 1] = sum(w.scalar for w in subset)
            x[..., 1] = sum(w.vector for w in subset)
            top = _weak_el_coefficient(lagrangian, measure, nu, convention, c, x, with_gradient)
            total += (-1.0) ** (order - size) * _finite(top, lagrangian, what)
    return total * (math.prod(norms) / math.factorial(order))


def delta_ell(order, jets, measure, lagrangian, nu, convention="standard") -> np.ndarray:
    """Delta_l[w_1..w_l] on the support in either convention: "standard"
    (with the nu-term) or "breve" (no scalar action on the x slot and no
    nu-term, so nu is not read)."""
    return _polarized(order, jets, measure, lagrangian, nu, convention, False)[:, 0]


def delta_ell_dual(order, jets, measure, lagrangian, nu, convention="standard") -> DualJet:
    """Delta_l lifted to a dual jet (value and x-gradient per point).

    The gradient differentiates only the Lagrangian arguments; the nu-term
    is constant in x since jets are never differentiated.
    """
    top = _polarized(order, jets, measure, lagrangian, nu, convention, True)
    return DualJet(top[:, 0], top[:, 1:])


def composition_duals(comps, jets, measure, lagrangian, nu, convention="standard") -> list:
    """For each composition q = (q_1..q_l) in ``comps``, the dual jet of
    Delta_l[w^(q_1)..w^(q_l)] with w^(k) = jets[k - 1]."""
    return [delta_ell_dual(len(comp), [jets[q - 1] for q in comp], measure, lagrangian, nu,
                           convention) for comp in comps]


def taylor_error_dual(p, jets, measure, lagrangian, nu, convention="standard") -> DualJet:
    """E^(p) from the jets w^(1..p-1) as one Taylor coefficient: the sum of
    delta_ell_dual over all compositions of p into at least two parts, and
    the lam^p coefficient of the weak EL dual jet along the truncated series
    c = sum_{q<p} lam^q c^(q), x + sum_{q<p} lam^q u^(q).
    """
    _check_jets(p - 1, jets, measure)
    what = f"E^({p})"
    _require_order(lagrangian, p + 1, what)
    c0, x0 = np.zeros(measure.weights.shape), np.zeros(measure.points.shape)
    c = np.stack([c0] + [w.scalar for w in jets] + [c0], axis=-1)
    x = np.stack([measure.points] + [w.vector for w in jets] + [x0], axis=-1)
    top = _finite(_weak_el_coefficient(lagrangian, measure, nu, convention, c, x, True),
                  lagrangian, what)
    return DualJet(top[..., 0], top[..., 1:])


def _one_start(weights: np.ndarray, reader: str) -> None:
    """ShapeError naming ``reader`` unless the weights (..., N) are of one
    support, not of a stack of starts."""
    if weights.ndim != 1:
        raise ShapeError(f"{reader} reads one support, not a stack of shape {weights.shape[:-1]}")


@dataclass
class DeltaMatrix:
    """Weight-multiplied bilinear form of the linearized operator.

    ``matrix`` is square of size N(1+m), assembled against the full test
    space; N is the number of ``weights``, and the vector dimension m
    (``dim``) follows from the two.  The forms of a stack of supports carry
    its leading axis, (G, N(1+m), N(1+m)) and (G, N), and give one symmetry
    defect, norm and rank per start.  A restricted test basis is kept with
    the form it was assembled against (``testbasis``; None for the full
    space), and its rectangular test-row form ``test_rows`` (rows grouped
    basis-jet major, point minor) is computed on first read.  Its one
    decomposition (``decomposition``) is cached on first read too, so the
    form is not to be changed afterwards.
    """

    matrix: np.ndarray
    nu: float
    weights: np.ndarray
    convention: str = "standard"
    testbasis: TestBasis | None = None

    def __post_init__(self):
        n, side = self.weights.shape[-1], self.matrix.shape[-1]
        if (self.matrix.shape != self.weights.shape[:-1] + (side, side) or not n or side % n
                or side < 2 * n):
            raise ShapeError(f"Delta of shape {self.matrix.shape} does not fit {n} points")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1] // self.weights.shape[-1] - 1

    @cached_property
    def test_rows(self) -> np.ndarray | None:
        """Rows restricted to ``testbasis``; None for the full test space."""
        if self.testbasis is None:
            return None
        return _test_rows(self.testbasis, self.matrix, 1 + self.dim)

    @property
    def size(self) -> int:
        return self.matrix.shape[-1]

    def weight_vector(self) -> np.ndarray:
        return np.repeat(self.weights, 1 + self.dim, axis=-1)

    def apply(self, jet: Jet) -> DualJet:
        """Pointwise dual jet of Delta applied to the jet (weights divided out)."""
        check_on_support([jet], self.weights.shape[-1], self.dim)
        out = (self.matrix @ jet.flatten()[..., None])[..., 0]
        return DualJet.unflatten(out / self.weight_vector(), self.dim)

    def symmetry_defect(self):
        """max |B - B^T| / max(1, max |B|): a float, or one per start."""
        scale = np.maximum(1.0, np.max(np.abs(self.matrix), axis=(-2, -1)))
        defect = np.max(np.abs(self.matrix - self.matrix.swapaxes(-1, -2)), axis=(-2, -1)) / scale
        return float(defect) if defect.ndim == 0 else defect

    @cached_property
    def decomposition(self) -> tuple:
        """Thin (u, s, vt) of the operator rows (``test_rows`` if present,
        else ``matrix``), s descending, computed on first read.

        The standard Delta of a symmetric L is symmetric, and is decomposed
        by ``eigh`` when its symmetry defect is at rounding level
        (TOL_SYMMETRIC): with the eigenpairs sorted by |lambda| descending,
        (V sign(lambda), |lambda|, V^T) is an SVD of it.  Any other Delta (a
        non-symmetric L, breve, restricted test rows) takes the SVD.  A stack
        takes ``eigh`` only when every start is symmetric, and one SVD of
        all its starts otherwise.
        """
        rows = self.test_rows
        if (rows is None and self.convention == "standard"
                and np.all(self.symmetry_defect() <= TOL_SYMMETRIC)):
            return _by_eigh(self.matrix)
        return np.linalg.svd(self.matrix if rows is None else rows, full_matrices=False)

    def operator_norm(self):
        """sigma_max: a float, or one per start."""
        top = self.decomposition[1][..., 0]
        return float(top) if top.ndim == 0 else top

    def rank(self):
        """Number of singular values above TOL_RANK * sigma_max: an int, or
        one per start."""
        s = self.decomposition[1]
        rank = np.sum(s > TOL_RANK * s[..., :1], axis=-1)
        return int(rank) if rank.ndim == 0 else rank

    def to_json(self) -> dict:
        _one_start(self.weights, "DeltaMatrix.to_json")
        return {
            "shape": list(self.matrix.shape),
            "rows": [[float(v) for v in row] for row in self.matrix],
            "nu": float(self.nu),
            "convention": self.convention,
            "layout": "point-major: scalar then vector slots, rows weight-multiplied",
        }

    def singular_value_report(self) -> list:
        _one_start(self.weights, "DeltaMatrix.singular_value_report")
        return [float(v) for v in self.decomposition[1]]

    def singular_values_csv(self, path):
        import csv

        s = self.singular_value_report()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "singular_value"])
            writer.writerows(enumerate(s))


def _by_eigh(M):
    """(V sign(lambda), |lambda|, V^T) of symmetric M (..., s, s), the
    eigenpairs sorted by |lambda| descending: an SVD of M."""
    lam, v = np.linalg.eigh(M)
    order = np.argsort(-np.abs(lam), axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, -1)
    # vt must stay C-contiguous, with u its transpose: stacked and solo solves
    # agree bit for bit only then, since their BLAS calls depend on the layout
    vt = np.take_along_axis(v.swapaxes(-1, -2), order[..., None], -2)
    return vt.swapaxes(-1, -2) * np.where(lam < 0, -1.0, 1.0)[..., None, :], np.abs(lam), vt


def _pointwise_blocks(weights, lagrangian, nu, convention, table):
    """Unweighted pointwise row blocks of the linearized operator on a
    support with the given weights (..., N), from the pair tables of L and
    its partials that the reader ``table`` reads on that support, all
    (1+m)^2 slot blocks in one read (``table.tables``); the diagonal blocks
    add ell, grad ell and Hess ell (``ell_field``)."""
    n, m = weights.shape[-1], lagrangian.dim
    ells, grads, hessians = ell_field(lagrangian, nu, weights, table, order=2)
    slots = [(0,) * m] + [tuple(e) for e in np.eye(m, dtype=int).tolist()]
    # A[i, s, j, t] = w_j d^s_x d^t_y L(x_i, x_j): row slot s at point i, column
    # slot t at point j, slot 0 the zero multi-index
    T = np.array(table.tables(list(product(slots, repeat=2))))  # (s t, ..., i, j)
    A = np.empty(weights.shape[:-1] + (n, 1 + m, n, 1 + m))
    np.multiply(weights[..., None, None, :, None],
                np.moveaxis(T.reshape((1 + m, 1 + m) + T.shape[1:]), (0, 1), (-3, -1)), out=A)
    diagonal = np.einsum("...iaib->...iab", A)  # a writeable view of the (i, i) blocks
    if convention == "standard":  # in breve the x-slot scalar of the argument does not act
        diagonal[..., 0, 0] += ells
        diagonal[..., 1:, 0] += grads
    diagonal[..., 0, 1:] += grads
    diagonal[..., 1:, 1:] += hessians
    return A.reshape(weights.shape[:-1] + (n * (1 + m), n * (1 + m)))


def _test_rows(testbasis: TestBasis, M: np.ndarray, width: int) -> np.ndarray:
    """Rows restricted to a test basis: for each basis jet and support point,
    the jet's block at that point contracted with the point's rows of M
    (basis-jet major, point minor)."""
    return np.array([block @ M[i * width:(i + 1) * width]
                     for jet in testbasis.jets
                     for i, block in enumerate(jet.flatten().reshape(-1, width))])


def assemble_delta(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float,
                   testbasis: TestBasis | None = None,
                   convention: str = "standard") -> DeltaMatrix:
    """Assemble the linearized operator as a finite bilinear form.

    Rows are test directions, weight-multiplied so the standard form is the
    symmetric second variation of the action; columns run over the full jet
    space.  A restricted (non-full) test basis is kept on the form, whose
    solves contract with it (``DeltaMatrix.test_rows``).
    """
    if lagrangian.max_order < 2:
        raise OrderUnsupported("assembling Delta needs second derivatives")
    check_on_support([] if testbasis is None else testbasis.jets, measure.size,
                     measure.dimension, "test basis")
    A = _pointwise_blocks(measure.weights, lagrangian, nu, convention,
                          measure.pair_tables(lagrangian))
    m = measure.dimension
    W = np.repeat(measure.weights, 1 + m, axis=-1)
    B = W[..., :, None] * A
    restricted = testbasis if testbasis is not None and not testbasis.full_space else None
    return DeltaMatrix(B, nu, measure.weights.copy(), convention, restricted)


@dataclass
class KernelBasis:
    """Orthonormal jets spanning ker Delta within TOL_RANK."""

    jets: list
    singular_values: np.ndarray

    def __len__(self):
        return len(self.jets)

    def to_json(self) -> dict:
        return {
            "count": len(self.jets),
            "singular_values": [float(s) for s in self.singular_values],
            "tol_rank": TOL_RANK,
            "jets": [{"c": [float(v) for v in j.scalar],
                      "F": [[float(v) for v in row] for row in j.vector]} for j in self.jets],
        }


def kernel_basis(delta: DeltaMatrix) -> KernelBasis:
    """Orthonormal kernel basis from Delta's decomposition: the right singular
    vectors cut at TOL_RANK * sigma_max and, for a wide test-row form, the
    orthonormal complement of the row space of vt."""
    _one_start(delta.weights, "kernel_basis")
    _, s, vt = delta.decomposition
    null = vt[delta.rank():]
    if len(vt) < delta.size:
        q = np.linalg.qr(vt.T, mode="complete")[0]
        null = np.vstack([null, q[:, len(vt):].T])
    return KernelBasis([Jet.unflatten(v, delta.dim) for v in null], s)


@dataclass
class GreensOperator:
    """Min-norm pseudo-inverse of Delta with the sign convention S = -Delta^+.

    Every other Green's operator adds a kernel jet to each solve; the
    expansion takes that gauge from its inhomogeneity alone.  A restricted
    Delta contracts the right-hand side with the test basis it was assembled
    against.  ``strict`` raises OutOfRange when the requested dual jet has a
    component outside range(Delta), relative to TOL_SOLVE; otherwise that
    component is projected away and reported.  Strict mode also lets pass a
    component within the rounding floor s eps sigma_max, the rounding of
    Delta (s rows) applied to a unit jet, so a right-hand side that is
    rounding noise counts as in range.  The solves use Delta's
    decomposition (``DeltaMatrix.decomposition``) with the singular values
    up to TOL_RANK * sigma_max cut, a stack of any ranks by one mask of the
    kept values per start.
    """

    delta: DeltaMatrix
    strict: bool = False

    def __post_init__(self):
        s = self.delta.decomposition[1]
        # a column per start, True on the singular values the rank cut keeps
        self._kept = (np.arange(s.shape[-1]) < np.asarray(self.delta.rank())[..., None])[..., None]

    def health(self) -> dict:
        """Numerical health of the decomposition the solves use: rank,
        sigma_max, the smallest kept and the first dropped singular value
        (None if none was dropped), and the condition number
        sigma_max / smallest kept (inf at rank 0)."""
        _one_start(self.delta.weights, "GreensOperator.health")
        s = self.delta.decomposition[1]
        rank = self.delta.rank()
        sigma_max = self.delta.operator_norm()
        kept = float(s[rank - 1]) if rank else 0.0
        return {"rank": rank, "sigma_max": sigma_max, "sigma_min_kept": kept,
                "sigma_first_dropped": float(s[rank]) if rank < len(s) else None,
                "condition": sigma_max / kept if rank else math.inf}

    def _rhs(self, dual: DualJet) -> np.ndarray:
        """Weight-multiplied dual vector matching the row convention."""
        vec = self.delta.weight_vector() * dual.flatten()
        basis = self.delta.testbasis
        return vec if basis is None else _test_rows(basis, vec, 1 + self.delta.dim)

    def apply(self, dual: DualJet):
        """Solve Delta w = -dual (min-norm); returns (jet, out-of-range residual),
        one residual per start of a stack: the norm of the right-hand side's
        part outside range(Delta) over its own norm."""
        check_on_support([dual], self.delta.weights.shape[-1], self.delta.dim, "dual jet")
        u, s, vt = self.delta.decomposition
        b = -self._rhs(dual)[..., None]
        coef = np.where(self._kept, u.swapaxes(-1, -2) @ b, 0.0)
        resid, scale = _norm(b - u @ coef), _norm(b)
        rel = np.divide(resid, scale, out=np.zeros_like(scale), where=scale > 0)
        w = (vt.swapaxes(-1, -2) @ np.divide(coef, s[..., None], out=np.zeros_like(coef),
                                             where=self._kept))[..., 0]
        if self.strict:
            out = (rel > TOL_SOLVE) & (resid > b.shape[-2] * _EPS * s[..., 0])  # over the floor
            if np.any(out):
                raise OutOfRange(float(np.max(rel[out])))
        return Jet.unflatten(w, self.delta.dim), float(rel) if rel.ndim == 0 else rel


def _norm(b) -> np.ndarray:
    """Norms of the columns b (..., s, 1), each one dot product as in np.linalg.norm."""
    return np.sqrt(b.swapaxes(-1, -2) @ b)[..., 0, 0]
