"""Finite-dimensional causal fermion systems.

Points are Hermitian f x f operators with n positive and n negative
eigenvalues and fixed trace.  The spin space is realized concretely as
C^(2n) with signature diag(1_n, -1_n); the spin adjoint of a map
psi: C^f -> C^(2n) is psi* = psi^dagger S.  Wave evaluation operators are
built by eigendecomposition so that x = -Psi(x)* Psi(x), with negative
eigenvalues occupying the +1 signature slots.

The causal Lagrangian is evaluated from the closed chain
A_xy = P(x,y) P(y,x), whose eigenvalues coincide with those of the
operator product xy; the 2n x 2n chain is better conditioned than the
f x f product.  The kappa = 0 part is computed through the
quarter-sum-of-squared-differences identity, which keeps it non-negative
by construction.

A chart around x = R(psi0) inverts the local correlation map R on an affine
slice of spin maps through psi0.  Its default slice is read off the SVD of
DR at psi0, so it is orthogonal to ker DR: the real scalings of psi0 and the
spin-space symmetries psi0 -> A psi0 with A in u(n,n), which preserve
psi* psi (those of u(2n) do not).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (NumericalFailure, ShapeError, SingularChart,
                     VanishingLocalTrace)
from .lagrangian import NumericLagrangian, _dim_param, _real_param

TOL_EIG_REL = 1e-10
TOL_HERM = 1e-12  # relative self-adjointness defect of a valid point
TOL_TRACE = 1e-10  # relative trace defect of a valid point
TOL_CLASS = 1e-10  # relative spread of the chain's eigenvalue moduli that counts as spacelike
TOL_LOCAL_TRACE = 1e-12  # relative |tr(psi* psi)| below which R(psi) is undefined
TOL_CHART_RANK = 1e-10  # relative smallest singular value of a chart's differential
REFERENCE_SPREAD = 0.25  # eigenvalue spacing of reference_point
COORDS_MAX_ITERS = 50  # Gauss-Newton steps of CfsChart.coords
COORDS_STEP_TOL = 4 * np.finfo(float).eps  # relative step at rounding level
COORDS_TOL = 1e-10  # relative residual up to which CfsChart.coords converged


@dataclass(frozen=True)
class CfsParams:
    """Hilbert dimension, spin dimension, local trace, boundedness multiplier."""

    hilbert_dim: int
    spin_dim: int
    trace_constant: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.hilbert_dim < 2 * self.spin_dim:
            raise ShapeError("need hilbert_dim >= 2 * spin_dim")
        if self.trace_constant <= 0:
            raise ShapeError("trace constant must be positive")
        if self.kappa < 0:
            raise ShapeError("kappa must be non-negative")

    @property
    def f(self) -> int:
        return self.hilbert_dim

    @property
    def n(self) -> int:
        return self.spin_dim


@contextmanager
def _overflow_fails(what: str):
    """Turn an overflow in the block (or the decorated call) into NumericalFailure."""
    with np.errstate(over="raise"):
        try:
            yield
        except (FloatingPointError, OverflowError) as exc:  # numpy's, Python's float **
            raise NumericalFailure(f"overflow in {what}") from exc


def signature_matrix(n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)


def spin_adjoint(psi: np.ndarray, n: int) -> np.ndarray:
    """psi* = psi^dagger S: maps the signed spin space back to C^f (of each
    map of a stack (..., 2n, f))."""
    return np.swapaxes(psi.conj(), -1, -2) @ signature_matrix(n)


def validate_cfs_point(x: np.ndarray, params: CfsParams) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    f, n = params.f, params.n
    if x.shape != (f, f):
        raise ShapeError(f"expected an {f} x {f} matrix")
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x - x.conj().T)) > TOL_HERM * scale:
        raise ShapeError("point is not self-adjoint within tolerance")
    evals = np.linalg.eigvalsh(x)
    tol_eig = TOL_EIG_REL * scale
    n_pos = int(np.sum(evals > tol_eig))
    n_neg = int(np.sum(evals < -tol_eig))
    if (n_pos, n_neg) != (n, n):
        raise ShapeError(f"signature ({n_pos}, {n_neg}) differs from ({n}, {n})")
    if abs(np.trace(x).real - params.trace_constant) > TOL_TRACE * scale:
        raise ShapeError("trace constraint violated")
    return x


def spin_map_from_point(x: np.ndarray, n: int) -> np.ndarray:
    """Psi(x) with -Psi(x)* Psi(x) = x, from the eigendecomposition.

    The n most negative eigenvalues fill the +1 signature slots, the n most
    positive ones the -1 slots (the spin scalar product is -<u|xu>).
    """
    x = np.asarray(x, dtype=complex)
    evals, evecs = np.linalg.eigh(x)  # ascending order: most negative first
    slots = list(range(n)) + list(range(x.shape[0] - n, x.shape[0]))
    return np.array([np.sqrt(abs(evals[k])) * evecs[:, k].conj() for k in slots])


def kernel(psi_x: np.ndarray, psi_y: np.ndarray, n: int) -> np.ndarray:
    """Kernel of the fermionic projector P(x, y) = -Psi(x) Psi(y)*."""
    return -psi_x @ spin_adjoint(psi_y, n)


def closed_chain(psi_x: np.ndarray, psi_y: np.ndarray, n: int) -> np.ndarray:
    return kernel(psi_x, psi_y, n) @ kernel(psi_y, psi_x, n)


@dataclass
class WaveEvaluation:
    """Per support point: the spin map Psi(x_i)."""

    params: CfsParams
    maps: list

    @classmethod
    def from_points(cls, points, params: CfsParams) -> "WaveEvaluation":
        return cls(params, [spin_map_from_point(p, params.n) for p in points])

    def point(self, i: int) -> np.ndarray:
        """Reconstruct the operator: x = -Psi(x)* Psi(x)."""
        psi = self.maps[i]
        return -(spin_adjoint(psi, self.params.n) @ psi)

    def kernel(self, i: int, j: int) -> np.ndarray:
        return kernel(self.maps[i], self.maps[j], self.params.n)


def _chain_eigenvalues(psi_x: np.ndarray, psi_y: np.ndarray, n: int) -> np.ndarray:
    """Eigenvalues of the closed chain A_xy; NumericalFailure if the solver fails."""
    try:
        return np.linalg.eigvals(closed_chain(psi_x, psi_y, n))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue solver failed on the closed chain") from exc


def _quarter_sum(mods: np.ndarray, n: int) -> float:
    """(1/4n) sum_ij (|l_i| - |l_j|)^2 over the eigenvalue moduli."""
    return float(sum((a - b) ** 2 for a in mods for b in mods)) / (4.0 * n)


@_overflow_fails("the spectral weights")
def spectral_weights(x: np.ndarray, y: np.ndarray, n: int):
    """Eigenvalues of the closed chain and the two spectral weights.

    Returns (eigenvalues with algebraic multiplicity, |xy|, |(xy)^2|).
    """
    eigs = _chain_eigenvalues(spin_map_from_point(np.asarray(x, complex), n),
                             spin_map_from_point(np.asarray(y, complex), n), n)
    order = np.lexsort((eigs.imag, eigs.real, -np.abs(eigs)))
    eigs = eigs[order]
    mods = np.abs(eigs)
    return eigs, float(np.sum(mods)), float(np.sum(mods ** 2))


@_overflow_fails("the causal Lagrangian")
def causal_lagrangian(x: np.ndarray, y: np.ndarray, params: CfsParams):
    """L_kappa(x, y) and the causal class of the pair.

    The kappa = 0 part uses (1/4n) sum_ij (|l_i| - |l_j|)^2, which vanishes
    exactly when all moduli agree (spacelike separation).
    """
    eigs, w1, w2 = spectral_weights(x, y, params.n)
    mods = np.abs(eigs)
    value = _quarter_sum(mods, params.n) + params.kappa * w1 ** 2
    spread = float(np.max(mods) - np.min(mods)) if len(mods) else 0.0
    cls = "spacelike" if spread <= TOL_CLASS * max(1.0, float(np.max(mods, initial=0.0))) \
        else "timelike"
    return value, cls


@_overflow_fails("the causal action")
def causal_action(points, weights, params: CfsParams):
    """Double weighted sums: (action of the kappa = 0 part, boundedness T)."""
    S = 0.0
    T = 0.0
    n = params.n
    maps = [spin_map_from_point(np.asarray(p, complex), n) for p in points]
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            mods = np.abs(_chain_eigenvalues(maps[i], maps[j], n))
            S += wi * wj * _quarter_sum(mods, n)
            T += wi * wj * float(np.sum(mods)) ** 2
    return S, T


@_overflow_fails("the local correlation map")
def local_correlation(psi: np.ndarray, params: CfsParams) -> np.ndarray:
    """R(psi) = c psi* psi / tr(psi* psi), trace exactly the trace constant."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2 * params.n, params.f):
        raise ShapeError(f"expected a {2 * params.n} x {params.f} spin map")
    M = spin_adjoint(psi, params.n) @ psi
    t = float(np.trace(M).real)
    scale = max(1.0, float(np.linalg.norm(psi) ** 2))
    if abs(t) <= TOL_LOCAL_TRACE * scale:
        raise VanishingLocalTrace(f"tr(psi* psi) = {t:.3e}")
    R = (params.trace_constant / t) * M
    # distribute the floating-point trace defect so the constraint is exact
    defect = (np.trace(R).real - params.trace_constant) / params.f
    R = R - defect * np.eye(params.f)
    return R


@dataclass
class CfsChart:
    """Chart around a point x = R(psi0): inverts R on the affine slice psi0 + E.

    The default slice is the orthogonal complement (trace pairing on real
    and imaginary parts) of the kernel of DR at psi0, read off DR's SVD.
    That kernel holds the real scalings of psi0 and the spin symmetries
    A psi0 with A in u(n,n): psi* psi = psi^dagger S psi is invariant under
    the unitaries of S, not under all of u(2n).  The condition number of the
    restricted differential is reported; a rank-deficient restriction (of a
    user-chosen ``basis``) raises SingularChart, an empty one ShapeError.
    """

    params: CfsParams
    psi0: np.ndarray
    basis: list = None
    condition: float = field(init=False, default=np.inf)

    def __post_init__(self):
        self.psi0 = np.asarray(self.psi0, dtype=complex)
        if self.basis is None:
            self.basis = self._default_basis()
        if not len(self.basis):
            raise ShapeError("chart basis needs at least one direction")
        s = np.linalg.svd(self._vec(self._dR(np.array(self.basis))).T, compute_uv=False)
        if s[-1] <= TOL_CHART_RANK * s[0]:
            raise SingularChart("restricted differential is rank deficient",
                                condition=float(s[0] / max(s[-1], 1e-300)))
        self.condition = float(s[0] / s[-1])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def _vec(mat) -> np.ndarray:
        """Real and imaginary parts of a matrix, or of each of a stack, as one row."""
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        return np.concatenate([flat.real, flat.imag], axis=-1)

    def _default_basis(self) -> list:
        """Right singular vectors of DR at psi0 (on every real unit direction
        of psi) with singular values above TOL_CHART_RANK * sigma_max."""
        size, shape = self.psi0.size, self.psi0.shape
        units = np.eye(size).reshape((size,) + shape)
        _, s, vt = np.linalg.svd(self._vec(self._dR(np.concatenate([units, 1j * units]))).T)
        return [(v[:size] + 1j * v[size:]).reshape(shape)
                for v in vt[:np.sum(s > TOL_CHART_RANK * s[0])]]

    @_overflow_fails("the chart's differential")
    def _dR(self, e: np.ndarray, psi: np.ndarray | None = None) -> np.ndarray:
        """Derivative of R at psi (default psi0) along each real direction of
        the stack e (k, 2n, f): the k matrices (k, f, f)."""
        psi = self.psi0 if psi is None else psi
        n = self.params.n
        M = spin_adjoint(psi, n) @ psi
        t = np.trace(M).real
        dM = spin_adjoint(e, n) @ psi + spin_adjoint(psi, n) @ e
        dt = np.trace(dM, axis1=-2, axis2=-1).real
        c = self.params.trace_constant
        return (c / t) * dM - (c * dt / t ** 2)[:, None, None] * M

    def _spin_map(self, coords) -> np.ndarray:
        return self.psi0 + sum(z * e for z, e in zip(coords, self.basis))

    def point(self, coords) -> np.ndarray:
        """Forward chart map: R(psi0 + sum z_a e_a)."""
        return local_correlation(self._spin_map(np.asarray(coords, dtype=float)), self.params)

    def coords(self, y: np.ndarray) -> np.ndarray:
        """Inverse chart map by Gauss-Newton on the matrix residual.

        Each step solves J dz = -(R(psi(z)) - y) in least squares, with J the
        exact differential of R at psi(z), from z = 0.  The iteration stops
        once a step is at rounding level, or after COORDS_MAX_ITERS steps; a
        residual above COORDS_TOL (relative to |y|) raises SingularChart.
        """
        y = np.asarray(y, dtype=complex)
        z = np.zeros(self.dim)
        target = self._vec(y)
        for _ in range(COORDS_MAX_ITERS):
            psi = self._spin_map(z)
            resid = self._vec(local_correlation(psi, self.params)) - target
            jac = self._vec(self._dR(np.array(self.basis), psi)).T
            dz = np.linalg.lstsq(jac, -resid, rcond=None)[0]
            z = z + dz
            if np.linalg.norm(dz) <= COORDS_STEP_TOL * max(1.0, np.linalg.norm(z)):
                break
        res = np.linalg.norm(self._vec(self.point(z)) - target)
        if res > COORDS_TOL * max(1.0, np.linalg.norm(target)):
            raise SingularChart(f"chart inversion did not converge, residual {res:.3e}",
                                condition=self.condition)
        return z


def perturb_wave_evaluation(weo: WaveEvaluation, deltas, weights):
    """Rescaled push-forward of the perturbed wave evaluation operator.

    Each spin map is shifted, the local correlation operators are rescaled
    to the fixed trace, and the new points are validated.  Returns the list
    of operators plus the unchanged weights.
    """
    params = weo.params
    new_points = []
    for psi, delta in zip(weo.maps, deltas):
        psi_hat = psi + np.asarray(delta, dtype=complex)
        point = local_correlation(psi_hat, params)
        validate_cfs_point(point, params)
        new_points.append(point)
    return new_points, np.asarray(weights, dtype=float).copy()


def build_cfs_lagrangian(params: dict) -> NumericLagrangian:
    """Registry bridge: the causal Lagrangian in the chart of a reference
    system, with finite-difference derivatives only."""
    p = CfsParams(_dim_param(params, "hilbert_dim", 2), _dim_param(params, "spin_dim", 1),
                  _real_param(params, "trace_constant", 1.0), _real_param(params, "kappa", 0.0))
    max_order = _dim_param(params, "max_order", 3)
    chart = params.get("chart")
    if chart is None:
        x_ref = reference_point(p)
        chart = CfsChart(p, spin_map_from_point(x_ref, p.n))
    evaluator = lambda za, zb: causal_lagrangian(chart.point(za), chart.point(zb), p)[0]
    lag = NumericLagrangian("cfs", chart.dim, evaluator,
                            max_order=max_order,
                            params={"hilbert_dim": p.f, "spin_dim": p.n,
                                    "trace_constant": p.trace_constant,
                                    "kappa": p.kappa})
    lag.chart = chart
    lag.cfs_params = p
    return lag


def reference_point(params: CfsParams) -> np.ndarray:
    """Deterministic valid point: diag(c + b, -b) padded with zeros,
    b = REFERENCE_SPREAD."""
    f, n, c = params.f, params.n, params.trace_constant
    pos = [c / n + REFERENCE_SPREAD * (k + 1) for k in range(n)]
    neg = [-REFERENCE_SPREAD * (k + 1) for k in range(n)]
    diag = np.zeros(f)
    diag[:n] = pos
    diag[n:2 * n] = neg
    return np.diag(diag).astype(complex)


def swap_symmetric_pair(params: CfsParams, b: float = 0.25):
    """Two unitarily equivalent diagonal points exchanged by the flip matrix.

    The pair is spacelike separated and invariant under diagonal phase
    conjugation, which protects every off-diagonal chart direction: the
    weak EL equations hold exactly in the symmetry-protected test space.
    """
    if params.f != 2 or params.n != 1:
        raise ShapeError("the two-point toy needs f = 2, n = 1")
    c = params.trace_constant
    x1 = np.diag([c + b, -b]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return validate_cfs_point(x1, params), validate_cfs_point(flip @ x1 @ flip, params)


def point_to_json(x: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(x, complex)]


def point_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def system_to_json(params: CfsParams, points, weights) -> dict:
    return {
        "params": {"hilbert_dim": params.f, "spin_dim": params.n,
                   "trace_constant": params.trace_constant, "kappa": params.kappa},
        "points": [point_to_json(p) for p in points],
        "weights": [float(w) for w in weights],
    }
