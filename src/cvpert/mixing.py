"""Microscopic mixing: unitary push-forwards, mixed kernels, and the
diagonal-gauge minimization.

Subsystem-mixing gauge transformations act on the reference vector
v = (1, ..., 1) in C^L; minimizers of sum_a |(Uv)^a|^4 over any compact
subgroup attain the value L exactly on the stratum |(Uv)^a| = 1, where
every element factors uniquely into a diagonal phase matrix (read off from
Uv) and an element acting trivially on the sampled orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NotOnMinimalStratum, NotUnitary, ShapeError

TOL_UNITARY = 1e-10


def check_unitary(U: np.ndarray, tol: float = TOL_UNITARY) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ShapeError("expected a square matrix")
    defect = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if defect > tol:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return U


def haar_unitary(rng, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass
class MixingSystem:
    """Subsystem unitaries V_a twisting the fermionic kernel."""

    unitaries: list
    weo: object = None  # WaveEvaluation of the base system

    def __post_init__(self):
        self.unitaries = [check_unitary(V) for V in self.unitaries]

    @property
    def n_subsystems(self) -> int:
        return len(self.unitaries)

    @property
    def reference_vector(self) -> np.ndarray:
        return np.ones(self.n_subsystems, dtype=complex)


@dataclass
class SubgroupSample:
    """Compact connected subgroup given by anti-Hermitian generators."""

    generators: list
    budget: int = 64

    def __post_init__(self):
        gens = [np.asarray(g, dtype=complex) for g in self.generators]
        for g in gens:
            if np.max(np.abs(g + g.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
                raise ShapeError("generators must be anti-Hermitian")
            check_unitary(expm(g))
        self.generators = gens

    def sample(self, rng, count: int | None = None) -> list:
        count = count or self.budget
        out = []
        for _ in range(count):
            coeffs = rng.normal(size=len(self.generators))
            A = sum(c * g for c, g in zip(coeffs, self.generators))
            out.append(expm(A))
        return out


def unitary_pushforward(points, weights, V: np.ndarray):
    """(V rho)(Omega) = rho(V Omega V^-1): conjugate every support point."""
    V = check_unitary(V)
    new_points = [V @ np.asarray(p, complex) @ V.conj().T for p in points]
    return new_points, np.asarray(weights, dtype=float).copy()


def mixed_kernel(system: MixingSystem, a: int, b: int, x_index: int, y_index: int) -> np.ndarray:
    """P^(a,b)(x, y) = -Psi(x) V_a V_b* Psi(y)*."""
    from .cfs import spin_adjoint

    weo = system.weo
    if weo is None:
        raise ShapeError("mixing system carries no wave evaluation operator")
    Va = system.unitaries[a]
    Vb = system.unitaries[b]
    psi_x = weo.maps[x_index]
    psi_y = weo.maps[y_index]
    return -psi_x @ (Va @ Vb.conj().T) @ spin_adjoint(psi_y, weo.params.n)


def mixing_functional(U: np.ndarray, tol: float = 1e-8) -> float:
    """sum_a |(Uv)^a|^4 with v = (1, ..., 1); bounded below by L."""
    U = check_unitary(U, tol=tol)
    z = U @ np.ones(U.shape[0], dtype=complex)
    return float(np.sum(np.abs(z) ** 4))


def _functional_gradient(U: np.ndarray) -> np.ndarray:
    # Wirtinger gradient wrt conj(U): 2 |z_a|^2 z_a v^dagger
    z = U @ np.ones(U.shape[0], dtype=complex)
    return 2.0 * (np.abs(z) ** 2 * z)[:, None] @ np.ones((1, U.shape[0]))


def minimize_mixing(L: int, subgroup: SubgroupSample | None = None,
                    restarts: int = 50, iters: int = 200, seed: int = 0):
    """Retraction descent for the infimum of the mixing functional.

    Random anti-Hermitian tangent steps with exponential retraction and
    backtracking; one deterministic seed per restart index.  For the full
    unitary group the infimum L is reached (the identity restart starts on
    a minimizer already); for a finite element list the best element is
    reported.  Returns (best value, best U, per-restart trace).
    """
    if restarts < 1:
        raise ShapeError("need at least one restart")

    if subgroup is not None and not subgroup.generators:
        raise ShapeError("subgroup sample needs generators")

    if subgroup is None:
        def project(K):
            return K
    else:
        # restrict the descent to the subgroup tangent space
        units = [g / max(np.linalg.norm(g), 1e-300) for g in subgroup.generators]

        def project(K):
            proj = np.zeros_like(K)
            for gn in units:
                proj += np.real(np.sum(np.conj(gn) * K)) * gn
            return proj

    def descend(U):
        val = mixing_functional(U)
        step = 0.5
        for _ in range(iters):
            G = _functional_gradient(U)
            K = U.conj().T @ G
            K = project((K - K.conj().T) / 2.0)  # anti-Hermitian tangent coefficient
            if np.max(np.abs(K)) < 1e-12:
                break
            cand = U @ expm(-step * K)
            cval = mixing_functional(cand)
            if cval < val - 1e-15:
                U, val = cand, cval
                step = min(step * 1.2, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        return val, U

    trace = []
    best_val, best_U = np.inf, None
    for k in range(restarts):
        rng = np.random.default_rng(seed + k)
        if subgroup is None:
            U0 = np.eye(L, dtype=complex) if k == 0 else haar_unitary(rng, L)
        else:
            A = sum(rng.normal() * g for g in subgroup.generators) if k else \
                np.zeros((L, L), dtype=complex)
            U0 = expm(A)
        val, U = descend(U0)
        trace.append(float(val))
        if val < best_val:
            best_val, best_U = float(val), U
    return best_val, best_U, trace


@dataclass
class DecompositionResult:
    ok: bool
    diagonal: np.ndarray
    orthogonal: np.ndarray
    orbit_defect: float
    message: str = ""


def decompose_diagonal_orthogonal(U: np.ndarray, orbit_sample,
                                  tol_stratum: float = 1e-8,
                                  tol_orbit: float = 1e-8) -> DecompositionResult:
    """U = U^d U^perp on the minimal stratum.

    The diagonal factor is read off from the phases of Uv; the orthogonal
    factor must fix every sampled orbit vector, otherwise a failure report
    is returned.  Raises NotOnMinimalStratum when some |(Uv)^a| != 1.
    """
    U = check_unitary(U)
    L = U.shape[0]
    z = U @ np.ones(L, dtype=complex)
    mods = np.abs(z)
    if np.max(np.abs(mods - 1.0)) > tol_stratum:
        raise NotOnMinimalStratum(
            f"max | |(Uv)^a| - 1 | = {np.max(np.abs(mods - 1.0)):.3e}")
    Ud = np.diag(z / mods)
    Uperp = Ud.conj().T @ U
    defect = 0.0
    for w in orbit_sample:
        w = np.asarray(w, dtype=complex)
        defect = max(defect, float(np.max(np.abs(Uperp @ w - w))))
    ok = defect <= tol_orbit
    msg = "" if ok else f"orthogonal factor moves orbit vectors by {defect:.3e}"
    return DecompositionResult(ok, Ud, Uperp, defect, msg)


def orbit_sample_from_generators(generators, rng, count: int = 64) -> list:
    """Sampled orbit {U v} of the subgroup through the reference vector."""
    sub = SubgroupSample(generators, budget=count)
    L = generators[0].shape[0]
    v = np.ones(L, dtype=complex)
    return [U @ v for U in sub.sample(rng, count)]


def counterexample_family(t: float) -> np.ndarray:
    """U_t = exp((it/2) [[1, 1], [1, 1]]): non-diagonal minimizers for L = 2."""
    P = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return np.eye(2) - P + np.exp(1j * t) * P


def results_to_json(L, value, U, restarts, trace) -> dict:
    from .cfs import point_to_json

    return {
        "L": L,
        "min_value": value,
        "argmin": point_to_json(U),
        "restarts": restarts,
        "per_restart_trace": [float(v) for v in trace],
    }
