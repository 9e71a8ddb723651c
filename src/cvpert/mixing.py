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

from .errors import ArgError, NotOnMinimalStratum, NotUnitary, ShapeError

TOL_UNITARY = 1e-10


def _adjoint(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _square(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError("expected a square matrix or a stack of them")
    return A


def check_unitary(U: np.ndarray, tol: float = TOL_UNITARY) -> np.ndarray:
    """U as a complex array; a stack (..., L, L) is checked as a whole."""
    U = _square(U)
    defect = np.max(np.abs(_adjoint(U) @ U - np.eye(U.shape[-1])), initial=0.0)
    if defect > tol:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return U


def expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for an anti-Hermitian matrix or a stack (..., L, L) of them.

    iA = V diag(w) V^dagger is Hermitian, so exp(A) = V diag(e^{-iw}) V^dagger
    from one batched ``eigh``; any other input raises ShapeError.
    """
    A = _square(A)
    defect = np.max(np.abs(A + _adjoint(A)), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(A), axis=(-2, -1), initial=1.0)
    if np.any(defect > 1e-12 * scale):
        raise ShapeError("generators must be anti-Hermitian")
    w, V = np.linalg.eigh(1j * A)
    return (V * np.exp(-1j * w)[..., None, :]) @ _adjoint(V)


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


@dataclass
class SubgroupSample:
    """Compact connected subgroup given by anti-Hermitian generators."""

    generators: list
    budget: int = 64

    def __post_init__(self):
        gens = [np.asarray(g, dtype=complex) for g in self.generators]
        if len({g.shape for g in gens}) > 1:
            raise ShapeError("generators must share one shape")
        if gens:
            check_unitary(expm(np.stack(gens)))
        self.generators = gens

    def _combine(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_g c_g X_g for each row c of ``coeffs``, in generator order."""
        return sum(c[:, None, None] * g for c, g in zip(np.asarray(coeffs).T, self.generators))

    def sample(self, rng, count: int | None = None) -> list:
        count = count or self.budget
        return list(expm(self._combine(rng.normal(size=(count, len(self.generators))))))


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


def mixing_functional(U: np.ndarray, tol: float = 1e-8):
    """sum_a |(Uv)^a|^4 with v = (1, ..., 1), bounded below by L; one value per matrix."""
    U = check_unitary(U, tol=tol)
    z = U @ np.ones(U.shape[-1], dtype=complex)
    values = np.sum(np.abs(z) ** 4, axis=-1)
    return float(values) if U.ndim == 2 else values


def _functional_gradient(U: np.ndarray) -> np.ndarray:
    # Wirtinger gradient wrt conj(U): 2 |z_a|^2 z_a v^dagger
    z = U @ np.ones(U.shape[-1], dtype=complex)
    return np.repeat((2.0 * (np.abs(z) ** 2 * z))[..., None], U.shape[-1], axis=-1)


def _starting_points(L: int, subgroup: SubgroupSample | None, restarts: int, seed: int):
    """Restart 0 is the identity, restart k > 0 a draw of default_rng(seed + k)."""
    rngs = [np.random.default_rng(seed + k) for k in range(1, restarts)]
    if subgroup is None:
        return np.stack([np.eye(L, dtype=complex)] + [haar_unitary(rng, L) for rng in rngs])
    n_gens = len(subgroup.generators)
    coeffs = np.array([np.zeros(n_gens)] + [rng.normal(size=n_gens) for rng in rngs])
    return expm(subgroup._combine(coeffs))


def minimize_mixing(L: int, subgroup: SubgroupSample | None = None,
                    restarts: int = 50, iters: int = 200, seed: int = 0):
    """Retraction descent for the infimum of the mixing functional.

    Anti-Hermitian gradient steps with exponential retraction and
    backtracking; one deterministic seed per restart index.  All restarts
    advance together as one (restarts, L, L) stack, each with its own step
    size and stop rule.  For the full unitary group the infimum L is reached
    (the identity restart starts on a minimizer already).  Returns (best
    value, best U, per-restart trace).
    """
    for name, value, least, error in (("L", L, 1, ShapeError), ("restarts", restarts, 1, ShapeError),
                                      ("iters", iters, 0, ArgError)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise error(f"{name} must be an integer >= {least}, got {value!r}")

    if subgroup is None:
        units = None
    elif not subgroup.generators:
        raise ShapeError("subgroup sample needs generators")
    elif subgroup.generators[0].shape != (L, L):
        raise ShapeError(f"subgroup generators are {subgroup.generators[0].shape}, not ({L}, {L})")
    else:
        # restrict the descent to the subgroup tangent space
        gens = np.stack(subgroup.generators)
        units = gens / np.maximum(np.linalg.norm(gens, axis=(1, 2)), 1e-300)[:, None, None]

    U = _starting_points(L, subgroup, restarts, seed)
    val = mixing_functional(U)
    step = np.full(restarts, 0.5)
    live = np.arange(restarts)
    for _ in range(iters):
        K = _adjoint(U[live]) @ _functional_gradient(U[live])
        K = (K - _adjoint(K)) / 2.0  # anti-Hermitian tangent coefficient
        if units is not None:
            coeffs = np.einsum("gij,rij->rg", units.conj(), K).real
            K = np.einsum("rg,gij->rij", coeffs, units)
        moving = ~(np.max(np.abs(K), axis=(1, 2)) < 1e-12)
        live, K = live[moving], K[moving]
        if not live.size:
            break
        cand = U[live] @ expm(-step[live, None, None] * K)
        cval = mixing_functional(cand)
        accept = cval < val[live] - 1e-15
        won = live[accept]
        U[won], val[won] = cand[accept], cval[accept]
        step[live] = np.where(accept, np.minimum(step[live] * 1.2, 1.0), step[live] * 0.5)
        live = live[accept | (step[live] >= 1e-12)]

    best = int(np.argmin(val))
    return float(val[best]), U[best], val.tolist()


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
    W = np.asarray(orbit_sample, dtype=complex).reshape(-1, L).T
    defect = float(np.max(np.abs(Uperp @ W - W), initial=0.0))
    ok = defect <= tol_orbit
    msg = "" if ok else f"orthogonal factor moves orbit vectors by {defect:.3e}"
    return DecompositionResult(ok, Ud, Uperp, defect, msg)


def orbit_sample_from_generators(generators, rng, count: int = 64) -> list:
    """Sampled orbit {U v} of the subgroup through the reference vector."""
    U = np.array(SubgroupSample(generators, budget=count).sample(rng, count))
    return list(U @ np.ones(U.shape[-1], dtype=complex))


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
