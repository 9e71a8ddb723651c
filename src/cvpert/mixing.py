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

from .errors import ArgError, NotOnMinimalStratum, NotUnitary, ShapeError, integer

TOL_UNITARY = 1e-10
TOL_FUNCTIONAL_UNITARY = 1e-8  # unitarity defect accepted by mixing_functional
TOL_STRATUM = 1e-8  # max | |(Uv)^a| - 1 | on the minimal stratum
TOL_ORBIT = 1e-8  # max displacement of an orbit vector by the orthogonal factor
MAX_RESTARTS = 10_000  # restarts minimize_mixing accepts; each one holds an (L, L) start
MAX_SEED = 2 ** 64 - 1  # the largest seed minimize_mixing and a config accept


def _adjoint(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _square(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError("expected a square matrix or a stack of them")
    return A


def unitarity_defect(U: np.ndarray) -> float:
    """max |U^dagger U - 1| over all entries (of a whole stack (..., L, L))."""
    U = _square(U)
    return float(np.max(np.abs(_adjoint(U) @ U - np.eye(U.shape[-1])), initial=0.0))


def check_unitary(U: np.ndarray, tol: float = TOL_UNITARY) -> np.ndarray:
    """U as a complex array; a stack (..., L, L) is checked as a whole."""
    U = _square(U)
    defect = unitarity_defect(U)
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


def _haar(rngs, n: int) -> np.ndarray:
    """One Haar unitary (n, n) per random generator of ``rngs``, from one
    batched QR of their Gaussian draws (each draws its real, then imaginary parts)."""
    z = np.array([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for rng in rngs],
                 dtype=complex).reshape(-1, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng, n: int) -> np.ndarray:
    return _haar([rng], n)[0]


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
        """``count`` (default ``budget``) elements exp(sum_g c_g X_g), each c drawn from rng."""
        count = integer(self.budget if count is None else count, 0, "sample count", ArgError)
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


def mixing_functional(U: np.ndarray):
    """sum_a |(Uv)^a|^4 with v = (1, ..., 1), bounded below by L; one value per matrix."""
    U = check_unitary(U, tol=TOL_FUNCTIONAL_UNITARY)
    z = U @ np.ones(U.shape[-1], dtype=complex)
    values = np.sum(np.abs(z) ** 4, axis=-1)
    return float(values) if U.ndim == 2 else values


def gap_to_infimum(U: np.ndarray):
    """sum_a (|(Uv)^a|^2 - 1)^2, the distance of U from the minimal stratum;
    one value per matrix.

    For v = (1, ..., 1), sum_a |z_a|^4 - L = sum_a (|z_a|^2 - 1)^2
    + 2 (sum_a |z_a|^2 - L) with z = Uv; the last term vanishes for an
    exactly unitary U, so this is the gap of the functional above its
    infimum L, without the rounding of the last term that can make the
    plain difference negative.
    """
    U = _square(U)
    z = U @ np.ones(U.shape[-1], dtype=complex)
    values = np.sum((np.abs(z) ** 2 - 1.0) ** 2, axis=-1)
    return float(values) if U.ndim == 2 else values


def _tangent_units(L: int, subgroup: SubgroupSample | None) -> np.ndarray:
    """Unit anti-Hermitian directions (K, L, L) of the descent: a subgroup's
    normalized generators, or for the full group the orthonormal basis of
    u(L) (Frobenius) i E_aa, (E_ab - E_ba) / sqrt 2, i (E_ab + E_ba) / sqrt 2."""
    if subgroup is None:
        E = np.eye(L * L).reshape(L * L, L, L)
        a, b = np.divmod(np.arange(L * L), L)
        gens = np.where((a < b)[:, None, None], E - E.swapaxes(1, 2), 1j * (E + E.swapaxes(1, 2)))
    else:
        gens = np.stack(subgroup.generators)
    return gens / np.maximum(np.linalg.norm(gens, axis=(1, 2)), 1e-300)[:, None, None]


def _starting_points(L: int, subgroup: SubgroupSample | None, restarts: int, seed: int):
    """Restart 0 is the identity, restart k > 0 a draw of default_rng(seed + k)."""
    rngs = [np.random.default_rng(seed + k) for k in range(1, restarts)]
    if subgroup is None:
        return np.concatenate([np.eye(L, dtype=complex)[None], _haar(rngs, L)])
    n_gens = len(subgroup.generators)
    coeffs = np.array([np.zeros(n_gens)] + [rng.normal(size=n_gens) for rng in rngs])
    return expm(subgroup._combine(coeffs))


# Relative singular-value cut of the Gauss-Newton pseudo-inverse.  A unitary
# U keeps sum_a |(Uv)^a|^2 = L, so the rows of the Jacobian sum to zero and
# its rank is at most L - 1: the last singular value is rounding, and
# inverting it (numpy's default cut, 1e-15) throws steps off the minimizer.
RCOND_GAUSS_NEWTON = 1e-10


def minimize_mixing(L: int, subgroup: SubgroupSample | None = None,
                    restarts: int = 50, iters: int = 200, seed: int = 0):
    """Riemannian Gauss-Newton for the infimum of the mixing functional.

    The functional is L + sum_a r_a^2 with residuals r_a = |(Uv)^a|^2 - 1,
    a least-squares problem on the group.  Each step moves U to
    U exp(t sum_k c_k T_k) along the unit directions T_k of
    ``_tangent_units``, with c = -pinv(J) r the min-norm Gauss-Newton
    coefficients of the Jacobian J[a, k] = 2 Re(conj((Uv)^a) (U T_k v)^a).
    The step t starts at 1, is reset to 1 when a candidate lowers
    ``gap_to_infimum`` (which has no rounding floor at the infimum) and is
    halved when it does not.  All restarts advance together as one
    (restarts, L, L) stack, one deterministic seed per restart index; a
    restart stops once L + gap reads L, so the identity restart of the full
    group never steps.  Returns (best value, best U, per-restart trace), the
    values L + ``gap_to_infimum`` of the final stack: the functional, without
    the rounding of U's unitarity that can put it below L.  More than
    ``MAX_RESTARTS`` restarts raise ShapeError, and a seed above ``MAX_SEED``
    ArgError, before any start is drawn.
    """
    integer(L, 1, "L", ShapeError)
    if integer(restarts, 1, "restarts", ShapeError) > MAX_RESTARTS:
        raise ShapeError(f"restarts must be at most {MAX_RESTARTS}")
    integer(iters, 0, "iters", ArgError)
    if integer(seed, 0, "seed", ArgError) > MAX_SEED:
        raise ArgError(f"seed must be at most {MAX_SEED}")
    if subgroup is not None and not subgroup.generators:
        raise ShapeError("subgroup sample needs generators")
    if subgroup is not None and subgroup.generators[0].shape != (L, L):
        raise ShapeError(f"subgroup generators are {subgroup.generators[0].shape}, not ({L}, {L})")

    units = _tangent_units(L, subgroup)
    v = np.ones(L, dtype=complex)
    Tv = (units @ v).T  # column k is T_k v
    U = _starting_points(L, subgroup, restarts, seed)
    gap = gap_to_infimum(U)
    step = np.ones(restarts)
    live = np.flatnonzero(L + gap != L)
    for _ in range(iters):
        z = U[live] @ v
        J = 2.0 * (z.conj()[:, :, None] * (U[live] @ Tv)).real
        residual = np.abs(z) ** 2 - 1.0
        coeffs = -(np.linalg.pinv(J, rcond=RCOND_GAUSS_NEWTON) @ residual[:, :, None])[:, :, 0]
        K = np.einsum("rk,kij->rij", coeffs, units)
        moving = ~(np.max(np.abs(K), axis=(1, 2)) < 1e-12)
        live, K = live[moving], K[moving]
        if not live.size:
            break
        cand = check_unitary(U[live] @ expm(step[live, None, None] * K),
                             tol=TOL_FUNCTIONAL_UNITARY)
        cgap = gap_to_infimum(cand)
        accept = cgap < gap[live]
        won = live[accept]
        U[won], gap[won] = cand[accept], cgap[accept]
        step[live] = np.where(accept, 1.0, step[live] * 0.5)
        live = live[(accept | (step[live] >= 1e-12)) & (L + gap[live] != L)]

    val = L + gap
    best = int(np.argmin(val))
    return float(val[best]), U[best], val.tolist()


@dataclass
class DecompositionResult:
    ok: bool
    diagonal: np.ndarray
    orthogonal: np.ndarray
    orbit_defect: float
    message: str = ""


def decompose_diagonal_orthogonal(U: np.ndarray, orbit_sample) -> DecompositionResult:
    """U = U^d U^perp on the minimal stratum.

    The diagonal factor is read off from the phases of Uv; the orthogonal
    factor must fix every sampled orbit vector, otherwise a failure report
    is returned.  Raises NotOnMinimalStratum when some |(Uv)^a| != 1.
    """
    U = check_unitary(U)
    L = U.shape[0]
    z = U @ np.ones(L, dtype=complex)
    mods = np.abs(z)
    if np.max(np.abs(mods - 1.0)) > TOL_STRATUM:
        raise NotOnMinimalStratum(
            f"max | |(Uv)^a| - 1 | = {np.max(np.abs(mods - 1.0)):.3e}")
    Ud = np.diag(z / mods)
    Uperp = Ud.conj().T @ U
    W = np.asarray(orbit_sample, dtype=complex).reshape(-1, L).T
    defect = float(np.max(np.abs(Uperp @ W - W), initial=0.0))
    ok = defect <= TOL_ORBIT
    msg = "" if ok else f"orthogonal factor moves orbit vectors by {defect:.3e}"
    return DecompositionResult(ok, Ud, Uperp, defect, msg)


def orbit_sample_from_generators(generators, rng, count: int = 64) -> list:
    """Sampled orbit {U v} of the subgroup through the reference vector."""
    sample = SubgroupSample(generators, budget=count).sample(rng, count)
    return list(np.array(sample) @ np.ones(len(generators[0]), dtype=complex)) if sample else []


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
