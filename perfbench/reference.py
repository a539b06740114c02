"""Reference quantities computed without the package's optimizers.

Everything here is plain numpy written for the benchmark, so a change in
the package cannot move a reference and its checked output together.  The
one exception is the dynamics generator, which is read column by column
from the public ``lindblad_rhs``: the reference then checks the integrator
(RK4 loop, diagnostics, CSV output) against an exact matrix exponential of
the same generator.
"""

from __future__ import annotations

import math

import numpy as np

_SYSY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
_MAGIC = np.array([[1, 1j, 0, 0],
                   [0, 0, 1j, 1],
                   [0, 0, 1j, -1],
                   [1, -1j, 0, 0]], dtype=np.complex128) / math.sqrt(2.0)


def wishart_density(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n density matrix of the given rank (normalized Wishart)."""
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = a @ a.conj().T
    m /= m.trace().real
    return 0.5 * (m + m.conj().T)


def bell_mixture(sign: float, weight: float = 0.95) -> np.ndarray:
    """weight |psi><psi| + (1 - weight) I/4 with psi = (|01> + sign |10>)/sqrt 2."""
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = psi[2] = 1.0 / math.sqrt(2.0)
    psi[2] *= sign
    return weight * np.outer(psi, psi.conj()) + (1.0 - weight) * np.eye(4) / 4.0


def collective_state(weights) -> np.ndarray:
    """Mixture diagonal in the collective basis |00>, psi+, psi-, |11>.

    These states commute with the dipole-dipole Hamiltonian, whose
    eigenbasis this is.
    """
    basis = np.zeros((4, 4), dtype=np.complex128)
    basis[0, 0] = basis[3, 3] = 1.0
    basis[1, 1] = basis[2, 1] = basis[1, 2] = 1.0 / math.sqrt(2.0)
    basis[2, 2] = -1.0 / math.sqrt(2.0)
    return (basis * np.asarray(weights, dtype=float)) @ basis.conj().T


def lambda_max(mat: np.ndarray) -> float:
    """Largest eigenvalue; vec(U)/sqrt(d) is a unit vector, so this bounds f."""
    return float(np.linalg.eigvalsh(mat)[-1])


def concurrence(mat: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    r = mat @ _SYSY @ mat.conj() @ _SYSY
    mu = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def fef_two_qubit(mat: np.ndarray) -> float:
    """Maximal singlet fraction of two qubits: top eigenvalue of Re(E^dag rho E)."""
    m = _MAGIC.conj().T @ mat @ _MAGIC
    return float(np.linalg.eigvalsh(m.real)[-1])


def negativity(mat: np.ndarray, d: int) -> float:
    """(||rho^{T_A}||_1 - 1)/(d - 1)."""
    pt = mat.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
    return float((np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0) / (d - 1.0))


def fraction_at(mat: np.ndarray, u: np.ndarray) -> float:
    """vec(U)^dag rho vec(U) / d, row-major vectorization."""
    v = np.asarray(u).reshape(-1)
    return float(np.vdot(v, mat @ v).real) / u.shape[0]


def _polar(m: np.ndarray) -> np.ndarray:
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def fraction_polar(mat: np.ndarray, d: int) -> float:
    """A reachable singlet fraction: the best of polar fixed-point ascents.

    f(U) = vec(U)^dag rho vec(U)/d is convex in U, so U <- polar(reshape(
    rho vec U)) maximizes its linearization over U(d) and f never decreases.
    Starts: the polar factor of the top eigenvector, then random unitaries.
    The result is attained at a unitary, so it is a lower bound on the
    maximum that any correct search must reach.
    """
    rng = np.random.default_rng(d)
    top = np.linalg.eigh(mat)[1][:, -1].reshape(d, d)
    best = -1.0
    for k in range(4):
        u = _polar(top if k == 0 else rng.standard_normal((d, d))
                   + 1j * rng.standard_normal((d, d)))
        f = fraction_at(mat, u)
        for _ in range(5000):
            u = _polar((mat @ u.reshape(-1)).reshape(d, d))
            f_new = fraction_at(mat, u)
            done = f_new - f <= 1e-15
            f = max(f, f_new)
            if done:
                break
        best = max(best, f)
    return best


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with a degree-18 Taylor polynomial."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** squarings)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def generator_matrix(lindblad_rhs, cfg) -> np.ndarray:
    """16 x 16 L with vec(drho/dt) = L vec(rho), one column per basis matrix."""
    cols = []
    for k in range(16):
        e = np.zeros(16, dtype=np.complex128)
        e[k] = 1.0
        cols.append(np.asarray(lindblad_rhs(e.reshape(4, 4), cfg)).reshape(-1))
    return np.array(cols).T


def endpoint(lindblad_rhs, cfg, rho0: np.ndarray, t: float) -> tuple[float, float]:
    """(concurrence, maximal singlet fraction) of exp(t L) rho0."""
    v = expm(t * generator_matrix(lindblad_rhs, cfg)) @ rho0.reshape(-1)
    m = v.reshape(4, 4)
    m = 0.5 * (m + m.conj().T)
    return concurrence(m), fef_two_qubit(m)
