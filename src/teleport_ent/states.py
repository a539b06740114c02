"""Bipartite state containers, Schmidt analysis, and ensemble decompositions.

A pure state of two d-level systems is stored as its d x d amplitude matrix
amp, meaning |Psi> = sum_jk amp[j, k] |j>|k>, flattened row-major wherever a
plain vector is needed.  Density matrices act on the d^2-dimensional joint
space with the same index convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError

NORMALIZATION_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-9
SPECTRAL_WEIGHT_FLOOR = 1e-12
RECONSTRUCTION_TOL = 1e-8
MANIFOLD_TOL = 1e-8
HERMITICITY_TOL = 1e-10
# An ensemble mixing r spectral terms has at most this many times r members.
ENSEMBLE_FACTOR = 2


def ensure_matrix(m, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvariantError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise InvariantError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise InvariantError(f"expected {cols} columns, got {a.shape[1]}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvariantError("matrix contains non-finite entries")
    return a


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.abs(m - m.conj().T).max(initial=0.0) <= HERMITICITY_TOL)


def _freeze(a: np.ndarray) -> np.ndarray:
    # always copy so the caller's array is never locked
    out = np.array(a, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureBipartiteState:
    """Pure state of a d x d bipartite system, unit norm enforced."""

    d: int
    amp: np.ndarray

    def __post_init__(self):
        amp = ensure_matrix(self.amp, self.d, self.d)
        norm2 = float(np.vdot(amp, amp).real)
        if abs(norm2 - 1.0) > NORMALIZATION_TOL:
            raise InvariantError(f"state norm^2 = {norm2!r} deviates from 1")
        object.__setattr__(self, "amp", _freeze(amp))

    def vector(self) -> np.ndarray:
        return self.amp.reshape(-1)

    def projector(self) -> np.ndarray:
        v = self.vector()
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Descending squared Schmidt coefficients of a pure bipartite state."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        if lam.size == 0:
            raise InvariantError("empty Schmidt spectrum")
        if np.any(lam < 0):
            raise InvariantError("negative Schmidt weight")
        if np.any(np.diff(lam) > 0):
            raise InvariantError("Schmidt weights must be sorted descending")
        total = float(lam.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvariantError(f"Schmidt weights sum to {total!r}, not 1")
        object.__setattr__(self, "lambdas", _freeze(lam))

    @property
    def schmidt_rank(self) -> int:
        return int(np.count_nonzero(self.lambdas > DEFAULT_RANK_TOL))


def schmidt(state: PureBipartiteState) -> SchmidtSpectrum:
    """Schmidt spectrum of a pure state: the squared singular values of its
    amplitude matrix, which LAPACK returns descending."""
    s = np.linalg.svd(state.amp, compute_uv=False)
    return SchmidtSpectrum(lambdas=s * s)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on the d^2-dimensional joint space."""

    d: int
    mat: np.ndarray

    def __post_init__(self):
        n = self.d * self.d
        mat = ensure_matrix(self.mat, n, n)
        if not is_hermitian(mat):
            raise InvariantError(f"density matrix is not hermitian within {HERMITICITY_TOL}")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantError(f"density matrix trace {tr!r} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL:
            raise InvariantError(f"density matrix has eigenvalue {min_eig!r} < -{PSD_TOL}")
        object.__setattr__(self, "mat", _freeze(mat))

    @classmethod
    def from_pure(cls, state: PureBipartiteState) -> "DensityMatrix":
        return cls(d=state.d, mat=state.projector())

    @classmethod
    def from_matrix(cls, mat) -> "DensityMatrix":
        mat = ensure_matrix(mat)
        d = int(round(np.sqrt(mat.shape[0])))
        if d * d != mat.shape[0]:
            raise InvariantError(f"matrix side {mat.shape[0]} is not a perfect square")
        return cls(d=d, mat=mat)


@dataclass(frozen=True)
class PureDecomposition:
    """Ensemble {(p_i, |psi_i>)} with positive weights summing to one."""

    weights: np.ndarray
    states: tuple[PureBipartiteState, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size != len(self.states) or w.size == 0:
            raise InvariantError("weights and states length mismatch")
        if np.any(w <= 0):
            raise InvariantError("decomposition weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > TRACE_TOL:
            raise InvariantError(f"decomposition weights sum to {total!r}")
        if len({st.d for st in self.states}) != 1:
            raise InvariantError("decomposition members differ in dimension d")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "states", tuple(self.states))

    def members(self) -> np.ndarray:
        """(m, d*d) stack of the unnormalized members sqrt(p_i) |psi_i>."""
        return np.sqrt(self.weights)[:, None] * np.array([st.vector() for st in self.states])

    def reconstruct(self) -> np.ndarray:
        m = self.members()
        return m.T @ m.conj()


def validated_decomposition(weights, states, target: DensityMatrix) -> PureDecomposition:
    """Build a PureDecomposition and check it reproduces target within 1e-8."""
    dec = PureDecomposition(weights=weights, states=states)
    if dec.states[0].d != target.d:
        raise InvariantError(f"decomposition has d = {dec.states[0].d}, target d = {target.d}")
    err = float(np.linalg.norm(dec.reconstruct() - target.mat))
    if err > RECONSTRUCTION_TOL:
        raise InvariantError(f"decomposition misses the target by {err:.3e} (Frobenius)")
    return dec


def spectral_decomposition(rho: DensityMatrix) -> PureDecomposition:
    """Eigendecomposition of rho restricted to weights above 1e-12."""
    vals, vecs = np.linalg.eigh(rho.mat)
    weights = []
    states = []
    for w, vec in zip(vals[::-1], vecs.T[::-1]):
        if w <= SPECTRAL_WEIGHT_FLOOR:
            continue
        amp = vec.reshape(rho.d, rho.d)
        amp = amp / np.linalg.norm(amp)
        weights.append(float(w))
        states.append(PureBipartiteState(d=rho.d, amp=amp))
    if not states:
        raise InvariantError("density matrix has no spectral weight above threshold")
    return validated_decomposition(np.array(weights), tuple(states), rho)


def hjw_decomposition(rho: DensityMatrix, mix: np.ndarray) -> PureDecomposition:
    """Ensemble obtained by mixing the spectral components of rho.

    mix must be an (n_out, r) isometry over the r retained spectral terms,
    satisfying mix^dagger mix = I, with r <= n_out <= ENSEMBLE_FACTOR * r.
    Output member i is proportional to sum_j mix[i, j] sqrt(e_j) |v_j>;
    members with vanishing weight are dropped.  Every such ensemble averages back to rho, which is verified.
    """
    spectral = spectral_decomposition(rho)
    r = len(spectral.states)
    mix = ensure_matrix(mix)
    n_out = mix.shape[0]
    if mix.shape[1] != r:
        raise InvariantError(f"mix has {mix.shape[1]} columns, expected rank {r}")
    cap = ENSEMBLE_FACTOR * r
    if n_out < r or n_out > cap:
        raise InvariantError(f"mix must have between {r} and {cap} rows, got {n_out}")
    gram_dev = np.abs(mix.conj().T @ mix - np.eye(r)).max()
    if gram_dev > MANIFOLD_TOL:
        raise InvariantError(f"mix is not an isometry (gram deviation {gram_dev:.3e})")

    members = mix @ spectral.members()
    weights = []
    states = []
    for row in members:
        p = float(np.vdot(row, row).real)
        if p <= SPECTRAL_WEIGHT_FLOOR:
            continue
        amp = (row / np.sqrt(p)).reshape(rho.d, rho.d)
        weights.append(p)
        states.append(PureBipartiteState(d=rho.d, amp=amp))
    return validated_decomposition(np.array(weights), tuple(states), rho)


# ---------------------------------------------------------------------------
# seeded random constructions used by tests and the CLI

def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_isometry(n_out: int, r: int, rng: np.random.Generator) -> np.ndarray:
    if n_out < r:
        raise InvariantError("isometry needs at least as many rows as columns")
    return haar_unitary(n_out, rng)[:, :r]


def random_spectrum(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    k = d if rank is None else rank
    if not 1 <= k <= d:
        raise InvariantError(f"rank must lie in [1, {d}]")
    lam = np.zeros(d)
    lam[:k] = rng.dirichlet(np.ones(k))
    return np.sort(lam)[::-1]


def random_pure_state(d: int, rng: np.random.Generator,
                      rank: int | None = None) -> PureBipartiteState:
    """Haar-like random pure state, optionally with a fixed Schmidt rank."""
    if rank is None:
        v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        amp = v / np.linalg.norm(v)
        return PureBipartiteState(d=d, amp=amp)
    lam = random_spectrum(d, rng, rank)
    core = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(core, np.sqrt(lam))
    amp = haar_unitary(d, rng) @ core @ haar_unitary(d, rng)
    return PureBipartiteState(d=d, amp=amp)


def random_density_matrix(d: int, rng: np.random.Generator,
                          rank: int | None = None) -> DensityMatrix:
    """Mixture of rank (default d^2) random pure states, Wishart style."""
    n = d * d
    k = n if rank is None else rank
    if not 1 <= k <= n:
        raise InvariantError(f"rank must lie in [1, {n}]")
    a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    m = a @ a.conj().T
    m /= m.trace().real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(d=d, mat=m)
