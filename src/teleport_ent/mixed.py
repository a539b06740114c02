"""Mixed-state teleportation quantities via optimization.

Two search engines live here:

* a polar fixed-point ascent over unitaries U(d) estimating the maximal singlet
  fraction f(rho) = max_U <psi+| (U x I)^dagger rho (U x I) |psi+>, whose value
  is attained at the returned unitary and so is a certified lower bound, and
* a descent over ensemble decompositions of rho (isometry mixes of its
  spectral components) estimating convex-roof extensions of the pure-state
  measures: negativity (a CREN upper bound) and the rank-aware e_d2 / e_d3.

For two qubits the singlet fraction also has a closed form (largest
eigenvalue of the real part of rho expressed in a phase-fixed maximally
entangled basis), used both as an oracle and to cap the iterative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from . import linalg
from .states import (
    DensityMatrix,
    PureDecomposition,
    SchmidtSpectrum,
    haar_unitary,
    random_isometry,
    schmidt,
    spectral_decomposition,
)
from . import measures
from .measures import MeasureReport, RankClass

DEFAULT_SEED = 1729
MANIFOLD_TOL = 1e-8
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = DEFAULT_SEED
    # ensemble size used by decomposition searches, as a multiple of rank
    ensemble_factor: int = 2

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvariantError("restarts and max_iters must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvariantError("tol must be finite and positive")
        if self.ensemble_factor < 1:
            raise InvariantError("ensemble_factor must be at least 1")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a search; argument_unitary is the unitary (or mix isometry)
    achieving value.  search_value keeps the raw iterative optimum when a
    closed form overrides value."""

    value: float | None
    argument_unitary: np.ndarray | None
    converged: bool
    iterations_used: int
    search_value: float | None = None


# ---------------------------------------------------------------------------
# singlet fraction ascent

def _polar(m: np.ndarray) -> np.ndarray:
    """Polar factor W X^dagger of m = W S X^dagger: the unitary (or isometry)
    closest to m, and the maximizer of Re tr(V^dagger m) over them."""
    w, _, xh = np.linalg.svd(m, full_matrices=False)
    return w @ xh


def _fraction_of_unitary(rho_mat: np.ndarray, u: np.ndarray, d: int) -> float:
    v = u.reshape(-1) / math.sqrt(d)
    return float(np.real(np.vdot(v, rho_mat @ v)))


def _top_eigvec_warm_start(rho: DensityMatrix) -> np.ndarray:
    """Unitary maximizing overlap with the dominant eigenvector of rho."""
    res = linalg.herm_eig(rho.mat)
    return _polar(res.eigenvectors[:, -1].reshape(rho.d, rho.d))


def _ascend_once(rho_mat: np.ndarray, d: int, u0: np.ndarray,
                 cfg: OptimizerConfig) -> tuple[float, np.ndarray, bool, int]:
    """Polar fixed point U <- polar(G), G = reshape(rho vec U).

    f(U) = vec(U)^dagger rho vec(U) / d = Re tr(U^dagger G) / d is convex, so
    f(V) >= (2 Re tr(V^dagger G) - d f(U)) / d.  The polar factor maximizes this
    bound over U(d), so f never decreases; the bound's possible gain,
    2 (sum of G's singular values / d - f), stops the loop.
    """
    u = u0
    f = _fraction_of_unitary(rho_mat, u, d)
    for it in range(1, cfg.max_iters + 1):
        g = (rho_mat @ u.reshape(-1)).reshape(d, d)
        nxt = _polar(g)
        if 2.0 * (float(np.real(np.vdot(nxt, g))) / d - f) <= cfg.tol:
            return f, u, True, it
        f_nxt = _fraction_of_unitary(rho_mat, nxt, d)
        if f_nxt <= f:
            return f, u, True, it
        u, f = nxt, f_nxt
    return f, u, False, cfg.max_iters


_MAGIC = None


def _magic_basis() -> np.ndarray:
    """Columns are a phase-fixed basis of maximally entangled 2-qubit states;
    their real spans are exactly the maximally entangled states."""
    global _MAGIC
    if _MAGIC is None:
        inv = 1.0 / math.sqrt(2.0)
        e1 = np.array([1, 0, 0, 1], dtype=np.complex128) * inv
        e2 = np.array([1j, 0, 0, -1j], dtype=np.complex128) * inv
        e3 = np.array([0, 1j, 1j, 0], dtype=np.complex128) * inv
        e4 = np.array([0, 1, -1, 0], dtype=np.complex128) * inv
        _MAGIC = np.column_stack([e1, e2, e3, e4])
    return _MAGIC


def fef_2qubit_stack(mats: np.ndarray) -> np.ndarray:
    """Closed-form maximal singlet fraction of each matrix in a (..., 4, 4)
    stack: the top eigenvalue of the real part of rho in the magic basis."""
    e = _magic_basis()
    m = linalg.dagger(e) @ mats @ e
    return np.linalg.eigvalsh(np.real(m))[..., -1]


def fef_2qubit_closed_form(rho: DensityMatrix) -> float:
    """Maximal singlet fraction of a two-qubit state, closed form."""
    if rho.d != 2:
        raise InvariantError("closed-form singlet fraction needs d=2")
    return float(fef_2qubit_stack(rho.mat))


def _fef_2qubit_optimal_unitary(rho: DensityMatrix) -> np.ndarray:
    e = _magic_basis()
    m = linalg.dagger(e) @ rho.mat @ e
    _, vecs = np.linalg.eigh(np.real(m))
    vec = e @ vecs[:, -1].astype(np.complex128)
    return _polar(math.sqrt(2.0) * vec.reshape(2, 2))


def singlet_fraction_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> OptResult:
    """Certified lower bound on the maximal singlet fraction of rho.

    Multi-restart polar fixed-point ascent over U(d); the value is the
    fraction at the returned unitary, the best restart's end point.  For
    d = 2 the closed form overrides the iterative value whenever it is larger.
    """
    cfg = cfg or OptimizerConfig()
    d = rho.d
    rho_mat = np.asarray(rho.mat)
    best = None
    for idx in range(cfg.restarts):
        if idx == 0:
            u0 = _top_eigvec_warm_start(rho)
        elif idx == 1:
            u0 = np.eye(d, dtype=np.complex128)
        else:
            u0 = haar_unitary(d, np.random.default_rng(cfg.seed ^ idx))
        run = _ascend_once(rho_mat, d, u0, cfg)
        if best is None or run[0] > best[0]:
            best = run
    best_val, best_u, best_conv, best_iters = best
    search_val = best_val
    if d == 2:
        closed = fef_2qubit_closed_form(rho)
        if closed > best_val:
            best_val = closed
            best_u = _fef_2qubit_optimal_unitary(rho)
    dev = np.abs(linalg.dagger(best_u) @ best_u - np.eye(d)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"optimizer left the unitary manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_u, converged=best_conv,
                     iterations_used=best_iters, search_value=search_val)


# ---------------------------------------------------------------------------
# convex-roof decomposition search

def _member_negativity(lam: np.ndarray, d: int) -> np.ndarray:
    root2 = np.sqrt(lam).sum(axis=1) ** 2
    return np.clip((root2 - 1.0) / (d - 1.0), 0.0, None)


def _member_e2(lam: np.ndarray, d: int, rank_tol: float) -> np.ndarray:
    # rank <= 2 members take the fraction-linear fast path, rank 3 the
    # pairwise-product form; the two agree where both apply
    f = np.sqrt(lam).sum(axis=1) ** 2 / d
    fast = math.sqrt(d ** 3 / (2.0 * (d - 1.0))) * np.clip(f - 1.0 / d, 0.0, None)
    pairs = np.clip(0.5 * (1.0 - (lam * lam).sum(axis=1)), 0.0, None)
    general = np.sqrt(2.0 * d / (d - 1.0) * pairs)
    if lam.shape[1] < 3:
        return fast
    return np.where(lam[:, 2] > rank_tol, general, fast)


def _member_e3(lam: np.ndarray, d: int, rank_tol: float) -> np.ndarray:
    triple = np.clip(lam[:, 0] * lam[:, 1] * lam[:, 2], 0.0, None)
    return (6.0 * d * d / ((d - 1.0) * (d - 2.0)) * triple) ** (1.0 / 3.0)


class _RoofObjective:
    """Weighted ensemble average of a pure-state measure, batched over members.

    At d = 2 every supported measure of an unnormalized member vector m
    collapses to 2 |det m.reshape(2,2)|, so the two-qubit path never needs
    singular values.
    """

    def __init__(self, d: int, kind: str, rank_tol: float = 1e-9):
        self.d = d
        self.kind = kind
        self.rank_tol = rank_tol
        self.rank_cap = 3 if kind in ("e2", "e3") else None

    def member_values(self, lam: np.ndarray) -> np.ndarray:
        if self.kind == "neg":
            return _member_negativity(lam, self.d)
        if self.kind == "e2":
            return _member_e2(lam, self.d, self.rank_tol)
        return _member_e3(lam, self.d, self.rank_tol)

    @staticmethod
    def _det2_contrib(flat: np.ndarray) -> np.ndarray:
        """2 |det| of (..., 4) member vectors; equals p times the measure."""
        return 2.0 * np.abs(flat[..., 0] * flat[..., 3] - flat[..., 1] * flat[..., 2])

    def of_members(self, psi: np.ndarray) -> float:
        """psi: (m, d*d) unnormalized member vectors."""
        if self.d == 2:
            return float(self._det2_contrib(psi).sum())
        p = np.einsum("ij,ij->i", psi.conj(), psi).real
        active = p > WEIGHT_FLOOR
        if not np.any(active):
            return math.inf
        sv = np.linalg.svd(psi[active].reshape(-1, self.d, self.d), compute_uv=False)
        lam = sv * sv / p[active, None]
        if self.rank_cap is not None and lam.shape[1] > self.rank_cap:
            if np.any(lam[:, self.rank_cap:] > self.rank_tol):
                return math.inf
        return float(p[active] @ self.member_values(lam))

    def pair_scan(self, psi_i: np.ndarray, psi_j: np.ndarray,
                  thetas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
        """Objective contribution of rows i and j after each (theta, alpha)
        two-row rotation; returns array of shape (len(thetas), len(alphas))."""
        c = np.cos(thetas)[:, None, None]
        s = np.sin(thetas)[:, None, None]
        ph = np.exp(1j * alphas)[None, :, None]
        new_i = c * psi_i[None, None, :] + s * ph * psi_j[None, None, :]
        new_j = -s * np.conj(ph) * psi_i[None, None, :] + c * psi_j[None, None, :]
        if self.d == 2:
            return self._det2_contrib(new_i) + self._det2_contrib(new_j)
        stacked = np.stack([new_i, new_j], axis=2)  # (T, A, 2, d*d)
        t, a = stacked.shape[0], stacked.shape[1]
        flat = stacked.reshape(t * a * 2, self.d, self.d)
        p = np.einsum("ijk,ijk->i", flat.conj(), flat).real
        sv = np.linalg.svd(flat, compute_uv=False)
        safe_p = np.where(p > WEIGHT_FLOOR, p, 1.0)
        lam = sv * sv / safe_p[:, None]
        vals = self.member_values(lam)
        contrib = np.where(p > WEIGHT_FLOOR, p * vals, 0.0)
        if self.rank_cap is not None and lam.shape[1] > self.rank_cap:
            bad = np.any(lam[:, self.rank_cap:] > self.rank_tol, axis=1) & (p > WEIGHT_FLOOR)
            contrib = np.where(bad, math.inf, contrib)
        return contrib.reshape(t, a, 2).sum(axis=2)


_THETA_GRID = np.linspace(0.0, math.pi / 2.0, 9)
_ALPHA_GRID = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)


def _pair_minimize(obj: _RoofObjective, psi: np.ndarray, vm: np.ndarray,
                   i: int, j: int, current: float) -> float:
    """One coordinate-descent move mixing ensemble rows i and j in place."""
    base = obj.pair_scan(psi[i], psi[j], np.array([0.0]), np.array([0.0]))[0, 0]
    thetas, alphas = _THETA_GRID, _ALPHA_GRID
    best_t, best_a, best_val = 0.0, 0.0, base
    for _ in range(3):
        grid = obj.pair_scan(psi[i], psi[j], thetas, alphas)
        k = int(np.argmin(grid))
        ti, ai = divmod(k, grid.shape[1])
        if grid[ti, ai] < best_val:
            best_val = float(grid[ti, ai])
            best_t, best_a = float(thetas[ti]), float(alphas[ai])
        span_t = (thetas[-1] - thetas[0]) / 6.0 if thetas.size > 1 else 0.1
        span_a = (alphas[-1] - alphas[0]) / 6.0 if alphas.size > 1 else 0.3
        thetas = np.linspace(best_t - span_t, best_t + span_t, 7)
        alphas = np.linspace(best_a - span_a, best_a + span_a, 7)
    if best_val >= base - 1e-15:
        return current
    c, s = math.cos(best_t), math.sin(best_t)
    ph = complex(math.cos(best_a), math.sin(best_a))
    rot = np.array([[c, s * ph], [-s * np.conj(ph), c]])
    psi[[i, j]] = rot @ psi[[i, j]]
    vm[[i, j]] = rot @ vm[[i, j]]
    if not (math.isfinite(base) and math.isfinite(current)):
        return obj.of_members(psi)
    return current - (base - best_val)


def _descend_once(obj: _RoofObjective, comps: np.ndarray, vm0: np.ndarray,
                  cfg: OptimizerConfig) -> tuple[float, np.ndarray, bool, int]:
    vm = vm0.copy()
    psi = vm @ comps
    val = obj.of_members(psi)
    n = psi.shape[0]
    rounds = 0
    converged = False
    for _ in range(cfg.max_iters):
        rounds += 1
        before = val
        for i in range(n):
            for j in range(i + 1, n):
                val = _pair_minimize(obj, psi, vm, i, j, val)
        if math.isinf(val):
            break
        if before - val < cfg.tol * max(1.0, abs(val)):
            converged = True
            break
    # refresh from the accumulated rotations to shed drift
    val = obj.of_members(vm @ comps)
    return val, vm, converged, rounds


def _isometry_from_decomposition(dec: PureDecomposition, spectral: PureDecomposition,
                                 n_rows: int) -> np.ndarray:
    """Express an ensemble as a row mix of the spectral components."""
    r = len(spectral.states)
    comp_vecs = np.array([st.vector() for st in spectral.states])
    raw = np.zeros((n_rows, r), dtype=np.complex128)
    for i, (p, st) in enumerate(zip(dec.weights, dec.states)):
        target = math.sqrt(p) * st.vector()
        overlaps = comp_vecs.conj() @ target
        raw[i, :] = overlaps / np.sqrt(spectral.weights)
    return _polar(raw)


def _roof_search(rho: DensityMatrix, kind: str, cfg: OptimizerConfig,
                 extra_seeds: tuple[PureDecomposition, ...] = ()) -> OptResult:
    obj = _RoofObjective(rho.d, kind)
    spectral = spectral_decomposition(rho)
    r = len(spectral.states)
    comps = np.array([math.sqrt(p) * st.vector()
                      for p, st in zip(spectral.weights, spectral.states)])
    if r == 1:
        psi = comps.copy()
        val = obj.of_members(psi)
        value = None if math.isinf(val) else val
        return OptResult(value=value, argument_unitary=np.eye(1, dtype=np.complex128),
                         converged=True, iterations_used=0, search_value=value)

    n = cfg.ensemble_factor * r
    starts: list[np.ndarray] = []
    identity = np.zeros((n, r), dtype=np.complex128)
    identity[:r, :r] = np.eye(r)
    starts.append(identity)
    for dec in extra_seeds:
        if len(dec.states) <= n:
            starts.append(_isometry_from_decomposition(dec, spectral, n))
    while len(starts) < cfg.restarts:
        idx = len(starts)
        starts.append(random_isometry(n, r, np.random.default_rng(cfg.seed ^ idx)))

    best_val = math.inf
    best_vm = None
    best_conv = False
    best_rounds = 0
    for vm0 in starts[: max(cfg.restarts, len(starts))]:
        val, vm, conv, rounds = _descend_once(obj, comps, vm0, cfg)
        if val < best_val:
            best_val, best_vm, best_conv, best_rounds = val, vm, conv, rounds
    if math.isinf(best_val) or best_vm is None:
        return OptResult(value=None, argument_unitary=None, converged=False,
                         iterations_used=best_rounds, search_value=None)
    dev = np.abs(linalg.dagger(best_vm) @ best_vm - np.eye(r)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"search left the isometry manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_vm, converged=best_conv,
                     iterations_used=best_rounds, search_value=best_val)


def cren_upper_bound(rho: DensityMatrix, decomposition: PureDecomposition) -> float:
    """Ensemble-averaged pure negativity; an upper bound on the convex roof."""
    err = linalg.frobenius(decomposition.reconstruct() - rho.mat)
    if err > 1e-8:
        raise InvariantError(f"decomposition does not reproduce rho (error {err:.3e})")
    total = 0.0
    for p, st in zip(decomposition.weights, decomposition.states):
        total += p * measures.negativity_pure(schmidt(st), rho.d)
    return total


def cren_estimate(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
                  extra_seeds: tuple[PureDecomposition, ...] = ()) -> OptResult:
    """Searched upper bound on the convex-roof extended negativity."""
    return _roof_search(rho, "neg", cfg or OptimizerConfig(), extra_seeds)


def e_d2_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
               extra_seeds: tuple[PureDecomposition, ...] = ()) -> OptResult:
    """Searched convex-roof value of e_d2; decompositions containing a
    member of Schmidt rank above three are discarded."""
    return _roof_search(rho, "e2", cfg or OptimizerConfig(), extra_seeds)


def e_d3_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None,
               extra_seeds: tuple[PureDecomposition, ...] = ()) -> OptResult:
    """Searched convex-roof value of e_d3 (d >= 3)."""
    if rho.d < 3:
        raise InvariantError("e_d3_mixed needs d >= 3")
    return _roof_search(rho, "e3", cfg or OptimizerConfig(), extra_seeds)


def classify_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MeasureReport:
    """Measure report for a mixed state, rank band judged from e_d2_mixed."""
    cfg = cfg or OptimizerConfig()
    d = rho.d
    n = measures.negativity_mixed(rho)
    f_res = singlet_fraction_mixed(rho, cfg)
    f = float(f_res.value)
    fid = measures.fidelity_from_fraction(f, d)
    useful = measures.is_useful(f, d)
    spectral = spectral_decomposition(rho)
    rank = max(schmidt(st).schmidt_rank for st in spectral.states)
    e2_res = e_d2_mixed(rho, cfg)
    e2 = e2_res.value
    if d >= 3:
        e3_res = e_d3_mixed(rho, cfg)
        e3 = e3_res.value
    else:
        e3 = 0.0
    rank_class = measures.classify_rank_band(e2, useful, d, schmidt_rank=rank)
    return MeasureReport(
        d=d,
        negativity=n,
        singlet_fraction=f,
        fidelity=fid,
        e_d2=e2,
        e_d3=e3,
        schmidt_rank=rank,
        useful_for_teleportation=useful,
        rank_class=rank_class,
    )
