"""Mixed-state teleportation quantities via optimization.

Two search engines live here:

* a polar fixed-point ascent over unitaries U(d) estimating the maximal singlet
  fraction f(rho) = max_U <psi+| (U x I)^dagger rho (U x I) |psi+>, whose value
  is attained at the returned unitary and so is a certified lower bound, and
* a Riemannian conjugate-gradient descent over ensemble decompositions of
  rho (n x r isometries mixing its r spectral components, retracted by the
  polar factor) estimating convex-roof extensions of the pure-state
  measures: negativity (a CREN upper bound) and the rank-aware e_d2 / e_d3.
  The value is the measure averaged over the returned decomposition, so it
  is an upper bound on the roof.  The descent and this certificate evaluate
  the members with the same formulas (`_RoofObjective.terms`); the
  certificate adds only the rank-3 cap of e_d2 / e_d3 at d >= 4.

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
    DEFAULT_RANK_TOL,
    ENSEMBLE_FACTOR,
    DensityMatrix,
    PureDecomposition,
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

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvariantError("restarts and max_iters must be positive")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvariantError("tol must be finite and positive")


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

_ROT1 = np.array([1, 2, 0])
_ROT2 = np.array([2, 0, 1])
# C_ij = A[i1, j1] A[i2, j2] - A[i1, j2] A[i2, j1], i1 = _ROT1[i], i2 = _ROT2[i]
_COF = np.array([3 * r[:, None] + c for r, c in
                 ((_ROT1, _ROT1), (_ROT2, _ROT2), (_ROT1, _ROT2), (_ROT2, _ROT1))])
_SIGN2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


class _RoofObjective:
    """Sum over ensemble members of p times a pure-state measure, where a
    member is an unnormalized amplitude matrix A of weight p = |A|_F^2 and
    singular values s.  In these terms negativity is 2 sum_{i<j} s_i s_j/(d-1),
    e_d2 is sqrt(2d/(d-1) sum_{i<j} s_i^2 s_j^2) and e_d3 is
    (6d^2/((d-1)(d-2)) (s1 s2 s3)^2)^(1/3); at d = 2 every measure is 2|det A|.
    `terms` holds the one formula per measure and dimension, for descent and certificate.
    """

    def __init__(self, d: int, kind: str):
        self.d = d
        self.kind = kind

    def of_members(self, psi: np.ndarray) -> float:
        """Certified value of the (m, d*d) members psi; inf when e_d2 or e_d3
        meets a member of Schmidt rank above three."""
        d = self.d
        a = psi.reshape(-1, d, d)
        if d >= 4 and self.kind != "neg":
            s2 = np.linalg.svd(a, compute_uv=False) ** 2
            p = s2.sum(axis=1, keepdims=True)
            if np.any((s2[:, 3:] > DEFAULT_RANK_TOL * p) & (p > WEIGHT_FLOOR)):
                return math.inf
        return float(self.terms(a)[0].sum())

    def terms(self, a: np.ndarray, mu: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Member values of an (n, d, d) stack and their gradients under the
        real inner product Re tr(X^dagger Y).  At d = 2, and for e_d2 and e_d3
        at d = 3, they come from the cofactors without an SVD: e_d3 is
        3 |det A|^(2/3), and e_d2 is sqrt(3 sum |C|^2), since sum_{i<j} s_i^2 s_j^2
        is the squared norm of the 2 x 2 minors.  mu smooths e_d3 at det = 0 by
        adding mu^2 to (s1 s2 s3)^2."""
        d = self.d
        if d == 2 or (d == 3 and self.kind != "neg"):
            if d == 2:
                k, e, cof = 2.0, 0.5, a[:, ::-1, ::-1] * _SIGN2
            else:
                k, e = 3.0, 1.0 / 3.0
                f = a.reshape(-1, 9)[:, _COF]
                cof = f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]
            if self.kind == "e2" and d == 3:
                # d sum|C|^2 = d (p^2 - tr h^2) / 2 = 2 Re tr((pA - hA)^dagger dA), h = AA^dagger
                vals = np.sqrt(3.0 * (cof * cof.conj()).real.sum(axis=(1, 2)))
                h = a @ a.conj().transpose(0, 2, 1)
                p = (a * a.conj()).real.sum(axis=(1, 2))
                scale = 3.0 / np.where(vals > 0.0, vals, np.inf)
                return vals, scale[:, None, None] * (p[:, None, None] * a - h @ a)
            # k (|det|^2 + mu^2)^e; with the cofactors C, d|det|^2 = 2 Re(conj(det) sum C dA)
            det = (a[:, 0] * cof[:, 0]).sum(axis=1)
            x = (det * det.conj()).real + mu * mu
            scale = 2.0 * k * e * np.where(x > 0.0, x, np.inf) ** (e - 1.0) * det
            return k * x ** e, scale[:, None, None] * cof.conj()
        w, s, xh = np.linalg.svd(a)
        if self.kind == "neg":
            # 2 sum_{i<j} s_i s_j = sum_j s_j (sum s - s_j), a sum of terms >= 0
            ds = 2.0 * (s.sum(axis=1, keepdims=True) - s) / (d - 1.0)
            vals = 0.5 * (s * ds).sum(axis=1)
        elif self.kind == "e2":
            # sum_{i<j} s_i^2 s_j^2 as s_i^2 times the sum of the later ones,
            # which keeps a product member's value at rounding level
            s2 = s * s
            later = np.cumsum(s2[:, :0:-1], axis=1)[:, ::-1]
            vals = np.sqrt(2.0 * d / (d - 1.0) * (s2[:, :-1] * later).sum(axis=1))
            # its derivative in s_j is 2 s_j times the sum of the other squares
            scale = 2.0 * d / (d - 1.0) / np.where(vals > 0.0, vals, np.inf)
            ds = scale[:, None] * s * (s2.sum(axis=1, keepdims=True) - s2)
        else:
            k = (6.0 * d * d / ((d - 1.0) * (d - 2.0))) ** (1.0 / 3.0)
            t2 = s[:, :3] ** 2
            x = t2.prod(axis=1) + mu * mu
            vals = k * x ** (1.0 / 3.0)
            # d(s1 s2 s3)^2 / ds_j = 2 s_j times the other two squares
            dx = 2.0 * s[:, :3] * t2[:, _ROT1] * t2[:, _ROT2]
            ds = np.zeros_like(s)
            ds[:, :3] = k / 3.0 * np.where(x > 0.0, x, np.inf)[:, None] ** (-2.0 / 3.0) * dx
        return vals, (w * ds[:, None, :]) @ xh


# An e_d3 descent first runs on the term smoothed by this mu, since
# |det|^(2/3) has an infinite gradient at det = 0, then on the exact term.
# A mu far below a member's |det| keeps the cusps' pull towards sparse
# decompositions; mu = 1e-2 flattens them and ends higher on most rank-2 states.
_E3_MU = 3e-5
_ARMIJO = 1e-4
_MIN_STEP = 1e-12


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the Stiefel manifold at v."""
    h = v.conj().T @ g
    return g - v @ (0.5 * (h + h.conj().T))


def _value_grad(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray,
                mu: float) -> tuple[float, np.ndarray]:
    """Objective at the isometry v and its Riemannian gradient."""
    vals, grads = obj.terms((v @ comps).reshape(-1, obj.d, obj.d), mu)
    return float(vals.sum()), _tangent(v, grads.reshape(len(vals), -1) @ comps.conj().T)


def _cg_stage(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray, mu: float,
              max_steps: int, tol: float) -> tuple[np.ndarray, bool, int]:
    """Polak-Ribiere+ conjugate gradients with Armijo backtracking, so the
    objective never rises.  Converged when two successive steps each lower it
    by less than tol * max(1, value) (one short step after backtracking at a
    kink of a member term says little), or when no step lowers it."""
    f, grad = _value_grad(obj, comps, v, mu)
    direction = -grad
    t = 1.0
    stalled = False
    for step in range(1, max_steps + 1):
        slope = float(np.vdot(grad, direction).real)
        if slope >= 0.0:
            direction, slope = -grad, -float(np.vdot(grad, grad).real)
        if slope == 0.0:
            return v, True, step - 1
        while True:
            v_new = _polar(v + t * direction)
            f_new, grad_new = _value_grad(obj, comps, v_new, mu)
            if f_new <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP:
                return v, True, step
        # grad_new is tangent at v_new, so projecting the old gradient there
        # would not change its product with grad_new
        beta = max(0.0, float(np.vdot(grad_new, grad_new - grad).real)
                   / float(np.vdot(grad, grad).real))
        direction = -grad_new + beta * _tangent(v_new, direction)
        small = f - f_new < tol * max(1.0, abs(f_new))
        v, f, grad = v_new, f_new, grad_new
        if small and stalled:
            return v, True, step
        stalled = small
        t *= 2.0
    return v, False, max_steps


def _descend_once(obj: _RoofObjective, comps: np.ndarray, v0: np.ndarray,
                  cfg: OptimizerConfig) -> tuple[float, np.ndarray, bool, int]:
    """One restart: (certified value, isometry, converged, descent steps).
    The start is kept if the certificate ends higher, which rounding in a
    member term near zero can cause."""
    v, steps = v0, 0
    for mu in ((_E3_MU, 0.0) if obj.kind == "e3" else (0.0,)):
        v, converged, used = _cg_stage(obj, comps, v, mu, cfg.max_iters - steps, cfg.tol)
        steps += used
    val, val0 = obj.of_members(v @ comps), obj.of_members(v0 @ comps)
    return (val, v, converged, steps) if val <= val0 else (val0, v0, converged, steps)


def _isometry_from_decomposition(dec: PureDecomposition, spectral: PureDecomposition,
                                 n_rows: int) -> np.ndarray:
    """Express an ensemble as a row mix of the spectral components."""
    comp_vecs = np.array([st.vector() for st in spectral.states])
    raw = np.zeros((n_rows, len(spectral.states)), dtype=np.complex128)
    raw[:len(dec.states)] = dec.members() @ comp_vecs.conj().T / np.sqrt(spectral.weights)
    return _polar(raw)


def _roof_search(rho: DensityMatrix, kind: str, cfg: OptimizerConfig,
                 extra_seeds: tuple[PureDecomposition, ...] = ()) -> OptResult:
    obj = _RoofObjective(rho.d, kind)
    spectral = spectral_decomposition(rho)
    r = len(spectral.states)
    comps = spectral.members()
    if r == 1:
        val = obj.of_members(comps)
        value = None if math.isinf(val) else val
        return OptResult(value=value, argument_unitary=np.eye(1, dtype=np.complex128),
                         converged=True, iterations_used=0, search_value=value)

    n = ENSEMBLE_FACTOR * r
    # The spectral decomposition: its zero rows have zero gradient and stay
    # zero, so this start searches r-member ensembles only, by design; it is
    # often the best start for e_d2.
    starts = [np.eye(n, r, dtype=np.complex128)]
    starts += [_isometry_from_decomposition(dec, spectral, n)
               for dec in extra_seeds if len(dec.states) <= n]
    while len(starts) < cfg.restarts:
        starts.append(random_isometry(n, r, np.random.default_rng(cfg.seed ^ len(starts))))
    runs = [_descend_once(obj, comps, vm0, cfg) for vm0 in starts]
    best_val, best_vm, best_conv, best_steps = min(runs, key=lambda run: run[0])
    if math.isinf(best_val):
        return OptResult(value=None, argument_unitary=None, converged=False,
                         iterations_used=0, search_value=None)
    dev = np.abs(linalg.dagger(best_vm) @ best_vm - np.eye(r)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"search left the isometry manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_vm, converged=best_conv,
                     iterations_used=best_steps, search_value=best_val)


def cren_upper_bound(rho: DensityMatrix, decomposition: PureDecomposition) -> float:
    """Ensemble-averaged pure negativity; an upper bound on the convex roof."""
    err = linalg.frobenius(decomposition.reconstruct() - rho.mat)
    if err > 1e-8:
        raise InvariantError(f"decomposition does not reproduce rho (error {err:.3e})")
    return _RoofObjective(rho.d, "neg").of_members(decomposition.members())


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
