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

Both run their restarts as one stack, (R, d, d) unitaries or (R, n, r)
isometries, so one numpy call serves every restart.  A restart leaves the
stack when it stops, and each takes exactly the steps it takes alone: every
stacked reduction (`_re_dots`, the row sums of member terms, the stacked
SVDs and products) repeats the bits of its one-restart form.

For two qubits the singlet fraction also has a closed form (largest
eigenvalue of the real part of rho expressed in a phase-fixed maximally
entangled basis), used both as an oracle and to cap the iterative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .states import (
    DEFAULT_RANK_TOL,
    ENSEMBLE_FACTOR,
    RECONSTRUCTION_TOL,
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
        if self.seed < 0:
            raise InvariantError(f"seed must be non-negative, got {self.seed}")


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


def _re_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re vdot(x[i], y[i]) for each layer of two stacks, as one stacked matmul
    that gives the same bits as np.vdot on each layer."""
    k = len(x)
    return (x.conj().reshape(k, 1, -1) @ y.reshape(k, -1, 1)).real.reshape(k)


def _fractions(rho_mat: np.ndarray, u: np.ndarray, d: int) -> np.ndarray:
    """Singlet fraction at each unitary of the (k, d, d) stack u."""
    v = u.reshape(len(u), -1) / math.sqrt(d)
    return _re_dots(v, rho_mat @ v[:, :, None])


def _top_eigvec_warm_start(rho: DensityMatrix) -> np.ndarray:
    """Unitary maximizing overlap with the dominant eigenvector of rho."""
    _, vecs = np.linalg.eigh(rho.mat)
    return _polar(vecs[:, -1].reshape(rho.d, rho.d))


def _ascend(rho_mat: np.ndarray, d: int, u: np.ndarray,
            cfg: OptimizerConfig) -> list[tuple[float, np.ndarray, bool, int]]:
    """Polar fixed point U <- polar(G), G = reshape(rho vec U), from each start
    of the (R, d, d) stack u: (fraction, unitary, converged, iterations) per start.

    f(U) = vec(U)^dagger rho vec(U) / d = Re tr(U^dagger G) / d is convex, so
    f(V) >= (2 Re tr(V^dagger G) - d f(U)) / d.  The polar factor maximizes this
    bound over U(d), so f never decreases; the bound's possible gain,
    2 (sum of G's singular values / d - f), stops a restart.  All restarts
    advance as one stack, and a restart leaves it when it stops, so each takes
    exactly the iterations it takes alone.
    """
    f = _fractions(rho_mat, u, d)
    end_f, end_u = f.copy(), u.copy()
    converged = np.zeros(len(u), dtype=bool)
    iters = np.full(len(u), cfg.max_iters)
    live = np.arange(len(u))
    for it in range(1, cfg.max_iters + 1):
        g = (rho_mat @ u.reshape(len(u), -1, 1)).reshape(u.shape)
        nxt = _polar(g)
        f_nxt = _fractions(rho_mat, nxt, d)
        stop = (2.0 * (_re_dots(nxt, g) / d - f) <= cfg.tol) | (f_nxt <= f)
        if stop.any():
            idx = live[stop]
            end_f[idx], end_u[idx], converged[idx], iters[idx] = f[stop], u[stop], True, it
            live, nxt, f_nxt = live[~stop], nxt[~stop], f_nxt[~stop]
        u, f = nxt, f_nxt
        if not live.size:
            break
    end_f[live], end_u[live] = f, u
    return list(zip(end_f.tolist(), end_u, converged.tolist(), iters.tolist()))


# Columns are a phase-fixed basis of maximally entangled 2-qubit states;
# their real spans are exactly the maximally entangled states.
_MAGIC = np.column_stack([
    np.array([1, 0, 0, 1], dtype=np.complex128),
    np.array([1j, 0, 0, -1j], dtype=np.complex128),
    np.array([0, 1j, 1j, 0], dtype=np.complex128),
    np.array([0, 1, -1, 0], dtype=np.complex128),
]) * (1.0 / math.sqrt(2.0))


def fef_2qubit_stack(mats: np.ndarray) -> np.ndarray:
    """Closed-form maximal singlet fraction of each matrix in a (..., 4, 4)
    stack: the top eigenvalue of the real part of rho in the magic basis."""
    m = _MAGIC.conj().T @ mats @ _MAGIC
    return np.linalg.eigvalsh(np.real(m))[..., -1]


def fef_2qubit_closed_form(rho: DensityMatrix) -> float:
    """Maximal singlet fraction of a two-qubit state, closed form."""
    if rho.d != 2:
        raise InvariantError("closed-form singlet fraction needs d=2")
    return float(fef_2qubit_stack(rho.mat))


def _fef_2qubit_optimal_unitary(rho: DensityMatrix) -> np.ndarray:
    m = _MAGIC.conj().T @ rho.mat @ _MAGIC
    _, vecs = np.linalg.eigh(np.real(m))
    vec = _MAGIC @ vecs[:, -1].astype(np.complex128)
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
    starts = [_top_eigvec_warm_start(rho), np.eye(d, dtype=np.complex128)]
    starts += [haar_unitary(d, np.random.default_rng(cfg.seed ^ idx))
               for idx in range(2, cfg.restarts)]
    runs = _ascend(rho_mat, d, np.array(starts[:cfg.restarts]), cfg)
    best = max(runs, key=lambda run: run[0])
    best_val, best_u, best_conv, best_iters = best
    search_val = best_val
    if d == 2:
        closed = fef_2qubit_closed_form(rho)
        if closed > best_val:
            best_val = closed
            best_u = _fef_2qubit_optimal_unitary(rho)
    dev = np.abs(best_u.conj().T @ best_u - np.eye(d)).max()
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
    """Projection of each layer of g onto the tangent space of the Stiefel
    manifold at the matching layer of the stack v."""
    h = v.conj().swapaxes(-1, -2) @ g
    return g - v @ (0.5 * (h + h.conj().swapaxes(-1, -2)))


def _value_grad(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray,
                mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Objective at each isometry of the (k, n, r) stack v and its Riemannian gradient."""
    k, n, _ = v.shape
    vals, grads = obj.terms((v @ comps).reshape(-1, obj.d, obj.d), mu)
    return vals.reshape(k, n).sum(axis=1), _tangent(v, grads.reshape(k, n, -1) @ comps.conj().T)


def _slope(grad: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Slope of each restart along its direction; a direction that does not
    descend is reset, in place, to the negative gradient."""
    slope = _re_dots(grad, direction)
    flat = slope >= 0.0
    if flat.any():
        direction[flat] = -grad[flat]
        slope[flat] = -_re_dots(grad[flat], grad[flat])
    return slope


def _cg_stage(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray, mu: float,
              budget: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polak-Ribiere+ conjugate gradients with Armijo backtracking, so the
    objective never rises, from each isometry of the (R, n, r) stack v with
    its own step budget.  A restart has converged when two successive steps
    each lower it by less than tol * max(1, value) (one short step after
    backtracking at a kink of a member term says little), or when no step
    lowers it.  Every restart keeps its own step length t and stall flag and
    leaves the stack when it stops, so it takes exactly the steps it takes
    alone.  Returns the end points, converged flags and steps used."""
    end, converged, used = v.copy(), np.zeros(len(v), dtype=bool), budget.copy()
    live = np.flatnonzero(budget > 0)
    if not live.size:
        return end, converged, used
    v, budget = v[live], budget[live]
    f, grad = _value_grad(obj, comps, v, mu)
    direction = -grad
    slope = _slope(grad, direction)
    t = np.ones(len(live))
    stalled = np.zeros(len(live), dtype=bool)
    step = 0
    done = stop = slope == 0.0
    while True:
        if stop.any():
            idx = live[stop]
            end[idx], converged[idx], used[idx] = v[stop], done[stop], step
            keep = ~stop
            live, budget, v, f, grad, direction, slope, t, stalled = (
                x[keep] for x in (live, budget, v, f, grad, direction, slope, t, stalled))
        if not live.size:
            return end, converged, used
        step += 1
        # a restart whose step shrinks below _MIN_STEP keeps v and stops
        v_new, f_new, grad_new = v.copy(), f.copy(), grad.copy()
        failed = np.zeros(len(live), dtype=bool)
        todo = np.arange(len(live))
        while todo.size:
            trial = _polar(v[todo] + t[todo, None, None] * direction[todo])
            f_try, g_try = _value_grad(obj, comps, trial, mu)
            ok = f_try <= f[todo] + _ARMIJO * t[todo] * slope[todo]
            hit = todo[ok]
            v_new[hit], f_new[hit], grad_new[hit] = trial[ok], f_try[ok], g_try[ok]
            todo = todo[~ok]
            t[todo] *= 0.5
            short = t[todo] < _MIN_STEP
            failed[todo[short]] = True
            todo = todo[~short]
        # grad_new is tangent at v_new, so projecting the old gradient there
        # would not change its product with grad_new
        beta = _re_dots(grad_new, grad_new - grad) / _re_dots(grad, grad)
        direction = (-grad_new + np.where(beta > 0.0, beta, 0.0)[:, None, None]
                     * _tangent(v_new, direction))
        small = f - f_new < tol * np.maximum(1.0, np.abs(f_new))
        v, f, grad = v_new, f_new, grad_new
        slope = _slope(grad, direction)
        # a zero slope next step ends the descent here, converged
        done = failed | (small & stalled) | ((slope == 0.0) & (budget > step))
        stop = done | (budget == step)
        stalled = small
        t *= 2.0


def _descend(obj: _RoofObjective, comps: np.ndarray, v0: np.ndarray,
             cfg: OptimizerConfig) -> list[tuple[float, np.ndarray, bool, int]]:
    """Every start of the (R, n, r) stack v0 descended as one stack:
    (certified value, isometry, converged, descent steps) per restart.
    A start is kept if the certificate ends higher, which rounding in a
    member term near zero can cause."""
    v, steps = v0, np.zeros(len(v0), dtype=int)
    for mu in ((_E3_MU, 0.0) if obj.kind == "e3" else (0.0,)):
        v, converged, used = _cg_stage(obj, comps, v, mu, cfg.max_iters - steps, cfg.tol)
        steps += used
    runs = []
    for vk, vk0, conv, n in zip(v, v0, converged.tolist(), steps.tolist()):
        val, val0 = obj.of_members(vk @ comps), obj.of_members(vk0 @ comps)
        runs.append((val, vk, conv, n) if val <= val0 else (val0, vk0, conv, n))
    return runs


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
    runs = _descend(obj, comps, np.array(starts), cfg)
    best_val, best_vm, best_conv, best_steps = min(runs, key=lambda run: run[0])
    if math.isinf(best_val):
        return OptResult(value=None, argument_unitary=None, converged=False,
                         iterations_used=0, search_value=None)
    dev = np.abs(best_vm.conj().T @ best_vm - np.eye(r)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"search left the isometry manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_vm, converged=best_conv,
                     iterations_used=best_steps, search_value=best_val)


def cren_upper_bound(rho: DensityMatrix, decomposition: PureDecomposition) -> float:
    """Ensemble-averaged pure negativity; an upper bound on the convex roof."""
    err = float(np.linalg.norm(decomposition.reconstruct() - rho.mat))
    if err > RECONSTRUCTION_TOL:
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
