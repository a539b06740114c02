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
  the members with the same formulas (`_RoofObjective.values`); the
  certificate adds only the rank-3 cap of e_d2 / e_d3 at d >= 4, and takes
  no gradient.  The descent values each Armijo trial only, and takes one
  gradient per step, built from what valuing the accepted trial computed.
  At d = 2 every such measure is 2|det A| per member, whose roof is
  Wootters' concurrence, so the decomposition is Wootters' optimal ensemble,
  built in closed form, and the descent does not run.  At d = 3 the e_d3
  roof of a state of spectral rank >= 3 first gets a zero test: Gauss-Newton
  on the member determinants (`_zero_stage`).  When a restart brings
  sum |det A_i|^2 to 1e-30, its ensemble's e_d3, at most 2.1e-9 and
  usually near 5e-11, is the value and the descent does not run; when every
  restart stalls, the descent runs from the same starts and returns what
  it returns without the test.  The e_d2 and e_d3 roofs at d = 3 and
  spectral rank 2 first get a hull stage (`hull.rank2_stage`): an ensemble
  of at most four members from the convex hull of the member value on the
  Bloch sphere of the range, whose supporting plane is checked on the
  sphere; when it is accepted its value is the roof, and otherwise the
  descent runs as it does without it.

Both run their restarts as one stack, (R, d, d) unitaries or (R, n, r)
isometries, so one numpy call serves every restart.  A restart leaves the
stack when it stops, and each takes exactly the steps it takes alone: every
stacked reduction (`_re_dots`, the row sums of member terms, the stacked
SVDs and products) repeats the bits of its one-restart form.

For two qubits the singlet fraction has a closed form (largest eigenvalue
of the real part of rho expressed in a phase-fixed maximally entangled
basis); its eigenvector gives the unitary, and the ascent does not run.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .states import (
    DEFAULT_RANK_TOL,
    ENSEMBLE_FACTOR,
    MANIFOLD_TOL,
    DensityMatrix,
    PureDecomposition,
    random_isometry,
    schmidt,
    spectral_decomposition,
    validated_decomposition,
)
from . import measures
from .measures import MeasureReport, RankClass

DEFAULT_SEED = 1729
WEIGHT_FLOOR = 1e-14
# stops an ascent restart when the polar step's possible gain falls to it, and
# a descent restart when two successive steps each gain less than it (relative)
CONVERGENCE_TOL = 1e-9
# seeded start stacks kept per process: at most _START_STACKS of them, each
# of at most _START_STACK_BYTES; a larger stack is drawn afresh on each call
_START_STACKS = 16
_START_STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    max_iters: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvariantError("restarts and max_iters must be positive")
        if self.seed < 0:
            raise InvariantError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a search; argument_unitary is the unitary (or mix isometry)
    achieving value, and None when value is."""

    value: float | None
    argument_unitary: np.ndarray | None
    converged: bool
    iterations_used: int


# ---------------------------------------------------------------------------
# singlet fraction ascent

def _draw_isometries(seed: int, n: int, r: int, ks: range) -> np.ndarray:
    stack = np.empty((len(ks), n, r), dtype=np.complex128)
    for i, k in enumerate(ks):
        stack[i] = random_isometry(n, r, np.random.default_rng(seed ^ k))
    stack.setflags(write=False)
    return stack


_cached_isometries = functools.lru_cache(maxsize=_START_STACKS)(_draw_isometries)


def _seeded_isometries(seed: int, n: int, r: int, ks: range) -> np.ndarray:
    """Read-only (len(ks), n, r) stack whose layer for k is
    random_isometry(n, r, default_rng(seed ^ k)): the seeded starts of both
    searches, drawn once per process unless the stack is over
    _START_STACK_BYTES.  Callers take copies."""
    if len(ks) * n * r * 16 > _START_STACK_BYTES:
        return _draw_isometries(seed, n, r, ks)
    return _cached_isometries(seed, n, r, ks)


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
        stop = (2.0 * (_re_dots(nxt, g) / d - f) <= CONVERGENCE_TOL) | (f_nxt <= f)
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
    d = 2 the ascent does not run: the unitary is the closed form's optimum,
    and the value is the fraction evaluated there.
    """
    cfg = cfg or OptimizerConfig()
    d = rho.d
    rho_mat = np.asarray(rho.mat)
    if d == 2:
        best_u = _fef_2qubit_optimal_unitary(rho)
        best_val, best_conv, best_iters = float(_fractions(rho_mat, best_u[None], d)[0]), True, 0
    else:
        fixed = np.array([_top_eigvec_warm_start(rho), np.eye(d, dtype=np.complex128)])
        drawn = _seeded_isometries(cfg.seed, d, d, range(2, cfg.restarts))
        starts = np.concatenate([fixed, drawn])
        runs = _ascend(rho_mat, d, starts[:cfg.restarts], cfg)
        best_val, best_u, best_conv, best_iters = max(runs, key=lambda run: run[0])
    dev = np.abs(best_u.conj().T @ best_u - np.eye(d)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"optimizer left the unitary manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_u, converged=best_conv,
                     iterations_used=best_iters)


# ---------------------------------------------------------------------------
# convex-roof decomposition search

_ROT1 = np.array([1, 2, 0])
_ROT2 = np.array([2, 0, 1])
# C_ij = A[i1, j1] A[i2, j2] - A[i1, j2] A[i2, j1], i1 = _ROT1[i], i2 = _ROT2[i]
_COF = np.array([3 * r[:, None] + c for r, c in
                 ((_ROT1, _ROT1), (_ROT2, _ROT2), (_ROT1, _ROT2), (_ROT2, _ROT1))])


def _cofactors(a: np.ndarray) -> np.ndarray:
    """Cofactor matrices C of an (n, 3, 3) stack: det A = sum_k A[0, k] C[0, k],
    and det A moves by sum C * dA."""
    f = a.reshape(-1, 9)[:, _COF]
    return f[:, 0] * f[:, 1] - f[:, 2] * f[:, 3]


class _RoofObjective:
    """Sum over ensemble members of p times a pure-state measure, where a
    member is an unnormalized amplitude matrix A of weight p = |A|_F^2 and
    singular values s.  In these terms negativity is 2 sum_{i<j} s_i s_j/(d-1),
    e_d2 is sqrt(2d/(d-1) sum_{i<j} s_i^2 s_j^2) and e_d3 is
    (6d^2/((d-1)(d-2)) (s1 s2 s3)^2)^(1/3); at d = 2 every measure is 2|det A|.
    `values` holds the one formula per measure and dimension, for descent and
    certificate; `gradient` turns what `values` kept of its work into the
    members' gradients, so a point whose gradient is never read costs none.
    """

    def __init__(self, d: int, kind: str):
        self.d = d
        self.kind = kind

    def of_members(self, psi: np.ndarray) -> np.ndarray:
        """Certified value of each ensemble in the (..., m, d*d) member stack
        psi; inf where e_d2 or e_d3 meets a member of Schmidt rank above three."""
        d = self.d
        a = psi.reshape(-1, d, d)
        vals = self.values(a)[0].reshape(psi.shape[:-1]).sum(axis=-1)
        if d >= 4 and self.kind != "neg":
            s2 = np.linalg.svd(a, compute_uv=False) ** 2
            p = s2.sum(axis=1, keepdims=True)
            capped = ((s2[:, 3:] > DEFAULT_RANK_TOL * p) & (p > WEIGHT_FLOOR)).any(axis=1)
            vals = np.where(capped.reshape(psi.shape[:-1]).any(axis=-1), math.inf, vals)
        return vals

    def values(self, a: np.ndarray, mu: float = 0.0) -> tuple[np.ndarray, tuple]:
        """Member values of an (n, d, d) stack, and the intermediates of each
        member that `gradient` needs, as arrays with the members on the first
        axis: the members and values for e_d2 at d = 3, the cofactors, det and
        x for e_d3 at d = 3, and W, ds, X^dagger of the SVD otherwise.  For
        e_d2 and e_d3 at d = 3 the values come from the cofactors without an
        SVD: e_d3 is 3 |det A|^(2/3), and e_d2 is sqrt(3 sum |C|^2), since
        sum_{i<j} s_i^2 s_j^2 is the squared norm of the 2 x 2 minors.  mu
        smooths e_d3 at det = 0 by adding mu^2 to (s1 s2 s3)^2.  The full SVD
        is taken even where only s enters the value: the singular values of
        compute_uv=False mostly differ from its s in the last bits."""
        d = self.d
        if d == 3 and self.kind != "neg":
            cof = _cofactors(a)
            if self.kind == "e2":
                vals = np.sqrt(3.0 * (cof * cof.conj()).real.sum(axis=(1, 2)))
                return vals, (a, vals)
            # 3 (|det|^2 + mu^2)^(1/3)
            det = (a[:, 0] * cof[:, 0]).sum(axis=1)
            x = (det * det.conj()).real + mu * mu
            return 3.0 * x ** (1.0 / 3.0), (cof, det, x)
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
        return vals, (w, ds, xh)

    def gradient(self, parts: tuple) -> np.ndarray:
        """Gradients, under the real inner product Re tr(X^dagger Y), of the
        members whose intermediates `values` returned as parts."""
        if self.d == 3 and self.kind == "e2":
            # d sum|C|^2 = d (p^2 - tr h^2) / 2 = 2 Re tr((pA - hA)^dagger dA), h = AA^dagger
            a, vals = parts
            h = a @ a.conj().transpose(0, 2, 1)
            p = (a * a.conj()).real.sum(axis=(1, 2))
            scale = 3.0 / np.where(vals > 0.0, vals, np.inf)
            return scale[:, None, None] * (p[:, None, None] * a - h @ a)
        if self.d == 3 and self.kind == "e3":
            # with the cofactors C, d|det|^2 = 2 Re(conj(det) sum C dA)
            cof, det, x = parts
            k, e = 3.0, 1.0 / 3.0
            scale = 2.0 * k * e * np.where(x > 0.0, x, np.inf) ** (e - 1.0) * det
            return scale[:, None, None] * cof.conj()
        w, ds, xh = parts
        return (w * ds[:, None, :]) @ xh

    def terms(self, a: np.ndarray, mu: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Member values of an (n, d, d) stack and their gradients."""
        vals, parts = self.values(a, mu)
        return vals, self.gradient(parts)


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


def _values(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray,
            mu: float) -> tuple[np.ndarray, tuple]:
    """Objective at each isometry of the (k, n, r) stack v, and the members'
    intermediates from `_RoofObjective.values`, each of shape (k, n, ...)."""
    k, n, _ = v.shape
    vals, parts = obj.values((v @ comps).reshape(-1, obj.d, obj.d), mu)
    return vals.reshape(k, n).sum(axis=1), tuple(x.reshape(k, n, *x.shape[1:]) for x in parts)


def _gradient(obj: _RoofObjective, comps: np.ndarray, v: np.ndarray,
              parts: tuple) -> np.ndarray:
    """Riemannian gradient at each isometry of the (k, n, r) stack v, from the
    intermediates that `_values` returned there."""
    k, n, _ = v.shape
    grads = obj.gradient(tuple(x.reshape(k * n, *x.shape[2:]) for x in parts))
    return _tangent(v, grads.reshape(k, n, -1) @ comps.conj().T)


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
              budget: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polak-Ribiere+ conjugate gradients with Armijo backtracking, so the
    objective never rises, from each isometry of the (R, n, r) stack v with
    its own step budget.  A restart has converged when two successive steps
    each lower it by less than CONVERGENCE_TOL * max(1, value) (one short
    step after backtracking at a kink of a member term says little), or when
    no step lowers it.  Every restart keeps its own step length t and stall
    flag and leaves the stack when it stops, so it takes exactly the steps it
    takes alone.

    An Armijo trial is valued only (`_values`), since the sufficient-decrease
    test reads nothing else; a restart keeps the intermediates of the trial
    it accepts, and once every restart has accepted or failed, one
    `_gradient` call builds the gradients of those that moved from them.
    These are the same numbers, to the bit, as a gradient taken with each
    trial.  Returns the end points, converged flags and steps used."""
    end, converged, used = v.copy(), np.zeros(len(v), dtype=bool), budget.copy()
    live = np.flatnonzero(budget > 0)
    if not live.size:
        return end, converged, used
    v, budget = v[live], budget[live]
    f, parts = _values(obj, comps, v, mu)
    grad = _gradient(obj, comps, v, parts)
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
        # the first trial of every restart; each trial is valued only, and
        # parts keeps the intermediates of the trial each restart accepts
        v_new = _polar(v + t[:, None, None] * direction)
        f_new, parts = _values(obj, comps, v_new, mu)
        todo = np.flatnonzero(~(f_new <= f + _ARMIJO * t * slope))
        failed = np.zeros(len(live), dtype=bool)
        if todo.size:
            v_new[todo], f_new[todo] = v[todo], f[todo]
        while todo.size:
            # a restart whose step shrinks below _MIN_STEP keeps v and stops
            t[todo] *= 0.5
            short = t[todo] < _MIN_STEP
            failed[todo[short]] = True
            todo = todo[~short]
            if not todo.size:
                break
            trial = _polar(v[todo] + t[todo, None, None] * direction[todo])
            f_try, parts_try = _values(obj, comps, trial, mu)
            ok = f_try <= f[todo] + _ARMIJO * t[todo] * slope[todo]
            hit = todo[ok]
            v_new[hit], f_new[hit] = trial[ok], f_try[ok]
            for x, x_try in zip(parts, parts_try):
                x[hit] = x_try[ok]
            todo = todo[~ok]
        # one gradient per step, at the points the restarts moved to
        moved = ~failed
        if moved.all():
            grad_new = _gradient(obj, comps, v_new, parts)
        else:
            grad_new = grad.copy()
            if moved.any():
                grad_new[moved] = _gradient(obj, comps, v_new[moved],
                                            tuple(x[moved] for x in parts))
        # grad_new is tangent at v_new, so projecting the old gradient there
        # would not change its product with grad_new
        beta = _re_dots(grad_new, grad_new - grad) / _re_dots(grad, grad)
        direction = (-grad_new + np.where(beta > 0.0, beta, 0.0)[:, None, None]
                     * _tangent(v_new, direction))
        small = f - f_new < CONVERGENCE_TOL * np.maximum(1.0, np.abs(f_new))
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
        v, converged, used = _cg_stage(obj, comps, v, mu, cfg.max_iters - steps)
        steps += used
    val, val0 = obj.of_members(v @ comps), obj.of_members(v0 @ comps)
    keep = val <= val0
    return list(zip(np.where(keep, val, val0).tolist(),
                    np.where(keep[:, None, None], v, v0), converged.tolist(), steps.tolist()))


# At d = 3 the e_d3 roof is 0 exactly when rho has an ensemble whose members
# all have det A = 0, that is Schmidt rank <= 2; every 3x3 PPT state has one
# (Yang, Leung & Tang 2016).  _zero_stage looks for it by Gauss-Newton on the
# residuals det A_i, a zero-residual problem that converges quadratically: a
# restart whose sum |det A_i|^2 reaches _ZERO_FLOOR certifies e_d3 at rounding
# level.  A restart leaves the stack when a step fails to scale that sum by
# _ZERO_STALL, and the stage gives up after _ZERO_ITERS steps.
_ZERO_FLOOR = 1e-30
_ZERO_STALL = 0.5
_ZERO_ITERS = 12


def _zero_stage(comps: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Gauss-Newton on the residuals det A_i of the d = 3 members A = V comps
    from every isometry of the (R, n, r) stack v: the isometry and step count
    of the restart with the least sum |det A_i|^2 once one reaches _ZERO_FLOOR,
    or None when every restart stalls first.

    det is holomorphic with derivative C (the cofactors), so det A_i moves by
    sum_j G_ij dV_ij, G = C comps^T.  Under Re tr(X^dagger Y) the gradients of
    Re det A_i and Im det A_i are conj(G_i) and i conj(G_i) on row i.  Their
    tangent projections T_k span the step: sum_k c_k T_k with M c = -(Re det,
    Im det), M the real Gram matrix of the T_k, is the minimum-norm step that
    zeroes the linearized residuals.  A zero row of V has zero gradients, so M
    is solved by pseudo-inverse.  The polar factor retracts the step."""
    n = v.shape[1]
    rows = np.eye(n)[:, :, None]
    res_prev = np.full(len(v), np.inf)
    for step in range(_ZERO_ITERS + 1):
        a = (v @ comps).reshape(-1, 3, 3)
        cof = _cofactors(a)
        det = (a[:, 0] * cof[:, 0]).sum(axis=1).reshape(-1, n)
        res = (det * det.conj()).real.sum(axis=1)
        if res.min() <= _ZERO_FLOOR:
            return v[np.argmin(res)], step
        keep = res <= _ZERO_STALL * res_prev
        if step == _ZERO_ITERS or not keep.any():
            break
        v, det, res_prev = v[keep], det[keep], res[keep]
        g = (cof.reshape(-1, n, 9)[keep] @ comps.T).conj()
        x = rows * g[:, :, None, :]
        t = _tangent(v[:, None], np.concatenate([x, 1j * x], axis=1)).reshape(len(v), 2 * n, -1)
        gram = (t.conj() @ t.transpose(0, 2, 1)).real
        b = np.concatenate([det.real, det.imag], axis=1)[:, None, :]
        c = b @ np.linalg.pinv(gram, hermitian=True)
        v = _polar(v - (c @ t).reshape(v.shape))
    return None


def _roof_starts(spectral: PureDecomposition, cfg: OptimizerConfig) -> np.ndarray:
    """The (R, ENSEMBLE_FACTOR r, r) stack of descent starts: the spectral
    decomposition, then the seeded random isometries of `_seeded_isometries`,
    start k drawn from default_rng(seed ^ k).  The spectral start's zero
    rows have zero gradient and stay zero, so it searches r-member ensembles
    only, by design; it is often the best start for e_d2."""
    r = len(spectral.states)
    n = ENSEMBLE_FACTOR * r
    drawn = _seeded_isometries(cfg.seed, n, r, range(1, cfg.restarts))
    return np.concatenate([np.eye(n, r, dtype=np.complex128)[None], drawn])


# Wootters' real orthogonal mix of four members: every entry squares to 1/4,
# so four members whose products z_j^T Y z_k form diag(D) mix into four
# members with z^T Y z = tr(D) / 4 each.
_WOOTTERS_MIX = 0.5 * np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


def _closing_phases(s: np.ndarray) -> np.ndarray:
    """Unit phases e with sum(s * e) = 0, for lengths s1 >= s2 >= s3 >= s4 >= 0
    with s1 <= s2 + s3 + s4: two triangles (s1, s2, t) and (s3, s4, t) that
    share a diagonal of length t = max(s1 - s2, s3 - s4)."""
    s1, s2, s3, s4 = s.tolist()
    t = max(s1 - s2, s3 - s4)

    def apex(a: float, b: float) -> float:
        """The angle x with |a + b e^{ix}| = t; any x serves when a b = 0."""
        if a * b <= 0.0:
            return math.pi
        return math.acos(min(1.0, max(-1.0, (t * t - a * a - b * b) / (2.0 * a * b))))

    x, y = apex(s1, s2), apex(s3, s4)
    turn = (cmath.phase(-(s1 + s2 * cmath.exp(1j * x)))
            - cmath.phase(s3 + s4 * cmath.exp(1j * y)))
    return np.exp(1j * np.array([0.0, x, turn, turn + y]))


def _wootters_isometry(comps: np.ndarray) -> np.ndarray:
    """Wootters' optimal two-qubit ensemble (PRL 80, 2245 (1998)) as an
    (ENSEMBLE_FACTOR r, r) isometry V over the r spectral components comps.

    A member z has 2|det A| = |z^T Y z|, Y = sigma_y x sigma_y, so the member
    values are the moduli of the diagonal of V B V^T, B = comps Y comps^T.
    The rows of T with T B T^T = diag(s) (Takagi) come from eigh of the real
    [[Re B, Im B], [Im B, -Re B]]: an eigenvector (x; y) of an eigenvalue
    s > 0 gives B conj(x + iy) = s (x + iy), degenerate s included.  A QR
    completes the directions with s = 0; LAPACK leaves R's diagonal real, so
    the kept directions change at most by a sign, which keeps T B T^T.
    Phases turn s into s_j e_j: e = (1, -1, -1, -1) when s1 >= s2 + s3 + s4,
    a closed polygon otherwise.  The mix then gives four members the value
    |sum_j s_j e_j| / 4 each, max(0, s1 - s2 - s3 - s4) in all, which is the
    concurrence; the other rows are zero.
    """
    r = len(comps)
    b = comps @ measures._SYSY @ comps.T
    w, vecs = np.linalg.eigh(np.block([[b.real, b.imag], [b.imag, -b.real]]))
    keep = np.flatnonzero(w > WEIGHT_FLOOR)[::-1]
    t = np.zeros((4, r), dtype=np.complex128)
    t[:r] = np.linalg.qr(vecs[:r, keep] + 1j * vecs[r:, keep], mode="complete")[0].conj().T
    s = np.zeros(4)
    s[:keep.size] = w[keep]
    e = (np.array([1.0, -1.0, -1.0, -1.0], dtype=np.complex128) if s[0] >= s[1:].sum()
         else _closing_phases(s))
    v = np.zeros((ENSEMBLE_FACTOR * r, r), dtype=np.complex128)
    v[:4] = _WOOTTERS_MIX @ (np.sqrt(e)[:, None] * t)
    return v


def _roof_search(rho: DensityMatrix, kind: str, cfg: OptimizerConfig) -> OptResult:
    """Each exact case gives an isometry over the spectral components, and the
    zero stage its step count; the descent is the fallback.  Whichever answers,
    its ensemble is valued and checked once, at the one exit."""
    obj = _RoofObjective(rho.d, kind)
    spectral = spectral_decomposition(rho)
    r = len(spectral.states)
    comps = spectral.members()
    best_vm, best_conv, best_steps = None, True, 0
    if r == 1:
        best_vm = np.eye(1, dtype=np.complex128)
    elif rho.d == 2:
        # every d = 2 member term is 2|det A|, whose roof Wootters' ensemble attains
        best_vm = _wootters_isometry(comps)
    elif kind != "neg" and rho.d == 3 and r == 2:
        # imported here because the hull module builds on this one
        from . import hull
        best_vm = hull.rank2_stage(kind, comps)
    if best_vm is None:
        starts = _roof_starts(spectral, cfg)
        zero = _zero_stage(comps, starts) if kind == "e3" and rho.d == 3 and r >= 3 else None
        if zero is not None:
            best_vm, best_steps = zero
        else:
            runs = _descend(obj, comps, starts, cfg)
            _, best_vm, best_conv, best_steps = min(runs, key=lambda run: run[0])
    best_val = float(obj.of_members(best_vm @ comps))
    if math.isinf(best_val):
        return OptResult(value=None, argument_unitary=None, converged=False,
                         iterations_used=0)
    dev = np.abs(best_vm.conj().T @ best_vm - np.eye(r)).max()
    if dev > MANIFOLD_TOL:
        raise InvariantError(f"search left the isometry manifold by {dev:.3e}")
    return OptResult(value=best_val, argument_unitary=best_vm, converged=best_conv,
                     iterations_used=best_steps)


def cren_upper_bound(rho: DensityMatrix, decomposition: PureDecomposition) -> float:
    """Ensemble-averaged pure negativity; an upper bound on the convex roof."""
    validated_decomposition(decomposition.weights, decomposition.states, rho)
    return float(_RoofObjective(rho.d, "neg").of_members(decomposition.members()))


def cren_estimate(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> OptResult:
    """Searched upper bound on the convex-roof extended negativity."""
    return _roof_search(rho, "neg", cfg or OptimizerConfig())


def e_d2_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> OptResult:
    """Searched convex-roof value of e_d2; decompositions containing a
    member of Schmidt rank above three are discarded.

    At d = 3 and spectral rank 2 the hull stage runs first.  When its
    ensemble has weights >= 0 and its supporting plane b.n + c stays below
    the member value on the Bloch sphere of the range to 1e-12, or its
    members are all product states, the result is that ensemble of at most
    four members, with converged=True and iterations_used=0, and its value
    is the roof, not only an upper bound.  A range of product states only,
    an LP or KKT solve that fails, a negative weight or a plane that the
    member value falls below leaves the result to the descent, unchanged.
    """
    return _roof_search(rho, "e2", cfg or OptimizerConfig())


def e_d3_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> OptResult:
    """Searched convex-roof value of e_d3 (d >= 3).

    At d = 3 and spectral rank >= 3 a Gauss-Newton zero test on the member
    determinants runs first.  If a restart reaches sum |det A_i|^2 <= 1e-30,
    every member of its ensemble has Schmidt rank <= 2 up to rounding, and
    the result is that ensemble's e_d3, at most 3 n^(2/3) 1e-10 <= 2.1e-9
    for its n <= 18 members (Hoelder), with converged=True and the test's
    step count.  Otherwise the CG descent runs from the same starts, as it
    does at other d and rank, and returns what it returns without the test.

    At d = 3 and spectral rank 2 the hull stage of `e_d2_mixed` runs first,
    on the member value 3|det|^(2/3), whose zeros on the Bloch sphere of the
    range are the three roots of det, and answers as it does there.  A cubic
    that vanishes identically, a root at b = 0 or a repeated root also leave
    the result to the descent, unchanged.
    """
    if rho.d < 3:
        raise InvariantError("e_d3_mixed needs d >= 3")
    return _roof_search(rho, "e3", cfg or OptimizerConfig())


def classify_mixed(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> MeasureReport:
    """Measure report for a mixed state, rank band judged from e_d2_mixed.
    A state of spectral rank 1 gets its pure state's report."""
    spectral = spectral_decomposition(rho)
    if len(spectral.states) == 1:
        return measures.analyze_pure(spectral.states[0])
    cfg = cfg or OptimizerConfig()
    d = rho.d
    n = measures.negativity_mixed(rho)
    f_res = singlet_fraction_mixed(rho, cfg)
    f = float(f_res.value)
    fid = measures.fidelity_from_fraction(f, d)
    useful = measures.is_useful(f, d)
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
