"""The d = 3, rank-2 e_d2 and e_d3 roofs from their convex hulls on the Bloch sphere.

A rank-2 rho = l1 |phi1><phi1| + l2 |phi2><phi2| has members
psi = a phi1 + b phi2, one per point n of the Bloch sphere of its range, and
r = (0, 0, (l1 - l2)/(l1 + l2)) is the mean of every ensemble's points.  A
member value g(n) with cone points, g = 0, is given as a jet and those
points:

* e_d2.  The 2 x 2 minors of a phi1 + b phi2 are binary quadratics
  a^2 X + b^2 Z + ab Y, so sum |C|^2 of a unit member is a quadratic
  G(n) = (1, n)^T K (1, n) in its Bloch vector, and g(n) = sqrt(3 G(n))
  (`_e2_sphere`).  Its cone points are the product states of the range.
* e_d3.  det(a Phi1 + b Phi2) is a binary cubic c0 prod_k (a - t_k b), and
  for the unit member at n, |a - t_k b|^2 = (1 + |t_k|^2)(1 - m_k.n)/2 with
  m_k the Bloch point of the root t_k, so g(n) = 3|det psi|^(2/3) =
  G prod_k (1 - m_k.n)^(1/3) (`_e3_sphere`).  Its cone points are the m_k.

The roof at r is min sum q_k g(n_k) over q >= 0 with
sum q_k (n_k, 1) = (r, 1), and its dual is max b.r + c over the planes with
b.n + c <= g(n) on the sphere (Osborne, PRA 72, 022309 (2005); Lohmayer,
Osterloh, Siewert & Uhlmann, PRL 97, 260502 (2006)).  `sphere_hull` solves
that LP over a fixed mesh and the cone points, then Newton-solves the KKT
conditions from its support; the cone points stay fixed.  When the weights
are >= 0 and c is within _GAP_TOL of the least g - b.n on the sphere, the
plane supports g, so primal = dual and the ensemble's value is the roof.
A support of cone points alone has value 0, the least of any ensemble, and
needs no plane.  When the support is declined while it left out a cone
point and has one free point, the KKT solve runs once more with every cone
point fixed and that free point: the LP can move a cone point's small
weight onto a mesh point beside the free one, where it merges.

The LP starts from a regular tetrahedron with a vertex at the north pole,
which holds every r = (0, 0, z), -1/3 < z < 1, strictly inside: all four
starting weights are positive.  The 600-point Fibonacci mesh after it is
about 0.145 apart; the LP's support points near one member are mesh
neighbours, so points closer than three spacings merge.  For e_d2, over
2000 seeded rank-2 states (random_density_matrix(3, default_rng(s),
rank=2)) and 50 points of the qutrit family every state was accepted with
two members, the KKT solve took about five steps, and c - min(g - b.n) was
at most 1.0e-14, a hundredth of _GAP_TOL.  For e_d3, 492 of seeds 0-499
were accepted, five of them by the second solve; the other eight end with a
cone weight between -1e-4 and -7e-3.

`mixed._roof_search` imports this module when it first needs it, since
this module builds on `mixed`'s cofactors and polar factor.
"""

from __future__ import annotations

import math

import numpy as np

from .mixed import MANIFOLD_TOL, _cofactors, _polar


def _fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly evenly spread unit vectors, one per band of equal area."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    rad = np.sqrt(1.0 - z * z)
    return np.column_stack([rad * np.cos(phi), rad * np.sin(phi), z])


def _unit_rows(t: np.ndarray) -> np.ndarray:
    """The points (t : 1) of the projective line as unit rows (a, b), scaled
    by 1/t past |t| = 1."""
    big = np.abs(t) > 1.0
    x = np.column_stack([t, np.ones(len(t), dtype=np.complex128)])
    x[big] = np.column_stack([np.ones(big.sum()), 1.0 / t[big]])
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x


def _bloch_vectors(x: np.ndarray) -> np.ndarray:
    """Bloch vectors of the unit rows (a, b) of x: (2 Re a*b, 2 Im a*b, |a|^2 - |b|^2)."""
    ab = x[:, 0].conj() * x[:, 1]
    return np.column_stack([2.0 * ab.real, 2.0 * ab.imag,
                            (x[:, 0] * x[:, 0].conj() - x[:, 1] * x[:, 1].conj()).real])


def _bloch_state(n: np.ndarray) -> np.ndarray:
    """The unit row (a, b) of Bloch vector n, up to phase: (1 + z, x + iy) or
    (x - iy, 1 - z) normalized, whichever keeps away from its zero."""
    x0 = (np.array([1.0 + n[2], n[0] + 1j * n[1]]) if n[2] >= 0.0 else
          np.array([n[0] - 1j * n[1], 1.0 - n[2]]))
    return x0 / np.linalg.norm(x0)


def _ensemble_isometry(q: np.ndarray, states: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """The isometry over the spectral components (weights lam) whose members
    are the unit range states (rows (a, b)) with weights q, or None when the
    ensemble misses rho by more than MANIFOLD_TOL.  A small l_j scales the
    ensemble's rounding in column j of V^dagger V - I by 1/l_j; when only
    that takes V off the manifold, its polar factor, the nearest isometry,
    replaces it."""
    v = np.sqrt(q * lam.sum())[:, None] * states / np.sqrt(lam)
    dev = v.conj().T @ v - np.eye(2)
    if np.abs(dev).max() <= MANIFOLD_TOL:
        return v
    if np.abs(np.sqrt(lam)[:, None] * dev * np.sqrt(lam)).max() > MANIFOLD_TOL * lam.sum():
        return None
    return _polar(v)


_MESH_POINTS = 600
_MESH = np.vstack([
    [0.0, 0.0, 1.0],
    np.column_stack([math.sqrt(8.0) / 3.0 * np.cos(2.0 * math.pi / 3.0 * np.arange(3)),
                     math.sqrt(8.0) / 3.0 * np.sin(2.0 * math.pi / 3.0 * np.arange(3)),
                     np.full(3, -1.0 / 3.0)]),
    _fibonacci_sphere(_MESH_POINTS)])
_SPACING = math.sqrt(4.0 * math.pi / _MESH_POINTS)
_MERGE = 3.0 * _SPACING
_LP_ITERS = 200
# reduced costs, pivot entries and support weights below this are zero
_LP_TOL = 1e-12
_KKT_ITERS = 20
_KKT_TOL = 1e-14
_MAX_STEP = 0.5
_MIN_STARTS = 24
_MIN_ITERS = 8
_STEP_TOL = 1e-8
_GAP_TOL = 1e-12
# The minors of unit states are at most 1; below _FLAT_TOL every member is a
# product state.  A root whose nine minors are at most _PRODUCT_TOL of the
# largest coefficient is a product state of the range.
_FLAT_TOL = 1e-12
_PRODUCT_TOL = 1e-10
# Cone points closer than _ROOT_SPLIT count as one, and the roots of det as
# a repeated root; a double root splits by about 1e-8 in rounding.  A leading
# coefficient of det's cubic below _ROOT_AT_INFINITY relative puts a root at
# b = 0 (|a/b| above 1e100), and an identically zero cubic has one there too.
_ROOT_SPLIT = 1e-6
_ROOT_AT_INFINITY = 1e-100
# G is fitted on 12 unit rows to the nine quadratics in n other than 1,
# which equals x^2 + y^2 + z^2 on the sphere
_FIT_ROWS = np.array([_bloch_state(n) for n in _fibonacci_sphere(12)])
_FIT_I, _FIT_J = (ix[1:] for ix in np.triu_indices(4))


def _tangent_bases(n: np.ndarray) -> np.ndarray:
    """(k, 3, 2) orthonormal bases of the tangent planes at the unit rows of n."""
    pick = np.eye(3)[np.argmin(np.abs(n), axis=1)]
    b1 = pick - (pick * n).sum(axis=1)[:, None] * n
    b1 /= np.sqrt((b1 * b1).sum(axis=1))[:, None]
    b2 = n[:, [1, 2, 0]] * b1[:, [2, 0, 1]] - n[:, [2, 0, 1]] * b1[:, [1, 2, 0]]
    return np.stack([b1, b2], axis=2)


def _e2_sphere(phi: np.ndarray):
    """The e_d2 member value on the Bloch sphere of the range of the unit
    (2, 3, 3) components phi, as jet(n) -> (g, gradient, Hessian) in R^3 at
    the unit rows of n (g alone with derivatives=False), and the range's
    product states as unit rows (a, b); None when every member is a product
    state.

    The coefficients X, Z, Y of a^2, b^2, ab are the cofactors of phi1, phi2
    and phi1 + phi2 less the first two.  The product states are the roots of
    the minor with the largest coefficients at which all nine vanish."""
    xzy = _cofactors(np.stack([phi[0], phi[1], phi[0] + phi[1]])).reshape(3, 9)
    xzy[2] -= xzy[0] + xzy[1]
    scale = np.abs(xzy).max()
    if scale <= _FLAT_TOL:
        return None

    def minors(x: np.ndarray) -> np.ndarray:
        return np.column_stack([x[:, 0] ** 2, x[:, 1] ** 2, x[:, 0] * x[:, 1]]) @ xzy

    e = np.column_stack([np.ones(len(_FIT_ROWS)), _bloch_vectors(_FIT_ROWS)])
    coef = np.linalg.lstsq(e[:, _FIT_I] * e[:, _FIT_J],
                           (np.abs(minors(_FIT_ROWS)) ** 2).sum(axis=1), rcond=None)[0]
    kmat = np.zeros((4, 4))
    kmat[_FIT_I, _FIT_J] = 0.5 * coef
    kmat += kmat.T

    def jet(n: np.ndarray, derivatives: bool = True):
        kn = kmat[0, 1:] + n @ kmat[1:, 1:]
        g = np.sqrt(3.0 * np.maximum(n @ kmat[0, 1:] + (n * kn).sum(axis=1), 0.0))
        if not derivatives:
            return g
        inv = 1.0 / np.where(g > 0.0, g, np.inf)
        grad = 3.0 * kn * inv[:, None]
        hess = (3.0 * kmat[1:, 1:] - grad[:, :, None] * grad[:, None, :]) * inv[:, None, None]
        return g, grad, hess

    roots = np.roots(xzy[[0, 2, 1], np.argmax(np.abs(xzy).sum(axis=0))])
    x = _unit_rows(roots)
    if len(roots) < 2:
        # a vanishing a^2 coefficient puts a root at b = 0
        x = np.vstack([x, [1.0, 0.0]])
    x = x[np.linalg.norm(minors(x), axis=1) <= _PRODUCT_TOL * scale]
    if len(x) == 2 and np.linalg.norm(np.subtract(*_bloch_vectors(x))) < _ROOT_SPLIT:
        x = x[:1]
    return jet, x


def _e3_sphere(phi: np.ndarray):
    """The e_d3 member value on the Bloch sphere of the range of the unit
    (2, 3, 3) components phi, as jet(n) -> (g, gradient, Hessian) in R^3 at
    the unit rows of n (g alone with derivatives=False), and the three zeros
    of det on the range as unit rows (a, b); None when det's cubic vanishes
    identically or has a root at b = 0 or a repeated root.

    The cubic's coefficients are det phi1, sum C(phi1) phi2, sum C(phi2) phi1
    and det phi2.  Each 1 - m_k.n is taken as u_k = |n - m_k|^2 / 2, equal on
    the sphere, which keeps its relative accuracy near the zero.  With
    l = sum_k (n - m_k) / (3 u_k), the gradient of log g, the gradient of g
    is g l and its Hessian g (l l^T + sum_k (I / (3 u_k) - (n - m_k)(n - m_k)^T
    / (3 u_k^2))); at a zero they are 0."""
    cof = _cofactors(phi)
    cubic = np.array([(phi[0, 0] * cof[0, 0]).sum(), (cof[0] * phi[1]).sum(),
                      (cof[1] * phi[0]).sum(), (phi[1, 0] * cof[1, 0]).sum()])
    if abs(cubic[0]) <= _ROOT_AT_INFINITY * np.abs(cubic).max():
        return None
    t = np.roots(cubic)
    x = _unit_rows(t)
    m = _bloch_vectors(x)
    if min(np.linalg.norm(m[i] - m[j]) for i, j in ((0, 1), (0, 2), (1, 2))) < _ROOT_SPLIT:
        return None
    big_g = 1.5 * np.cbrt(abs(cubic[0]) ** 2 * (1.0 + (t * t.conj()).real).prod())

    def jet(n: np.ndarray, derivatives: bool = True):
        diff = n[:, None, :] - m
        u = 0.5 * (diff * diff).sum(axis=2)
        g = big_g * np.cbrt(u.prod(axis=1))
        if not derivatives:
            return g
        w = 1.0 / (3.0 * np.where(u > 0.0, u, np.inf))
        wd = w[:, :, None] * diff
        lg = wd.sum(axis=1)
        hess = (lg[:, :, None] * lg[:, None, :] + w.sum(axis=1)[:, None, None] * np.eye(3)
                - 3.0 * wd.transpose(0, 2, 1) @ wd)
        return g, g[:, None] * lg, g[:, None, None] * hess

    return jet, x


def _sphere_minima(jet, b: np.ndarray, n: np.ndarray) -> np.ndarray:
    """f = g - b.n after Riemannian Newton steps from every unit row of n at
    once, until every step is below _STEP_TOL (what is left is of its
    square) or after _MIN_ITERS.  The step is -H^-1 grad where the
    Hessian H = B^T hess B - (n.e) I (e the gradient of f in R^3) is
    positive definite and -grad elsewhere, at most _MAX_STEP long."""
    for _ in range(_MIN_ITERS):
        _, grad, hess = jet(n)
        e = grad - b
        basis = _tangent_bases(n)
        bt = basis.transpose(0, 2, 1)
        gr = (bt @ e[:, :, None])[:, :, 0]
        h = bt @ hess @ basis - (n * e).sum(axis=1)[:, None, None] * np.eye(2)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        pd = (h[:, 0, 0] > 0.0) & (det > 0.0)
        newton = np.column_stack([h[:, 0, 1] * gr[:, 1] - h[:, 1, 1] * gr[:, 0],
                                  h[:, 1, 0] * gr[:, 0] - h[:, 0, 0] * gr[:, 1]])
        step = np.where(pd[:, None], newton / np.where(pd, det, 1.0)[:, None], -gr)
        length = np.sqrt((step * step).sum(axis=1))
        step *= (_MAX_STEP / np.maximum(length, _MAX_STEP))[:, None]
        n = n + (basis @ step[:, :, None])[:, :, 0]
        n /= np.sqrt((n * n).sum(axis=1))[:, None]
        if length.max() <= _STEP_TOL:
            break
    return jet(n, derivatives=False) - n @ b


def _lp(pts: np.ndarray, vals: np.ndarray, r: np.ndarray):
    """min sum q vals over q >= 0 with sum q (pts, 1) = (r, 1), by the revised
    simplex (Dantzig's rule) from the first four points, a tetrahedron that
    holds r: the optimal basis, its weights and the dual (b, c), or None when
    _LP_ITERS pivots do not reach it."""
    a = np.vstack([pts.T, np.ones(len(pts))])
    rhs = np.append(r, 1.0)
    basis = np.arange(4)
    for _ in range(_LP_ITERS):
        inv = np.linalg.inv(a[:, basis])
        q, y = inv @ rhs, vals[basis] @ inv
        red = vals - y @ a
        j = np.argmin(red)
        if red[j] >= -_LP_TOL:
            return basis, q, y
        w = inv @ a[:, j]
        up = w > _LP_TOL
        ratio = np.where(up, np.maximum(q, 0.0) / np.where(up, w, 1.0), np.inf)
        basis[np.argmin(ratio)] = j
    return None


def _kkt(jet, fixed: np.ndarray, free: np.ndarray, q: np.ndarray,
         y: np.ndarray, r: np.ndarray):
    """Newton on the KKT conditions of the hull LP with support points fixed
    (cone points, g = 0) and free, weights q in that order and dual
    y = (b, c): (points, q, y) once every residual is below _KKT_TOL,
    or None when the plane is not determined (the support's heights and the
    free points' slopes are fewer than its four unknowns), a step is
    singular or longer than _MAX_STEP, or the steps run out.

    The unknowns are a tangent step per free point, y and q; the residuals
    B^T (grad g - b) per free point, g - b.n - c per point, and
    sum q (n, 1) - (r, 1)."""
    nf, k = len(free), len(fixed) + len(free)
    if len(fixed) + 3 * nf < 4:
        return None
    size = 2 * nf + k + 4
    ycol, qcol = slice(2 * nf, 2 * nf + 4), slice(2 * nf + 4, size)
    for _ in range(_KKT_ITERS):
        g, grad, hess = jet(free)
        e = grad - y[:3]
        basis = _tangent_bases(free)
        pts = np.vstack([fixed, free])
        res = np.concatenate([(basis.transpose(0, 2, 1) @ e[:, :, None]).ravel(),
                              np.concatenate([np.zeros(len(fixed)), g]) - pts @ y[:3] - y[3],
                              q @ pts - r, [q.sum() - 1.0]])
        if np.abs(res).max() <= _KKT_TOL:
            return pts, q, y
        jac = np.zeros((size, size))
        for i in range(nf):
            rows = slice(2 * i, 2 * i + 2)
            jac[rows, rows] = basis[i].T @ hess[i] @ basis[i] - (free[i] @ e[i]) * np.eye(2)
            jac[rows, 2 * nf:2 * nf + 3] = -basis[i].T
            jac[2 * nf + len(fixed) + i, rows] = e[i] @ basis[i]
            jac[2 * nf + k:2 * nf + k + 3, rows] = q[len(fixed) + i] * basis[i]
        jac[2 * nf:2 * nf + k, ycol] = np.column_stack([-pts, -np.ones(k)])
        jac[2 * nf + k:, qcol] = np.vstack([pts.T, np.ones(k)])
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        if not np.abs(step).max() <= _MAX_STEP:
            return None
        free = free + (basis @ step[:2 * nf].reshape(nf, 2, 1))[:, :, 0]
        free /= np.sqrt((free * free).sum(axis=1))[:, None]
        y, q = y + step[ycol], q + step[qcol]
    return None


def _supported(jet, m: np.ndarray, g_mesh: np.ndarray, fixed: np.ndarray,
               free: np.ndarray, q: np.ndarray, y: np.ndarray, r: np.ndarray):
    """The KKT solve from the support of cone points m[fixed] and free points
    free: its points and weights, or None when it fails, a weight is
    negative, or g - b.n falls more than _GAP_TOL below c somewhere on the
    sphere: on the mesh, at a cone point, or at the end of Newton from the
    mesh's lowest points.  At the KKT point primal - dual is c - min(g - b.n)."""
    kkt = _kkt(jet, m[fixed], free, q, y, r)
    if kkt is None:
        return None
    pts, q, y = kkt
    if np.any(q < 0.0):
        return None
    b, c = y[:3], y[3]
    f_mesh = g_mesh - _MESH @ b
    # from the mesh points next to a cone point Newton would circle it, and
    # the cone point's own value is in the minimum already
    starts = np.flatnonzero((_MESH @ m.T).max(axis=1, initial=-1.0) < math.cos(_SPACING))
    starts = starts[np.argsort(f_mesh[starts])[:_MIN_STARTS]]
    low = min(f_mesh.min(), c, _sphere_minima(jet, b, _MESH[starts]).min(),
              (-(m @ b)).min(initial=math.inf))
    if c - low > _GAP_TOL:
        return None
    return pts, q


def sphere_hull(jet, special: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """The isometry of the optimal ensemble of the member value jet (see
    `_e2_sphere`, `_e3_sphere`) over the rank-2 spectral weights lam, with
    the cone points special (unit rows (a, b), g = 0), at most four members;
    None when the LP does not end or `_supported` declines the LP's support
    and, where it applies, the support of every cone point and its one free
    point."""
    m = _bloch_vectors(special)
    r = np.array([0.0, 0.0, (lam[0] - lam[1]) / (lam[0] + lam[1])])
    g_mesh = jet(_MESH, derivatives=False)
    lp = _lp(np.vstack([_MESH, m]), np.concatenate([g_mesh, np.zeros(len(m))]), r)
    if lp is None:
        return None
    basis, q, y = lp
    keep = q > _LP_TOL
    basis, q = basis[keep], q[keep]
    cone = basis >= len(_MESH)
    # free support points within _MERGE of an earlier one join it, at their weighted mean
    free, free_q = [], []
    for n, w in zip(_MESH[basis[~cone]], q[~cone]):
        near = [i for i, p in enumerate(free) if np.linalg.norm(p / free_q[i] - n) < _MERGE]
        if near:
            free[near[0]] = free[near[0]] + w * n
            free_q[near[0]] += w
        else:
            free.append(w * n)
            free_q.append(w)
    fixed = basis[cone] - len(_MESH)
    if not free:
        # cone points alone: value 0, the least any ensemble has, whatever the plane
        return _ensemble_isometry(q, special[fixed], lam)
    free = np.array([p / np.linalg.norm(p) for p in free])
    support = _supported(jet, m, g_mesh, fixed, free, np.concatenate([q[cone], free_q]), y, r)
    if support is None and len(fixed) < len(m) and len(free) == 1:
        # the left-out cone point's weight may sit on a mesh point merged into the free one
        q_cone = np.zeros(len(m))
        q_cone[fixed] = q[cone]
        fixed = np.arange(len(m))
        support = _supported(jet, m, g_mesh, fixed, free, np.append(q_cone, free_q), y, r)
    if support is None:
        return None
    pts, q = support
    states = np.vstack([special[fixed]] + [_bloch_state(n) for n in pts[len(fixed):]])
    return _ensemble_isometry(q, states, lam)


def rank2_stage(kind: str, comps: np.ndarray) -> np.ndarray | None:
    """The isometry of the optimal ensemble of a d = 3, rank-2 roof of kind
    "e2" or "e3" over the spectral components comps (`sphere_hull`), or None
    when it declines or `_e2_sphere` / `_e3_sphere` finds no sphere form."""
    lam = (comps * comps.conj()).real.sum(axis=1)
    sphere = (_e2_sphere if kind == "e2" else _e3_sphere)(
        (comps / np.sqrt(lam)[:, None]).reshape(2, 3, 3))
    return None if sphere is None else sphere_hull(*sphere, lam)
