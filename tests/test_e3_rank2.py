"""The d = 3, rank-2 e_d3 roof from its convex hull on the Bloch sphere.

Members of a rank-2 rho are points n of the Bloch sphere of its range, and
det(a Phi1 + b Phi2) is a binary cubic whose three roots are zeros of the
member value g(n) = 3|det psi(n)|^(2/3).  The hull stage returns an ensemble
of at most four members whose supporting plane makes it optimal.  The tests
check that optimality without the stage's own geometry: the affine function
through the returned members' (n, g(n)), tangent to g at the members off the
zeros, stays below g on a fine mesh, where g comes from np.linalg.det.
"""

import math
import warnings

import numpy as np
import pytest

from rank2_helpers import assert_certified, fibonacci_sphere, range_states, seeded
from teleport_ent import (
    DensityMatrix,
    OptimizerConfig,
    e_d3_mixed,
    spectral_decomposition,
)
from teleport_ent import hull, mixed

CFG = OptimizerConfig(restarts=4, max_iters=150)
E3 = mixed._RoofObjective(3, "e3")


def e3_values(coeffs, phi):
    """3|det|^(2/3) of the unit members coeffs @ phi."""
    return 3.0 * np.abs(np.linalg.det((coeffs @ phi).reshape(-1, 3, 3))) ** (2.0 / 3.0)


FINE_MESH = fibonacci_sphere(200_000)
# central-difference step for the slopes of g at the members, and the value
# below which a member sits on a zero of det, where g has no slope
SLOPE_STEP = 1e-5
CUSP = 1e-6


def supporting_plane_bound(rho, v):
    """The affine function L = c + b.n through the (n_k, g(n_k)) of the two
    to four members of the isometry v, tangent to g at the members off the
    zeros (slopes by central differences, all solved together by lstsq), and
    L(r) + min over a fine mesh of g - L: a lower end for the roof when the
    mesh finds g's minimum, and equal to the ensemble's value when L
    supports g."""
    spectral = spectral_decomposition(rho)
    lam = np.array(spectral.weights)
    phi = spectral.members() / np.sqrt(lam)[:, None]
    y = v * np.sqrt(lam)
    y /= np.linalg.norm(y, axis=1)[:, None]
    ab = y[:, 0].conj() * y[:, 1]
    n = np.column_stack([2 * ab.real, 2 * ab.imag, np.abs(y[:, 0]) ** 2 - np.abs(y[:, 1]) ** 2])
    g = e3_values(y, phi)
    rows, rhs = [np.column_stack([np.ones(len(n)), n])], [g]
    for nk in n[g > CUSP]:
        tangents = np.linalg.svd(nk[None])[2][1:]
        for t in tangents:
            ends = np.array([nk + SLOPE_STEP * t, nk - SLOPE_STEP * t])
            ends /= np.linalg.norm(ends, axis=1)[:, None]
            up, down = e3_values(range_states(ends), phi)
            rows.append(np.append(0.0, t)[None])
            rhs.append([(up - down) / (2.0 * SLOPE_STEP)])
    plane = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)[0]
    gap = (e3_values(range_states(FINE_MESH), phi) - plane[0] - FINE_MESH @ plane[1:]).min()
    r = np.array([0.0, 0.0, (lam[0] - lam[1]) / lam.sum()])
    return plane[0] + plane[1:] @ r + min(gap, 0.0)


def root_mixture(seed):
    """Equal mixture of the three states of Schmidt rank <= 2 in a random
    2-D span of C^3 x C^3: rank 2, and its e_d3 roof is 0."""
    rng = np.random.default_rng(seed)
    span = np.linalg.qr(rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))[0].T
    # det(t Phi1 + Phi2) interpolated at four points is the cubic in t
    t = np.array([-1.0, 0.0, 1.0, 2.0])
    dets = np.linalg.det((t[:, None] * span[0] + span[1]).reshape(-1, 3, 3))
    roots = np.roots(np.linalg.solve(np.vander(t), dets))
    states = roots[:, None] * span[0] + span[1]
    states /= np.linalg.norm(states, axis=1)[:, None]
    assert np.abs(np.linalg.det(states.reshape(-1, 3, 3))).max() <= 1e-12
    return DensityMatrix.from_matrix(states.T @ states.conj() / 3.0)


@pytest.mark.parametrize("seed", range(950, 956))
def test_mixture_of_the_three_roots_certifies_e_d3_zero(seed):
    rho = root_mixture(seed)
    assert len(spectral_decomposition(rho).states) == 2
    res = e_d3_mixed(rho, CFG)
    assert res.value <= 1e-9
    assert_certified(rho, res, E3)


# Seeded rank-2 states the stage accepts, with the best value of the e_d3
# descent over 32 restarts of 3000 steps (OptimizerConfig(restarts=32,
# max_iters=3000), min over mixed._descend from mixed._roof_starts); see
# test_the_long_descent_table_is_reproduced.
LONG_DESCENT = {
    12: 0.22634621897873408,
    900: 0.014340304535279758,
    905: 0.09249334144487545,
    906: 0.033636640625099995,
    908: 0.06826185713832957,
    909: 0.06997126180509458,
}


@pytest.mark.parametrize("seed", sorted(LONG_DESCENT))
def test_accepted_states_attain_the_supporting_plane_bound(seed):
    rho = seeded(seed)
    res = e_d3_mixed(rho, CFG)
    assert_certified(rho, res, E3)
    assert res.value <= LONG_DESCENT[seed] + 1e-12
    # the bound falls below the value when the members' plane cuts g somewhere
    assert abs(res.value - supporting_plane_bound(rho, res.argument_unitary)) <= 1e-9


def test_the_long_descent_table_is_reproduced():
    rho = seeded(12)
    spectral = spectral_decomposition(rho)
    cfg = OptimizerConfig(restarts=32, max_iters=3000)
    runs = mixed._descend(E3, spectral.members(), mixed._roof_starts(spectral, cfg), cfg)
    best = min(run[0] for run in runs)
    assert abs(best - LONG_DESCENT[12]) <= 1e-12
    assert e_d3_mixed(rho, CFG).value <= best + 1e-12


# e_d3_mixed(seeded(s), CFG) when the root stage that came before the hull
# declined these states and the descent gave their values
DESCENT_E3 = {
    901: 0.36544831396459554,
    902: 0.29901487691722084,
    903: 0.19686779567633406,
    904: 0.3075339369430614,
    907: 0.05011660376635482,
    910: 0.42822113801022416,
    911: 0.3921002941829288,
}


@pytest.mark.parametrize("seed", sorted(DESCENT_E3))
def test_states_outside_the_tetrahedron_are_answered(seed):
    rho = seeded(seed)
    res = e_d3_mixed(rho, CFG)
    assert_certified(rho, res, E3)
    assert res.value <= DESCENT_E3[seed] + 1e-10
    assert abs(res.value - supporting_plane_bound(rho, res.argument_unitary)) <= 1e-9


# e_d3_mixed(seeded(s), CFG) from that root stage: the three zeros and one
# free point.  The hull's LP moves the third zero's small weight onto a mesh
# point that merges with the free point, and only the second KKT solve, with
# every zero fixed, reaches this ensemble.
ROOT_E3 = {
    23: 0.3036381642594807,
    326: 0.2890994894901561,
    342: 0.12629294001655658,
    374: 0.20560191904675681,
    378: 0.30883754853608963,
}


@pytest.mark.parametrize("seed", sorted(ROOT_E3))
def test_every_zero_is_fixed_when_the_first_support_left_one_out(seed):
    rho = seeded(seed)
    res = e_d3_mixed(rho, CFG)
    assert_certified(rho, res, E3)
    assert res.value <= ROOT_E3[seed] + 2e-11


E = np.eye(9)


def product_span():
    # |00> and |11>: every member a|00> + b|11> has det 0, so the cubic is 0
    return DensityMatrix.from_matrix(0.7 * np.outer(E[0], E[0]) + 0.3 * np.outer(E[4], E[4]))


def double_root():
    # det(a I/sqrt3 + b diag(1, 1, -2)/sqrt6) has the root a/b = -1/sqrt2 twice
    phi1 = np.eye(3).reshape(-1) / math.sqrt(3.0)
    phi2 = np.diag([1.0, 1.0, -2.0]).reshape(-1) / math.sqrt(6.0)
    return DensityMatrix.from_matrix(0.6 * np.outer(phi1, phi1) + 0.4 * np.outer(phi2, phi2))


def root_at_b_zero():
    # the top spectral vector is |00>, of det 0: c0 = 0, a root at b = 0
    chi = np.random.default_rng(960).standard_normal(9) * (1.0 + 0.5j)
    chi[0] = 0.0
    chi /= np.linalg.norm(chi)
    return DensityMatrix.from_matrix(0.6 * np.outer(E[0], E[0]) + 0.4 * np.outer(chi, chi.conj()))


def seed_0():
    # the hull ends with a zero at weight -3.5e-3: a decline, not a range defect
    return seeded(0)


@pytest.mark.parametrize("make", [product_span, double_root, root_at_b_zero, seed_0])
def test_degenerate_ranges_decline_without_warnings(make):
    rho = make()
    spectral = spectral_decomposition(rho)
    comps = spectral.members()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hull.rank2_stage("e3", comps) is None
        res = e_d3_mixed(rho, CFG)
    runs = mixed._descend(E3, comps, mixed._roof_starts(spectral, CFG), CFG)
    val, v, conv, steps = min(runs, key=lambda run: run[0])
    assert (res.value, res.converged, res.iterations_used) == (val, conv, steps)
    assert res.argument_unitary.tobytes() == v.tobytes()


def test_rounding_level_cubic_answers_near_zero():
    # two random product states: the cubic is rounding noise, and whichever
    # path runs must report a value near the roof, 0
    rng = np.random.default_rng(961)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    p = np.array([np.kron(x[0], x[1]), np.kron(x[2], x[3])])
    p /= np.linalg.norm(p, axis=1)[:, None]
    rho = DensityMatrix.from_matrix(0.6 * np.outer(p[0], p[0].conj())
                                    + 0.4 * np.outer(p[1], p[1].conj()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = e_d3_mixed(rho, CFG)
    assert res.value <= 1e-9
