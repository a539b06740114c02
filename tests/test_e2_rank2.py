"""The d = 3, rank-2 e_d2 roof from its convex hull on the Bloch sphere.

Members of a rank-2 rho are points n of the Bloch sphere of its range, with
value g(n) = e_d2 of the unit member.  The hull stage returns an ensemble
and, inside, the plane b.n + c that supports g under it.  The tests check the
plane without the stage's own formulas: g comes from np.linalg.svd of the
members, on a fine mesh, and any plane gives the lower bound
b.r + min(g - b.n) on the roof.
"""

import math
import warnings

import numpy as np
import pytest

from rank2_helpers import assert_certified, fibonacci_sphere, range_states, seeded
from teleport_ent import (
    DensityMatrix,
    FamilyParams,
    OptimizerConfig,
    build_rho_f,
    e_d2_mixed,
    spectral_decomposition,
)
from teleport_ent import hull, mixed

CFG = OptimizerConfig(restarts=8)
E2 = mixed._RoofObjective(3, "e2")


FINE_MESH = fibonacci_sphere(100_000)


def e2_values(coeffs, phi):
    """sqrt(3 sum_{i<j} s_i^2 s_j^2) of the unit members coeffs @ phi."""
    s2 = np.linalg.svd((coeffs @ phi).reshape(-1, 3, 3), compute_uv=False) ** 2
    return np.sqrt(3.0 * (s2[:, 0] * s2[:, 1] + s2[:, 0] * s2[:, 2] + s2[:, 1] * s2[:, 2]))


def search_with_plane(rho, monkeypatch):
    """e_d2_mixed(rho) and the dual (b, c) of the stage's KKT solve."""
    planes = []
    kkt = hull._kkt

    def recording(*args):
        out = kkt(*args)
        planes.append(None if out is None else out[2])
        return out

    monkeypatch.setattr(hull, "_kkt", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = e_d2_mixed(rho, CFG)
    return res, planes[-1]


def supporting_plane_gap(rho, res, y):
    """min over the fine mesh of g - b.n - c, with the plane through the
    returned value, c = value - b.r: >= 0 (up to the mesh) when the plane
    supports g, so that value = b.r + c is also a lower bound on the roof."""
    spectral = spectral_decomposition(rho)
    lam = np.array(spectral.weights)
    phi = spectral.members() / np.sqrt(lam)[:, None]
    r = np.array([0.0, 0.0, (lam[0] - lam[1]) / lam.sum()])
    b = y[:3]
    c = res.value - b @ r
    return (e2_values(range_states(FINE_MESH), phi) - FINE_MESH @ b - c).min()


# e_d2_mixed(seeded(s), OptimizerConfig(restarts=8)) before the hull stage,
# when the descent gave every rank-2 value
PARENT_E2 = {
    900: 0.7598106053782754,
    901: 0.6464229121622301,
    902: 0.7243138251161774,
    903: 0.6259045178312785,
    904: 0.6712326382081002,
    905: 0.5651415878013694,
    906: 0.5781254643396958,
    907: 0.7516632979906478,
    908: 0.5437393207108564,
    909: 0.6197725287473453,
    910: 0.779962410853708,
    911: 0.752721387428902,
    912: 0.7648919940376919,
    913: 0.6910927673193754,
    914: 0.6895850745856842,
    915: 0.5833888016741826,
    12: 0.6695444492283695,
    5: 0.6038589096997499,
    6: 0.7456593510713858,
    7: 0.774060438128457,
}


@pytest.mark.parametrize("seed", sorted(PARENT_E2))
def test_seeded_states_are_answered_at_or_below_the_descent(seed, monkeypatch):
    rho = seeded(seed)
    res, y = search_with_plane(rho, monkeypatch)
    assert y is not None
    assert_certified(rho, res, E2)
    assert res.value <= PARENT_E2[seed] + 1e-10


@pytest.mark.parametrize("seed", [12, 900, 901, 7])
def test_accepted_states_attain_the_supporting_plane_bound(seed, monkeypatch):
    rho = seeded(seed)
    res, y = search_with_plane(rho, monkeypatch)
    assert_certified(rho, res, E2)
    assert supporting_plane_gap(rho, res, y) >= -1e-9


PRODUCT_22 = np.eye(9)[8]


def two_member_value(rho):
    """|22> at its largest weight in rho, 1 / <22|rho^+|22>, and the pure
    remainder: the ensemble whose Bloch points are |22> and where the line
    from it through r meets the sphere."""
    q0 = 1.0 / (PRODUCT_22 @ np.linalg.pinv(rho.mat, hermitian=True) @ PRODUCT_22).real
    rest = rho.mat - q0 * np.outer(PRODUCT_22, PRODUCT_22)
    w, vecs = np.linalg.eigh(rest)
    psi = vecs[:, -1]
    return w[-1] * e2_values(np.eye(1), psi.reshape(1, 9))[0]


@pytest.mark.parametrize("p", np.linspace(0.02, 0.5, 9).tolist())
def test_qutrit_family_roof_is_the_two_member_ensemble(p, monkeypatch):
    rho = build_rho_f(FamilyParams(p=p))
    res, y = search_with_plane(rho, monkeypatch)
    assert y is not None
    assert_certified(rho, res, E2)
    assert res.value <= two_member_value(rho) + 1e-12


def test_qutrit_family_at_a_quarter_is_sqrt_two_thirds(monkeypatch):
    rho = build_rho_f(FamilyParams(p=0.25))
    res, y = search_with_plane(rho, monkeypatch)
    assert f"{res.value:.12f}" == "0.816496580928"
    assert abs(res.value - math.sqrt(2.0 / 3.0)) <= 1e-12
    assert supporting_plane_gap(rho, res, y) >= -1e-9


def descent_result(rho):
    spectral = spectral_decomposition(rho)
    runs = mixed._descend(E2, spectral.members(), mixed._roof_starts(spectral, CFG), CFG)
    return min(runs, key=lambda run: run[0])


def assert_descent_result(rho, res):
    val, v, conv, steps = descent_result(rho)
    assert (res.value, res.converged, res.iterations_used) == (val, conv, steps)
    assert res.argument_unitary.tobytes() == v.tobytes()


def test_declined_stage_leaves_the_descent_unchanged(monkeypatch):
    monkeypatch.setattr(hull, "rank2_stage", lambda kind, comps: None)
    rho = seeded(12)
    res = e_d2_mixed(rho, CFG)
    assert res.value == PARENT_E2[12]
    assert_descent_result(rho, res)


E = np.eye(9)


def product_span():
    # |00> and |01>: every member is a product state, G = 0
    return DensityMatrix.from_matrix(0.7 * np.outer(E[0], E[0]) + 0.3 * np.outer(E[1], E[1]))


def two_product_states():
    # |00> and |11> are the range's two product states, and r lies on their
    # chord; the mesh's north pole is |00> itself, so the LP's support holds a
    # free point on a cone point, where g has no slope, and the KKT solve fails
    return DensityMatrix.from_matrix(0.7 * np.outer(E[0], E[0]) + 0.3 * np.outer(E[4], E[4]))


@pytest.mark.parametrize("make", [product_span, two_product_states])
def test_degenerate_ranges_decline_without_warnings(make):
    rho = make()
    comps = spectral_decomposition(rho).members()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hull.rank2_stage("e2", comps) is None
        res = e_d2_mixed(rho, CFG)
    assert res.value <= 1e-12
    assert_descent_result(rho, res)


def unit_components(rho):
    spectral = spectral_decomposition(rho)
    return (spectral.members() / np.sqrt(np.array(spectral.weights))[:, None]).reshape(2, 3, 3)


def test_product_states_of_the_range_are_its_cone_points():
    # the qutrit family's range holds one product state, |22>
    phi = unit_components(build_rho_f(FamilyParams(p=0.3)))
    _, special = hull._e2_sphere(phi)
    assert len(special) == 1
    assert abs(abs(special[0] @ phi.reshape(2, 9) @ PRODUCT_22) - 1.0) <= 1e-12
    assert hull._e2_sphere(unit_components(product_span())) is None


def test_plane_under_the_hull_fails_the_gap_test(monkeypatch):
    # a plane raised by 1e-9 cuts g near its support points
    kkt = hull._kkt

    def raised(*args):
        out = kkt(*args)
        return None if out is None else (out[0], out[1], out[2] + np.array([0.0, 0.0, 0.0, 1e-9]))

    monkeypatch.setattr(hull, "_kkt", raised)
    rho = seeded(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hull.rank2_stage("e2", spectral_decomposition(rho).members()) is None
        res = e_d2_mixed(rho, CFG)
    assert res.value == PARENT_E2[7]
    assert_descent_result(rho, res)
