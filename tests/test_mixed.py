"""Mixed-state optimizers: singlet-fraction ascent and roof searches.

Werner-state reference numbers were derived independently: for
rho = 0.8 |psi-><psi-| + 0.2 I/4 the maximal singlet fraction is 0.85
and concurrence and negativity both equal 0.7.
"""

import math

import numpy as np
import pytest

from teleport_ent import mixed
from teleport_ent import (
    DensityMatrix,
    InvariantError,
    OptimizerConfig,
    classify_mixed,
    concurrence_2qubit,
    cren_estimate,
    cren_upper_bound,
    e_d2_mixed,
    e_d3_mixed,
    fef_2qubit_closed_form,
    negativity_mixed,
    random_density_matrix,
    singlet_fraction_mixed,
    spectral_decomposition,
    RankClass,
)

FAST = OptimizerConfig(restarts=4, seed=777)


def werner(p=0.8):
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    mat = p * np.outer(v, v.conj()) + (1 - p) * np.eye(4) / 4
    return DensityMatrix.from_matrix(mat)


def bell_dm():
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return DensityMatrix.from_matrix(np.outer(v, v.conj()))


def test_closed_form_on_reference_states():
    assert abs(fef_2qubit_closed_form(werner()) - 0.85) < 1e-12
    assert abs(fef_2qubit_closed_form(bell_dm()) - 1.0) < 1e-12
    maximally_mixed = DensityMatrix.from_matrix(np.eye(4) / 4)
    assert abs(fef_2qubit_closed_form(maximally_mixed) - 0.25) < 1e-12


def test_closed_form_rejects_wrong_dimension():
    rho = random_density_matrix(3, np.random.default_rng(41))
    with pytest.raises(InvariantError):
        fef_2qubit_closed_form(rho)


def test_ascent_matches_closed_form():
    rng_seeds = range(50, 60)
    for s in rng_seeds:
        rho = random_density_matrix(2, np.random.default_rng(s))
        res = singlet_fraction_mixed(rho, FAST)
        oracle = fef_2qubit_closed_form(rho)
        # the raw search value must reach the oracle on its own
        assert res.search_value <= oracle + 1e-9
        assert abs(res.search_value - oracle) < 1e-6
        assert abs(res.value - oracle) < 1e-12  # closed form caps the output


def test_ascent_unitary_achieves_reported_value():
    rho = werner()
    res = singlet_fraction_mixed(rho, FAST)
    u = res.argument_unitary
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-8)
    v = u.reshape(-1) / math.sqrt(2)
    achieved = float(np.real(np.vdot(v, rho.mat @ v)))
    assert abs(achieved - res.value) < 1e-9


def test_ascent_on_qutrit_pure_state_reaches_fraction():
    # for a pure state the maximal fraction is (sum sqrt(lambda))^2 / d
    from teleport_ent import random_pure_state, schmidt, singlet_fraction_pure

    st = random_pure_state(3, np.random.default_rng(61), rank=2)
    target = singlet_fraction_pure(schmidt(st), 3)
    rho = DensityMatrix.from_pure(st)
    res = singlet_fraction_mixed(rho, OptimizerConfig(restarts=6, seed=5))
    assert res.value <= target + 1e-7
    assert res.value >= target - 1e-5


def test_cren_upper_bound_validates_and_averages():
    rho = werner()
    dec = spectral_decomposition(rho)
    ub = cren_upper_bound(rho, dec)
    assert ub >= negativity_mixed(rho) - 1e-8
    other = spectral_decomposition(random_density_matrix(2, np.random.default_rng(62)))
    with pytest.raises(InvariantError):
        cren_upper_bound(rho, other)


def test_cren_estimate_on_werner():
    rho = werner()
    res = cren_estimate(rho, FAST)
    assert res.value >= 0.7 - 1e-9  # cannot drop below the true roof
    assert res.value < 0.7 * 1.02
    mix = res.argument_unitary
    np.testing.assert_allclose(mix.conj().T @ mix, np.eye(4), atol=1e-8)


def test_e_d2_mixed_equals_cren_for_two_qubits():
    rho = werner(0.6)
    a = cren_estimate(rho, FAST).value
    b = e_d2_mixed(rho, FAST).value
    assert abs(a - b) < 1e-7


def test_roof_search_on_pure_state_short_circuits():
    rho = bell_dm()
    res = cren_estimate(rho, FAST)
    assert res.iterations_used == 0
    assert abs(res.value - 1.0) < 1e-10


def test_e_d3_mixed_requires_d3():
    with pytest.raises(InvariantError):
        e_d3_mixed(werner(), FAST)


def test_e_d3_mixed_on_pure_rank3():
    from teleport_ent import e_d3, random_pure_state, schmidt

    st = random_pure_state(3, np.random.default_rng(63), rank=3)
    rho = DensityMatrix.from_pure(st)
    res = e_d3_mixed(rho, FAST)
    assert abs(res.value - e_d3(schmidt(st), 3)) < 1e-9


def test_determinism_of_searches():
    rho = random_density_matrix(2, np.random.default_rng(64))
    cfg = OptimizerConfig(restarts=3, seed=99)
    a = cren_estimate(rho, cfg).value
    b = cren_estimate(rho, cfg).value
    assert f"{a:.12f}" == f"{b:.12f}"
    fa = singlet_fraction_mixed(rho, cfg).search_value
    fb = singlet_fraction_mixed(rho, cfg).search_value
    assert f"{fa:.12f}" == f"{fb:.12f}"


def test_classify_mixed_werner_report():
    rep = classify_mixed(werner(), FAST)
    assert rep.d == 2
    assert abs(rep.negativity - 0.7) < 1e-9
    assert abs(rep.singlet_fraction - 0.85) < 1e-9
    assert abs(rep.fidelity - 0.9) < 1e-9
    assert rep.useful_for_teleportation
    assert rep.schmidt_rank == 2
    assert rep.rank_class is RankClass.RANK2_USEFUL


def test_classify_mixed_maximally_mixed_not_useful():
    rho = DensityMatrix.from_matrix(np.eye(4) / 4)
    rep = classify_mixed(rho, FAST)
    assert not rep.useful_for_teleportation
    assert rep.rank_class is RankClass.NOT_USEFUL
    # the rank field still reports the decomposition is product states
    assert rep.schmidt_rank == 1
    assert rep.negativity == 0.0


# ---------------------------------------------------------------------------
# the roof descent


def _spectral_comps(rho):
    dec = spectral_decomposition(rho)
    return np.array([math.sqrt(p) * st.vector() for p, st in zip(dec.weights, dec.states)])


@pytest.mark.parametrize("d,kind,mu", [(2, "neg", 0.0), (2, "e2", 0.0), (3, "e2", 0.0),
                                       (3, "e3", 0.0), (3, "e3", 1e-2), (3, "neg", 0.0),
                                       (4, "e3", 1e-2), (4, "e2", 0.0), (4, "neg", 0.0)])
def test_roof_gradient_matches_finite_differences(d, kind, mu):
    rng = np.random.default_rng(80 + d)
    obj = mixed._RoofObjective(d, kind)
    a = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    step = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    _, grad = obj.terms(a, mu)
    h = 1e-6
    numeric = (obj.terms(a + h * step, mu)[0].sum() - obj.terms(a - h * step, mu)[0].sum()) / (2 * h)
    analytic = float(np.vdot(grad, step).real)
    assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


def test_roof_terms_agree_with_certificate():
    rng = np.random.default_rng(85)
    for d, kinds in ((2, ("neg", "e2")), (3, ("neg", "e2", "e3"))):
        a = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        for kind in kinds:
            obj = mixed._RoofObjective(d, kind)
            assert abs(obj.terms(a)[0].sum() - obj.of_members(a.reshape(6, -1))) < 1e-10


@pytest.mark.parametrize("d", [3, 4])
def test_e_d2_member_terms_exact_near_product_members(d):
    # members u v^T + eps x y^T: exactly product at eps = 0, near product above
    from teleport_ent import PureBipartiteState, e_d2, schmidt

    rng = np.random.default_rng(110 + d)
    members = []
    for eps in (0.0, 0.0, 1e-12, 1e-9, 1e-7, 1e-5):
        u, v, x, y = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        a = np.outer(u, v) + eps * np.outer(x, y)
        members.append(rng.uniform(0.05, 1.0) * a / np.linalg.norm(a))
    a = np.array(members)
    p = (np.abs(a) ** 2).sum(axis=(1, 2))
    expect = np.array([w * e_d2(schmidt(PureBipartiteState(d=d, amp=m / math.sqrt(w))), d)
                       for w, m in zip(p, a)])
    obj = mixed._RoofObjective(d, "e2")
    assert np.all(np.abs(obj.terms(a)[0] - expect) <= 1e-14 * p)
    for w, m, want in zip(p, a, expect):
        assert abs(obj.of_members(m.reshape(1, -1)) - want) <= 1e-14 * w


@pytest.mark.parametrize("seed", [90, 91, 92])
def test_roof_value_is_certified_at_returned_isometry(seed):
    rho = random_density_matrix(3, np.random.default_rng(seed), rank=3)
    comps = _spectral_comps(rho)
    neg = negativity_mixed(rho)
    for kind, search in (("neg", cren_estimate), ("e2", e_d2_mixed), ("e3", e_d3_mixed)):
        res = search(rho, FAST)
        v = res.argument_unitary
        assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= mixed.MANIFOLD_TOL
        assert res.value == mixed._RoofObjective(3, kind).of_members(v @ comps)
        assert 1 <= res.iterations_used <= FAST.max_iters
        if kind == "neg":
            assert res.value >= neg - 1e-9


def test_two_qubit_roof_reaches_wootters_concurrence():
    cfg = OptimizerConfig(restarts=6, seed=505)
    for seed in range(95, 100):
        rho = random_density_matrix(2, np.random.default_rng(seed))
        assert abs(e_d2_mixed(rho, cfg).value - concurrence_2qubit(rho)) <= 1e-6


def test_d4_rank_capped_roof_is_none_or_validated():
    rng = np.random.default_rng(101)
    embedded = np.zeros((4, 4, 4, 4), dtype=complex)
    embedded[:3, :3, :3, :3] = random_density_matrix(3, rng).mat.reshape(3, 3, 3, 3)
    states = [DensityMatrix.from_matrix(embedded.reshape(16, 16))]
    states += [random_density_matrix(4, rng, rank=k) for k in (2, 3, None)]
    found = 0
    for rho in states:
        res = e_d2_mixed(rho, FAST)
        if res.value is None:
            continue
        found += 1
        members = res.argument_unitary @ _spectral_comps(rho)
        np.testing.assert_allclose(members.T @ members.conj(), rho.mat, atol=1e-10)
        assert res.value == mixed._RoofObjective(4, "e2").of_members(members)
        assert math.isfinite(res.value) and res.value >= 0.0
    assert found >= 1  # the state supported on a 3x3 block has rank-3 members
