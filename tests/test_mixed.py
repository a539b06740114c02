"""Mixed-state optimizers: singlet-fraction ascent and roof searches.

Werner-state reference numbers were derived independently: for
rho = 0.8 |psi-><psi-| + 0.2 I/4 the maximal singlet fraction is 0.85
and concurrence and negativity both equal 0.7.
"""

import math

import numpy as np
import pytest

from teleport_ent import measures, mixed
from teleport_ent import (
    DensityMatrix,
    InvariantError,
    OptimizerConfig,
    analyze_pure,
    classify_mixed,
    concurrence_2qubit,
    cren_estimate,
    cren_upper_bound,
    e_d2_mixed,
    e_d3_mixed,
    fef_2qubit_closed_form,
    negativity_mixed,
    random_density_matrix,
    random_pure_state,
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
        assert res.value <= oracle + 1e-9
        assert abs(res.value - oracle) < 1e-6
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
    for other_rho in (random_density_matrix(2, np.random.default_rng(62)),
                      random_density_matrix(3, np.random.default_rng(62))):
        with pytest.raises(InvariantError):
            cren_upper_bound(rho, spectral_decomposition(other_rho))


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
    fa = singlet_fraction_mixed(rho, cfg).value
    fb = singlet_fraction_mixed(rho, cfg).value
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


@pytest.mark.parametrize("d,rank", [(d, k) for d in (2, 3, 4) for k in range(1, d + 1)])
def test_rank1_density_matrix_gets_its_pure_report(d, rank):
    # the same pure state, read as a density matrix, must not change its report
    st = random_pure_state(d, np.random.default_rng([d, rank, 28]), rank=rank)
    pure, dm = analyze_pure(st), classify_mixed(DensityMatrix.from_pure(st), FAST)
    for rep in (pure, dm):
        assert rep.schmidt_rank == rank
    assert (dm.rank_class, dm.useful_for_teleportation) == (
        pure.rank_class, pure.useful_for_teleportation)
    if rank <= 2:
        assert dm.e_d3 == 0.0
    for field in ("negativity", "singlet_fraction", "fidelity", "e_d2", "e_d3"):
        a, b = getattr(pure, field), getattr(dm, field)
        assert (a is None and b is None) or abs(a - b) <= 1e-12, field


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


def _members_with_products(d, rng):
    # six random members, one exact product member and one zero member
    a = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
    u = np.zeros(d, dtype=complex)
    u[:2] = 1.0, 2.0j
    v = np.zeros(d, dtype=complex)
    v[0], v[-1] = 3.0, -1.0
    a[2], a[5] = np.outer(u, v), 0.0
    return a


@pytest.mark.parametrize("mu", [0.0, mixed._E3_MU])
@pytest.mark.parametrize("d,kind", [(2, "neg"), (2, "e2"), (3, "neg"), (3, "e2"), (3, "e3"),
                                    (4, "neg"), (4, "e2"), (4, "e3")])
def test_roof_values_are_the_values_of_terms(d, kind, mu):
    # the descent values its trials with `values` and takes the gradient of
    # the accepted ones from the parts kept, member by member
    obj = mixed._RoofObjective(d, kind)
    a = _members_with_products(d, np.random.default_rng([86, d]))
    vals, parts = obj.values(a, mu)
    want_vals, want_grads = obj.terms(a, mu)
    assert vals.tobytes() == want_vals.tobytes()
    if d == 3 and kind != "neg":
        # the cofactors of a product member vanish exactly, as the zero member's do
        assert vals[2] == vals[5]
        assert vals[5] == 0.0 or (kind == "e3" and mu > 0.0)
    assert all(len(x) == len(a) for x in parts)
    keep = [0, 2, 5, 7]
    sub = obj.gradient(tuple(x[keep] for x in parts))
    assert sub.tobytes() == want_grads[keep].tobytes()


@pytest.mark.parametrize("d,kind", [(3, "neg"), (3, "e2"), (3, "e3"), (4, "e2")])
def test_descent_takes_one_gradient_per_step(monkeypatch, d, kind):
    calls = {"values": 0, "gradient": 0}
    values, gradient = mixed._RoofObjective.values, mixed._RoofObjective.gradient

    def counted_values(self, a, mu=0.0):
        calls["values"] += 1
        return values(self, a, mu)

    def counted_gradient(self, parts):
        calls["gradient"] += 1
        return gradient(self, parts)

    monkeypatch.setattr(mixed._RoofObjective, "values", counted_values)
    monkeypatch.setattr(mixed._RoofObjective, "gradient", counted_gradient)
    spectral = spectral_decomposition(random_density_matrix(d, np.random.default_rng([87, d]),
                                                            rank=3))
    cfg = OptimizerConfig(max_iters=60)
    starts = mixed._roof_starts(spectral, cfg)
    budget = np.full(len(starts), cfg.max_iters)
    obj = mixed._RoofObjective(d, kind)
    used = mixed._cg_stage(obj, spectral.members(), starts, 0.0, budget)[2]
    # one gradient at the starts, then at most one per step of the stack
    assert 1 <= calls["gradient"] <= 1 + used.max()
    # the Armijo trials rejected on the way were valued and nothing more
    assert calls["values"] > calls["gradient"]


@pytest.mark.parametrize("d,kind", [(2, "neg"), (3, "neg"), (3, "e2"), (3, "e3"),
                                    (4, "neg"), (4, "e2"), (4, "e3")])
def test_certificate_takes_no_gradient(monkeypatch, d, kind):
    def no_gradient(self, parts):
        raise AssertionError("the certificate took a gradient")

    monkeypatch.setattr(mixed._RoofObjective, "gradient", no_gradient)
    a = _members_with_products(d, np.random.default_rng([88, d]))
    vals = mixed._RoofObjective(d, kind).of_members(a.reshape(2, 4, d * d))
    assert vals.shape == (2,)


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
    from teleport_ent import random_pure_state

    rng = np.random.default_rng(101)
    embedded = np.zeros((4, 4, 4, 4), dtype=complex)
    embedded[:3, :3, :3, :3] = random_density_matrix(3, rng).mat.reshape(3, 3, 3, 3)
    states = [DensityMatrix.from_matrix(embedded.reshape(16, 16))]
    states += [random_density_matrix(4, rng, rank=k) for k in (2, 3, None)]
    # a pure state of Schmidt rank 4 has no ensemble under the cap either
    states.append(DensityMatrix.from_pure(random_pure_state(4, np.random.default_rng(3))))
    found = 0
    for rho in states:
        res = e_d2_mixed(rho, FAST)
        if res.value is None:
            assert (res.argument_unitary, res.converged, res.iterations_used) == (None, False, 0)
            continue
        found += 1
        members = res.argument_unitary @ _spectral_comps(rho)
        np.testing.assert_allclose(members.T @ members.conj(), rho.mat, atol=1e-10)
        assert res.value == mixed._RoofObjective(4, "e2").of_members(members)
        assert math.isfinite(res.value) and res.value >= 0.0
    assert found >= 1  # the state supported on a 3x3 block has rank-3 members


# ---------------------------------------------------------------------------
# the two-qubit roof: Wootters' optimal ensemble, no search


def _takagi_concurrence(rho):
    """max(0, s1 - s2 - s3 - s4) from the singular values of B = comps Y comps^T."""
    comps = _spectral_comps(rho)
    s = np.zeros(4)
    s[:len(comps)] = np.linalg.svd(comps @ measures._SYSY @ comps.T, compute_uv=False)
    return max(0.0, s[0] - s[1:].sum()), s


def _check_wootters_result(rho, kind, res):
    comps = _spectral_comps(rho)
    r = len(comps)
    v = res.argument_unitary
    assert v.shape == (mixed.ENSEMBLE_FACTOR * r, r)
    assert np.abs(v.conj().T @ v - np.eye(r)).max() <= mixed.MANIFOLD_TOL
    members = v @ comps
    np.testing.assert_allclose(members.T @ members.conj(), rho.mat, rtol=0, atol=1e-10)
    assert res.value == mixed._RoofObjective(2, kind).of_members(members)
    assert (res.converged, res.iterations_used) == (True, 0)


@pytest.mark.parametrize("kind,search", [("e2", e_d2_mixed), ("neg", cren_estimate)])
@pytest.mark.parametrize("rank", [None, 2, 3])
def test_two_qubit_roof_is_wootters_ensemble(kind, search, rank):
    # concurrence_2qubit takes sqrt of clipped eigenvalues of rho rho~, so its
    # zero eigenvalues at rank 2 and 3 leave errors near 1e-8
    tol = 1e-12 if rank is None else 1e-7
    for seed in range(120, 130):
        rho = random_density_matrix(2, np.random.default_rng(seed), rank=rank)
        res = search(rho, FAST)
        _check_wootters_result(rho, kind, res)
        assert abs(res.value - _takagi_concurrence(rho)[0]) <= 1e-12
        assert abs(res.value - concurrence_2qubit(rho)) <= tol


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_two_qubit_roofs_never_reach_the_descent(monkeypatch, rank):
    # r = 1 or Wootters' ensemble answers every d = 2 roof, which is why
    # _RoofObjective.values keeps no d = 2 branch of its own
    def refuse(*args):
        raise AssertionError("a d = 2 roof reached the descent")

    monkeypatch.setattr(mixed, "_descend", refuse)
    monkeypatch.setattr(mixed, "_roof_starts", refuse)
    for seed in range(6):
        rho = random_density_matrix(2, np.random.default_rng(seed), rank=rank)
        assert e_d2_mixed(rho).value is not None
        assert cren_estimate(rho).value is not None


BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)


def _mixture(weights, vectors):
    return DensityMatrix.from_matrix(sum(w * np.outer(v, v) for w, v in zip(weights, vectors))
                                     .astype(complex))


# 0.5 |phi+> + 0.3 |phi-> + 0.2 |01>: |01> has z^T Y z' = 0 with every
# member, so B is singular and the QR completes its direction
SINGULAR_B = _mixture((0.5, 0.3, 0.2), (BELL[0], BELL[1], np.eye(4)[1]))


@pytest.mark.parametrize("rho,want", [
    *[(werner(p), max(0.0, (3.0 * p - 1.0) / 2.0)) for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 0.99)],
    (_mixture((0.4, 0.4, 0.1, 0.1), BELL), 0.0),
    (_mixture((0.7, 0.1, 0.1, 0.1), BELL), 0.4),
    (_mixture((0.1, 0.2, 0.3, 0.4), np.eye(4)), 0.0),
    (_mixture((0.5, 0.5), np.eye(4)[[0, 3]]), 0.0),
    (_mixture((0.3, 0.7), np.eye(4)[:2]), 0.0),
    (SINGULAR_B, 0.2),
])
@pytest.mark.parametrize("kind,search", [("e2", e_d2_mixed), ("neg", cren_estimate)])
def test_two_qubit_roof_on_structured_states(rho, want, kind, search):
    # Werner states (triply degenerate s), Bell-diagonal states with repeated
    # weights, I/4 (Werner p = 0), product mixtures and a singular B
    res = search(rho, FAST)
    _check_wootters_result(rho, kind, res)
    assert abs(res.value - want) <= 1e-12


def test_singular_b_takes_the_qr_completion():
    for rho in (SINGULAR_B, _mixture((0.3, 0.7), np.eye(4)[:2])):
        s = _takagi_concurrence(rho)[1]
        assert s[len(spectral_decomposition(rho).states) - 1] <= mixed.WEIGHT_FLOOR


def test_descent_reaches_the_wootters_value_from_the_roof_starts():
    # criterion 5's states and settings: the descent still has a known answer
    # at d = 2, where the search itself no longer runs; every d = 2 kind has
    # the same member terms, so one kind covers both
    cfg = OptimizerConfig(restarts=6, seed=505)
    obj = mixed._RoofObjective(2, "e2")
    kept = seed = 0
    while kept < 10:
        rho = random_density_matrix(2, np.random.default_rng(50000 + seed))
        seed += 1
        if concurrence_2qubit(rho) < 0.05:
            continue
        kept += 1
        spectral = spectral_decomposition(rho)
        runs = mixed._descend(obj, spectral.members(), mixed._roof_starts(spectral, cfg), cfg)
        best = min(run[0] for run in runs)
        exact = e_d2_mixed(rho, cfg).value
        assert exact - 1e-12 <= best <= exact * (1.0 + 1e-6)
