"""Pure-state measures, algebraic identities, bounds, rank bands, partial transpose.

Numeric example values below were computed directly from the defining
symmetric-function formulas (pairwise and triple Schmidt products) with
plain numpy, independently of the implementation under test.
"""

import math
import re

import numpy as np
import pytest

from teleport_ent import (
    DensityMatrix,
    DynamicsConfig,
    InvariantError,
    OptimizerConfig,
    PureBipartiteState,
    RankClass,
    SchmidtSpectrum,
    analyze_pure,
    central_identity_residual,
    classical_fidelity_limit,
    classify_rank_band,
    concurrence_2qubit,
    coupling_kernel,
    e_d2,
    e_d3,
    e32_closed_form,
    fidelity_from_fraction,
    fidelity_from_negativity,
    negativity_fraction_relation_check,
    negativity_mixed,
    negativity_pure,
    rank2_bounds,
    rank3_fidelity_lower_bound,
    rank3_mixed_bound,
    random_pure_state,
    random_spectrum,
    schmidt,
    singlet_fraction_pure,
    sweep,
)
from teleport_ent.measures import partial_transpose

# frozen example values, d=3
LAM_A = (0.5, 0.5, 0.0)
LAM_B = (0.5, 0.3, 0.2)
F_A = 0.6666666666666669
F_B = 0.9656500499439317
N_A = 0.5000000000000002
N_B = 0.9484750749158974
E2_A = 0.8660254037844386
E2_B = 0.9643650760992954
E3_B = 0.9321697517861577
FID_B = 0.9742375374579487


def spec_of(lams):
    return SchmidtSpectrum(lambdas=np.array(lams, dtype=float))


def test_frozen_examples_rank2():
    s = spec_of(LAM_A)
    assert abs(singlet_fraction_pure(s, 3) - F_A) < 1e-12
    assert abs(negativity_pure(s, 3) - N_A) < 1e-12
    assert abs(e_d2(s, 3) - E2_A) < 1e-12


def test_frozen_examples_rank3():
    s = spec_of(LAM_B)
    assert abs(singlet_fraction_pure(s, 3) - F_B) < 1e-12
    assert abs(negativity_pure(s, 3) - N_B) < 1e-12
    assert abs(e_d2(s, 3) - E2_B) < 1e-12
    assert abs(e_d3(s, 3) - E3_B) < 1e-12
    assert abs(fidelity_from_fraction(F_B, 3) - FID_B) < 1e-12


def test_maximally_entangled_saturates_everything():
    s = spec_of([1 / 3, 1 / 3, 1 / 3])
    assert abs(negativity_pure(s, 3) - 1.0) < 1e-12
    assert abs(singlet_fraction_pure(s, 3) - 1.0) < 1e-12
    assert abs(e_d3(s, 3) - 1.0) < 1e-12
    assert abs(fidelity_from_fraction(1.0, 3) - 1.0) < 1e-12


def test_product_state_reports_zero():
    s = spec_of([1.0, 0.0, 0.0])
    assert negativity_pure(s, 3) == 0.0
    assert abs(singlet_fraction_pure(s, 3) - 1 / 3) < 1e-12
    assert e_d2(s, 3) == 0.0
    assert e_d3(s, 3) == 0.0


def test_classical_limits():
    assert abs(classical_fidelity_limit(2) - 2 / 3) < 1e-15
    assert abs(classical_fidelity_limit(3) - 0.5) < 1e-15
    assert abs(classical_fidelity_limit(4) - 0.4) < 1e-15


def test_identity_sweeps_negativity_fraction_fidelity():
    # the linear relations between N, f and F hold on random spectra
    rng = np.random.default_rng(31)
    for d in range(2, 7):
        for _ in range(200):
            lam = random_spectrum(d, rng)
            s = SchmidtSpectrum(lambdas=lam)
            n = negativity_pure(s, d)
            f = singlet_fraction_pure(s, d)
            assert negativity_fraction_relation_check(s, d) <= 1e-10
            via_f = fidelity_from_fraction(f, d)
            via_n = fidelity_from_negativity(n, d)
            assert abs(via_f - via_n) <= 1e-10


def test_central_identity_rank_le3():
    rng = np.random.default_rng(32)
    for d in (3, 4, 5, 6):
        for _ in range(200):
            lam = random_spectrum(d, rng, rank=3)
            s = SchmidtSpectrum(lambdas=lam)
            assert central_identity_residual(s, d) <= 1e-8


def test_e_d2_rejects_rank4():
    lam = random_spectrum(4, np.random.default_rng(33), rank=4)
    if np.count_nonzero(lam > 1e-9) < 4:  # extremely unlikely, regenerate
        lam = np.array([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(InvariantError):
        e_d2(SchmidtSpectrum(lambdas=lam), 4)


def test_bounds_table_values():
    assert abs(rank2_bounds(2)[1] - 1.0) < 1e-12
    assert abs(rank2_bounds(3)[1] - 0.8660254037844386) < 1e-12
    assert abs(rank2_bounds(4)[1] - 0.816496580927726) < 1e-12
    assert abs(rank2_bounds(5)[1] - 0.7905694150420949) < 1e-12
    assert abs(rank3_mixed_bound(3) - 1.0) < 1e-12
    assert abs(rank3_mixed_bound(4) - 0.8908987181403394) < 1e-12
    assert abs(rank3_fidelity_lower_bound(1.0, 3) - 1.0) < 1e-12
    assert abs(rank3_fidelity_lower_bound(1.0, 4) - 0.8762203155904599) < 1e-12


def test_concurrence_equals_e22_on_pure_two_qubit():
    rng = np.random.default_rng(34)
    for _ in range(25):
        st = random_pure_state(2, rng)
        rho = DensityMatrix.from_pure(st)
        c = concurrence_2qubit(rho)
        # sqrt amplifies the ~1e-16 eigenvalue noise of the three zero
        # roots of rho*rho_tilde to ~1e-8 apiece, so 1e-7 is the honest tol
        assert abs(c - e_d2(schmidt(st), 2)) < 1e-7
        # and negativity agrees with concurrence for pure two-qubit states
        assert abs(c - negativity_mixed(rho)) < 1e-7


def test_negativity_mixed_matches_pure_formula():
    rng = np.random.default_rng(35)
    for d in (2, 3, 4):
        st = random_pure_state(d, rng)
        n_direct = negativity_mixed(DensityMatrix.from_pure(st))
        n_formula = negativity_pure(schmidt(st), d)
        assert abs(n_direct - n_formula) < 1e-9


def test_partial_transpose_maximally_entangled_eigenvalues():
    # PT of the d=2 maximally entangled projector has spectrum {1/2, 1/2, 1/2, -1/2}
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    proj = np.outer(v, v.conj())
    pt = partial_transpose(proj, 2)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_is_involution_and_sides_agree_on_transpose():
    rng = np.random.default_rng(12)
    d = 3
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    a_twice = partial_transpose(partial_transpose(rho, d), d)
    np.testing.assert_allclose(a_twice, rho, atol=1e-13)


def test_rank_band_classification():
    hi3 = rank2_bounds(3)[1]
    # not-useful dominates: a separable state is below threshold, full stop
    assert classify_rank_band(None, False, 3, 1) is RankClass.NOT_USEFUL
    # rank 1 is the tolerance edge: nominally above threshold, no usable pair
    assert classify_rank_band(None, True, 3, 1) is RankClass.RANK1
    assert classify_rank_band(0.5, False, 3, 2) is RankClass.NOT_USEFUL
    assert classify_rank_band(hi3, True, 3, 2) is RankClass.RANK2_USEFUL
    assert classify_rank_band(0.95, True, 3, 3) is RankClass.RANK3_USEFUL
    assert classify_rank_band(None, True, 4, 4) is RankClass.UNCLASSIFIED
    # above the rank-3 ceiling at d=4 nothing can be concluded
    assert classify_rank_band(0.95, True, 4, 3) is RankClass.UNCLASSIFIED


def test_analyze_pure_report():
    amp = np.zeros((3, 3), dtype=complex)
    amp[0, 0] = amp[1, 1] = 1 / math.sqrt(2)
    rep = analyze_pure(PureBipartiteState(d=3, amp=amp))
    assert rep.schmidt_rank == 2
    assert rep.useful_for_teleportation
    assert rep.rank_class is RankClass.RANK2_USEFUL
    assert abs(rep.e_d2 - E2_A) < 1e-12
    assert abs(rep.negativity - 0.5) < 1e-12


def test_analyze_pure_rank2_reports_e_d3_zero():
    # a rotated rank-2 state keeps a rounding-level third weight (~1e-33),
    # which the cube root in e_d3 lifts to ~1e-11; the report applies the rank
    st = random_pure_state(3, np.random.default_rng(7), rank=2)
    spec = schmidt(st)
    assert spec.schmidt_rank == 2 and e_d3(spec, 3) > 0.0
    rep = analyze_pure(st)
    assert rep.schmidt_rank == 2 and rep.e_d3 == 0.0
    assert rep.e_d2 == e_d2(spec, 3)


@pytest.mark.parametrize("lams, rank, band", [
    (LAM_B, 3, RankClass.RANK3_USEFUL),
    # f = 1/3 exactly, so the product state is not useful
    ((1.0, 0.0, 0.0), 1, RankClass.NOT_USEFUL),
    # rank 1 at DEFAULT_RANK_TOL, yet f - 1/3 ~ 6.7e-6 clears USEFUL_GUARD
    ((1.0 - 1e-10, 1e-10, 0.0), 1, RankClass.RANK1),
])
def test_analyze_pure_bands(lams, rank, band):
    rep = analyze_pure(PureBipartiteState(d=3, amp=np.diag(np.sqrt(lams)).astype(complex)))
    assert rep.schmidt_rank == rank
    assert rep.useful_for_teleportation is (band is not RankClass.NOT_USEFUL)
    assert rep.rank_class is band


def test_analyze_pure_rank4_has_no_e_values():
    st = random_pure_state(4, np.random.default_rng(36), rank=4)
    rep = analyze_pure(st)
    assert rep.e_d2 is None and rep.e_d3 is None
    assert rep.rank_class is RankClass.UNCLASSIFIED


def test_rank3_fidelity_floor_on_random_rank3_states():
    rng = np.random.default_rng(37)
    for d in (3, 4):
        for _ in range(100):
            lam = random_spectrum(d, rng, rank=3)
            s = SchmidtSpectrum(lambdas=lam)
            fid = fidelity_from_fraction(singlet_fraction_pure(s, d), d)
            floor = rank3_fidelity_lower_bound(e_d3(s, d), d)
            assert floor <= fid + 1e-10
            assert fid <= 1.0 + 1e-12


_HALF_2 = SchmidtSpectrum(lambdas=np.array([0.5, 0.5]))


# inputs outside each function's model, from the dynamics and the measures
@pytest.mark.parametrize("call,message", [
    (lambda: DynamicsConfig(max_steps=0), "max_steps must be positive"),
    (lambda: coupling_kernel(-1.0), "separation must be nonnegative"),
    (lambda: sweep(DynamicsConfig(), "r12", np.ones((2, 2))),
     "sweep grid must be a nonempty 1-D array"),
    (lambda: sweep(DynamicsConfig(), "r12", np.array([0.5, math.nan])),
     "sweep grid must be finite"),
    (lambda: e_d2(SchmidtSpectrum(lambdas=np.array([1.0])), 1), "e_d2 needs d >= 2"),
    (lambda: e_d3(_HALF_2, 2), "e_d3 needs d >= 3"),
    (lambda: central_identity_residual(_HALF_2, 2),
     "the identity involves e_d3 and needs d >= 3"),
    (lambda: rank3_mixed_bound(2), "rank3_mixed_bound needs d >= 3"),
    (lambda: rank2_bounds(1), "rank2_bounds needs d >= 2"),
    (lambda: rank3_fidelity_lower_bound(-1.0, 3), "e3 must be nonnegative"),
    (lambda: rank3_fidelity_lower_bound(0.5, 2), "rank3_fidelity_lower_bound needs d >= 3"),
    (lambda: singlet_fraction_pure(SchmidtSpectrum(lambdas=np.full(3, 1 / 3)), 2),
     "spectrum has 3 weights but d=2"),
    (lambda: concurrence_2qubit(DensityMatrix.from_matrix(np.eye(9) / 9)),
     "concurrence is defined here for d=2 only"),
    (lambda: OptimizerConfig(restarts=0), "restarts and max_iters must be positive"),
    (lambda: OptimizerConfig(max_iters=0), "restarts and max_iters must be positive"),
    (lambda: e32_closed_form(0.6), "family parameter p must lie in [0, 1/2]"),
], ids=["max_steps_0", "kernel_negative_x", "sweep_2d_grid", "sweep_nan_grid",
        "e_d2_d1", "e_d3_d2", "identity_d2", "rank3_ceiling_d2", "rank2_bounds_d1",
        "rank3_floor_negative_e3", "rank3_floor_d2", "spectrum_longer_than_d",
        "concurrence_d3", "restarts_0", "max_iters_0", "family_p_above_half"])
def test_input_outside_the_model_raises(call, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        call()
