"""The built-in two-qutrit family and its closed-form e_32 chain.

Frozen values, all derived by direct computation from the family
definition: the normalized chi0 has Schmidt spectrum (4/9, 4/9, 1/9),
singlet fraction 25/27 and e_32 = 2 sqrt(2)/3; the interpolating state at
p = 0 is the rank-2 maximally-entangled-on-a-qubit-subspace pure state
with e_32 = sqrt(3)/2.
"""

import math

import numpy as np
import pytest

from teleport_ent import (
    FamilyParams,
    InvariantError,
    OptimizerConfig,
    build_rho_f,
    declared_decomposition,
    declared_decomposition_value,
    e32_closed_form,
    e32_of_family,
    e_d2,
    min_avg_fraction,
    rho_c,
    schmidt,
    singlet_fraction_pure,
)
from teleport_ent.qutrit_family import chi_states, phi_state, psi_state

FAST = OptimizerConfig(restarts=4, seed=31)


def test_chi_norms_and_members():
    c0, c1 = chi_states()
    lam0 = schmidt(c0).lambdas
    np.testing.assert_allclose(lam0, [4 / 9, 4 / 9, 1 / 9], atol=1e-12)
    # chi1 normalizes to a product state
    assert schmidt(c1).schmidt_rank == 1
    assert abs(singlet_fraction_pure(schmidt(c0), 3) - 25 / 27) < 1e-12
    assert abs(e_d2(schmidt(c0), 3) - 2 * math.sqrt(2) / 3) < 1e-12


def test_building_blocks_are_shared_and_read_only():
    # built once per process, so no caller may be able to change them
    blocks = [psi_state(), phi_state(), *chi_states()]
    assert all(a is b for a, b in zip([psi_state(), phi_state(), *chi_states()], blocks))
    assert rho_c() is rho_c()
    for arr in [b.amp for b in blocks] + [rho_c().mat]:
        assert not arr.flags.writeable


def test_rho_c_two_forms_agree():
    direct = rho_c().mat
    alt = 0.6 * psi_state().projector() + 0.4 * phi_state().projector()
    np.testing.assert_allclose(direct, alt, atol=1e-12)


def test_family_endpoints():
    # p=0 collapses to the pure phi projector, p=1/2 to rho_c
    at0 = build_rho_f(FamilyParams(p=0.0))
    np.testing.assert_allclose(at0.mat, phi_state().projector(), atol=1e-12)
    at_half = build_rho_f(FamilyParams(p=0.5))
    np.testing.assert_allclose(at_half.mat, rho_c().mat, atol=1e-12)


def test_family_parameter_range():
    with pytest.raises(InvariantError):
        FamilyParams(p=0.6)
    with pytest.raises(InvariantError):
        FamilyParams(p=-0.01)


def test_declared_decomposition_reconstructs_on_grid():
    for p in np.linspace(0.0, 0.5, 64):
        params = FamilyParams(p=float(p))
        dec = declared_decomposition(params)
        assert np.linalg.norm(dec.reconstruct() - build_rho_f(params).mat) <= 1e-10


def test_closed_form_chain_values():
    # sqrt(3)/4 at p=0; 0.4 sqrt(3) at p=1/2
    assert abs(e32_closed_form(0.0) - math.sqrt(3) / 4) < 1e-12
    assert abs(e32_closed_form(0.5) - 0.4 * math.sqrt(3)) < 1e-12
    assert abs(min_avg_fraction(0.0) - 0.5) < 1e-15
    assert abs(min_avg_fraction(0.5) - 0.6) < 1e-15
    # chain is linear in the anchored fraction: sqrt(27/4) (f - 1/3)
    for p in (0.1, 0.2, 0.35):
        expect = 1.5 * math.sqrt(3.0) * (min_avg_fraction(p) - 1 / 3)
        assert abs(e32_closed_form(p) - expect) < 1e-12


def test_declared_value_at_endpoints():
    # p=0 leaves only the phi member: value is e_32 of phi = sqrt(3)/2
    v0 = declared_decomposition_value(FamilyParams(p=0.0))
    assert abs(v0 - math.sqrt(3) / 2) < 1e-12
    # p=1/2: 0.9 * e(chi0) + 0.1 * 0
    v_half = declared_decomposition_value(FamilyParams(p=0.5))
    assert abs(v_half - 0.9 * 2 * math.sqrt(2) / 3) < 1e-12


def test_search_value_verified_at_pure_endpoint():
    """The p=0 state is pure, so every decomposition averages to its own
    e_32; the search must return sqrt(3)/2, not the smaller chain value."""
    rep = e32_of_family(FamilyParams(p=0.0), FAST)
    assert abs(rep.search.value - math.sqrt(3) / 2) < 1e-9
    assert abs(rep.declared_value - math.sqrt(3) / 2) < 1e-12
    assert rep.useful


def test_search_stays_below_declared_on_a_p_grid():
    # The search does not start from the declared ensemble, so nothing forces
    # it below the declared average; this checks that it ends there.  1e-9 is
    # the benchmark's FEF_TOL for the same check, about ten times the largest
    # excess measured over p, seeds and 1 to 32 restarts (9.5e-11 at p = 0.5,
    # where no restart ends below the declared value).
    for p in np.linspace(0.0, 0.5, 26):
        rep = e32_of_family(FamilyParams(p=float(p)), FAST)
        assert rep.search.value <= rep.declared_value + 1e-9
        assert rep.search.value > 0.0


def test_search_reaches_the_declared_ensemble_at_one_half():
    # at p = 1/2 the declared ensemble (chi0 at 9/10, |22> at 1/10) is optimal:
    # the hull stage ends at its value instead of the descent's stop-rule
    # noise, 9.5e-11 above it
    rep = e32_of_family(FamilyParams(p=0.5), FAST)
    assert rep.search.value <= rep.declared_value + 1e-12


def test_family_states_stay_rank2_and_useful():
    for p in (0.0, 0.25, 0.5):
        rho = build_rho_f(FamilyParams(p=float(p)))
        eigs = np.linalg.eigvalsh(rho.mat)
        assert np.sum(eigs > 1e-9) <= 2  # support never exceeds two members
        rep = e32_of_family(FamilyParams(p=float(p)), FAST)
        assert rep.useful
