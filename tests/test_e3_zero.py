"""The d = 3 e_d3 zero test: Gauss-Newton on the member determinants.

The e_d3 roof is 0 exactly when rho has an ensemble of Schmidt-rank-2
members.  Known zeros: isotropic d = 3 states with F <= 2/3 have Schmidt
number <= 2 (Terhal & Horodecki, PRA 61, 040301(R) (2000)), and so does
every 3x3 PPT state (Yang, Leung & Tang, Linear Algebra Appl. 503, 233
(2016)), such as the UPB tiles state (Bennett et al., PRL 82, 5385 (1999))
and Horodecki's a-states (PLA 232, 333 (1997)).  Isotropic states with
F > 2/3 have Schmidt number 3, so there the test must stall and leave the
result to the descent, unchanged.
"""

import math

import numpy as np
import pytest

from teleport_ent import (
    DensityMatrix,
    OptimizerConfig,
    e_d3_mixed,
    fef_2qubit_closed_form,
    random_density_matrix,
    singlet_fraction_mixed,
    spectral_decomposition,
)
from teleport_ent import mixed

CFG = OptimizerConfig(restarts=8)


def isotropic(f):
    phi = np.eye(3).reshape(-1) / math.sqrt(3.0)
    proj = np.outer(phi, phi)
    return DensityMatrix.from_matrix(f * proj + (1.0 - f) * (np.eye(9) - proj) / 8.0)


def upb_tiles():
    """(I - sum of the five tiles product states) / 4, a rank-4 PPT entangled state."""
    e0, e1, e2 = np.eye(3)
    s = 1.0 / math.sqrt(2.0)
    u = (e0 + e1 + e2) / math.sqrt(3.0)
    tiles = [np.kron(e0, s * (e0 - e1)), np.kron(s * (e0 - e1), e2), np.kron(e2, s * (e1 - e2)),
             np.kron(s * (e1 - e2), e0), np.kron(u, u)]
    return DensityMatrix.from_matrix((np.eye(9) - sum(np.outer(t, t) for t in tiles)) / 4.0)


def horodecki(a):
    """Horodecki's 3x3 PPT entangled state sigma_a, 0 < a < 1 (rank 7)."""
    m = a * np.eye(9)
    for i, j in ((0, 4), (0, 8), (4, 8)):
        m[i, j] = m[j, i] = a
    m[6, 6] = m[8, 8] = (1.0 + a) / 2.0
    m[6, 8] = m[8, 6] = math.sqrt(1.0 - a * a) / 2.0
    return DensityMatrix.from_matrix(m / (8.0 * a + 1.0))


def seeded(seed, rank):
    return random_density_matrix(3, np.random.default_rng(seed), rank=rank)


def _comps_and_starts(rho, cfg):
    spectral = spectral_decomposition(rho)
    return spectral.members(), mixed._roof_starts(spectral, cfg)


ZERO_ROOF = [pytest.param(isotropic(f), id=f"isotropic-F{f}") for f in (0.4, 0.6, 0.65)]
ZERO_ROOF += [pytest.param(upb_tiles(), id="upb-tiles")]
ZERO_ROOF += [pytest.param(horodecki(a), id=f"horodecki-a{a}") for a in (0.05, 0.3, 0.6, 0.9)]


@pytest.mark.parametrize("rho", ZERO_ROOF)
def test_zero_roof_states_certify_e_d3_zero(rho):
    res = e_d3_mixed(rho, CFG)
    assert res.value <= 1e-9
    assert res.converged and 0 <= res.iterations_used <= mixed._ZERO_ITERS
    comps, _ = _comps_and_starts(rho, CFG)
    v = res.argument_unitary
    assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= mixed.MANIFOLD_TOL
    members = v @ comps
    np.testing.assert_allclose(members.T @ members.conj(), rho.mat, rtol=0, atol=1e-10)
    assert res.value == mixed._RoofObjective(3, "e3").of_members(members)
    dets = np.linalg.det(members.reshape(-1, 3, 3))
    assert (np.abs(dets) ** 2).sum() <= 1e-29


@pytest.mark.parametrize("rho", ZERO_ROOF[:1] + ZERO_ROOF[4:5])
def test_zero_stage_winner_takes_its_steps_alone(rho):
    # the stacked stage keeps each restart's arithmetic: the winner, run
    # alone from its own start, ends at the same bits after the same steps
    comps, starts = _comps_and_starts(rho, CFG)
    v, steps = mixed._zero_stage(comps, starts)
    alone = [mixed._zero_stage(comps, starts[k:k + 1]) for k in range(len(starts))]
    assert any(run is not None and run[0].tobytes() == v.tobytes() and run[1] == steps
               for run in alone)


SCHMIDT_NUMBER_3 = [pytest.param(isotropic(f), id=f"isotropic-F{f}") for f in (0.8, 0.95)]
# the rank-2 hull stage (tests/test_e3_rank2.py) declines seed 0, so its
# e_d3 comes from the descent
FALLBACK = [pytest.param(seeded(0, 2), id="seed0-rank2"),
            pytest.param(seeded(13, 3), id="seed13-rank3")] + SCHMIDT_NUMBER_3


@pytest.mark.parametrize("rho", SCHMIDT_NUMBER_3)
def test_schmidt_number_3_never_passes_the_zero_test(rho, monkeypatch):
    # at the CLI's default restarts; count the Gauss-Newton steps, each of
    # which projects its gradients once, to bound the cost of giving up
    comps, starts = _comps_and_starts(rho, OptimizerConfig())
    steps = []
    tangent = mixed._tangent

    def counted(v, g):
        steps.append(v.shape)
        return tangent(v, g)

    monkeypatch.setattr(mixed, "_tangent", counted)
    assert mixed._zero_stage(comps, starts) is None
    assert 1 <= len(steps) <= 4


@pytest.mark.parametrize("rho", FALLBACK)
def test_fallback_returns_the_descent_result_bit_for_bit(rho):
    cfg = OptimizerConfig(restarts=4, max_iters=150)
    comps, starts = _comps_and_starts(rho, cfg)
    obj = mixed._RoofObjective(3, "e3")
    val, v, conv, steps = min(mixed._descend(obj, comps, starts, cfg), key=lambda run: run[0])
    res = e_d3_mixed(rho, cfg)
    assert (res.value, res.converged, res.iterations_used) == (val, conv, steps)
    assert res.argument_unitary.tobytes() == v.tobytes()
    assert res.value > 1e-3


@pytest.mark.parametrize("seed", range(300, 310))
def test_two_qubit_fraction_is_evaluated_at_the_closed_form_unitary(seed):
    rho = random_density_matrix(2, np.random.default_rng(seed))
    res = singlet_fraction_mixed(rho, OptimizerConfig())
    assert (res.converged, res.iterations_used) == (True, 0)
    u = res.argument_unitary
    assert res.value == mixed._fractions(rho.mat, u[None], 2)[0]
    assert abs(res.value - fef_2qubit_closed_form(rho)) <= 1e-14
