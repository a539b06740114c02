"""Contract of the singlet-fraction ascent where no closed form exists.

At d = 3 and d = 4 the value must be the fraction attained at the returned
unitary (so a lower bound), at most lambda_max(rho) (vec(U)/sqrt(d) is a
unit vector), and at least the fraction at the warm start, since the polar
fixed point never decreases f.  The warm start is rebuilt here from its
definition: the unitary polar factor of the top eigenvector of rho.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleport_ent import (
    DensityMatrix,
    InvariantError,
    OptimizerConfig,
    haar_unitary,
    random_density_matrix,
    singlet_fraction_mixed,
)


def fraction_at(rho: DensityMatrix, u: np.ndarray) -> float:
    v = u.reshape(-1) / math.sqrt(rho.d)
    return float(np.vdot(v, rho.mat @ v).real)


def warm_start(rho: DensityMatrix) -> np.ndarray:
    top = np.linalg.eigh(rho.mat)[1][:, -1].reshape(rho.d, rho.d)
    w, _, xh = np.linalg.svd(top)
    return w @ xh


def check_lower_bound(rho: DensityMatrix, res) -> None:
    u = res.argument_unitary
    np.testing.assert_allclose(u.conj().T @ u, np.eye(rho.d), atol=1e-10)
    assert abs(res.value - fraction_at(rho, u)) < 1e-12
    assert res.value <= np.linalg.eigvalsh(rho.mat)[-1] + 1e-12


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_ascent_contract_without_closed_form(d, seed):
    rho = random_density_matrix(d, np.random.default_rng([d, seed]))
    res = singlet_fraction_mixed(rho, OptimizerConfig(restarts=4, seed=seed))
    check_lower_bound(rho, res)
    assert res.value >= fraction_at(rho, warm_start(rho)) - 1e-12
    assert res.converged


def polar_fixed_point(rho: DensityMatrix, u: np.ndarray) -> float:
    """Fraction where plain polar steps from u stop raising it."""
    f = fraction_at(rho, u)
    for _ in range(10000):
        w, _, xh = np.linalg.svd((rho.mat @ u.reshape(-1)).reshape(rho.d, rho.d))
        f_next = fraction_at(rho, w @ xh)
        if f_next <= f:
            return f
        u, f = w @ xh, f_next
    raise AssertionError("polar steps still rising after 10000 steps")


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("seed", range(12))
def test_ascent_stops_near_the_polar_fixed_point(d, seed):
    # the stop test bounds one polar step's gain by CONVERGENCE_TOL = 1e-9, so
    # a linearly converging ascent could stop several times that below the
    # fixed point (8.4e-9 at d = 3, seed 6, without the extrapolated step)
    rho = random_density_matrix(d, np.random.default_rng([d, seed]))
    res = singlet_fraction_mixed(rho)
    assert res.converged
    assert 0.0 <= polar_fixed_point(rho, res.argument_unitary) - res.value <= 2.5e-9


@pytest.mark.parametrize("d", [3, 4])
def test_iteration_budget_reports_not_converged(d):
    rho = random_density_matrix(d, np.random.default_rng([d, 99]))
    res = singlet_fraction_mixed(rho, OptimizerConfig(restarts=3, max_iters=1))
    assert not res.converged
    assert res.iterations_used == 1
    check_lower_bound(rho, res)
    assert res.value >= fraction_at(rho, warm_start(rho)) - 1e-12


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_config_rejects_negative_seed(seed):
    with pytest.raises(InvariantError):
        OptimizerConfig(seed=seed)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_fraction_invariant_under_local_unitaries(d, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(d, rng)
    local = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
    moved = DensityMatrix.from_matrix(local @ rho.mat @ local.conj().T)
    cfg = OptimizerConfig(restarts=4)
    a = singlet_fraction_mixed(rho, cfg).value
    b = singlet_fraction_mixed(moved, cfg).value
    assert abs(a - b) < 1e-6
