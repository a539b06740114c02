"""Open-system engine: kernels, generator invariants, trajectories."""

import dataclasses
import math
import re

import numpy as np
import pytest

from teleport_ent import (
    BathParams,
    DensityMatrix,
    DynamicsConfig,
    InvariantError,
    ModelKind,
    antisymmetric_initial_state,
    coupling_kernel,
    default_initial_state,
    evolve,
    lindblad_rhs,
    random_density_matrix,
    shift_kernel,
    squeezed_occupations,
    step_doubling_check,
    sweep,
    thermal_occupation,
)
from teleport_ent import dynamics as dyn
from teleport_ent import measures, mixed


def test_thermal_occupation_limits():
    assert thermal_occupation(0.0) == 0.0
    # T = 1 (units of hbar omega0 / k_B): 1/(e - 1)
    assert abs(thermal_occupation(1.0) - 1.0 / (math.e - 1.0)) < 1e-14
    assert thermal_occupation(100.0) > 99.0  # classical limit ~ T


def test_squeezed_occupations_admissible():
    # N(N+1) >= |M|^2 must hold for any bath, else the generator is not CP
    for T in (0.0, 0.5, 2.0):
        for r in (0.0, 0.3, 1.0):
            n, m = squeezed_occupations(BathParams(temperature=T, squeeze_r=r))
            assert n * (n + 1.0) >= abs(m) ** 2 - 1e-12


def test_coupling_kernel_limits_and_continuity():
    assert coupling_kernel(0.0) == 1.0
    assert abs(coupling_kernel(1000.0)) < 0.01
    # series and direct branches agree at the crossover
    lo, hi = coupling_kernel(0.0099999), coupling_kernel(0.0100001)
    assert abs(lo - hi) < 1e-8


def test_shift_kernel_near_field_divergence():
    # ~ 3/(4 x^3) at small separation
    x = 0.05
    assert abs(shift_kernel(x) / (0.75 / x ** 3) - 1.0) < 0.01
    with pytest.raises(InvariantError):
        shift_kernel(0.0)


def test_rhs_traceless_and_hermitian():
    cfg = DynamicsConfig(
        model=ModelKind.DISSIPATIVE,
        bath=BathParams(temperature=1.0, squeeze_r=0.2, squeeze_phi=0.7, r12=0.4),
        gamma0=0.5, t_max=1.0)
    rho = default_initial_state()
    dot = lindblad_rhs(rho.mat, cfg)
    assert abs(np.trace(dot)) < 1e-12
    assert np.abs(dot - dot.conj().T).max() < 1e-12
    cfg_q = DynamicsConfig(model=ModelKind.QND, bath=BathParams(temperature=2.0, r12=0.3))
    dot_q = lindblad_rhs(rho.mat, cfg_q)
    assert abs(np.trace(dot_q)) < 1e-12
    assert np.abs(dot_q - dot_q.conj().T).max() < 1e-12


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("bath", [
    BathParams(temperature=1.0, squeeze_r=0.2, squeeze_phi=0.7, r12=0.3),
    BathParams(temperature=0.5, squeeze_r=0.4, squeeze_phi=-2.1, r12=1.0),
    BathParams(temperature=2.0, squeeze_r=0.1, squeeze_phi=3.0, r12=2.5),
])
def test_rhs_matches_operator_form(model, bath):
    """L vec(rho) against -i[H, rho] + sum_ab c_ab (J_b rho J_a^dag
    - {J_a^dag J_b, rho}/2), with no vectorization involved."""
    cfg = DynamicsConfig(model=model, bath=bath, gamma0=0.5, t_max=1.0)
    (h,), (c,) = dyn._gks_parts([cfg])
    jumps = dyn._JUMPS[model]
    rng = np.random.default_rng(41)
    for _ in range(3):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = x + x.conj().T
        want = -1j * (h @ rho - rho @ h)
        for a, ja in enumerate(jumps):
            for b, jb in enumerate(jumps):
                g = ja.conj().T @ jb
                want = want + c[a, b] * (jb @ rho @ ja.conj().T - 0.5 * (g @ rho + rho @ g))
        assert np.abs(lindblad_rhs(rho, cfg) - want).max() <= 1e-13


def test_qnd_conserves_populations():
    cfg = DynamicsConfig(model=ModelKind.QND,
                         bath=BathParams(temperature=5.0, squeeze_r=0.1, r12=0.5),
                         gamma0=0.5, t_max=2.0, dt=1e-3, max_steps=4096)
    rho0 = default_initial_state()
    dot = lindblad_rhs(rho0.mat, cfg)
    np.testing.assert_allclose(np.diag(dot), 0.0, atol=1e-14)


def test_vacuum_ground_state_is_fixed_point():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE, bath=BathParams(r12=0.7),
                         gamma0=1.0, t_max=1.0)
    ground = np.zeros((4, 4), dtype=complex)
    ground[0, 0] = 1.0
    dot = lindblad_rhs(ground, cfg)
    assert np.abs(dot).max() < 1e-14


def test_evolve_records_and_conserves():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE, bath=BathParams(r12=0.5),
                         gamma0=1.0, t_max=2.0, dt=1e-3, max_steps=4096)
    traj = evolve(cfg)
    assert len(traj) == 2001
    assert traj.t[0] == 0.0 and abs(traj.t[-1] - 2.0) < 1e-12
    assert traj.trace_err.max() < 1e-10
    assert traj.min_eig.min() > -1e-6
    # vacuum decay from the symmetric mixture loses entanglement
    assert traj.concurrence[0] > traj.concurrence[-1]


def test_evolve_step_cap():
    cfg = DynamicsConfig(bath=BathParams(r12=0.5), t_max=10.0, dt=1e-4, max_steps=100)
    with pytest.raises(InvariantError):
        evolve(cfg)


def test_step_doubling_converged():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE, bath=BathParams(r12=0.5),
                         gamma0=1.0, t_max=1.0, dt=1e-3, max_steps=4096)
    assert step_doubling_check(cfg) < 1e-8


def test_collective_oscillation_with_asymmetric_start():
    """A state overlapping both symmetric and antisymmetric sectors picks up
    the coherent shift; at close separation concurrence oscillates."""
    one = np.zeros((4, 4), dtype=complex)
    one[2, 2] = 1.0  # |10><10|
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / math.sqrt(2)
    rho0 = DensityMatrix.from_matrix(0.8 * np.outer(psi, psi.conj()) + 0.2 * one)
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE, bath=BathParams(r12=0.05),
                         gamma0=0.2, t_max=0.02, dt=2e-5, initial=rho0,
                         max_steps=4096)
    traj = evolve(cfg)
    dc = np.diff(traj.concurrence)
    sign_flips = int(np.sum(np.abs(np.diff(np.sign(dc[np.abs(dc) > 1e-12])))) // 2)
    assert sign_flips >= 3  # non-monotone: genuine oscillation
    assert traj.trace_err.max() < 1e-10
    assert traj.min_eig.min() > -1e-6


def test_thermal_sudden_death_in_time():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE,
                         bath=BathParams(temperature=2.0, r12=2.0),
                         gamma0=1.0, t_max=3.0, dt=1e-3, max_steps=4096)
    traj = evolve(cfg)
    dead = traj.concurrence == 0.0
    assert dead.any()
    first_dead = int(np.argmax(dead))
    assert np.all(traj.concurrence[first_dead:] == 0.0)  # no revival here
    # fraction is classical once entanglement is gone
    assert traj.fraction[dead].max() <= 0.5 + 1e-6


def test_sweep_time_axis_matches_trajectory():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE, bath=BathParams(r12=0.5),
                         gamma0=1.0, t_max=1.0, dt=1e-3, max_steps=4096)
    # every step and every half-step tie between two steps
    grid = np.linspace(0.0, cfg.t_max, 2001)
    res = sweep(cfg, "time", grid)
    traj = evolve(cfg)
    assert len(res.rows) == len(grid)
    for t, row in zip(grid.tolist(), res.rows):
        assert row == (t,) + traj.row(round(t / cfg.dt))[1:]


def test_sweep_axis_validation():
    cfg = DynamicsConfig(bath=BathParams(r12=0.5), t_max=1.0, dt=1e-3)
    with pytest.raises(InvariantError):
        sweep(cfg, "volume", np.array([1.0]))
    with pytest.raises(InvariantError):
        sweep(cfg, "time", np.array([5.0]))  # beyond t_max


def test_sweep_jobs_deterministic():
    cfg = DynamicsConfig(model=ModelKind.DISSIPATIVE,
                         bath=BathParams(temperature=1.0, r12=1.0),
                         gamma0=1.0, t_max=0.5, dt=2e-3, max_steps=4096,
                         initial=antisymmetric_initial_state())
    grid = np.linspace(0.3, 2.0, 6)
    a = sweep(cfg, "r12", grid).rows
    b = sweep(cfg, "r12", grid).rows
    assert a == b


# ---------------------------------------------------------------------------
# equivalence with the per-step RK4 loop the propagator replaced


def _rk4_loop_oracle(cfg):
    """Rows (t, C, f, F, trace_err, min_eig) of the classical four-stage RK4
    loop with re-hermitization and one diagnostics call after every step."""
    dt = cfg.resolved_dt()
    steps = max(1, int(round(cfg.t_max / dt)))
    lv = dyn._liouvillian(cfg)
    v = cfg.resolved_initial().mat.reshape(-1).astype(np.complex128)
    rows = []

    def record(t, vec):
        m = vec.reshape(4, 4)
        frac = float(mixed.fef_2qubit_stack(m))
        tr = np.trace(m)
        rows.append((t, float(measures.concurrence_2qubit_stack(m)), frac,
                     measures.fidelity_from_fraction(frac, 2),
                     abs(float(tr.real) - 1.0) + abs(float(tr.imag)),
                     float(np.linalg.eigvalsh(m)[0])))

    record(0.0, v)
    for k in range(1, steps + 1):
        k1 = lv @ v
        k2 = lv @ (v + 0.5 * dt * k1)
        k3 = lv @ (v + 0.5 * dt * k2)
        k4 = lv @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m = v.reshape(4, 4)
        v = (0.5 * (m + m.conj().T)).reshape(-1)
        record(k * dt, v)
    return np.array(rows)


# the criterion-7 scenarios, shortened to t_max = 0.5
CRITERION_7_SHORT = {
    "dissipative vacuum": DynamicsConfig(
        model=ModelKind.DISSIPATIVE, bath=BathParams(temperature=0.0, r12=0.05),
        gamma0=0.2, t_max=0.5, dt=5e-4, max_steps=20000),
    "dissipative thermal": DynamicsConfig(
        model=ModelKind.DISSIPATIVE, bath=BathParams(temperature=1.0, squeeze_r=0.1, r12=0.05),
        gamma0=0.2, t_max=0.5, dt=5e-4, max_steps=20000),
    "qnd collective": DynamicsConfig(
        model=ModelKind.QND, bath=BathParams(temperature=5.0, squeeze_r=0.1, r12=0.05),
        gamma0=0.2, t_max=0.5, dt=1e-3, max_steps=20000),
    "qnd independent": DynamicsConfig(
        model=ModelKind.QND, bath=BathParams(temperature=5.0, squeeze_r=0.1, r12=1.1),
        gamma0=0.2, t_max=0.5, dt=1e-3, max_steps=20000),
}


@pytest.mark.parametrize("name", sorted(CRITERION_7_SHORT))
def test_evolve_matches_per_step_rk4(name):
    cfg = CRITERION_7_SHORT[name]
    want = _rk4_loop_oracle(cfg)
    traj = evolve(cfg)
    got = np.column_stack([traj.t, traj.concurrence, traj.fraction, traj.fidelity,
                           traj.trace_err, traj.min_eig])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("steps", [1, dyn._CHUNK - 1, dyn._CHUNK, dyn._CHUNK + 1,
                                   2 * dyn._CHUNK + 1, dyn._BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", sorted(CRITERION_7_SHORT))
def test_evolve_matches_per_step_rk4_at_chunk_edges(name, steps):
    cfg = CRITERION_7_SHORT[name]
    cfg = dataclasses.replace(cfg, t_max=steps * cfg.dt)
    want = _rk4_loop_oracle(cfg)
    traj = evolve(cfg)
    got = np.column_stack([traj.t, traj.concurrence, traj.fraction, traj.fidelity,
                           traj.trace_err, traj.min_eig])
    assert got.shape == (steps + 1, 6) == want.shape
    assert np.abs(got - want).max() <= 1e-12


# a full-rank start with C = 0.4, so every block takes the LAPACK path
NON_X_START = random_density_matrix(2, np.random.default_rng(1800))
NON_X_CASES = {
    "dissipative thermal": DynamicsConfig(
        model=ModelKind.DISSIPATIVE,
        bath=BathParams(temperature=1.0, squeeze_r=0.1, squeeze_phi=0.7, r12=0.5),
        gamma0=0.2, t_max=0.5, dt=5e-4, max_steps=20000, initial=NON_X_START),
    "qnd collective": dataclasses.replace(CRITERION_7_SHORT["qnd collective"],
                                          initial=NON_X_START),
}


@pytest.mark.parametrize("name", sorted(NON_X_CASES))
def test_non_x_start_matches_per_step_rk4(name):
    cfg = NON_X_CASES[name]
    assert dyn._x_blocks(NON_X_START.mat) is None
    want = _rk4_loop_oracle(cfg)
    traj = evolve(cfg)
    got = np.column_stack([traj.t, traj.concurrence, traj.fraction, traj.fidelity,
                           traj.trace_err, traj.min_eig])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(NON_X_CASES))
def test_non_x_sweep_matches_per_step_rk4(name):
    cfg = dataclasses.replace(NON_X_CASES[name], t_max=0.05)
    grid = np.linspace(0.3, 3.0, 4)
    rows = np.array(sweep(cfg, "r12", grid).rows)
    for x, row in zip(grid, rows):
        bath = dataclasses.replace(cfg.bath, r12=float(x))
        want = _rk4_loop_oracle(dataclasses.replace(cfg, bath=bath))[-1]
        assert row[0] == x
        assert np.abs(row[1:] - want[1:]).max() <= 1e-12


def test_unstable_abort_time_matches_per_step_loop():
    # dt * Omega12 is about 300: the state leaves positivity inside the first chunk
    cfg = DynamicsConfig(bath=BathParams(r12=0.05), t_max=5.0, dt=0.05)
    p = dyn._propagator(dyn._liouvillian(cfg)[None], cfg.dt)[0]
    v = cfg.resolved_initial().mat.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 101):
            m = (p @ v).reshape(4, 4)
            m = 0.5 * (m + m.conj().T)
            v = m.reshape(-1)
            if not (np.isfinite(m).all() and np.linalg.eigvalsh(m)[0] >= dyn.MIN_EIG_ABORT):
                break
    assert k % dyn._CHUNK not in (0, 1)
    at = re.escape(f"lost positivity at t={k * cfg.dt:.6g} (")
    with pytest.raises(InvariantError, match=at):
        evolve(cfg)


def test_diverged_step_reports_its_largest_entry():
    # the first bad state has entries up to 8, so its eigenvalue is rounding
    # noise; no state within MIN_EIG_ABORT of a density matrix has an entry above 1
    cfg = DynamicsConfig(bath=BathParams(r12=0.05), t_max=5.0, dt=0.05)
    want = "state lost positivity at t=0.1 (diverged, largest |entry| 8.000e+00)"
    with pytest.raises(InvariantError, match=re.escape(want)):
        evolve(cfg)


def test_abort_detail_names_what_failed():
    mat = np.diag([0.5, 0.5, 1e-5, -1e-5]).astype(complex)
    assert dyn._abort_detail(mat, -1e-5) == "min eigenvalue -1.000e-05"
    assert dyn._abort_detail(4.0 * mat, -4e-5) == "diverged, largest |entry| 2.000e+00"
    assert dyn._abort_detail(mat, -math.inf) == "non-finite entries"


def test_fixed_point_survives_overflowing_step_powers():
    # at dt = 100 the step P has entries near 1e21 and P^16 overflows, but the
    # vacuum ground state is an exact fixed point of P, as it is step by step
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    cfg = DynamicsConfig(bath=BathParams(r12=0.05), t_max=4000.0, dt=100.0,
                         initial=DensityMatrix.from_matrix(ground))
    p = dyn._propagator(dyn._liouvillian(cfg)[None], cfg.dt)
    assert 1 < len(dyn._powers(p)) < dyn._CHUNK
    traj = evolve(cfg)
    assert len(traj) == 41
    assert traj.min_eig.min() == 0.0 and traj.trace_err.max() == 0.0
    assert traj.concurrence.max() == 0.0


@pytest.mark.parametrize("axis,cfg,grid", [
    ("r12", DynamicsConfig(model=ModelKind.DISSIPATIVE,
                           bath=BathParams(temperature=1.0, squeeze_r=0.1, r12=1.0),
                           gamma0=1.0, t_max=0.5, dt=2e-3, max_steps=4096,
                           initial=antisymmetric_initial_state()),
     np.linspace(0.3, 3.0, 10)),
    ("squeeze_r", DynamicsConfig(model=ModelKind.QND,
                                 bath=BathParams(temperature=5.0, r12=0.05),
                                 gamma0=0.2, t_max=0.5, dt=1e-3, max_steps=4096),
     np.linspace(-0.05, 0.05, 9)),
    # more points than one stacked group holds
    ("squeeze_r", DynamicsConfig(model=ModelKind.DISSIPATIVE,
                                 bath=BathParams(temperature=0.5, r12=0.7),
                                 gamma0=1.0, t_max=0.05, dt=1e-3, max_steps=4096),
     np.linspace(0.0, 0.3, 70)),
])
def test_sweep_rows_match_per_point_evolve(axis, cfg, grid):
    rows = sweep(cfg, axis, grid).rows
    assert len(rows) == len(grid)
    for x, row in zip(grid, rows):
        bath = dataclasses.replace(cfg.bath, **{axis: float(x)})
        want = evolve(dataclasses.replace(cfg, bath=bath)).final_row()
        assert row[0] == float(x)
        assert row[1:] == want[1:]


def test_sweep_aborts_on_one_unstable_point():
    # dt * Omega12 is about 300 at r12 = 0.05, far outside RK4's stability region
    cfg = DynamicsConfig(bath=BathParams(r12=1.0), t_max=5.0, dt=0.05)
    sweep(cfg, "r12", np.array([0.5, 1.0]))
    with pytest.raises(InvariantError, match="lost positivity .* at r12=0.05"):
        sweep(cfg, "r12", np.array([0.5, 0.05, 1.0]))


@pytest.mark.parametrize("axis,grid,message", [
    ("squeeze_r", [400.0, 800.0], "the generator overflows"),
    ("squeeze_r", [800.0, 400.0], "squeeze magnitude 800.0 overflows"),
    ("r12", [1e-103, 0.0], "the generator overflows"),
    ("r12", [0.0, 1e-103], "the coherent shift needs a positive separation"),
], ids=["squeeze_overflow_first", "squeeze_check_first", "r12_overflow_first",
        "r12_check_first"])
def test_sweep_reports_its_first_failing_point(axis, grid, message):
    # r = 400 and r12 = 1e-103 pass the bath checks but overflow the generator;
    # r = 800 and r12 = 0 fail the checks
    with pytest.raises(InvariantError, match=message):
        sweep(DynamicsConfig(t_max=0.01), axis, np.array(grid))


@pytest.mark.parametrize("field", ["temperature", "squeeze_r", "squeeze_phi", "r12"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_bath_rejects_non_finite(field, value):
    with pytest.raises(InvariantError, match="finite"):
        BathParams(**{field: value})


@pytest.mark.parametrize("field", ["gamma0", "t_max", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(InvariantError, match="finite"):
        DynamicsConfig(**{field: value})


def test_extreme_finite_baths_abort_cleanly():
    # occupations or shifts that overflow end in InvariantError, not a traceback
    for bath in (BathParams(squeeze_r=1000.0), BathParams(temperature=1e300),
                 BathParams(r12=1e-300), BathParams(r12=1e-105)):
        with pytest.raises(InvariantError):
            evolve(DynamicsConfig(bath=bath, t_max=0.01))
    assert thermal_occupation(1e-3) == 0.0  # 1 / T = 1000


# ---------------------------------------------------------------------------
# closed forms on X states (entries off the diagonal and anti-diagonal zero)

X_POS = np.array([0, 3, 5, 6, 9, 10, 12, 15])


def _random_x_state(rng, outer_rank, inner_rank):
    """X state whose parity blocks, on (|00>, |11>) and (|01>, |10>), have the
    given ranks; the coherences rho03 and rho12 carry random phases."""
    mat = np.zeros((4, 4), dtype=complex)
    for idx, rank in (([0, 3], outer_rank), ([1, 2], inner_rank)):
        g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
        mat[np.ix_(idx, idx)] = rng.uniform(0.1, 1.0) * g @ g.conj().T
    return mat / np.trace(mat).real


def _bell(k):
    psi = np.zeros(4, dtype=complex)
    i, j, sign = ((0, 3, 1), (0, 3, -1), (1, 2, 1), (1, 2, -1))[k]
    psi[i], psi[j] = 1.0, sign
    return np.outer(psi, psi.conj()) / 2.0


def _werner(p):
    return p * _bell(3) + (1.0 - p) * np.eye(4) / 4.0


def _x_kernel(mats):
    blocks = dyn._x_blocks(mats)
    assert blocks is not None
    min_eig = dyn._x_min_eig(blocks)
    conc, frac = dyn._diagnostics(mats, min_eig, blocks)[:2]
    return conc, frac, min_eig


def _x_products():
    return np.array([np.kron(np.diag([p, 1 - p]), np.diag([q, 1 - q]))
                     for p in (0.0, 0.3, 1.0) for q in (0.0, 0.5, 0.8)])


def _x_known_states():
    rng = np.random.default_rng(2718)
    ranks = [(r1, r2) for r1 in range(3) for r2 in range(3) if r1 + r2]
    states = [_random_x_state(rng, *rank) for rank in ranks for _ in range(6)]
    return np.concatenate((states, _x_products(), [_bell(k) for k in range(4)],
                           [_werner(p) for p in np.linspace(0.0, 1.0, 7)]))


def test_x_kernel_matches_the_general_routes():
    mats = _x_known_states()
    conc, frac, min_eig = _x_kernel(mats)
    assert np.abs(frac - mixed.fef_2qubit_stack(mats)).max() <= 1e-14
    assert np.abs(min_eig - np.linalg.eigvalsh(mats)[:, 0]).max() <= 1e-14
    cfg = mixed.OptimizerConfig(restarts=1)
    roof = [mixed.e_d2_mixed(DensityMatrix.from_matrix(m), cfg).value for m in mats]
    assert np.abs(conc - roof).max() <= 1e-13


def test_x_kernel_known_values():
    bells = np.array([_bell(k) for k in range(4)])
    conc, frac, _ = _x_kernel(bells)
    assert np.abs(conc - 1.0).max() <= 1e-15 and np.abs(frac - 1.0).max() <= 1e-15
    assert (_x_kernel(_x_products())[0] == 0.0).all()
    p = np.linspace(0.0, 1.0, 7)
    conc, frac, min_eig = _x_kernel(np.array([_werner(x) for x in p]))
    assert np.abs(conc - np.maximum(0.0, (3.0 * p - 1.0) / 2.0)).max() <= 1e-15
    assert np.abs(frac - (1.0 + 3.0 * p) / 4.0).max() <= 1e-15
    assert np.abs(min_eig - (1.0 - p) / 4.0).max() <= 1e-15


def test_x_blocks_select_only_finite_x_states():
    mats = _x_known_states()
    assert dyn._x_blocks(mats) is not None
    for flat in (1, 14):  # one entry off the X pattern
        off = mats.copy().reshape(-1, 16)
        off[5, flat] = 1e-300
        assert dyn._x_blocks(off.reshape(-1, 4, 4)) is None
    for bad in (math.nan, math.inf):  # 0 * inf puts NaN off the pattern
        non_finite = mats.copy()
        non_finite[3, 0, 3] = bad
        assert dyn._x_blocks(non_finite) is None


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("bath", [
    BathParams(temperature=1.0, squeeze_r=0.2, squeeze_phi=0.7, r12=0.3),
    BathParams(temperature=0.5, squeeze_r=0.4, squeeze_phi=-2.1, r12=0.05),
    BathParams(temperature=0.0, squeeze_r=0.1, squeeze_phi=3.0, r12=2.5),
])
def test_liouvillian_keeps_x_and_non_x_entries_apart(model, bath):
    """The invariant that keeps an X run on the closed forms at every step."""
    lv = dyn._liouvillian(DynamicsConfig(model=model, bath=bath, gamma0=0.5))
    assert (lv[np.ix_(X_POS, dyn._OFF_X)] == 0.0).all()
    assert (lv[np.ix_(dyn._OFF_X, X_POS)] == 0.0).all()
    assert np.abs(lv[np.ix_(X_POS, X_POS)]).max() > 0.0


def test_x_runs_make_no_lapack_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("an X run reached a LAPACK diagnostic")

    monkeypatch.setattr(measures, "concurrence_2qubit_stack", refuse)
    monkeypatch.setattr(mixed, "fef_2qubit_stack", refuse)
    monkeypatch.setattr(dyn, "_min_eig", refuse)
    cfg = CRITERION_7_SHORT["dissipative thermal"]
    traj = evolve(cfg)
    assert len(traj) == 1001 and traj.concurrence[0] > 0.9
    cfg = dataclasses.replace(cfg, t_max=0.05, initial=antisymmetric_initial_state())
    assert len(sweep(cfg, "r12", np.linspace(0.3, 3.0, 5)).rows) == 5


def _generator_at(cfg):
    """L of one config as built point by point before grids were batched:
    its Hamiltonian and coefficient matrix, three krons and a tensordot."""
    n_eff, m_eff = squeezed_occupations(cfg.bath)
    if cfg.model is ModelKind.QND:
        kappa = coupling_kernel(cfg.bath.r12)
        scale = 0.25 * cfg.gamma0 * (2.0 * n_eff + 1.0)
        h = np.zeros((4, 4), dtype=np.complex128)
        c = scale * np.array([[1.0, kappa], [kappa, 1.0]], dtype=np.complex128)
    else:
        gamma12, omega12 = dyn.collective_coefficients(cfg.bath, cfg.gamma0)
        g = np.array([[cfg.gamma0, gamma12], [gamma12, cfg.gamma0]])
        k = np.array([[n_eff + 1.0, -m_eff], [-np.conj(m_eff), n_eff]])
        h, c = omega12 * dyn._EXCHANGE, np.kron(k, g)
    eye = np.eye(4)
    return (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
            + np.tensordot(c, dyn._DISSIPATORS[cfg.model], 2))


@pytest.mark.parametrize("axis", ["r12", "squeeze_r"])
@pytest.mark.parametrize("model", list(ModelKind))
def test_batched_generators_equal_the_per_point_formula(model, axis):
    # a grid's generators come from one batched build; each layer, and a
    # one-point build, must carry the bits of the per-point formula
    rng = np.random.default_rng(71)
    for _ in range(20):
        bath = BathParams(temperature=float(rng.uniform(0.0, 3.0)),
                          squeeze_r=float(rng.uniform(0.0, 2.0)),
                          squeeze_phi=float(rng.uniform(-3.0, 3.0)),
                          r12=float(rng.uniform(0.01, 3.0)))
        base = DynamicsConfig(model=model, bath=bath, gamma0=float(rng.uniform(0.1, 2.0)))
        cfgs = [dyn._cfg_at(base, axis, float(x)) for x in rng.uniform(0.01, 2.0, 28)]
        want = np.array([_generator_at(cfg) for cfg in cfgs])
        assert dyn._liouvillians(cfgs).tobytes() == want.tobytes()
        assert dyn._liouvillian(base).tobytes() == _generator_at(base).tobytes()
