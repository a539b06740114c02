"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test computes its quantities at the stated tolerances, prints a
single ``criterion N PASS/FAIL`` line with the measured numbers, then
asserts.  Budgeted runtimes are measured and enforced here too.
"""

import math
import time

import numpy as np
import pytest

import teleport_ent as te
from teleport_ent import dynamics as dyn
from teleport_ent.cli import main as cli_main

SQ3_4 = math.sqrt(3.0) / 4.0


def verdict(ok, label, detail):
    print(f"criterion {label} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: identity suite


def test_criterion_1_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_central = 0.0
    count = 0
    for d in range(2, 7):
        for _ in range(1000):
            rank = int(rng.integers(1, d + 1))
            lam = te.random_spectrum(d, rng, rank=rank)
            s = te.SchmidtSpectrum(lambdas=lam)
            n = te.negativity_pure(s, d)
            f = te.singlet_fraction_pure(s, d)
            worst_rel = max(worst_rel, te.negativity_fraction_relation_check(s, d))
            worst_rel = max(worst_rel, abs(te.fidelity_from_fraction(f, d)
                                           - te.fidelity_from_negativity(n, d)))
            if d >= 3 and rank <= 3:
                worst_central = max(worst_central, te.central_identity_residual(s, d))
                count += 1
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-10 and worst_central <= 1e-8 and elapsed < 5.0
    assert verdict(ok, "1", f"relation residual {worst_rel:.2e} (tol 1e-10), "
                            f"central identity {worst_central:.2e} on {count} spectra "
                            f"(tol 1e-8), {elapsed:.1f}s (budget 5s)")


# ---------------------------------------------------------------------------
# criterion 2: golden number, split into the two required clauses


def _qutrit_p0_output(capsys):
    code = cli_main(["qutrit-example", "--p", "0", "--restarts", "6", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    vals = {}
    for line in out.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            vals[k.strip()] = v.strip()
    return vals


def test_criterion_2_golden_number_closed_form(capsys):
    t0 = time.monotonic()
    vals = _qutrit_p0_output(capsys)
    reported = float(vals["closed_form_e32"])
    elapsed = time.monotonic() - t0
    ok = abs(reported - SQ3_4) <= 1e-9 and elapsed < 30.0
    assert verdict(ok, "2 (closed form)",
                   f"reported {reported:.12f} vs sqrt(3)/4 = {SQ3_4:.12f}, "
                   f"{elapsed:.1f}s (budget 30s)")


def test_criterion_2_search_path_bound(capsys):
    """Required: the search path reports at most sqrt(3)/4 + 1e-6 at p = 0.

    The p = 0 member of the family is the pure phi projector; every
    decomposition of a pure state averages to that state's own value,
    which is sqrt(3)/2.  The requirement as stated is therefore not
    attainable by a sound search and this assertion is expected to fail;
    it is kept literal rather than weakened.
    """
    vals = _qutrit_p0_output(capsys)
    searched = float(vals["searched_e32"])
    ok = searched <= SQ3_4 + 1e-6
    assert verdict(ok, "2 (search path)",
                   f"searched_e32 {searched:.12f} vs required <= {SQ3_4 + 1e-6:.12f} "
                   f"(pure-state value sqrt(3)/2 = {math.sqrt(3) / 2:.12f})")


# ---------------------------------------------------------------------------
# criterion 3: bounds table


def test_criterion_3_bounds_table():
    hi2_d2 = te.rank2_bounds(2)[1]
    hi2_d3 = te.rank2_bounds(3)[1]
    hi3_d3 = te.rank3_mixed_bound(3)
    devs = (abs(hi2_d2 - 1.0), abs(hi2_d3 - 0.866025403784), abs(hi3_d3 - 1.0))
    ok = devs[0] <= 1e-12 and devs[1] <= 1e-9 and devs[2] <= 1e-12
    # the 12-digit reference 0.866025403784 is itself truncated; compare the
    # exact constant at full precision as well
    ok = ok and abs(hi2_d3 - math.sqrt(0.75)) <= 1e-12
    assert verdict(ok, "3", f"rank-2 hi(d=2)={hi2_d2:.12f}, "
                            f"hi(d=3)={hi2_d3:.12f}, rank-3 hi(d=3)={hi3_d3:.12f}")


# ---------------------------------------------------------------------------
# criterion 4: singlet-fraction search vs closed form


def test_criterion_4_fef_oracle_equivalence():
    t0 = time.monotonic()
    cfg = te.OptimizerConfig(restarts=32, seed=404)
    worst = 0.0
    for i in range(100):
        rho = te.random_density_matrix(2, np.random.default_rng(40000 + i))
        oracle = te.fef_2qubit_closed_form(rho)
        res = te.singlet_fraction_mixed(rho, cfg)
        worst = max(worst, abs(res.value - oracle))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    assert verdict(ok, "4", f"worst |search - closed form| {worst:.2e} over 100 states "
                            f"(tol 1e-6, 32 restarts), {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 5: convex-roof convergence


def test_criterion_5_convex_roof_convergence():
    t0 = time.monotonic()
    cfg = te.OptimizerConfig(restarts=6, seed=505)
    worst_rel = 0.0
    worst_below = 0.0
    kept = 0
    i = 0
    while kept < 50:
        rho = te.random_density_matrix(2, np.random.default_rng(50000 + i))
        i += 1
        conc = te.concurrence_2qubit(rho)
        if conc < 0.05:
            continue  # relative tolerance needs a nonzero reference
        kept += 1
        neg = te.negativity_mixed(rho)
        for value in (te.cren_estimate(rho, cfg).value,
                      te.e_d2_mixed(rho, cfg).value):
            worst_rel = max(worst_rel, abs(value - conc) / conc)
            worst_below = max(worst_below, neg - value)
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 0.02 and worst_below <= 1e-6 and elapsed < 300.0
    assert verdict(ok, "5", f"worst relative gap {worst_rel:.2%} (tol 2%), "
                            f"max below negativity {worst_below:.2e} (tol 1e-6), "
                            f"50 states in {elapsed:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# criterion 6: rank-band law


def test_criterion_6_rank_band_law():
    rng = np.random.default_rng(606)
    violations = 0
    checked = 0
    for d in (3, 4, 5):
        hi = math.sqrt(d / (2.0 * (d - 1.0)))
        for _ in range(500):
            lam = te.random_spectrum(d, rng, rank=2)
            if lam[1] < 1e-9:
                lam = np.array([0.7, 0.3] + [0.0] * (d - 2))
            s = te.SchmidtSpectrum(lambdas=lam)
            v = te.e_d2(s, d)
            checked += 1
            if not (0.0 < v <= hi + 1e-12):
                violations += 1
        for _ in range(500):
            lam = te.random_spectrum(d, rng, rank=3)
            s = te.SchmidtSpectrum(lambdas=lam)
            fid = te.fidelity_from_fraction(te.singlet_fraction_pure(s, d), d)
            floor = te.rank3_fidelity_lower_bound(te.e_d3(s, d), d)
            checked += 1
            if not (floor <= fid + 1e-10 and fid <= 1.0 + 1e-12):
                violations += 1
    ok = violations == 0
    assert verdict(ok, "6", f"{violations} violations over {checked} states "
                            f"(rank-2 band and rank-3 fidelity floor, d in 3..5)")


# ---------------------------------------------------------------------------
# criteria 7 and 8: dynamics runs (shared fixtures)


@pytest.fixture(scope="module")
def figure_runs():
    runs = {
        "dissipative vacuum": dyn.DynamicsConfig(
            model=dyn.ModelKind.DISSIPATIVE,
            bath=dyn.BathParams(temperature=0.0, squeeze_r=0.0, r12=0.05),
            gamma0=0.2, t_max=5.0, dt=5e-4, max_steps=20000),
        "dissipative thermal": dyn.DynamicsConfig(
            model=dyn.ModelKind.DISSIPATIVE,
            bath=dyn.BathParams(temperature=1.0, squeeze_r=0.1, r12=0.05),
            gamma0=0.2, t_max=5.0, dt=5e-4, max_steps=20000),
        "qnd collective": dyn.DynamicsConfig(
            model=dyn.ModelKind.QND,
            bath=dyn.BathParams(temperature=5.0, squeeze_r=0.1, r12=0.05),
            gamma0=0.2, t_max=5.0, dt=1e-3, max_steps=20000),
        "qnd independent": dyn.DynamicsConfig(
            model=dyn.ModelKind.QND,
            bath=dyn.BathParams(temperature=5.0, squeeze_r=0.1, r12=1.1),
            gamma0=0.2, t_max=5.0, dt=1e-3, max_steps=20000),
    }
    return {name: (cfg, dyn.evolve(cfg)) for name, cfg in runs.items()}


@pytest.fixture(scope="module")
def esd_sweep():
    cfg = dyn.DynamicsConfig(
        model=dyn.ModelKind.DISSIPATIVE,
        bath=dyn.BathParams(temperature=1.0, squeeze_r=0.1, r12=1.0),
        gamma0=1.0, t_max=1.0, dt=2e-3, max_steps=4096,
        initial=dyn.antisymmetric_initial_state())
    grid = np.linspace(0.3, 3.0, 28)
    return grid, dyn.sweep(cfg, "r12", grid)


@pytest.fixture(scope="module")
def squeeze_sweep():
    cfg = dyn.DynamicsConfig(
        model=dyn.ModelKind.QND,
        bath=dyn.BathParams(temperature=5.0, squeeze_r=0.0, r12=0.05),
        gamma0=0.2, t_max=2.0, dt=1e-3, max_steps=4096)
    grid = np.linspace(-0.05, 0.05, 41)
    return grid, dyn.sweep(cfg, "squeeze_r", grid)


def test_criterion_7_dynamics_conservation(figure_runs):
    t0 = time.monotonic()
    worst_trace = 0.0
    worst_eig = 0.0
    worst_dc = 0.0
    for name, (cfg, traj) in figure_runs.items():
        worst_trace = max(worst_trace, float(traj.trace_err.max()))
        worst_eig = min(worst_eig, float(traj.min_eig.min()))
        worst_dc = max(worst_dc, dyn.step_doubling_check(cfg))
    elapsed = time.monotonic() - t0
    ok = worst_trace <= 1e-8 and worst_eig >= -1e-6 and worst_dc < 1e-6
    assert verdict(ok, "7", f"trace err {worst_trace:.2e} (tol 1e-8), "
                            f"min eig {worst_eig:.2e} (floor -1e-6), "
                            f"dt-halving dC {worst_dc:.2e} (tol 1e-6), "
                            f"4 figure runs, {elapsed:.0f}s")


def test_criterion_8a_dead_entanglement_is_classical(figure_runs, esd_sweep,
                                                     squeeze_sweep):
    worst_f = 0.0
    points = 0
    for _, traj in figure_runs.values():
        mask = traj.concurrence < 1e-6
        points += int(mask.sum())
        if mask.any():
            worst_f = max(worst_f, float(traj.fraction[mask].max()))
    for _, res in (esd_sweep, squeeze_sweep):
        for row in res.rows:
            if row[1] < 1e-6:
                points += 1
                worst_f = max(worst_f, row[2])
    ok = worst_f <= 0.5 + 1e-6
    assert verdict(ok, "8a", f"max fraction over {points} entanglement-dead points "
                             f"= {worst_f:.6f} (limit 0.5 + 1e-6)")


def test_criterion_8b_separation_sudden_death(esd_sweep):
    grid, res = esd_sweep
    conc = np.array([row[1] for row in res.rows])
    positive = np.nonzero(conc > 0.0)[0]
    ok = (len(positive) >= 1
          and positive[-1] + 1 < len(grid)           # a zero tail exists
          and bool(np.all(conc[positive[-1] + 1:] == 0.0)))
    r_d = grid[positive[-1]] if len(positive) else float("nan")
    assert verdict(ok, "8b", f"last entangled point r12={r_d:.2f}, "
                             f"{len(grid) - len(positive)} grid points beyond are "
                             f"exactly zero (grid 0.3..3.0)")


def test_criterion_8c_squeezing_flat_then_decreasing(squeeze_sweep):
    grid, res = squeeze_sweep
    conc = np.array([row[1] for row in res.rows])
    inner = np.abs(grid) <= 0.02 + 1e-12
    mean_inner = float(conc[inner].mean())
    spread = float(conc[inner].max() - conc[inner].min())
    center = len(grid) // 2
    left, right = conc[:center + 1], conc[center:]
    decreasing_outward = (bool(np.all(np.diff(left) >= -1e-12))
                          and bool(np.all(np.diff(right) <= 1e-12)))
    ok = spread < 0.10 * mean_inner and decreasing_outward
    assert verdict(ok, "8c", f"inner spread {spread:.2e} vs 10% of mean "
                             f"{0.1 * mean_inner:.2e}; decreasing outside: "
                             f"{decreasing_outward}")


def test_criterion_8d_collective_dephasing_preserves_entanglement(figure_runs):
    _, coll = figure_runs["qnd collective"]
    _, indep = figure_runs["qnd independent"]
    area_coll = float(np.trapezoid(coll.concurrence, coll.t))
    area_indep = float(np.trapezoid(indep.concurrence, indep.t))
    ratio = area_coll / area_indep
    ok = ratio >= 1.5
    assert verdict(ok, "8d", f"integrated C collective/independent = {ratio:.2f} "
                             f"(required >= 1.5)")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(tmp_path, capsys):
    reports = []
    for _ in range(2):
        code = cli_main(["qutrit-example", "--p", "0.3", "--restarts", "4",
                         "--seed", "909"])
        assert code == 0
        reports.append(capsys.readouterr().out)
    csvs = []
    for k in range(2):
        path = str(tmp_path / f"det{k}.csv")
        code = cli_main(["dynamics", "--model", "qnd", "--T", "3", "--r12", "0.3",
                         "--t-max", "0.2", "--dt", "2e-3",
                         "--sweep", "squeeze_r=-0.05:0.05:7", "--out", path])
        assert code == 0
        capsys.readouterr()
        with open(path, "rb") as fh:
            csvs.append(fh.read())
    ok = reports[0] == reports[1] and csvs[0] == csvs[1] and len(csvs[0]) > 0
    assert verdict(ok, "9", f"report bytes {len(reports[0])} and CSV bytes "
                            f"{len(csvs[0])} identical across repeated seeded runs")
