"""CLI subcommands, state-file round trips, exit codes, determinism."""

import io
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from teleport_ent import (DensityMatrix, PureBipartiteState, random_density_matrix,
                          random_pure_state)
from teleport_ent import __version__, stateio
from teleport_ent.cli import MAX_RESTARTS, build_parser, main
from teleport_ent.errors import StateParseError

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_file_round_trip_pure(tmp_path):
    amp = np.zeros((3, 3), dtype=complex)
    amp[0, 0] = amp[1, 1] = 1 / math.sqrt(2)
    st = PureBipartiteState(d=3, amp=amp)
    path = str(tmp_path / "pure.txt")
    stateio.write_state_file(path, st, comment="round trip probe")
    back = stateio.read_state_file(path)
    assert isinstance(back, PureBipartiteState)
    assert np.abs(back.amp - st.amp).max() < 1e-15


def test_state_file_round_trip_dm(tmp_path):
    rho = random_density_matrix(2, np.random.default_rng(71))
    path = str(tmp_path / "rho.txt")
    stateio.write_state_file(path, rho)
    back = stateio.read_state_file(path)
    assert isinstance(back, DensityMatrix)
    assert np.abs(back.mat - rho.mat).max() < 1e-15


def test_parse_rejects_malformed():
    with pytest.raises(StateParseError):
        stateio.parse_state_text("pure 2\n1 0 0 0 0 0")  # wrong count
    with pytest.raises(StateParseError):
        stateio.parse_state_text("blob 2\n1 0 0 0 0 0 0 0")
    with pytest.raises(StateParseError):
        stateio.parse_state_text("pure 2\n2 0 0 0 0 0 0 0")  # not normalized


def test_analyze_pure_exit_and_output(tmp_path, capsys):
    amp = np.zeros((2, 2), dtype=complex)
    amp[0, 0] = amp[1, 1] = 1 / math.sqrt(2)
    path = str(tmp_path / "bell.txt")
    stateio.write_state_file(path, PureBipartiteState(d=2, amp=amp))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "schmidt_rank" in out and "= 2" in out
    assert "negativity" in out
    assert "1.000000000000" in out  # maximally entangled


def test_analyze_rank1_dm_prints_the_pure_report(tmp_path, capsys):
    # the band law alone would put this rank-3 state's e_d2 = 0.799 in rank 2
    st = PureBipartiteState(d=3, amp=np.diag(np.sqrt([0.7, 0.29, 0.01])).astype(complex))
    reports = []
    for name, obj in (("pure.txt", st), ("dm.txt", DensityMatrix.from_pure(st))):
        stateio.write_state_file(str(tmp_path / name), obj)
        code, out, _ = run(capsys, "analyze", str(tmp_path / name))
        assert code == 0
        reports.append([ln for ln in out.splitlines()[1:]
                        if not ln.startswith("largest_schmidt_coeff")])
    assert reports[0] == reports[1]
    assert "rank_class               = rank3_useful" in reports[1]


def test_analyze_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.txt")
    assert code == 2
    assert "input error" in err


# the CSV or state file in a missing directory, or its manifest blocked by a
# directory of that name after the file itself was written
@pytest.mark.parametrize("argv", [("dynamics", "--t-max", "0.01"), ("random", "dm", "--d", "2")])
@pytest.mark.parametrize("name,blocker", [("missing/out", None),
                                          ("out", "out.manifest.json")])
def test_unwritable_out_path_exit_2(tmp_path, capsys, argv, name, blocker):
    if blocker:
        (tmp_path / blocker).mkdir()
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / name))
    assert code == 2 and out == ""
    assert err.startswith("input error: cannot write ") and err.count("\n") == 1


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "3")
    assert code == 0
    assert "0.866025403784" in out
    assert "classical_fidelity_limit" in out and "0.500000000000" in out


def test_qutrit_example_reports_chain_and_search(capsys):
    code, out, _ = run(capsys, "qutrit-example", "--p", "0.5",
                       "--restarts", "3", "--seed", "5")
    assert code == 0
    assert "closed_form_e32" in out
    assert "0.692820323028" in out  # 0.4 sqrt(3), rounded at 12 places
    assert "searched_e32" in out


def test_qutrit_example_search_reaches_product_member_optimum(capsys):
    # the optimal ensemble at p = 0.25 has a product member; e_32 there is
    # sqrt(2/3), and a rounding-limited member formula stopped 8.6e-10 above it
    code, out, _ = run(capsys, "qutrit-example", "--p", "0.25")
    assert code == 0
    searched = float(out.split("searched_e32")[1].split("=")[1].split()[0])
    assert searched <= math.sqrt(2.0 / 3.0) + 5e-10


def test_qutrit_example_bad_p_exit_3(capsys):
    code, _, err = run(capsys, "qutrit-example", "--p", "0.9")
    assert code == 3
    assert "invariant" in err


def test_random_then_analyze_round_trip(tmp_path, capsys):
    path = str(tmp_path / "r.txt")
    code, _, _ = run(capsys, "random", "dm", "--d", "2", "--seed", "9",
                     "--out", path)
    assert code == 0
    code2, out, _ = run(capsys, "analyze", path, "--restarts", "2")
    assert code2 == 0
    assert "singlet_fraction" in out


def test_dynamics_csv_format(tmp_path, capsys):
    out_path = str(tmp_path / "traj.csv")
    code, _, _ = run(capsys, "dynamics", "--r12", "0.5", "--t-max", "0.05",
                     "--dt", "1e-3", "--out", out_path)
    assert code == 0
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "axis,C,f,F,trace_err,min_eig"
    assert len(lines) == 52  # header + 51 steps
    assert os.path.exists(out_path + ".manifest.json")


def _csv_per_float(rows):
    """Per-float CSV formatting, the reference for format_csv's bytes."""
    lines = [stateio.CSV_HEADER] + [",".join(f"{x:.12g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_dynamics_csv_bytes_match_per_float_formatting(tmp_path, capsys):
    from teleport_ent import BathParams, DynamicsConfig, evolve, sweep

    traj = evolve(DynamicsConfig(bath=BathParams(temperature=0.5, r12=0.5),
                                 t_max=2.0, dt=1e-3))
    expect = _csv_per_float(traj.row(k) for k in range(len(traj)))
    path = str(tmp_path / "traj.csv")
    code, _, _ = run(capsys, "dynamics", "--T", "0.5", "--r12", "0.5", "--t-max", "2",
                     "--dt", "1e-3", "--out", path)
    assert code == 0
    with open(path, "rb") as fh:
        assert fh.read() == expect.encode()

    rows = sweep(DynamicsConfig(t_max=1.0), "r12", np.linspace(0.1, 2.0, 7)).rows
    path = str(tmp_path / "sweep.csv")
    code, _, _ = run(capsys, "dynamics", "--t-max", "1", "--sweep", "r12=0.1:2:7",
                     "--out", path)
    assert code == 0
    with open(path, "rb") as fh:
        assert fh.read() == _csv_per_float(rows).encode()

    special = [(0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324),
               (1e16, 123456789012.5, -1e-300, 0.1, 2.0 / 3.0, 1.0)]
    assert stateio.CSV_HEADER + "\n" + stateio.format_csv(special) == _csv_per_float(special)
    assert stateio.format_csv(()) == ""

    # tables on either side of the writer's block seams, through --out and stdout
    b = stateio.CSV_BLOCK_ROWS
    for n in (1, b - 1, b, b + 1, 2 * b + 1):
        expect = _csv_per_float(sweep(DynamicsConfig(t_max=1.0), "time",
                                      np.linspace(0.0, 1.0, n)).rows)
        path = tmp_path / f"seam{n}.csv"
        argv = ("dynamics", "--t-max", "1", "--sweep", f"time=0:1:{n}")
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == expect.encode()
        assert run(capsys, *argv)[:2] == (0, expect)
    # no CLI run writes an empty table (a grid has a point): the header alone
    sink = io.StringIO()
    stateio.write_csv(sink, np.zeros((6, 0)))
    assert sink.getvalue() == _csv_per_float(())


def test_csv_writer_memory_stays_flat():
    # For this 200000-row table the whole-text formatter peaked at 72.8 MB
    # under tracemalloc, 16.6 MB of it the text itself and the rest its
    # floats, tuple and format string.  Block by block, the peak is the text
    # that StringIO keeps plus 0.3 MB; the bound allows 4 MB above the text.
    rng = np.random.default_rng(1900)
    columns = (np.arange(200_000) * 1e-3, *rng.standard_normal((5, 200_000)))
    sink = io.StringIO()
    tracemalloc.start()
    try:
        stateio.write_csv(sink, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines, size = sink.getvalue().count("\n"), sink.tell()
    assert lines == 200_001
    assert peak < size + 4_000_000


def test_dynamics_non_x_state_file(tmp_path, capsys):
    """A start with entries off the diagonal and anti-diagonal runs the
    LAPACK diagnostics; the CSV is the library trajectory's rows."""
    from teleport_ent import BathParams, DynamicsConfig, evolve

    state = str(tmp_path / "rho.txt")
    assert run(capsys, "random", "dm", "--d", "2", "--seed", "1800", "--out", state)[0] == 0
    rho = stateio.read_state_file(state)
    assert np.abs(rho.mat[0, 1]) > 0.0
    traj = evolve(DynamicsConfig(bath=BathParams(temperature=1.0, r12=0.5), t_max=0.05,
                                 initial=rho))
    path = str(tmp_path / "traj.csv")
    code, _, _ = run(capsys, "dynamics", "--T", "1", "--r12", "0.5", "--t-max", "0.05",
                     "--state", state, "--out", path)
    assert code == 0
    with open(path, "rb") as fh:
        assert fh.read() == _csv_per_float(traj.row(k) for k in range(len(traj))).encode()


def test_dynamics_pure_state_file_runs_as_its_density_matrix(tmp_path, capsys):
    st = random_pure_state(2, np.random.default_rng(1801))
    csvs = []
    for kind, obj in (("pure", st), ("dm", DensityMatrix.from_pure(st))):
        state, path = str(tmp_path / f"{kind}.txt"), str(tmp_path / f"{kind}.csv")
        stateio.write_state_file(state, obj)
        code, _, _ = run(capsys, "dynamics", "--T", "1", "--r12", "0.5", "--t-max", "0.05",
                         "--state", state, "--out", path)
        assert code == 0
        csvs.append(Path(path).read_bytes())
    assert csvs[0] == csvs[1]


def test_dynamics_state_file_needs_two_qubits(tmp_path, capsys):
    state = str(tmp_path / "rho.txt")
    stateio.write_state_file(state, random_density_matrix(3, np.random.default_rng(1802)))
    code, out, err = run(capsys, "dynamics", "--t-max", "0.05", "--state", state)
    assert code == 2 and out == ""
    assert "need d=2" in err


def test_dynamics_sweep_grid_parse_error(capsys):
    code, _, err = run(capsys, "dynamics", "--sweep", "r12=bad-grid")
    assert code == 2
    code, _, err = run(capsys, "dynamics", "--sweep", "r12:0:1:5")
    assert code == 2


def test_dynamics_unknown_sweep_axis_exit_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    code, out, err = run(capsys, "dynamics", "--t-max", "0.01", "--sweep", "volume=0:1:3",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "unknown sweep axis 'volume'" in err
    assert not path.exists()


# well-formed specs whose values the model rejects stay invariant failures
@pytest.mark.parametrize("argv", [
    ("--sweep", "r12=-1:1:3"),
    ("--sweep", "time=0:5:3", "--t-max", "1"),
])
def test_dynamics_out_of_range_sweep_exit_3(tmp_path, capsys, argv):
    path = tmp_path / "d.csv"
    code, out, err = run(capsys, "dynamics", "--t-max", "0.01", *argv, "--out", str(path))
    assert code == 3 and out == ""
    assert "invariant violated" in err
    assert not path.exists()


@pytest.mark.parametrize("spec,message", [
    ("r12=0:1:x", "grid '0:1:x' must look like LO:HI:N"),
    ("r12=0:1:0", "grid point count must be at least 1"),
])
def test_dynamics_malformed_sweep_grid_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "dynamics", "--t-max", "0.01", "--sweep", spec)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


# well-formed values the model rejects
@pytest.mark.parametrize("argv,message", [
    (("--gamma0", "0"), "gamma0 must be positive"),
    (("--gamma0", "-1"), "gamma0 must be positive"),
    (("--t-max", "0"), "t_max must be positive"),
    (("--dt", "0"), "dt must be positive"),
    (("--T", "-1"), "bath temperature must be nonnegative"),
])
def test_dynamics_rejected_parameter_exit_3(capsys, argv, message):
    code, out, err = run(capsys, "dynamics", *argv)
    assert (code, out, err) == (3, "", f"invariant violated: {message}\n")


def test_determinism_of_cli_outputs(tmp_path, capsys):
    # same seed, same bytes, for both a report and a CSV
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "qutrit-example", "--p", "0.3",
                           "--restarts", "3", "--seed", "17")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    csvs = []
    for k in range(2):
        path = str(tmp_path / f"s{k}.csv")
        code, _, _ = run(capsys, "dynamics", "--model", "qnd", "--T", "2.0",
                         "--r12", "0.4", "--t-max", "0.1", "--dt", "2e-3",
                         "--sweep", "squeeze_r=0:0.1:5", "--out", path)
        assert code == 0
        with open(path, "rb") as fh:
            csvs.append(fh.read())
    assert csvs[0] == csvs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# steps far outside RK4's stability region must abort cleanly with exit 3
@pytest.mark.parametrize("argv", [
    ("--r12", "0.05", "--dt", "0.05", "--t-max", "5"),
    ("--r12", "0.05", "--dt", "5e-3", "--t-max", "50", "--max-steps", "20000"),
    ("--r12", "0.05", "--dt", "0.05", "--t-max", "5", "--sweep", "r12=0.05:1:3"),
    ("--r12", "1", "--dt", "0.05", "--t-max", "5", "--sweep", "r12=1:0.05:2"),
])
def test_dynamics_unstable_step_exit_3(capsys, argv):
    code, out, err = run(capsys, "dynamics", *argv)
    assert code == 3
    assert "lost positivity" in err
    assert out == ""


def test_dynamics_diverged_step_message(capsys):
    code, out, err = run(capsys, "dynamics", "--r12", "0.05", "--dt", "0.05")
    assert code == 3 and out == ""
    assert err == ("invariant violated: state lost positivity at t=0.1 "
                   "(diverged, largest |entry| 8.000e+00)\n")


@pytest.mark.parametrize("flag", ["--T", "--r", "--phi", "--r12", "--gamma0",
                                  "--t-max", "--dt"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dynamics_non_finite_input_exit_2(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--max-steps", "20000", f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and flag in err


@pytest.mark.parametrize("argv", [
    ("--r", "50"), ("--r", "1000"), ("--T", "1e-3"), ("--T", "1e300"),
    ("--r12", "1e-300"), ("--gamma0", "1e308"), ("--T", "0"),
    ("--sweep", "r12=nan:1:3"),
])
def test_dynamics_extreme_input_exits_cleanly(capsys, argv):
    code, _, _ = run(capsys, "dynamics", "--max-steps", "20000", "--t-max", "0.5", *argv)
    assert code in (0, 2, 3)


def _module_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(cwd, *argv):
    """`python -m teleport_ent argv` in a fresh interpreter that imports this checkout."""
    return subprocess.run([sys.executable, "-m", "teleport_ent", *argv], capture_output=True,
                          text=True, env=_module_env(), cwd=str(cwd), timeout=120)


def test_python_dash_m_entry_point(tmp_path):
    done = run_module(tmp_path, "dynamics", "--r12", "0.5", "--t-max", "0.01", "--dt", "1e-3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "axis,C,f,F,trace_err,min_eig"
    assert len(lines) == 12


def test_reader_closing_stdout_early_exits_0(tmp_path):
    # 60000 rows are megabytes, far past a pipe's buffer, so the writer is
    # still writing blocks when the reader closes after the header (`| head -1`)
    with subprocess.Popen([sys.executable, "-m", "teleport_ent", "dynamics", "--model", "qnd",
                           "--t-max", "60", "--max-steps", "60000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
                          cwd=str(tmp_path)) as proc:
        assert proc.stdout.readline() == b"axis,C,f,F,trace_err,min_eig\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 0 and "Traceback" not in err, err


def test_python_dash_m_version(tmp_path):
    done = run_module(tmp_path, "--version")
    assert (done.returncode, done.stdout) == (0, f"teleport-ent {__version__}\n")


@pytest.mark.parametrize("argv,code", [
    (("bounds", "--d", "3"), 0), (("analyze", "/no/such/file.txt"), 2), (("bounds",), 2),
])
def test_entry_exits_with_the_status_of_main(monkeypatch, capsys, argv, code):
    # run in this process, through __main__, so both entry lines are traced
    monkeypatch.setattr(sys, "argv", ["teleport-ent", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("teleport_ent", run_name="__main__")
    assert exc.value.code == code


def test_dynamics_defaults_run_to_t_max(capsys):
    code, out, _ = run(capsys, "dynamics")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5002  # header + t = 0 .. 5 at the default dt 1e-3
    assert float(lines[-1].split(",")[0]) == pytest.approx(5.0)


@pytest.mark.parametrize("command", [("analyze", "state.txt"),
                                     ("qutrit-example", "--p", "0.3")])
@pytest.mark.parametrize("value", ["0", "-1", "-8"])
def test_restarts_below_one_exit_2(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--restarts={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "--restarts" in err


@pytest.mark.parametrize("value", ["1", "0", "-5"])
def test_bounds_dimension_below_two_exit_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", f"--d={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 2" in err and "--d" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_dynamics_max_steps_below_one_exit_2(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", f"--max-steps={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "--max-steps" in err


def _exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ("analyze", "f.dm", "--seed", "-1"),
    ("qutrit-example", "--p", "0.2", "--seed", "-2"),
    ("random", "dm", "--d", "2", "--seed", "-5"),
])
def test_negative_seed_exit_2(capsys, argv):
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "must be at least 0" in err and "--seed" in err


@pytest.mark.parametrize("kind", ["pure", "dm"])
@pytest.mark.parametrize("value", ["1", "0", "-1"])
def test_random_dimension_below_two_exit_2(tmp_path, capsys, kind, value):
    path = tmp_path / "r.txt"
    assert _exit_code(["random", kind, f"--d={value}", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be at least 2" in err and "--d" in err
    assert not path.exists()


@pytest.mark.parametrize("kind", ["pure", "dm"])
def test_random_rank_below_one_exit_2(capsys, kind):
    assert _exit_code(["random", kind, "--d", "3", "--rank", "0"]) == 2
    err = capsys.readouterr().err
    assert "must be at least 1" in err and "--rank" in err


def _dm_text(mat) -> str:
    rows = [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in np.asarray(mat)]
    return "dm 2\n" + "\n".join(rows) + "\n"


_HALF = np.eye(4, dtype=complex) / 4
_NON_HERMITIAN = _HALF.copy()
_NON_HERMITIAN[0, 1] = 0.1
# finite entries whose trace, or difference from the adjoint, overflows
_HUGE_OFF_DIAGONAL = _HALF.copy()
_HUGE_OFF_DIAGONAL[0, 1], _HUGE_OFF_DIAGONAL[1, 0] = 1e308, -1e308

# each invalid file is stopped by the state types' own checks
_INVALID_STATES = pytest.mark.parametrize("text", [
    _dm_text(_HALF).replace("0.25", "nan", 1),
    _dm_text(_HALF).replace("0.25", "inf", 1),
    _dm_text(_NON_HERMITIAN),
    _dm_text(np.diag([0.6, 0.25, 0.25, -0.1])),
    "pure 2\n1 0 0 0 0 0 1 0\n",
    _dm_text(np.diag([1e308, 1e308, 0.0, 0.0])),
    _dm_text(_HUGE_OFF_DIAGONAL),
], ids=["nan", "inf", "non_hermitian", "negative_eigenvalue", "unnormalized_pure",
        "huge_diagonal", "huge_off_diagonal"])


def run_warning_free(capsys, *argv):
    """run's result; fails if the call issued any warning, which the test
    settings would otherwise turn into the exception the CLI reports."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return result


@_INVALID_STATES
def test_analyze_invalid_state_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_warning_free(capsys, "analyze", str(path))
    assert code == 2
    assert "state fails validation" in err and out == ""


@_INVALID_STATES
def test_dynamics_invalid_state_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_warning_free(capsys, "dynamics", "--t-max", "0.01", "--state", str(path))
    assert code == 2
    assert "state fails validation" in err and out == ""


def _run_with_and_without_seed_env(capsys, monkeypatch, raw, argv):
    """run's result, the same with TELEPORT_ENT_SEED unset and set to raw;
    the manifest's wall time is left out of stderr."""
    def observe():
        code, out, err = run(capsys, *argv)
        return code, out, [ln for ln in err.splitlines() if "wall_time_s" not in ln]
    monkeypatch.delenv("TELEPORT_ENT_SEED", raising=False)
    want = observe()
    monkeypatch.setenv("TELEPORT_ENT_SEED", raw)
    assert observe() == want
    return want


@pytest.mark.parametrize("text,message", [
    ("", "missing header; expected 'pure d' or 'dm d'"),
    ("dm x\n", "dimension 'x' is not an integer"),
    ("dm 1\n", "dimension must be at least 2, got 1"),
    ("pure 2\n1 0 0 0 0 0 0 x\n", "bad numeric token: could not convert string to float: 'x'"),
], ids=["empty", "dm_x", "dm_1", "non_numeric"])
def test_analyze_malformed_state_file_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_report_prints_none_as_unavailable():
    # a full-rank d = 4 analyze prints only such values
    assert stateio.format_report([("d", 4), ("e_d2", None)]) == "d    = 4\ne_d2 = unavailable\n"


# the seed has one way in, --seed: the environment variable is no setting
@pytest.mark.parametrize("raw", ["abc", "-3"])
@pytest.mark.parametrize("argv", [
    ("bounds", "--d", "3"),
    ("dynamics", "--t-max", "0.01", "--dt", "1e-3"),
])
def test_seedless_commands_ignore_seed_env_var(capsys, monkeypatch, raw, argv):
    code, out, _ = _run_with_and_without_seed_env(capsys, monkeypatch, raw, argv)
    assert code == 0 and out


@pytest.mark.parametrize("raw", ["abc", "-3"])
@pytest.mark.parametrize("argv", [
    ("analyze", "STATE"),
    ("qutrit-example", "--p", "0.3"),
    ("random", "pure", "--d", "2"),
], ids=["analyze", "qutrit-example", "random"])
def test_seeded_commands_ignore_seed_env_var(tmp_path, capsys, monkeypatch, raw, argv):
    state = str(tmp_path / "rho.txt")
    stateio.write_state_file(state, random_density_matrix(2, np.random.default_rng(1803)))
    argv = [state if arg == "STATE" else arg for arg in argv]
    code, out, _ = _run_with_and_without_seed_env(capsys, monkeypatch, raw, argv)
    assert code == 0 and out
    if argv[0] == "random":
        assert "seed=1729" in out


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # the searches keep their seeded starts for the process; an argparse exit
    # or an input error between two runs of a command must not change what
    # the command prints
    state = str(tmp_path / "rho.txt")
    stateio.write_state_file(state, random_density_matrix(2, np.random.default_rng(1804)))
    bad = tmp_path / "bad.txt"
    bad.write_text("dm x\n", encoding="utf-8")
    commands = [
        ("analyze", state),
        ("bounds", "--d", "3"),
        ("dynamics", "--t-max", "0.01", "--dt", "1e-3"),
        ("qutrit-example", "--p", "0.3"),
        ("random", "dm", "--d", "2", "--seed", "5"),
    ]
    argparse_errors = [
        ("analyze", state, "--restarts", "0"),
        ("bounds",),
        ("dynamics", "--model", "nope"),
        ("qutrit-example", "--p", "0.3", "--bogus"),
        ("random", "mixed", "--d", "2"),
    ]

    def observe(argv):
        code = _exit_code(argv)
        captured = capsys.readouterr()
        return code, captured.out, [ln for ln in captured.err.splitlines()
                                    if "wall_time_s" not in ln]

    sequence = []
    for good, wrong in zip(commands, argparse_errors):
        sequence += [good, wrong, ("analyze", str(bad))]
    first = [observe(argv) for argv in sequence]
    assert [code for code, _, _ in first] == [0, 2, 2] * len(commands)
    assert all(out for code, out, _ in first if code == 0)
    assert [observe(argv) for argv in sequence] == first


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("nope",), ("--version",),
    ("analyze", "--help"), ("bounds", "--help"), ("dynamics", "--help"),
    ("qutrit-example", "--help"), ("random", "--help"),
    ("analyze", "f.dm", "--seed", "3"), ("analyze", "random"), ("analyze",),
    ("bounds", "--d", "2", "--bogus"), ("bounds", "--seed", "1"),
    ("dynamics", "--T", "0.5", "--sweep", "r12=0.1:1:3", "--out", "x.csv"),
    ("dynamics", "--model", "nope"), ("qutrit-example", "--p", "0.3", "--restarts", "4"),
    ("random", "dm", "--d", "3", "--rank", "2"), ("random", "analyze", "--d", "2"),
], ids=lambda argv: " ".join(argv) or "empty")
def test_parser_for_argv_parses_as_the_full_parser(argv, capsys):
    # main gives only the subcommands named in argv their arguments; what it
    # parses, prints or rejects must be what the parser with all of them gives
    def outcome(parser):
        try:
            result = vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err
    assert outcome(build_parser(list(argv))) == outcome(build_parser())


@pytest.mark.parametrize("kind", ["pure", "dm"])
@pytest.mark.parametrize("value", ["300", "100000"])
def test_random_dimension_above_ceiling_exit_2(tmp_path, capsys, kind, value):
    path = tmp_path / "r.txt"
    assert _exit_code(["random", kind, f"--d={value}", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be at most 32" in err and "--d" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("--t-max", "1e9", "--dt", "1", "--max-steps", "1000000000"),
    ("--max-steps", "200001"),
    ("--sweep", "r12=0.1:2:1000000000", "--t-max", "0.01"),
    ("--sweep", "time=0:1:100000000", "--t-max", "1"),
    ("--sweep", "squeeze_r=0:1:10001"),
])
def test_dynamics_above_ceiling_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "d.csv"
    assert _exit_code(["dynamics", *argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be at most" in err and "Traceback" not in err
    assert not path.exists()


def test_dynamics_ceilings_are_accepted(tmp_path, capsys):
    path = tmp_path / "d.csv"
    for argv in (("--max-steps", "200000"), ("--sweep", "time=0:0.01:10000")):
        assert _exit_code(["dynamics", "--t-max", "0.01", *argv, "--out", str(path)]) == 0
    assert path.read_text().count("\n") == 10001


def test_dynamics_has_no_jobs_option(capsys):
    assert _exit_code(["dynamics", "--t-max", "0.01", "--jobs", "1"]) == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("kind,d,rank", [("pure", 3, 4), ("dm", 2, 5), ("dm", 3, 10)])
def test_random_rank_above_dimension_exit_2(tmp_path, capsys, kind, d, rank):
    path = tmp_path / "r.txt"
    argv = ["random", kind, "--d", str(d), "--rank", str(rank), "--out", str(path)]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"at most {rank - 1}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [("analyze", "state.txt"),
                                     ("qutrit-example", "--p", "0.3")])
def test_restarts_above_ceiling_exit_2(capsys, command):
    assert _exit_code([*command, f"--restarts={MAX_RESTARTS + 1}"]) == 2
    err = capsys.readouterr().err
    assert f"must be at most {MAX_RESTARTS}" in err and "--restarts" in err


@pytest.mark.parametrize("name,argv", [
    ("dynamics_dissipative_t0.05",
     ("--model", "dissipative", "--T", "0.5", "--r", "0.3", "--phi", "0.2", "--r12", "0.5")),
    ("dynamics_qnd_t0.05", ("--model", "qnd", "--T", "1.0", "--r", "0.2")),
    ("dynamics_sweep_r12_t0.05",
     ("--model", "dissipative", "--T", "0.5", "--r", "0.3", "--sweep", "r12=0.1:1:5")),
])
def test_dynamics_csv_matches_golden_bytes(tmp_path, name, argv):
    path = tmp_path / "d.csv"
    assert main(["dynamics", *argv, "--t-max", "0.05", "--out", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
