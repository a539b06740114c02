"""The three workloads: seeded inputs, the ops that use them, and their checks.

A workload is a fixed list of ops (one "cycle") of 9-12 s on a 2-core
reference VM, so a 33 s run repeats it three or four times.  An op is one
CLI invocation through ``teleport_ent.cli.main(argv)`` or one library
query.  Inputs come only from the workload seed and ``PANEL_SEED``, and
the package sees only the files written here and the argv.  Every op has
a checker that compares its output with references from ``reference.py``
(and, for the roof values of the analyze panel, with ``panel_roof.json``)
and returns a list of problems.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

# The timed ops run on a fixed panel of states drawn from this seed; the run
# seed orders the panel and draws the untimed "fresh" inputs (see README).
PANEL_SEED = 4200

# criterion tolerances
FEF_TOL = 1e-9
FRACTION_TOL = 1e-6    # criterion 4: a searched singlet fraction vs its oracle
ROOF_CEIL_TOL = 1e-6   # criterion 2: a searched roof value vs its upper bound
ROOF_REL_TOL = 0.02
ROOF_MIN_C = 0.05
NEG_FLOOR_TOL = 1e-6
LAMBDA_TOL = 1e-12
UNITARY_TOL = 1e-8
DYN_TRACE_TOL = 1e-8
DYN_EIG_FLOOR = -1e-6
DYN_ENDPOINT_TOL = 1e-6


@dataclass
class Outcome:
    code: int
    payload: bytes              # stdout, CSV bytes or packed library results
    data: object = None         # parsed library results

    def digest(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome, "Op"], list]
    ref: dict = field(default_factory=dict)
    make_ref: Callable[[], dict] | None = None

    def prepare(self) -> None:
        if self.make_ref is not None and not self.ref:
            self.ref = self.make_ref()


@dataclass
class Workload:
    ops: list        # one timed cycle
    warm: Op         # untimed warm-up, part of set-up
    fresh: list      # ops on inputs drawn from the run seed, checked but not timed


def _seeded_order(ops: list, seed: int) -> list:
    return [ops[i] for i in np.random.default_rng([seed, 0]).permutation(len(ops))]


def cli_op(te_cli, argv: list[str], out_path: str | None = None) -> Callable[[], Outcome]:
    def run() -> Outcome:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = te_cli.main(list(argv))
        if out_path is not None and code == 0:
            with open(out_path, "rb") as fh:
                return Outcome(code, fh.read())
        return Outcome(code, buf.getvalue().encode())
    return run


def write_dm(path: str, mat: np.ndarray, d: int, comment: str) -> None:
    """State file in the package's documented text format."""
    lines = [f"# {comment}", f"dm {d}"]
    for row in mat:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _num(report: dict, key: str) -> float:
    value = report.get(key)
    if value is None or value == "unavailable":
        raise ValueError(f"{key} missing from report")
    return float(value)


def _checked(fn):
    """Turn a parse error into a reported problem rather than a crash."""
    def check(outcome: Outcome, op: Op) -> list:
        if outcome.code != 0:
            return [f"exit code {outcome.code}"]
        try:
            return fn(outcome, op)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"]
    return check


# Roof values the package reached on the analyze panel when the benchmark
# was written; make_panel_roof.py rewrites the file.  A later search must
# reach them or go lower.
PANEL_ROOF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "panel_roof.json")


def load_panel_roof() -> dict:
    with open(PANEL_ROOF, encoding="utf-8") as fh:
        return json.load(fh)


def _ceiling_problems(rep: dict, r: dict) -> list:
    bad = []
    for key, ceiling in r.get("roof_ceiling", {}).items():
        value = _num(rep, key)
        if value > ceiling + ROOF_CEIL_TOL:
            bad.append(f"{key} {value!r} above the stored panel value {ceiling!r}")
    return bad


# ---------------------------------------------------------------------------
# analyze (d = 2 and d = 3)

@_checked
def check_analyze(outcome: Outcome, op: Op) -> list:
    rep = parse_report(outcome.payload.decode())
    r = op.ref
    bad = []
    f = _num(rep, "singlet_fraction")
    neg = _num(rep, "negativity")
    if abs(neg - r["negativity"]) > FEF_TOL:
        bad.append(f"negativity {neg!r} vs reference {r['negativity']!r}")
    if f > r["lambda_max"] + LAMBDA_TOL:
        bad.append(f"singlet_fraction {f!r} above lambda_max {r['lambda_max']!r}")
    if "fraction_floor" in r and f < r["fraction_floor"] - FRACTION_TOL:
        bad.append(f"singlet_fraction {f!r} below the polar reference {r['fraction_floor']!r}")
    bad += _ceiling_problems(rep, r)
    if "fef" in r:
        if abs(f - r["fef"]) > FEF_TOL:
            bad.append(f"singlet_fraction {f!r} vs closed form {r['fef']!r}")
        e2 = _num(rep, "e_d2")
        if e2 < r["negativity"] - NEG_FLOOR_TOL:
            bad.append(f"e_d2 {e2!r} below negativity {r['negativity']!r}")
        c = r["concurrence"]
        if c >= ROOF_MIN_C and abs(e2 - c) > ROOF_REL_TOL * c:
            bad.append(f"e_d2 {e2!r} not within 2% of concurrence {c!r}")
    return bad


def _analyze_ref(mat: np.ndarray, d: int, ceiling: dict) -> Callable[[], dict]:
    def make() -> dict:
        r = {"lambda_max": ref.lambda_max(mat), "negativity": ref.negativity(mat, d),
             "roof_ceiling": ceiling}
        if d == 2:
            r["fef"] = ref.fef_two_qubit(mat)
            r["concurrence"] = ref.concurrence(mat)
        else:
            r["fraction_floor"] = ref.fraction_polar(mat, d)
        return r
    return make


def _analyze_op(te, workdir: str, name: str, mat: np.ndarray, d: int,
                ceilings: dict) -> Op:
    path = os.path.join(workdir, f"{name}.dm")
    write_dm(path, mat, d, f"perfbench {name}")
    label = f"analyze {name}"
    return Op(label=label, run=cli_op(te.cli, ["analyze", path]),
              check=check_analyze, make_ref=_analyze_ref(mat, d, ceilings.get(label, {})))


def _entangled_d2(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = ref.wishart_density(4, 4, rng)
        if ref.concurrence(m) >= ROOF_MIN_C:
            return m


# ---------------------------------------------------------------------------
# qutrit-example

def family_e32(p: float) -> float:
    """Closed-form e_32 along the built-in family, from its defining formula."""
    return 1.5 * math.sqrt(3.0) * (1.0 + p) / (2.0 + p) - 0.5 * math.sqrt(3.0)


@_checked
def check_qutrit(outcome: Outcome, op: Op) -> list:
    rep = parse_report(outcome.payload.decode())
    bad = []
    searched = _num(rep, "searched_e32")
    declared = _num(rep, "declared_ensemble_e32")
    closed = _num(rep, "closed_form_e32")
    if searched > declared + FEF_TOL:
        bad.append(f"searched_e32 {searched!r} above declared {declared!r}")
    if abs(closed - op.ref["closed_form"]) > LAMBDA_TOL:
        bad.append(f"closed_form_e32 {closed!r} vs formula {op.ref['closed_form']!r}")
    return bad + _ceiling_problems(rep, op.ref)


def _qutrit_op(te, p_text: str, ceilings: dict) -> Op:
    p = float(p_text)
    label = f"qutrit-example p={p_text}"
    return Op(label=label, run=cli_op(te.cli, ["qutrit-example", "--p", p_text]),
              check=check_qutrit, ref={"closed_form": family_e32(p),
                                       "roof_ceiling": ceilings.get(label, {})})


def _analyze_ops(te, workdir: str, rng: np.random.Generator, tag: str, kinds,
                 ceilings: dict) -> list:
    """One op per kind: "d2", "d3r2", "d3r3" (analyze) or "qutrit" (qutrit-example)."""
    ops = []
    for i, kind in enumerate(kinds):
        if kind == "d2":
            mat, d = _entangled_d2(rng), 2
        elif kind == "qutrit":
            ops.append(_qutrit_op(te, f"{rng.uniform(0.02, 0.5):.6f}", ceilings))
            continue
        else:
            mat, d = ref.wishart_density(9, int(kind[-1]), rng), 3
        ops.append(_analyze_op(te, workdir, f"{tag}{kind}_{i}", mat, d, ceilings))
    return ops


# One cycle takes about 12 s on the reference VM, three cycles per 33 s.  Two
# d=2 states put the median op inside one group of similar ops rather than
# on the edge between two.
ANALYZE_CYCLE = ("d2", "d2", "d3r2", "d3r3", "qutrit")


def analyze(te, seed: int, workdir: str, ceilings: dict | None = None) -> Workload:
    """ceilings: stored roof values by op label; None reads panel_roof.json."""
    if ceilings is None:
        ceilings = load_panel_roof()
    ops = _analyze_ops(te, workdir, np.random.default_rng([PANEL_SEED, 2]), "",
                       ANALYZE_CYCLE, ceilings)
    fresh = _analyze_ops(te, workdir, np.random.default_rng([seed, 2]), "fresh_",
                         (("d2", "d3r2", "qutrit")[seed % 3],), {})
    return Workload(_seeded_order(ops, seed), _qutrit_op(te, "0.250000", {}), fresh)


# ---------------------------------------------------------------------------
# fidelity_d34: library singlet-fraction query

def _pack(values) -> bytes:
    parts = []
    for v in values:
        if isinstance(v, np.ndarray):
            parts.append(np.ascontiguousarray(v).tobytes())
        else:
            parts.append(repr(v).encode())
    return b"|".join(parts)


def fidelity_op(te, rho) -> Callable[[], Outcome]:
    def run() -> Outcome:
        cfg = te.OptimizerConfig(restarts=8)
        res = te.singlet_fraction_mixed(rho, cfg)
        f = float(res.value)
        fid = te.fidelity_from_fraction(f, rho.d)
        useful = te.is_useful(f, rho.d)
        neg = te.negativity_mixed(rho)
        data = {"value": f, "u": res.argument_unitary, "fidelity": fid,
                "useful": useful, "negativity": neg, "iterations": res.iterations_used,
                "converged": res.converged}
        payload = _pack([f, fid, useful, neg, res.iterations_used, res.converged,
                         res.argument_unitary])
        return Outcome(0, payload, data)
    return run


def check_fidelity(outcome: Outcome, op: Op) -> list:
    r, x = op.ref, outcome.data
    d = r["d"]
    f, u = x["value"], np.asarray(x["u"])
    bad = []
    if f > r["lambda_max"] + LAMBDA_TOL:
        bad.append(f"fraction {f!r} above lambda_max {r['lambda_max']!r}")
    if f < r["fraction_floor"] - FRACTION_TOL:
        bad.append(f"fraction {f!r} below the polar reference {r['fraction_floor']!r}")
    if abs(ref.fraction_at(r["mat"], u) - f) > LAMBDA_TOL:
        bad.append(f"fraction {f!r} not reproduced at the returned unitary")
    dev = float(np.abs(u.conj().T @ u - np.eye(d)).max())
    if dev > UNITARY_TOL:
        bad.append(f"returned matrix is not unitary (deviation {dev:.3e})")
    if abs(x["fidelity"] - (d * f + 1.0) / (d + 1.0)) > LAMBDA_TOL:
        bad.append(f"fidelity {x['fidelity']!r} inconsistent with fraction {f!r}")
    if x["useful"] and not f > 1.0 / d:
        bad.append("useful at a fraction not above 1/d")
    if abs(x["negativity"] - r["negativity"]) > FEF_TOL:
        bad.append(f"negativity {x['negativity']!r} vs reference {r['negativity']!r}")
    return bad


def _fidelity_op(te, name: str, mat: np.ndarray, d: int) -> Op:
    rho = te.DensityMatrix(d=d, mat=mat)

    def make() -> dict:
        return {"d": d, "mat": mat, "lambda_max": ref.lambda_max(mat),
                "fraction_floor": ref.fraction_polar(mat, d),
                "negativity": ref.negativity(mat, d)}

    return Op(label=f"fidelity {name}", run=fidelity_op(te, rho),
              check=check_fidelity, make_ref=make)


def _fidelity_ops(te, rng: np.random.Generator, tag: str, dims) -> list:
    return [_fidelity_op(te, f"{tag}d{d}_{i}", ref.wishart_density(d * d, d * d, rng), d)
            for i, d in enumerate(dims)]


# one cycle takes about 10.5 s on the reference VM, three cycles per 33 s
FIDELITY_CYCLE = (3, 3, 4, 4, 4, 4, 4)


def fidelity_d34(te, seed: int, workdir: str) -> Workload:
    ops = _fidelity_ops(te, np.random.default_rng([PANEL_SEED, 34]), "", FIDELITY_CYCLE)
    fresh = _fidelity_ops(te, np.random.default_rng([seed, 34]), "fresh_", (3 + seed % 2,))
    warm = _fidelity_op(te, "warm_d3",
                        ref.wishart_density(9, 9, np.random.default_rng([PANEL_SEED, 0])), 3)
    return Workload(_seeded_order(ops, seed), warm, fresh)


# ---------------------------------------------------------------------------
# dynamics: CLI trajectories and sweeps, checked against exp(t L) rho0

# (label, scenario): the four criterion-7 scenarios
TRAJECTORIES = (
    ("dissipative vacuum",
     dict(model="dissipative", T=0.0, r=0.0, r12=0.05, gamma0=0.2, t_max=5.0, dt=5e-4)),
    ("dissipative thermal",
     dict(model="dissipative", T=1.0, r=0.1, r12=0.05, gamma0=0.2, t_max=5.0, dt=5e-4)),
    ("qnd collective",
     dict(model="qnd", T=5.0, r=0.1, r12=0.05, gamma0=0.2, t_max=5.0, dt=1e-3)),
    ("qnd independent",
     dict(model="qnd", T=5.0, r=0.1, r12=1.1, gamma0=0.2, t_max=5.0, dt=1e-3)),
)
# criterion-8 sweeps: (label, scenario, axis, lo, hi, n, initial state)
SWEEPS = (
    ("r12 sweep",
     dict(model="dissipative", T=1.0, r=0.1, r12=1.0, gamma0=1.0, t_max=1.0, dt=2e-3),
     "r12", 0.3, 3.0, 28, "antisymmetric"),
    ("squeeze sweep",
     dict(model="qnd", T=5.0, r=0.0, r12=0.05, gamma0=0.2, t_max=2.0, dt=1e-3),
     "squeeze_r", -0.05, 0.05, 11, None),
)
MAX_STEPS = 20000


def _dyn_argv(sc: dict, state: str | None, out: str) -> list[str]:
    argv = ["dynamics", "--model", sc["model"], "--T", repr(sc["T"]), "--r", repr(sc["r"]),
            "--r12", repr(sc["r12"]), "--gamma0", repr(sc["gamma0"]),
            "--t-max", repr(sc["t_max"]), "--dt", repr(sc["dt"]),
            "--max-steps", str(MAX_STEPS), "--out", out]
    if state is not None:
        argv += ["--state", state]
    return argv


def _dyn_cfg(te, sc: dict, **bath_override):
    bath = dict(temperature=sc["T"], squeeze_r=sc["r"], r12=sc["r12"])
    bath.update(bath_override)
    return te.DynamicsConfig(model=te.ModelKind(sc["model"]), bath=te.BathParams(**bath),
                             gamma0=sc["gamma0"], t_max=sc["t_max"], dt=sc["dt"],
                             max_steps=MAX_STEPS)


def _read_csv(payload: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(payload), delimiter=",", skiprows=1, ndmin=2)


@_checked
def check_dynamics(outcome: Outcome, op: Op) -> list:
    rows = _read_csv(outcome.payload)
    bad = []
    worst_trace = float(rows[:, 4].max())
    worst_eig = float(rows[:, 5].min())
    if worst_trace > DYN_TRACE_TOL:
        bad.append(f"trace error {worst_trace:.3e} above {DYN_TRACE_TOL}")
    if worst_eig < DYN_EIG_FLOOR:
        bad.append(f"min eigenvalue {worst_eig:.3e} below {DYN_EIG_FLOOR}")
    expect = op.ref["endpoints"]
    got = rows[-1:, :3] if op.ref["trajectory"] else rows[:, :3]
    if got.shape[0] != len(expect):
        return bad + [f"{got.shape[0]} endpoint rows, expected {len(expect)}"]
    for (x, c, f), (x_ref, c_ref, f_ref) in zip(got, expect):
        if abs(x - x_ref) > 1e-9 * max(1.0, abs(x_ref)):
            bad.append(f"row at {x!r}, expected {x_ref!r}")
        elif abs(c - c_ref) > DYN_ENDPOINT_TOL or abs(f - f_ref) > DYN_ENDPOINT_TOL:
            bad.append(f"endpoint at {x_ref:g}: C {c!r} f {f!r}, "
                       f"reference C {c_ref!r} f {f_ref!r}")
    return bad


def _t_end(sc: dict) -> float:
    return max(1, round(sc["t_max"] / sc["dt"])) * sc["dt"]


def _trajectory_op(te, workdir: str, k: int, label: str, sc: dict,
                   rng: np.random.Generator) -> Op:
    # weight 0.85-0.95 on psi+ as in the criterion-7 state, the rest spread
    # over |00>, psi-, |11>
    w = rng.uniform(0.85, 0.95)
    rest = (1.0 - w) * rng.dirichlet(np.ones(3))
    rho0 = ref.collective_state([rest[0], w, rest[1], rest[2]])
    state = os.path.join(workdir, f"traj{k}.dm")
    write_dm(state, rho0, 2, f"perfbench initial state for {label}")
    out = os.path.join(workdir, f"traj{k}.csv")

    def make() -> dict:
        t = _t_end(sc)
        return {"trajectory": True,
                "endpoints": [(t,) + ref.endpoint(te.lindblad_rhs, _dyn_cfg(te, sc), rho0, t)]}

    return Op(label=f"{label} #{k}", run=cli_op(te.cli, _dyn_argv(sc, state, out), out),
              check=check_dynamics, make_ref=make)


def _sweep_op(te, workdir: str, k: int, label: str, sc: dict, axis: str,
              lo: float, hi: float, n: int, state: str | None, rho0: np.ndarray) -> Op:
    out = os.path.join(workdir, f"sweep{k}.csv")
    argv = _dyn_argv(sc, state, out) + ["--sweep", f"{axis}={lo!r}:{hi!r}:{n}"]

    def make() -> dict:
        t = _t_end(sc)
        pts = [(float(x),) + ref.endpoint(te.lindblad_rhs, _dyn_cfg(te, sc, **{axis: float(x)}),
                                          rho0, t)
               for x in np.linspace(lo, hi, n)]
        return {"trajectory": False, "endpoints": pts}

    return Op(label=label, run=cli_op(te.cli, argv, out), check=check_dynamics, make_ref=make)


def dynamics(te, seed: int, workdir: str) -> Workload:
    """One cycle (about 9 s, four per 33 s run): a dissipative and a qnd
    trajectory, the r12 sweep, the other two trajectories, the squeeze
    sweep.  The median op is a 10k-step dissipative trajectory; spreading
    those over the cycle samples the machine's speed at separate times."""
    rng = np.random.default_rng([seed, 7])
    anti = os.path.join(workdir, "antisymmetric.dm")
    write_dm(anti, ref.bell_mixture(-1.0), 2, "0.95 psi- + 0.05 I/4")
    ops = []
    for k, (label, sc, axis, lo, hi, n, init) in enumerate(SWEEPS):
        for j in ((0, 2), (1, 3))[k]:
            ops.append(_trajectory_op(te, workdir, j, *TRAJECTORIES[j], rng))
        antisym = init == "antisymmetric"
        ops.append(_sweep_op(te, workdir, k, label, sc, axis, lo, hi, n,
                             anti if antisym else None,
                             ref.bell_mixture(-1.0 if antisym else 1.0)))
    warm_sc = dict(TRAJECTORIES[2][1], t_max=1.0)
    warm_out = os.path.join(workdir, "warm.csv")
    warm = Op(label="warm-up trajectory",
              run=cli_op(te.cli, _dyn_argv(warm_sc, None, warm_out), warm_out),
              check=lambda outcome, op: [])
    return Workload(ops, warm, [])


BUILDERS = {"analyze": analyze, "fidelity_d34": fidelity_d34, "dynamics": dynamics}


def build(te, name: str, seed: int, workdir: str) -> Workload:
    return BUILDERS[name](te, seed, workdir)


def verify(op: Op, outcome: Outcome) -> list:
    op.prepare()
    return op.check(outcome, op)
