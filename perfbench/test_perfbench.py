"""The benchmark's own checks must count a wrong result as a failure.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _report(pairs: dict) -> bytes:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items()).encode()


def _d2_op() -> wl.Op:
    mat = wl._entangled_d2(np.random.default_rng([0, 1]))
    return wl.Op(label="analyze test", run=None, check=wl.check_analyze,
                 make_ref=wl._analyze_ref(mat, 2, {}))


def _d2_report(op: wl.Op, **override) -> wl.Outcome:
    op.prepare()
    r = op.ref
    pairs = {"singlet_fraction": f"{r['fef']:.12f}", "negativity": f"{r['negativity']:.12f}",
             "e_d2": f"{r['concurrence']:.12f}"}
    pairs.update(override)
    return wl.Outcome(0, _report(pairs))


def test_analyze_d2_accepts_reference_values():
    op = _d2_op()
    assert wl.verify(op, _d2_report(op)) == []


def test_analyze_d2_perturbed_results_fail():
    op = _d2_op()
    r = (op.prepare(), op.ref)[1]
    assert wl.verify(op, _d2_report(op, singlet_fraction=f"{r['fef'] + 1e-6:.12f}"))
    assert wl.verify(op, _d2_report(op, e_d2=f"{1.03 * r['concurrence']:.12f}"))
    assert wl.verify(op, _d2_report(op, e_d2="unavailable"))
    assert wl.verify(op, wl.Outcome(3, b""))


def test_analyze_d3_answer_must_reach_the_references():
    mat = ref.wishart_density(9, 2, np.random.default_rng([0, 3]))
    op = wl.Op(label="analyze d3 test", run=None, check=wl.check_analyze,
               make_ref=wl._analyze_ref(mat, 3, {"e_d2": 0.5, "e_d3": 0.1}))
    op.prepare()
    r = op.ref

    def report(**override):
        pairs = {"singlet_fraction": repr(r["fraction_floor"]),
                 "negativity": repr(r["negativity"]), "e_d2": "0.5", "e_d3": "0.1"}
        pairs.update(override)
        return wl.Outcome(0, _report(pairs))

    assert wl.verify(op, report()) == []
    assert wl.verify(op, report(e_d2="0.49")) == []
    assert wl.verify(op, report(e_d2=repr(0.5 + 2e-6)))
    assert wl.verify(op, report(e_d3=repr(0.1 + 2e-6)))
    assert wl.verify(op, report(singlet_fraction=repr(r["fraction_floor"] - 2e-6)))


def _csv(rows) -> bytes:
    lines = ["axis,C,f,F,trace_err,min_eig"] + [",".join(f"{x:.12g}" for x in row)
                                                 for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_dynamics_checks_every_row_and_the_endpoint():
    op = wl.Op(label="traj", run=None, check=wl.check_dynamics,
               ref={"trajectory": True, "endpoints": [(1.0, 0.5, 0.7)]})
    good = [(0.0, 0.9, 0.9, 0.9, 0.0, 0.01), (1.0, 0.5, 0.7, 0.8, 1e-15, 0.01)]
    assert wl.verify(op, wl.Outcome(0, _csv(good))) == []
    bad_trace = [good[0][:4] + (1e-7, 0.01), good[1]]
    assert wl.verify(op, wl.Outcome(0, _csv(bad_trace)))
    bad_eig = [good[0][:5] + (-1e-5,), good[1]]
    assert wl.verify(op, wl.Outcome(0, _csv(bad_eig)))
    bad_end = [good[0], (1.0, 0.5 + 2e-6, 0.7, 0.8, 0.0, 0.01)]
    assert wl.verify(op, wl.Outcome(0, _csv(bad_end)))


def test_fidelity_perturbed_value_fails():
    # 0.7 |phi+><phi+| + 0.3 I/9: U = I attains lambda_max
    phi = np.eye(3).reshape(-1) / math.sqrt(3.0)
    mat = 0.7 * np.outer(phi, phi) + 0.3 * np.eye(9) / 9.0
    u = np.eye(3, dtype=np.complex128)
    f = ref.fraction_at(mat, u)
    op = wl.Op(label="fid", run=None, check=wl.check_fidelity,
               make_ref=lambda: {"d": 3, "mat": mat, "lambda_max": ref.lambda_max(mat),
                                 "fraction_floor": ref.fraction_polar(mat, 3),
                                 "negativity": ref.negativity(mat, 3)})

    def outcome(value, unitary=u):
        return wl.Outcome(0, b"", {"value": value, "u": unitary,
                                   "fidelity": (3 * value + 1) / 4, "useful": False,
                                   "negativity": ref.negativity(mat, 3)})

    assert wl.verify(op, outcome(f)) == []
    assert wl.verify(op, outcome(f + 1e-9))
    assert wl.verify(op, outcome(f, 1.01 * u))
    # a unitary that is a worse answer: its value is reproduced, but far
    # below the polar reference
    worse = np.diag([1.0, 1.0, -1.0]).astype(np.complex128)
    assert wl.verify(op, outcome(ref.fraction_at(mat, worse), worse))


def test_polar_reference_reaches_the_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mat = ref.wishart_density(4, 4, rng)
        assert abs(ref.fraction_polar(mat, 2) - ref.fef_two_qubit(mat)) < 1e-12


def test_reference_exponential_matches_series():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 3.0
    want = np.array([[math.cos(3.0), math.sin(3.0)], [-math.sin(3.0), math.cos(3.0)]])
    assert np.abs(ref.expm(a) - want).max() < 1e-13


def test_perturbed_op_is_counted_as_failed():
    """A real qutrit-example op against a perturbed reference is one failure."""
    import teleport_ent
    import teleport_ent.cli  # noqa: F401
    op = wl._qutrit_op(teleport_ent, "0.250000", {})
    hashes, failures = {}, []
    assert run.run_checked(op, run.untraced, hashes, failures, wl) is not None
    assert failures == []
    op.ref = dict(op.ref, closed_form=op.ref["closed_form"] + 1e-9)
    run.run_checked(op, run.untraced, hashes, failures, wl)
    assert len(failures) == 1 and "closed_form_e32" in failures[0]


def test_stored_roof_values_cover_the_analyze_panel():
    import tempfile
    import teleport_ent
    import teleport_ent.cli  # noqa: F401
    stored = wl.load_panel_roof()
    with tempfile.TemporaryDirectory() as workdir:
        w = wl.build(teleport_ent, "analyze", 1, workdir)
    labels = {op.label for op in w.ops if not op.label.startswith("analyze d2")}
    assert labels == set(stored)
