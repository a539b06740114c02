"""Per-layer metrics of a traced cycle.

``*_s`` metrics are self time (span minus its child spans) summed over the
traced cycle; counts are exact and repeat from run to run.  Roof and ascent
figures come from the returned ``OptResult``, which exposes only the best
restart's iteration count, so ``roof_rounds`` and ``ascent_iters`` sum the
best restart of each call.
"""

from __future__ import annotations

import numpy as np

import reference as ref

ROOF = ("mixed.e_d2_mixed", "mixed.e_d3_mixed", "mixed.cren_estimate")
ASCENT = "mixed.singlet_fraction_mixed"
OBSERVED = ROOF + (ASCENT, "dynamics.evolve", "dynamics.sweep",
                   "stateio.format_report", "stateio.format_csv")


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, plain: list, traced: list) -> tuple[dict, dict]:
    """(metrics, exact counts) from a traced cycle and its untraced twin."""
    t = tracer
    roof_calls = sum(t.calls_of(n) for n in ROOF)
    roof_rounds = roof_conv = 0
    roof_gap = 0.0
    ascent_iters = ascent_conv = 0
    ascent_gap = 0.0
    steps = sweep_points = bytes_out = 0
    for name, args, kwargs, out in t.observed:
        if name in ROOF:
            roof_rounds += out.iterations_used
            roof_conv += bool(out.converged)
            rho = args[0]
            if rho.d == 2 and out.value is not None:
                c = ref.concurrence(np.asarray(rho.mat))
                if c >= 0.05:
                    roof_gap = max(roof_gap, abs(out.value - c) / c)
        elif name == ASCENT:
            ascent_iters += out.iterations_used
            ascent_conv += bool(out.converged)
            ascent_gap = max(ascent_gap,
                             ref.lambda_max(np.asarray(args[0].mat)) - float(out.value))
        elif name == "dynamics.evolve":
            steps += len(out) - 1
        elif name == "dynamics.sweep":
            sweep_points += len(out.rows)
        else:
            bytes_out += len(out.encode())
    ascent_calls = t.calls_of(ASCENT)
    evolve_total = t.total_of("dynamics.evolve")
    plain_s = sum(x for x in plain if x is not None)
    traced_s = sum(x for x in traced if x is not None)
    values = {
        "mixed.roof_s": (sum(t.self_of(n) for n in ROOF), "s"),
        "mixed.roof_calls": (roof_calls, "count"),
        "mixed.roof_rounds": (roof_rounds, "count"),
        "mixed.roof_converged_frac": (_frac(roof_conv, roof_calls), "ratio"),
        "mixed.roof_rel_gap_max": (roof_gap, "ratio"),
        "mixed.ascent_s": (t.self_of(ASCENT), "s"),
        "mixed.ascent_calls": (ascent_calls, "count"),
        "mixed.ascent_iters": (ascent_iters, "count"),
        "mixed.ascent_converged_frac": (_frac(ascent_conv, ascent_calls), "ratio"),
        "mixed.ascent_cert_gap_max": (ascent_gap, "1"),
        "mixed.fef_closed_calls": (t.calls_of("mixed.fef_2qubit_closed_form"), "count"),
        "mixed.fef_closed_s": (t.self_of("mixed.fef_2qubit_closed_form"), "s"),
        "measures.concurrence_calls": (t.calls_of("measures.concurrence_2qubit"), "count"),
        "measures.concurrence_s": (t.self_of("measures.concurrence_2qubit"), "s"),
        "dynamics.evolve_s": (t.self_of("dynamics.evolve"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_us": (_frac(evolve_total, steps) * 1e6, "us"),
        "dynamics.diag_share": (_frac(t.total_of("dynamics._diagnostics"), evolve_total),
                                "ratio"),
        "dynamics.sweep_points": (sweep_points, "count"),
        "dynamics.sweep_self_s": (t.self_of("dynamics.sweep"), "s"),
        "qutrit_family.self_s": (t.self_of("qutrit_family.e32_of_family"), "s"),
        "states.spectral_calls": (t.calls_of("states.spectral_decomposition"), "count"),
        "states.spectral_s": (t.self_of("states.spectral_decomposition"), "s"),
        "linalg.herm_eig_calls": (t.calls_of("linalg.herm_eig"), "count"),
        "measures.negativity_mixed_s": (t.self_of("measures.negativity_mixed"), "s"),
        "stateio.read_s": (t.self_of("stateio.read_state_file"), "s"),
        "stateio.format_s": (t.self_of("stateio.format_report")
                             + t.self_of("stateio.format_csv"), "s"),
        "stateio.bytes_out": (bytes_out, "bytes"),
        "cli.self_s": (t.self_of("cli.main"), "s"),
        "trace.overhead_frac": (_frac(traced_s, plain_s) - 1.0, "ratio"),
        "trace.unattributed_frac": (_frac(t.self_of("op"), t.total_of("op")), "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    counts = {k: v for k, (v, u) in values.items() if u in ("count", "bytes")}
    counts["calls"] = {name: t.calls_of(name) for name in sorted(t.names)}
    return metrics, counts
