"""Command-line interface.

Subcommands:

* analyze: full measure report for a state file (pure or density matrix)
* bounds: usefulness thresholds and rank-band ceilings for a dimension
* dynamics: open-system trajectories and parameter sweeps, CSV output
* qutrit-example: the built-in two-qutrit family at one parameter value
* random: seeded random states written in the state-file format

Exit codes: 0 success, 2 unreadable or malformed input, 3 a numeric
invariant failed.  Output on stdout is deterministic for a fixed seed;
wall-clock timing goes only to the manifest sidecar (or stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import InvariantError, StateParseError
from . import dynamics as dyn
from . import measures
from . import mixed
from . import qutrit_family
from . import stateio
from .states import (
    DensityMatrix,
    PureBipartiteState,
    random_density_matrix,
    random_pure_state,
    schmidt,
)

# random --d ceiling: a d = 32 density matrix is 1024 x 1024, 16 MB of complex entries
RANDOM_MAX_D = 32
# --restarts ceiling: each restart is one layer of the optimizers' start stacks
MAX_RESTARTS = 1024
# dynamics ceilings, checked before anything is allocated: a trajectory keeps
# six float columns per step, and the time axis a row per grid point
DYNAMICS_MAX_STEPS = 200_000
SWEEP_MAX_POINTS = 10_000


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise StateParseError(f"grid {text!r} must look like LO:HI:N")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise StateParseError(f"grid {text!r} must look like LO:HI:N") from None
    if n < 1:
        raise StateParseError("grid point count must be at least 1")
    if n > SWEEP_MAX_POINTS:
        raise StateParseError(f"grid point count must be at most {SWEEP_MAX_POINTS}, got {n}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise StateParseError(f"grid {text!r} has a non-finite end")
    return np.linspace(lo, hi, n)


def _write_report(header: str, rep: measures.MeasureReport, extra: list) -> None:
    """Header line, then the report's pairs with extra inserted after schmidt_rank."""
    pairs = [
        ("d", rep.d),
        ("schmidt_rank", rep.schmidt_rank),
        *extra,
        ("negativity", rep.negativity),
        ("singlet_fraction", rep.singlet_fraction),
        ("fidelity", rep.fidelity),
        ("classical_limit", measures.classical_fidelity_limit(rep.d)),
        ("e_d2", rep.e_d2),
        ("e_d3", rep.e_d3),
        ("useful_for_teleportation", rep.useful_for_teleportation),
        ("rank_class", rep.rank_class.value),
    ]
    sys.stdout.write(header + "\n" + stateio.format_report(pairs))


def _cmd_analyze(args) -> int:
    state = stateio.read_state_file(args.state)
    cfg = mixed.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    if isinstance(state, PureBipartiteState):
        rep = measures.analyze_pure(state)
        _write_report(f"pure {rep.d}x{rep.d} state, schmidt rank {rep.schmidt_rank}", rep,
                      [("largest_schmidt_coeff", float(schmidt(state).lambdas[0]))])
    else:
        rep = mixed.classify_mixed(state, cfg)
        _write_report(f"density matrix on {rep.d}x{rep.d}, "
                      f"max member schmidt rank {rep.schmidt_rank}", rep, [])
    return 0


def _cmd_bounds(args) -> int:
    d = args.d
    lo2, hi2 = measures.rank2_bounds(d)
    pairs = [
        ("d", d),
        ("classical_fidelity_limit", measures.classical_fidelity_limit(d)),
        ("useful_fraction_threshold", 1.0 / d),
        ("rank2_band_low", lo2),
        ("rank2_band_high", hi2),
    ]
    if d >= 3:
        pairs.append(("rank3_mixed_ceiling", measures.rank3_mixed_bound(d)))
        pairs.append(("rank3_fidelity_floor_at_unit_e3",
                      measures.rank3_fidelity_lower_bound(1.0, d)))
    sys.stdout.write(stateio.format_report(pairs))
    return 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_at_least(lo: int, at_most: int | None = None):
    """argparse type: an integer no smaller than lo (and no larger than at_most)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text!r}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text!r}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _cmd_dynamics(args) -> int:
    bath = dyn.BathParams(temperature=args.T, squeeze_r=args.r,
                          squeeze_phi=args.phi, r12=args.r12)
    initial = None
    inputs = {}
    if args.state:
        obj = stateio.read_state_file(args.state)
        if isinstance(obj, PureBipartiteState):
            obj = DensityMatrix.from_pure(obj)
        if obj.d != 2:
            raise StateParseError("dynamics runs on two qubits; need d=2")
        initial = obj
        inputs[args.state] = stateio.sha256_file(args.state)
    cfg = dyn.DynamicsConfig(
        model=dyn.ModelKind(args.model),
        bath=bath,
        gamma0=args.gamma0,
        t_max=args.t_max,
        dt=args.dt,
        initial=initial,
        max_steps=args.max_steps,
    )
    t0 = time.monotonic()
    if args.sweep:
        axis, sep, grid_text = args.sweep.partition("=")
        if not sep:
            raise StateParseError(
                f"sweep spec {args.sweep!r} is not of the form AXIS=LO:HI:N")
        if axis not in dyn.SWEEP_AXES:
            raise StateParseError(f"unknown sweep axis {axis!r}; use one of {dyn.SWEEP_AXES}")
        rows = dyn.sweep(cfg, axis, _parse_grid(grid_text)).rows
    else:
        traj = dyn.evolve(cfg)
        rows = np.column_stack((traj.t, traj.concurrence, traj.fraction, traj.fidelity,
                                traj.trace_err, traj.min_eig))
    text = stateio.format_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    manifest = stateio.RunManifest(
        command="dynamics", seed=None, version=__version__,
        inputs=inputs, wall_time_s=round(time.monotonic() - t0, 6))
    manifest.emit(args.out)
    return 0


def _cmd_qutrit_example(args) -> int:
    params = qutrit_family.FamilyParams(p=args.p)
    cfg = mixed.OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rep = qutrit_family.e32_of_family(params, cfg)
    pairs = [
        ("p", rep.p),
        ("closed_form_e32", rep.closed_form),
        ("anchored_fraction", rep.min_avg_fraction),
        ("declared_ensemble_e32", rep.declared_value),
        ("searched_e32", rep.search.value),
        ("search_converged", rep.search.converged),
        ("useful_for_teleportation", rep.useful),
        ("rank2_band_high", rep.rank2_ceiling),
    ]
    sys.stdout.write(stateio.format_report(pairs))
    return 0


def _cmd_random(args) -> int:
    max_rank = args.d if args.kind == "pure" else args.d * args.d
    if args.rank is not None and args.rank > max_rank:
        raise StateParseError(f"--rank must be at most {max_rank} for a {args.kind} "
                              f"state at d={args.d}, got {args.rank}")
    rng = np.random.default_rng(args.seed)
    if args.kind == "pure":
        obj = random_pure_state(args.d, rng, rank=args.rank)
    else:
        obj = random_density_matrix(args.d, rng, rank=args.rank)
    comment = f"seeded random {args.kind} state, d={args.d}, seed={args.seed}"
    if args.out:
        stateio.write_state_file(args.out, obj, comment)
        stateio.RunManifest(command="random", seed=args.seed,
                            version=__version__).emit(args.out)
    else:
        sys.stdout.write(stateio.format_state(obj, comment))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teleport-ent",
        description="entanglement and teleportation diagnostics for d x d states")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="measure report for a state file")
    pa.add_argument("state", help="path to a state file (pure or dm)")
    pa.add_argument("--restarts", type=_int_at_least(1, at_most=MAX_RESTARTS),
                    default=mixed.OptimizerConfig.restarts)
    pa.add_argument("--seed", type=_int_at_least(0), default=mixed.DEFAULT_SEED)
    pa.set_defaults(func=_cmd_analyze)

    pb = sub.add_parser("bounds", help="thresholds and band ceilings for a dimension")
    pb.add_argument("--d", type=_int_at_least(2), required=True)
    pb.set_defaults(func=_cmd_bounds)

    pd = sub.add_parser("dynamics", help="open-system trajectories and sweeps")
    pd.add_argument("--model", choices=[m.value for m in dyn.ModelKind],
                    default="dissipative")
    bath, run = dyn.BathParams, dyn.DynamicsConfig  # the dataclasses hold the defaults
    pd.add_argument("--T", type=_finite_float, default=bath.temperature,
                    help="bath temperature in units of hbar omega0 / k_B")
    pd.add_argument("--r", type=_finite_float, default=bath.squeeze_r,
                    help="bath squeeze magnitude")
    pd.add_argument("--phi", type=_finite_float, default=bath.squeeze_phi,
                    help="bath squeeze phase")
    pd.add_argument("--r12", type=_finite_float, default=bath.r12, help="qubit separation")
    pd.add_argument("--gamma0", type=_finite_float, default=run.gamma0)
    pd.add_argument("--t-max", type=_finite_float, default=run.t_max)
    pd.add_argument("--dt", type=_finite_float, default=None)
    pd.add_argument("--max-steps", type=_int_at_least(1, at_most=DYNAMICS_MAX_STEPS),
                    default=dyn.DEFAULT_MAX_STEPS)
    pd.add_argument("--state", default=None, help="initial state file (d=2)")
    pd.add_argument("--out", default=None, help="CSV path (default stdout)")
    pd.add_argument("--sweep", metavar="AXIS=LO:HI:N",
                    help=f"sweep one of {dyn.SWEEP_AXES} and report endpoints")
    pd.set_defaults(func=_cmd_dynamics)

    pq = sub.add_parser("qutrit-example", help="built-in two-qutrit family")
    pq.add_argument("--p", type=float, required=True, help="family parameter in [0, 1/2]")
    pq.add_argument("--restarts", type=_int_at_least(1, at_most=MAX_RESTARTS),
                    default=mixed.OptimizerConfig.restarts)
    pq.add_argument("--seed", type=_int_at_least(0), default=mixed.DEFAULT_SEED)
    pq.set_defaults(func=_cmd_qutrit_example)

    pr = sub.add_parser("random", help="write a seeded random state file")
    pr.add_argument("kind", choices=["pure", "dm"])
    pr.add_argument("--d", type=_int_at_least(2, at_most=RANDOM_MAX_D), required=True)
    pr.add_argument("--rank", type=_int_at_least(1), default=None)
    pr.add_argument("--seed", type=_int_at_least(0), default=mixed.DEFAULT_SEED)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=_cmd_random)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StateParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())
