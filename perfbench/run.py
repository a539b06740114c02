"""Closed-loop benchmark of teleport_ent: one client, one process, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 33 --trace 0

The package is imported from ``src/`` next to this directory.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("analyze", "fidelity_d34", "dynamics")
SETUP_SAMPLES = 3

# the seed flag of the CLI falls back to this variable; keep it out
os.environ.pop("TELEPORT_ENT_SEED", None)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=33.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print the seconds and exit")
    return p.parse_args(argv)


def setup(args, workdir):
    """Import the package, write the seeded inputs and run one warm-up op.

    Returns (workload, seconds spent).  Nothing before this call in the
    process has imported numpy, so the import time includes it.
    """
    t0 = time.perf_counter()
    import teleport_ent
    import teleport_ent.cli  # noqa: F401
    t_import = time.perf_counter() - t0
    import workloads
    t1 = time.perf_counter()
    wl = workloads.build(teleport_ent, args.workload, args.seed, workdir)
    outcome = wl.warm.run()
    elapsed = t_import + time.perf_counter() - t1
    problems = workloads.verify(wl.warm, outcome)  # references are not set-up
    if problems:
        raise RuntimeError(f"warm-up op {wl.warm.label} failed: {problems}")
    return wl, elapsed


def cold_setup_seconds(args) -> float:
    """One set-up in a fresh interpreter, so import and first-call costs show."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_checked(op, execute, hashes, failures, workloads):
    """Run one op, verify it, and compare its bytes with earlier runs of it.

    Returns the op's seconds, or None when it raised; problems go to failures.
    """
    try:
        outcome, seconds = execute(op.run)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
        return None
    problems = workloads.verify(op, outcome)
    digest = outcome.digest()
    if hashes.setdefault(op.label, digest) != digest:
        problems.append("output bytes differ from an earlier run of the same op")
    if problems:
        failures.append(f"{op.label}: " + "; ".join(problems))
    return seconds


def per_op_medians(times: list, n: int) -> list:
    """Each op of the cycle timed by its median over the run's cycles, so
    one slow stretch of the machine moves the figures built on it less."""
    per_op = []
    for k in range(n):
        done = [t for t in times[k::n] if t is not None]
        if done:
            per_op.append(statistics.median(done))
    return per_op


def untraced(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def timed_phase(ops, seconds, hashes, failures, workloads):
    """Whole cycles over ops until the run is as close to `seconds` as it gets."""
    times = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for op in ops:
            dt = run_checked(op, untraced, hashes, failures, workloads)
            times.append(dt)
        cycle = time.perf_counter() - c0
        if time.perf_counter() - start >= seconds - cycle / 2.0:
            return times


def traced_phase(ops, hashes, failures, workloads, tracer, observed):
    """One cycle, each op run once untraced and once traced, order alternating."""
    plain, traced = [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(observe=observed)
                try:
                    dt = run_checked(op, tracer.run_op, hashes, failures, workloads)
                finally:
                    tracer.uninstall()
                traced.append(dt)
            else:
                plain.append(run_checked(op, untraced, hashes, failures, workloads))
    return plain, traced


def blas_threads():
    """OpenBLAS thread count through its C API, or None where unavailable."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree of its
    own (source_sha256 then identifies the code)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "teleport_ent")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def record(args, ops, times, hashes, counts):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "ops_per_cycle": len(ops), "ops_run": len(times),
        "op_labels": [op.label for op in ops], "op_seconds": times,
        "op_output_sha256": hashes,
        "outputs_sha256": hashlib.sha256(
            json.dumps(hashes, sort_keys=True).encode()).hexdigest(),
    }
    if counts is not None:
        rec["layer_counts"] = counts
        rec["layer_counts_sha256"] = hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest()
    return rec


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "teleport_ent", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("perfbench: --seconds must be positive\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            print(repr(setup(args, workdir)[1]))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    wl, setup_s = setup(args, workdir)
    ops = wl.ops
    import workloads
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [cold_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    for op in ops:
        op.prepare()
    hashes, failures = {}, []
    counts = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        plain, traced = traced_phase(ops, hashes, failures, workloads, tracer,
                                     layers.OBSERVED)
        times = plain + traced
        metrics, counts = layers.per_layer(tracer, plain, traced)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        times = timed_phase(ops, args.seconds, hashes, failures, workloads)
        for op in wl.fresh:
            op.prepare()
            run_checked(op, untraced, hashes, failures, workloads)
        per_op = per_op_medians(times, len(ops))
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(len(per_op) / sum(per_op) if per_op else 0.0, "ops/s"),
            "op_p50_s": metric(statistics.median(per_op) if per_op else 0.0, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    rec = record(args, ops, times, hashes, counts)
    rec["setup_samples_s"] = setup_samples
    rec["failures"] = failures
    with open(os.path.join(OUT, f"record-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
    for problem in failures:
        sys.stderr.write(f"FAILED {problem}\n")
    attempted = len(times) + (0 if args.trace else len(wl.fresh))
    failed = len(failures)
    if not args.trace:
        print(f"ops = {attempted}: {len(times)} timed, {len(ops)} per cycle (op_p50_s is "
              "the median over the cycle of each op's median time), "
              f"{len(wl.fresh)} on fresh seeded inputs, checked only")
        print(f"fail_frac = {failed / attempted:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("record " + json.dumps({k: rec[k] for k in (
        "cores", "python", "numpy", "blas", "blas_threads", "git_sha", "source_sha256",
        "seed", "ops_per_cycle", "ops_run", "outputs_sha256")}, sort_keys=True))
    if counts is not None:
        print(f"layer_counts_sha256 = {rec['layer_counts_sha256']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
