"""Benchmark of the torquesense pipeline.

    python3 perfbench/run.py --workload push-ukf-pinn --seed 0 \
        --seconds 30 --trace 0

Run from the repository root.  Times a fresh interpreter's import of
the program and the workload's set-up several times each (`setup_s` is
the sum of their medians), then repeats its operation while the next
one is expected to end within `--seconds` (at least one operation; two
with `--trace 1`).  With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced operations and prints
the per-layer metrics of the traced ones.

All times are at reference speed (see speed.py): a fixed reference
kernel runs interleaved with the program and the program's time is
scaled by the kernel's, so that the shared host's drifting speed
cancels.

Every operation's deterministic outputs must equal those of the first
operation in the run and of any earlier run of the same workload, seed
and source tree (kept under perfbench/.cache).  An operation that
differs, falls, diverges, raises or yields a non-finite output counts
as failed.  The last stdout line is the result JSON; the line before it
stamps the versions it ran on and the raw wall times.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = Path(__file__).resolve().parent / ".cache"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
IMPORT_REPEATS = 9
SETUP_REPEATS = 3
# what a fresh process imports before it can set a workload up
IMPORTS = "import torquesense.experiments, torquesense.ga, torquesense.pinn"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "torquesense").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(digest):
    import numpy as np
    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            sha = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": sha, "source_sha256": digest,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0))}


def import_seconds():
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def check_outputs(ops, cache_file):
    """Failure reason per op (None if it passed)."""
    reference = None
    if cache_file.exists():
        reference = json.loads(cache_file.read_text())
    reasons = []
    for op in ops:
        reason = op.failure
        if reason is None and not all(math.isfinite(v)
                                      for v in op.outputs.values()):
            reason = f"non-finite output {op.outputs}"
        if reason is None and reference is None:
            reference = op.outputs
            cache_file.parent.mkdir(exist_ok=True)
            cache_file.write_text(json.dumps(reference, sort_keys=True))
        if reason is None and op.outputs != reference:
            reason = f"outputs {op.outputs} differ from {reference}"
        reasons.append(reason)
    return reasons


def end_to_end_metrics(ops, setup_s):
    """`ops` and `setup_s` in seconds at reference speed."""
    return {
        "sim_rate": statistics.median(op.sim_s / op.sim_wall_s for op in ops),
        "op_s": statistics.median(op.wall_s for op in ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(ops, traced, recorded, output_names):
    import spans
    on = [op for op, t in zip(ops, traced) if t]
    off = [op for op, t in zip(ops, traced) if not t]
    m = spans.layer_metrics(recorded, sum(op.wall_s for op in on) * 1e9,
                            sum(op.train_samples for op in on))
    m["trace.overhead_frac"] = (statistics.median(op.wall_s for op in on)
                                / statistics.median(op.wall_s for op in off)
                                - 1.0)
    for name in output_names:
        m[f"out.{name}"] = ops[0].outputs.get(name, 0.0)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torquesense" / "__init__.py").is_file():
        print(f"torquesense sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one BLAS / OpenMP thread, fixed before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    setup_fn, op_fn = workloads.WORKLOADS[args.workload]

    # one CPU for this process and the children it starts, so that the
    # reference kernel and the measured code share it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    meter = speed.Meter()
    import_samples, import_walls = [], []
    for _ in range(IMPORT_REPEATS):
        # the import runs in a child process: time it between kernels,
        # with none running beside it
        meter.samples = []
        meter.bracket()
        import_walls.append(import_seconds())
        meter.bracket()
        import_samples.append(import_walls[-1] * meter.scale())
    setup_samples, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        with meter:
            t0 = meter.clock()
            ctx = setup_fn(args.seed)
            setup_walls.append(meter.clock() - t0)
        setup_samples.append(setup_walls[-1] * meter.scale())
    setup_s = (statistics.median(import_samples)
               + statistics.median(setup_samples))

    min_ops = 2 if args.trace else 1
    ops, traced, walls = [], [], []
    # spans read the program clock, so they hold no kernel time
    tracer = spans.Tracer(clock=meter.clock_ns)
    start = time.perf_counter()
    while len(ops) < min_ops or (time.perf_counter() - start
                                 + statistics.median(walls) <= args.seconds):
        on = bool(args.trace) and len(ops) % 2 == 1
        first = len(tracer.spans)
        t_start = time.perf_counter()
        if on:
            spans.install(tracer)
        meter.start()
        t0 = meter.clock()
        try:
            op = op_fn(ctx, meter.clock)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            wall = meter.clock() - t0
            op = workloads.Op(wall, 0.0, wall, {}, failure="raised")
        finally:
            tracer.restore()
            meter.stop()
        scale = meter.scale()
        tracer.rescale(first, scale)
        ops.append(dataclasses.replace(op, wall_s=op.wall_s * scale,
                                       sim_wall_s=op.sim_wall_s * scale))
        traced.append(on)
        walls.append(time.perf_counter() - t_start)

    digest = source_digest()
    cache_file = CACHE / f"{args.workload}-{args.seed}-{digest[:16]}.json"
    reasons = check_outputs(ops, cache_file)
    for i, reason in enumerate(reasons):
        if reason is not None:
            print(f"operation {i} failed: {reason}", file=sys.stderr)
    failed = sum(r is not None for r in reasons)

    if args.trace:
        metrics = per_layer_metrics(ops, traced, tracer.spans,
                                    workloads.OUTPUT_NAMES)
    else:
        metrics = end_to_end_metrics(ops, setup_s)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    print(json.dumps({"stamp": stamp(digest), "workload": args.workload,
                      "seed": args.seed, "outputs": ops[0].outputs,
                      "op_walls_s": walls, "import_walls_s": import_walls,
                      "setup_walls_s": setup_walls}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
