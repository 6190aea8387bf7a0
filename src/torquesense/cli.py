"""Command-line entry points.

Subcommands:

    tune-kf   GA-tune encoder-filter covariances on a recorded trace
    run       one closed-loop scenario in a chosen control mode
    sweep     a scenario across control modes
    report    assemble a Markdown comparison table from metrics rows

Exit code is nonzero when a run falls or diverges, so sweeps can gate
CI jobs directly.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import pinn
from .control import MODES, ControlConfig, needs_friction_nets
from .experiments import (DEFAULT_KF_GAINS, check_duration,
                          default_friction_nets, generate_friction_dataset,
                          make_disturbance_scenario, make_object_scenario,
                          render_table, run_scenario, sweep_modes)
from .ga import GaConfig, tune_kf
from .kf import encoder_lsb, save_gains
from .model import ModelError
from .plant import Plant, ScenarioConfig


def _load_trace(path, column):
    """Read one position column from a trace CSV with a 't' column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if "t" not in header or column not in header:
            raise SystemExit(
                f"trace {path} must have columns 't' and '{column}', got {header}")
        it = header.index("t")
        ic = header.index(column)
        t, x = [], []
        for row in r:
            t.append(float(row[it]))
            x.append(float(row[ic]))
    t = np.asarray(t)
    x = np.asarray(x)
    if len(t) < 3:
        raise SystemExit(f"trace {path} too short to tune on")
    return float(t[1] - t[0]), x


def _cmd_tune_kf(args):
    dt, trace = _load_trace(args.trace, args.joint)
    config = GaConfig(bounds=[(-4.0, 4.0), (-2.0, 8.0)], seed=args.seed,
                      population_size=args.population,
                      generations=args.generations,
                      parents_mating=max(2, args.population // 2))
    gains, history = tune_kf(trace, dt, encoder_lsb(args.bits), config=config)
    os.makedirs(args.out, exist_ok=True)
    gains_path = os.path.join(args.out, f"kf_gains_{args.joint}.json")
    save_gains(gains_path, gains)
    hist_path = os.path.join(args.out, f"kf_history_{args.joint}.csv")
    with open(hist_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["generation", "best_fitness", "mean_fitness",
                    "best_q_accel", "best_q_jerk"])
        for h in history:
            w.writerow([h["generation"], repr(h["best"]), repr(h["mean"]),
                        repr(10.0 ** h["best_genes"][0]),
                        repr(10.0 ** h["best_genes"][1])])
    print(f"tuned gains: {gains}")
    print(f"wrote {gains_path} and {hist_path}")
    return 0


_BUILTIN_SCENARIOS = ("nominal", "disturbance", "object-removal")


def _load_scenario(spec, seed):
    """A scenario from a JSON file path or a builtin name."""
    if spec in _BUILTIN_SCENARIOS:
        if spec == "nominal":
            return ScenarioConfig(seed=seed)
        if spec == "disturbance":
            return make_disturbance_scenario(seed=seed)
        return make_object_scenario(seed=seed)
    if not os.path.exists(spec):
        raise SystemExit(
            f"scenario file not found: {spec} "
            f"(or use one of {', '.join(_BUILTIN_SCENARIOS)})")
    with open(spec, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    d["seed"] = seed
    try:
        scenario = ScenarioConfig.from_dict(d)
        Plant(scenario)  # checks model, frames and object events
        check_duration(scenario)
    except (ModelError, OSError, TypeError, ValueError) as exc:
        raise SystemExit(f"scenario file {spec} rejected: {exc}") from None
    return scenario


def _resolve_nets(args, scenario, modes):
    """Trained friction nets for any mode that needs them."""
    if not any(needs_friction_nets(m) for m in modes):
        return None
    if args.nets is not None:
        if not os.path.exists(args.nets):
            raise SystemExit(f"friction-net file not found: {args.nets}")
        return pinn.load_nets(args.nets)
    print("no --nets given; generating identification data and training "
          "friction nets (deterministic for --seed)")
    dataset = generate_friction_dataset(duration=4.0, seed=args.seed)
    return default_friction_nets(Plant(scenario), dataset=dataset,
                                 seed=args.seed)


def _cmd_run(args):
    scenario = _load_scenario(args.scenario, args.seed)
    nets = _resolve_nets(args, scenario, [args.mode])
    control = ControlConfig(mode=args.mode)
    report, _ = run_scenario(scenario, control, nets=nets,
                             kf_gains=DEFAULT_KF_GAINS, out_dir=args.out,
                             label=args.mode)
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["fell"] or report["diverged"]:
        print("run failed: robot fell or simulation diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args):
    scenario = _load_scenario(args.scenario, args.seed)
    modes = list(MODES) if args.modes == "all" else args.modes.split(",")
    for m in modes:
        if m not in MODES:
            raise SystemExit(f"unknown mode {m!r}; valid: {', '.join(MODES)}")
    nets = _resolve_nets(args, scenario, modes)
    reports = sweep_modes(scenario, modes=modes, nets=nets, out_dir=args.out)
    print(render_table(reports))
    failed = [r["mode"] for r in reports if r["fell"] or r["diverged"]]
    if failed:
        print(f"failed runs: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args):
    path = os.path.join(args.in_dir, "metrics.csv")
    if not os.path.exists(path):
        raise SystemExit(f"no metrics.csv under {args.in_dir}")
    reports = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            r = dict(row)
            for k in ("torque_rmse_overall", "avg_abs_torque",
                      "peak_abs_torque"):
                r[k] = float(r[k])
            for k in ("com_mean_error_mm", "com_max_error_mm"):
                r[k] = json.loads(r[k])
            r["fell"] = r["fell"] == "True"
            if "diverged" in r:  # files written before the column existed lack it
                r["diverged"] = r["diverged"] == "True"
            reports.append(r)
    table = render_table(reports)
    out_md = os.path.join(args.in_dir, "report.md")
    with open(out_md, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table)
    print(f"wrote {out_md}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="torquesense",
        description="Sensorless joint-torque estimation and control toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tune-kf", help="GA-tune encoder filter covariances")
    t.add_argument("--trace", required=True, help="CSV with a 't' column and "
                   "one position column per channel")
    t.add_argument("--joint", required=True, help="trace column to tune on")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--bits", type=int, default=12, help="encoder resolution")
    t.add_argument("--population", type=int, default=40)
    t.add_argument("--generations", type=int, default=15)
    t.add_argument("--out", default=".", help="output directory")
    t.set_defaults(func=_cmd_tune_kf)

    r = sub.add_parser("run", help="run one closed-loop scenario")
    r.add_argument("--scenario", required=True,
                   help=f"JSON file or one of {', '.join(_BUILTIN_SCENARIOS)}")
    r.add_argument("--mode", required=True, choices=MODES)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default="runs", help="artifact directory")
    r.add_argument("--nets", default=None, help="trained friction-net JSON")
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep", help="run a scenario across control modes")
    s.add_argument("--modes", default="all",
                   help="'all' or comma-separated mode names")
    s.add_argument("--scenario", default="disturbance",
                   help=f"JSON file or one of {', '.join(_BUILTIN_SCENARIOS)}")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="runs", help="artifact directory")
    s.add_argument("--nets", default=None, help="trained friction-net JSON")
    s.set_defaults(func=_cmd_sweep)

    g = sub.add_parser("report", help="Markdown table from metrics rows")
    g.add_argument("--in", dest="in_dir", required=True,
                   help="directory containing metrics.csv")
    g.set_defaults(func=_cmd_report)

    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
