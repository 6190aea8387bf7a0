"""Command-line entry points.

Subcommands:

    tune-kf   GA-tune encoder-filter covariances on a recorded trace
              with the one search `ga.GaConfig()` defines; densities
              whose steady-state filter gain cannot be solved are refused
    run       one closed-loop scenario in a chosen control mode
    sweep     a scenario across control modes
    report    assemble a Markdown comparison table from run records

Each run writes its record to `--out` as it ends, keyed by mode, seed
and `ScenarioConfig.config_hash`: `<mode>_seed<k>_<hash>_run.csv` (the
log) and `<mode>_seed<k>_<hash>_report.json`; a rerun overwrites its
own.  `report` reads every `*_report.json` in a directory.  `--out` is
made before any work, or the command exits with one line.

A `run` or `sweep` in a mode that needs friction nets, given no
`--nets` file, trains them and writes them to
`<out>/friction_nets.json`; pass that file as `--nets` to reuse them.
The filters' noise settings are package constants; a scenario file
sets the plant, its sensors and the disturbances.  It uses the keys
`ScenarioConfig` has, in the form `ScenarioConfig.to_dict` writes; a
key that only an older version read is refused in one line, as is a
scenario the run would refuse, before any net is trained.

Exit code is nonzero when a run falls or diverges, so sweeps can gate
CI jobs directly.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import pinn
from .control import MODES, WIRING, ControlConfig
from .experiments import (TABLE_COLUMNS, check_nets, check_runnable,
                          default_friction_nets, generate_friction_dataset,
                          make_disturbance_scenario, make_object_scenario,
                          render_table, run_scenario)
from .ga import MIN_TRACE_SAMPLES, GaConfig, tune_kf
from .kf import encoder_lsb, save_gains, steady_state_gain
from .plant import Plant, ScenarioConfig


def _make_out(path):
    """Make the output directory, or exit with one line naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot make output directory {path}: "
                         f"{exc.strerror}") from None


def _load_trace(path, column):
    """Read one position column from a trace CSV with a 't' column."""
    try:  # a byte that is not UTF-8 reads as U+FFFD, never a number
        fh = open(path, "r", encoding="utf-8", newline="", errors="replace")
    except OSError as exc:
        raise SystemExit(f"trace {path} cannot be read: {exc.strerror}") from None
    with fh:
        r = csv.reader(fh)
        header = next(r, [])
        if "t" not in header or column not in header:
            raise SystemExit(
                f"trace {path} must have columns 't' and '{column}', got {header}")
        it = header.index("t")
        ic = header.index(column)
        t, x = [], []
        for row in r:
            for values, i, name in ((t, it, "t"), (x, ic, column)):
                if i >= len(row):
                    raise SystemExit(
                        f"trace {path} line {r.line_num} has {len(row)} "
                        f"cells, none for column '{name}'")
                try:
                    values.append(float(row[i]))
                except ValueError:
                    raise SystemExit(
                        f"trace {path} line {r.line_num} column '{name}' "
                        f"holds {row[i]!r}, not a number") from None
    t = np.asarray(t)
    x = np.asarray(x)
    if len(t) < MIN_TRACE_SAMPLES:
        raise SystemExit(f"trace {path} has {len(t)} samples; tuning needs "
                         f"at least {MIN_TRACE_SAMPLES}")
    dt = np.diff(t)
    if not (np.all(dt > 0.0) and np.allclose(dt, dt[0], rtol=1e-6, atol=0.0)):
        raise SystemExit(f"trace {path} column 't' must increase by one "
                         f"constant step")
    if not np.all(np.isfinite(x)):
        raise SystemExit(f"trace {path} column '{column}' holds a value that "
                         f"is not finite")
    return float(t[1] - t[0]), x


def _cmd_tune_kf(args):
    if not 1 <= args.bits <= 64:  # the encoder bits a scenario allows
        raise SystemExit(f"tune-kf --bits must be from 1 to 64, got "
                         f"{args.bits}")
    dt, trace = _load_trace(args.trace, args.joint)
    _make_out(args.out)
    lsb = encoder_lsb(args.bits)
    gains, history = tune_kf(trace, dt, lsb, config=GaConfig())
    try:
        steady_state_gain(dt, lsb, **gains)
    except ValueError as exc:
        raise SystemExit(f"tune-kf found no usable gains: {exc}") from None
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


_BUILTIN_SCENARIOS = {"nominal": ScenarioConfig,
                      "disturbance": make_disturbance_scenario,
                      "object-removal": make_object_scenario}


def _load_scenario(spec, seed):
    """A scenario from a JSON file path or a builtin name, at `seed`; an
    unreadable file or a scenario the run would refuse exits in one line."""
    try:
        if spec in _BUILTIN_SCENARIOS:
            scenario = _BUILTIN_SCENARIOS[spec](seed=seed)
        else:
            with open(spec, "r", encoding="utf-8") as fh:
                scenario = ScenarioConfig(**{**json.load(fh), "seed": seed})
        check_runnable(scenario)
    except OSError as exc:
        raise SystemExit(f"scenario file {spec} cannot be read: {exc.strerror}"
                         f" (or use one of {', '.join(_BUILTIN_SCENARIOS)})") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"scenario {spec} at --seed {seed} rejected: "
                         f"{exc}") from None
    return scenario


def _load_nets(path, scenario):
    """Friction nets from `path`, checked against the scenario's joints."""
    try:
        nets = pinn.load_nets(path)
        check_nets(nets, list(scenario.actuators))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"friction-net file {path} rejected: "
                         f"{exc}") from None
    return nets


def _write_record(out, report, log):
    """Write one run's record (log CSV, report JSON); returns the report."""
    base = os.path.join(out, f"{report['mode']}_seed{report['seed']}_"
                             f"{report['config_hash']}")
    n = log.tau_d.shape[1]
    header = ["t", *(f"{block}_{j}" for block in
                     ("tau_d", "tau_true", "tau_feedback", "current")
                     for j in range(n)),
              "com_x", "com_y", "com_z", "com_ref_x", "com_ref_y", "com_ref_z"]
    table = np.column_stack([log.t, log.tau_d, log.tau_true, log.tau_feedback,
                             log.currents, log.com, log.com_ref])
    with open(base + "_run.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(x)) for x in row] for row in table)
    with open(base + "_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _run_modes(args, modes):
    """The reports of `args.scenario` run in each of `modes`; each run's
    record is written as soon as it ends.  Nets trained here are written
    to `<out>/friction_nets.json`."""
    scenario = _load_scenario(args.scenario, args.seed)
    wants_nets = any(WIRING[m].friction_nets for m in modes)
    nets = (_load_nets(args.nets, scenario)
            if wants_nets and args.nets is not None else None)
    _make_out(args.out)
    if wants_nets and nets is None:
        print("no --nets given; generating identification data and training "
              "friction nets (deterministic for --seed)")
        dataset = generate_friction_dataset(duration=4.0, seed=args.seed)
        nets = default_friction_nets(Plant(scenario), dataset=dataset,
                                     seed=args.seed)
        path = os.path.join(args.out, "friction_nets.json")
        pinn.save_nets(path, nets)
        print(f"wrote {path}; pass it as --nets to reuse these nets")
    return [_write_record(args.out, *run_scenario(
        scenario, ControlConfig(mode=mode), nets=nets)) for mode in modes]


def _cmd_run(args):
    (report,) = _run_modes(args, [args.mode])
    print(json.dumps(report, indent=2, sort_keys=True))
    if report["fell"] or report["diverged"]:
        print("run failed: robot fell or simulation diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args):
    modes = list(MODES) if args.modes == "all" else args.modes.split(",")
    for m in modes:
        if m not in MODES:
            raise SystemExit(f"unknown mode {m!r}; valid: {', '.join(MODES)}")
    reports = _run_modes(args, modes)
    print(render_table(reports))
    failed = [r["mode"] for r in reports if r["fell"] or r["diverged"]]
    if failed:
        print(f"failed runs: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _load_record(path):
    """The report a record holds; one that cannot be read or is not JSON,
    lacks a key the table reads, names no known mode, has a seed or
    config hash the table cannot sort or a list column holding other
    than numbers exits in one line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"record {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise SystemExit(f"record {path} is not JSON: {exc}") from None
    missing = [k for k in ("seed", "config_hash", *TABLE_COLUMNS)
               if not isinstance(report, dict) or k not in report]
    if missing:
        raise SystemExit(f"record {path} lacks key(s) {', '.join(missing)}")
    if report["mode"] not in MODES:
        raise SystemExit(f"record {path} has unknown mode "
                         f"{report['mode']!r}; valid: {', '.join(MODES)}")
    seed = report["seed"]  # the table sorts by seed and config hash
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SystemExit(f"record {path} has seed {seed!r}, not a "
                         f"nonnegative integer")
    if not isinstance(report["config_hash"], str):
        raise SystemExit(f"record {path} has config_hash "
                         f"{report['config_hash']!r}, not a string")
    for key in TABLE_COLUMNS:  # the table formats list items as numbers
        value = report[key]
        if isinstance(value, list) and not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in value):
            raise SystemExit(f"record {path} has {key} {value!r}, not a "
                             f"list of numbers")
    return report


def _cmd_report(args):
    paths = sorted(Path(args.in_dir).glob("*_report.json"))
    if not paths:
        raise SystemExit(f"no *_report.json record under {args.in_dir}")
    reports = sorted(map(_load_record, paths), key=lambda r: (
        MODES.index(r["mode"]), r["seed"], r["config_hash"]))
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

    t = sub.add_parser("tune-kf", help="GA-tune encoder filter covariances; "
                       "exits nonzero, writing no file, if the tuned "
                       "filter's steady-state gain cannot be solved")
    t.add_argument("--trace", required=True, help="CSV with a 't' column and "
                   "one position column per channel")
    t.add_argument("--joint", required=True, help="trace column to tune on")
    t.add_argument("--bits", type=int, default=12, help="encoder bits, 1 to 64")
    t.add_argument("--out", default=".", help="output directory")
    t.set_defaults(func=_cmd_tune_kf)

    r = sub.add_parser("run", help="run one closed-loop scenario")
    r.add_argument("--scenario", required=True,
                   help=f"JSON file or one of {', '.join(_BUILTIN_SCENARIOS)}")
    r.add_argument("--mode", required=True, choices=MODES)
    s = sub.add_parser("sweep", help="run a scenario across control modes")
    s.add_argument("--modes", default="all",
                   help="'all' or comma-separated mode names")
    s.add_argument("--scenario", default="disturbance",
                   help=f"JSON file or one of {', '.join(_BUILTIN_SCENARIOS)}")
    for cmd, func in ((r, _cmd_run), (s, _cmd_sweep)):
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", default="runs", help="record directory")
        cmd.add_argument("--nets", default=None,
                         help="trained friction-net JSON")
        cmd.set_defaults(func=func)

    g = sub.add_parser("report", help="Markdown table from run records")
    g.add_argument("--in", dest="in_dir", required=True,
                   help="directory of *_report.json records")
    g.set_defaults(func=_cmd_report)

    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
