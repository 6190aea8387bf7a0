"""Command-line entry points: rejected inputs end with a one-line message."""

import csv
import filecmp
import json

import numpy as np
import pytest

from torquesense import cli, experiments, kf, pinn
from torquesense.control import ControlConfig
from torquesense.friction import ScvParams
from torquesense.ga import GaConfig
from torquesense.kf import encoder_lsb, steady_state_gain
from torquesense.model import desk_biped
from torquesense.plant import ScenarioConfig


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scenario, message", [
    ({"object_events": [{"time": 1.0, "frame": "left_foot", "height": 0.03,
                         "action": "insert"}]},
     "unknown foot frame 'left_foot'"),
    ({"object_events": [{"time": 1.0, "frame": "left_sole", "height": 0.03,
                         "action": "remove"}]},
     "no object under left_sole"),
    # keys only an older version read
    ({"sensor_rate": 1000.0}, "unexpected keyword argument 'sensor_rate'"),
    ({"elastic_transmission": True},
     "unexpected keyword argument 'elastic_transmission'"),
    ({"contact": {"tangential_stiffness": 0.0}},
     "unknown contact key 'tangential_stiffness'"),
    ({"object_events": [{"time": 1.0, "foot": "left_sole", "height": 0.03,
                         "action": "insert"}]},
     "unknown ScenarioConfig.object_events[0] key 'foot'"),
    ({"joints": {"left_hip_rol": {"friction": {"coulomb": 0.2}}}},
     "unknown joint 'left_hip_rol'"),
    ({"model": "missing.urdf"}, "unknown model 'missing.urdf'"),
    ({"stepsize": 1e-3}, "unexpected keyword argument 'stepsize'"),
    ({}, "duration (0.1 s) leaves no samples after the 0.5 s metrics burn-in"),
    ({"disturbances": [{"time": 0.6, "duration": 0.1, "frame": "torso_psh",
                        "force": [0.0, 20.0, 0.0]}]},
     "unknown frame 'torso_psh'"),
    ({"gravity": [0.0, -9.81]}, "ScenarioConfig.gravity must be 3 finite"),
    ({"com_amplitude": [0.0, 0.01]},
     "ScenarioConfig.com_amplitude must be 3 finite"),
    # these two used to end in an AttributeError and a TypeError traceback
    ({"joints": {"default": {"motor": []}}},
     "ScenarioConfig.joints['default']['motor'] must be a mapping, got []"),
    ({"disturbances": [5]}, "ScenarioConfig.disturbances[0] must be a "
     "mapping or an event (Disturbance), got 5"),
    # used to exit with "rejected: 'int' object is not iterable"
    ({"disturbances": 5},
     "ScenarioConfig.disturbances must be a list or tuple, got 5"),
], ids=["frame", "remove", "step", "rigid", "stick", "foot", "joint", "model",
        "key", "duration", "push", "gravity", "com_amplitude", "section",
        "event", "events"])
def test_rejected_scenario_file_exits_with_one_line(tmp_path, command,
                                                    scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(scenario, duration=0.1)))
    args = [command, "--scenario", str(path), "--out", str(tmp_path / "out")]
    args += ["--mode" if command == "run" else "--modes", "Feedforward"]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    text = str(exc.value.code)
    assert message in text and str(path) in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, message", [
    ("nominal", "ScenarioConfig.seed must be a nonnegative integer, got -1"),
    ("disturbance", "ScenarioConfig.seed must be a nonnegative integer, "
     "got -1"),
], ids=["nominal", "disturbance"])
def test_rejected_seed_of_a_builtin_scenario_exits_with_one_line(
        tmp_path, scenario, message):
    # used to end in a ValueError traceback
    args = ["run", "--scenario", scenario, "--seed", "-1", "--mode",
            "Feedforward", "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    text = str(exc.value.code)
    assert message in text and f"scenario {scenario} at --seed -1" in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("missing.json", "No such file or directory"),
    ("", "Is a directory")], ids=["missing", "directory"])
def test_a_scenario_path_that_cannot_be_read_exits_with_one_line(
        tmp_path, name, message):
    # a directory used to end in an IsADirectoryError traceback
    path = tmp_path / name
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", str(path), "--mode", "Feedforward",
                  "--out", str(tmp_path / "out")])
    assert str(exc.value.code) == (
        f"scenario file {path} cannot be read: {message} (or use one of "
        f"nominal, disturbance, object-removal)")
    assert not (tmp_path / "out").exists()


def records(out):
    """The record files under `out`, by name."""
    return sorted(path.name for path in out.iterdir())


def record_names(mode, seed, scenario):
    base = f"{mode}_seed{seed}_{scenario.config_hash()}"
    return [f"{base}_report.json", f"{base}_run.csv"]


def test_rerun_keeps_one_record_and_report_shows_diverged(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    out = tmp_path / "out"
    args = ["run", "--scenario", str(path), "--mode", "Feedforward",
            "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args) == 0
    assert records(out) == record_names(
        "Feedforward", 0, ScenarioConfig(duration=0.55, seed=0))
    # a push the plant cannot integrate: the first step diverges, so no
    # metric has a sample
    diverging = tmp_path / "diverging.json"
    diverging.write_text(json.dumps({"duration": 0.55, "disturbances": [
        {"time": 0.0, "duration": 0.1, "frame": "torso_push",
         "force": [1e40, 0.0, 0.0]}]}))
    assert cli.main(["run", "--scenario", str(diverging), "--mode",
                     "Feedforward", "--out", str(out)]) == 1
    assert len(records(out)) == 4
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out)]) == 0
    header, _, *rows = capsys.readouterr().out.splitlines()[:4]
    assert header.split(" | ")[-1] == "diverged |"
    # the two runs differ only by scenario hash, whose order is arbitrary
    assert sorted(row.split(" | ")[-2:] for row in rows) == [
        ["False", "False |"], ["True", "True |"]]


def test_each_seed_has_a_record_and_a_rerun_replaces_its_own(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    out = tmp_path / "out"

    def run(seed):
        assert cli.main(["run", "--scenario", str(path), "--mode",
                         "Feedforward", "--seed", str(seed),
                         "--out", str(out)]) == 0

    run(0)
    run(1)
    names = {seed: record_names("Feedforward", seed,
                                ScenarioConfig(duration=0.55, seed=seed))
             for seed in (0, 1)}
    assert records(out) == sorted(names[0] + names[1])
    kept = {name: (out / name).read_bytes() for name in names[1]}
    for name in names[0]:
        (out / name).write_text("stale")
    run(0)
    assert records(out) == sorted(names[0] + names[1])
    for seed in (0, 1):
        report, run_csv = (out / name for name in names[seed])
        assert json.loads(report.read_text())["seed"] == seed
        assert run_csv.read_text().startswith("t,tau_d_0,")
    assert {name: (out / name).read_bytes() for name in names[1]} == kept


def test_run_records_are_byte_identical_across_runs(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["run", "--scenario", str(path), "--mode",
                         "Feedforward", "--out", str(out)]) == 0
    scenario = ScenarioConfig(duration=0.55)
    report_name, run_name = record_names("Feedforward", 0, scenario)
    assert records(a) == records(b) == [report_name, run_name]
    for name in (report_name, run_name):
        assert filecmp.cmp(a / name, b / name, shallow=False)
    report, log = experiments.run_scenario(
        scenario, ControlConfig(mode="Feedforward"))
    assert json.loads((a / report_name).read_text()) == report
    # the run CSV has one row per sensor sample plus the header
    lines = (a / run_name).read_text().splitlines()
    assert len(lines) == len(log.t) + 1 == 551
    assert lines[1].split(",")[0] == repr(float(log.t[0]))


def test_sweep_writes_one_record_per_selected_mode(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    out = tmp_path / "out"
    cli.main(["sweep", "--scenario", str(path), "--modes",
              "Feedforward,PositionControl", "--out", str(out)])
    scenario = ScenarioConfig(duration=0.55)
    assert records(out) == record_names("Feedforward", 0, scenario) \
        + record_names("PositionControl", 0, scenario)
    rows = capsys.readouterr().out.splitlines()[2:4]
    assert [row.split(" | ")[0] for row in rows] == ["| Feedforward",
                                                     "| PositionControl"]


GOOD_RECORD = {"mode": "Feedforward", "seed": 0, "config_hash": "abc",
               "torque_rmse_overall": 0.5, "com_mean_error_mm": None,
               "com_max_error_mm": None, "avg_abs_torque": 1.0,
               "fell": False, "diverged": False}


@pytest.mark.parametrize("text, message", [
    ("{", "record {path} is not JSON: "),
    (json.dumps({k: v for k, v in GOOD_RECORD.items()
                 if k not in ("seed", "diverged")}),
     "record {path} lacks key(s) seed, diverged"),
    ("[1, 2]", "record {path} lacks key(s) seed, config_hash, mode, "),
    (json.dumps({**GOOD_RECORD, "mode": "Feedfwd"}),
     "record {path} has unknown mode 'Feedfwd'; valid: Feedforward, "),
    (None, "no *_report.json record under {dir}"),
    # the first used to end in a TypeError from sorting the records
    (json.dumps({**GOOD_RECORD, "seed": "a"}),
     "record {path} has seed 'a', not a nonnegative integer"),
    (json.dumps({**GOOD_RECORD, "seed": True}),
     "record {path} has seed True, not a nonnegative integer"),
    (json.dumps({**GOOD_RECORD, "seed": -1}),
     "record {path} has seed -1, not a nonnegative integer"),
    (json.dumps({**GOOD_RECORD, "config_hash": 3}),
     "record {path} has config_hash 3, not a string"),
    # these used to end in a ValueError and a TypeError from the table
    (json.dumps({**GOOD_RECORD, "com_mean_error_mm": ["a"]}),
     "record {path} has com_mean_error_mm ['a'], not a list of numbers"),
    (json.dumps({**GOOD_RECORD, "com_max_error_mm": [None, 1.0]}),
     "record {path} has com_max_error_mm [None, 1.0], not a list of numbers"),
], ids=["not-json", "key", "list", "mode", "empty", "seed-str", "seed-bool",
        "seed-negative", "hash", "list-str", "list-null"])
def test_report_rejects_a_record_it_cannot_read(tmp_path, text, message):
    # used to be a metrics.csv column check; a directory without that
    # file was the one refusal shared
    path = tmp_path / "Feedforward_seed1_abc_report.json"
    (tmp_path / "Feedforward_seed0_abc_report.json").write_text(
        json.dumps(GOOD_RECORD))
    if text is None:
        (tmp_path / "Feedforward_seed0_abc_report.json").unlink()
    else:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(tmp_path)])
    code = str(exc.value.code)
    assert code.startswith(message.format(path=path, dir=tmp_path))
    assert "\n" not in code
    assert not (tmp_path / "report.md").exists()


def test_report_refuses_a_record_that_cannot_be_read(tmp_path):
    # a directory that matches the record pattern used to end in an
    # IsADirectoryError traceback
    (tmp_path / "Feedforward_seed0_abc_report.json").write_text(
        json.dumps(GOOD_RECORD))
    path = tmp_path / "Feedforward_seed1_abc_report.json"
    path.mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(tmp_path)])
    assert str(exc.value.code) == f"record {path} cannot be read: Is a directory"
    assert not (tmp_path / "report.md").exists()


def test_report_orders_rows_by_mode_then_seed(tmp_path, capsys):
    for mode, seed in (("PositionControl", 0), ("Feedforward", 10),
                       ("UKF-PINN", 0), ("Feedforward", 2)):
        (tmp_path / f"{mode}_seed{seed}_abc_report.json").write_text(
            json.dumps({**GOOD_RECORD, "mode": mode, "seed": seed,
                        "torque_rmse_overall": float(seed)}))
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:6]
    assert [row.split(" | ")[:2] for row in rows] == [
        ["| Feedforward", "2"], ["| Feedforward", "10"], ["| UKF-PINN", "0"],
        ["| PositionControl", "0"]]
    assert (tmp_path / "report.md").read_text().splitlines()[2:6] == rows


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scenario, message", [
    ({"step": 0.003},
     "ScenarioConfig.step (0.003 s) must divide the 0.01 s balancer period "
     "into whole steps"),
    ({"com_frequency": 1e308},
     "ScenarioConfig.com_frequency (1e+308 Hz) exceeds 50 Hz, half the "
     "balancer rate"),
    ({"com_amplitude": [1e300, 0.0, 0.0]},
     "ScenarioConfig.com_amplitude (1e+300, 0, 0 m) exceeds 1 m, beyond the "
     "desk biped's reach"),
], ids=["balancer", "com-frequency", "com-amplitude"])
def test_a_scenario_the_run_refuses_exits_with_one_line(
        tmp_path, monkeypatch, command, scenario, message):
    # a step off the balancer's grid used to end in a traceback, and a
    # mode with friction nets used to train them first.
    # A CoM reference the balancer cannot sample used to overflow in the
    # loop and report a fall, and one of 1e300 m to overflow in the
    # metrics.  The run refuses each before it trains nets
    # or takes a plant step
    def started(*args, **kw):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.Plant, "step", started)
    monkeypatch.setattr(cli, "generate_friction_dataset", started)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(scenario, duration=0.55)))
    for mode in ("Feedforward", "UKF-PINN"):
        args = [command, "--scenario", str(path), "--out",
                str(tmp_path / "out")]
        args += ["--mode" if command == "run" else "--modes", mode]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert str(exc.value.code) == (f"scenario {path} at --seed 0 "
                                       f"rejected: {message}")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", [
    {"duration": 1e308}, {"step": 1e-320}, {"duration": 1e300},
    {"duration": 1e9},
], ids=["duration-overflow", "step-overflow", "dimension", "memory"])
def test_a_tick_count_that_cannot_be_run_exits_with_one_line(
        tmp_path, monkeypatch, scenario):
    # an infinite tick count used to end in an OverflowError traceback,
    # 1e303 ticks in numpy's "Maximum allowed dimension exceeded" and
    # 1e12 ticks in a failed 7.28 TiB allocation of the run log; the run
    # refuses them from arithmetic on the one-tick log it sizes them by,
    # and never allocates the run's log here
    allocate = experiments.RunLog.allocate

    def allocated(steps, n):
        if steps != 1:
            raise AssertionError("the run log was allocated")
        return allocate(steps, n)

    monkeypatch.setattr(experiments.RunLog, "allocate", allocated)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", str(path), "--out",
                  str(tmp_path / "out"), "--mode", "Feedforward"])
    text = str(exc.value.code)
    assert text.startswith(f"scenario {path} at --seed 0 rejected: "
                           "ScenarioConfig.duration (")
    assert "ScenarioConfig.step (" in text and "does not fit" in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


def test_run_ukf_nocomp_trains_no_friction_nets(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    args = ["run", "--scenario", str(path), "--mode", "UKF-NoComp",
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    assert "no --nets given" not in capsys.readouterr().out


def write_trace(path, t, q0, nan):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "q0", "nan"])
        w.writerows(zip(t, q0, nan))


@pytest.mark.parametrize("t, extra, message", [
    (np.zeros(200), [], "column 't' must increase by one constant step"),
    (np.r_[np.arange(100), 100.5 + np.arange(100)] * 1e-3, [],
     "column 't' must increase by one constant step"),
    (np.arange(50) * 1e-3, [], "has 50 samples; tuning needs at least 100"),
    (np.arange(200) * 1e-3, ["--joint", "nan"],
     "column 'nan' holds a value that is not finite"),
], ids=["constant-t", "uneven-t", "short", "nan"])
def test_rejected_tuning_input_exits_with_one_line(tmp_path, t, extra,
                                                   message):
    path = tmp_path / "trace.csv"
    x = np.round(np.sin(np.arange(len(t)) * 0.01), 3)
    write_trace(path, t, x, np.where(np.arange(len(t)) == 7, np.nan, x))
    args = ["tune-kf", "--trace", str(path), "--joint", "q0",
            "--out", str(tmp_path / "out")] + extra
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    text = str(exc.value.code)
    assert message in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


def test_tuned_gains_that_never_settle_exit_with_one_line(tmp_path,
                                                          monkeypatch):
    # the trace's step is the user's; a steady state that the doubling
    # does not reach (here within one step) leaves no gains to write
    path = tmp_path / "trace.csv"
    x = np.round(np.sin(np.arange(200) * 0.01), 3)
    write_trace(path, np.arange(200) * 1e-3, x, x)
    monkeypatch.setattr(cli, "tune_kf", lambda *args, **kw: (
        {"q_accel": 275.0, "q_jerk": 0.0284}, []))
    monkeypatch.setattr(kf, "MAX_DOUBLINGS", 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune-kf", "--trace", str(path), "--joint", "q0",
                  "--out", str(tmp_path / "out")])
    text = str(exc.value.code)
    assert text.startswith("tune-kf found no usable gains: the encoder-filter "
                           "gain for q_accel=275, q_jerk=0.0284 at lsb ")
    assert text.endswith("does not converge within 1 doublings")
    assert "\n" not in text
    # the output directory is made before the GA runs, and left empty
    assert list((tmp_path / "out").iterdir()) == []


def test_tune_kf_writes_settled_gains_and_one_row_per_generation(tmp_path):
    # the one search GaConfig() defines, on a quantized sine sampled at
    # 1 kHz
    path = tmp_path / "trace.csv"
    lsb = encoder_lsb(12)
    x = np.round(0.3 * np.sin(np.arange(300) * 0.02) / lsb) * lsb
    write_trace(path, np.arange(300) * 1e-3, x, x)
    out = tmp_path / "out"
    assert cli.main(["tune-kf", "--trace", str(path), "--joint", "q0",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "kf_gains_q0.json").read_text())
    assert doc.keys() == {"schema_version", "gains"}
    assert doc["schema_version"] == 1
    assert doc["gains"].keys() == {"q_accel", "q_jerk"}
    steady_state_gain(1e-3, lsb, **doc["gains"])  # raises if unsolvable
    with open(out / "kf_history_q0.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["generation", "best_fitness", "mean_fitness",
                      "best_q_accel", "best_q_jerk"]
    assert [int(r[0]) for r in rows] == list(range(GaConfig().generations))


@pytest.mark.parametrize("flag", ["--seed", "--population", "--generations"])
def test_tune_kf_has_no_search_settings(tmp_path, capsys, flag):
    # GaConfig() is the one search; the flags that overrode it are gone
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune-kf", "--trace", str(tmp_path / "missing.csv"),
                  "--joint", "q0", flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bits", [0, -3, 2000])
def test_tune_kf_refuses_bits_outside_the_encoder_range(tmp_path, bits):
    # 0 and -3 used to tune on an lsb of 2 pi or more and write gains,
    # 2000 to end in an OverflowError; the trace is not read
    args = ["tune-kf", "--trace", str(tmp_path / "missing.csv"), "--joint",
            "q0", "--bits", str(bits), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert str(exc.value.code) == (f"tune-kf --bits must be from 1 to 64, "
                                   f"got {bits}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, mode", [
    ("run", "Feedforward"), ("run", "UKF-PINN"), ("sweep", "Feedforward"),
    ("sweep", "UKF-PINN"), ("tune-kf", None)])
def test_an_out_that_is_a_file_exits_before_any_work(tmp_path, monkeypatch,
                                                      command, mode):
    # used to end in a FileExistsError after the run, the GA or the net
    # training
    def work(*args, **kw):
        raise AssertionError("the work started")

    for name in ("run_scenario", "generate_friction_dataset", "tune_kf"):
        monkeypatch.setattr(cli, name, work)
    out = tmp_path / "out"
    out.write_text("a file")
    if command == "tune-kf":
        path = tmp_path / "trace.csv"
        x = np.round(np.sin(np.arange(200) * 0.01), 3)
        write_trace(path, np.arange(200) * 1e-3, x, x)
        args = ["tune-kf", "--trace", str(path), "--joint", "q0"]
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"duration": 0.55}))
        args = [command, "--scenario", str(path),
                "--mode" if command == "run" else "--modes", mode]
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--out", str(out)])
    assert str(exc.value.code) == (f"cannot make output directory {out}: "
                                   f"File exists")
    assert out.read_text() == "a file"


@pytest.mark.parametrize("text, message", [
    ("t,q0\n0.000,0.10\n0.001,\n",
     "line 3 column 'q0' holds '', not a number"),
    ("t,q0\n0.000,0.10\n0.001\n",
     "line 3 has 1 cells, none for column 'q0'"),
], ids=["empty-cell", "short-row"])
def test_malformed_trace_row_exits_with_one_line(tmp_path, text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    args = ["tune-kf", "--trace", str(path), "--joint", "q0",
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    text = str(exc.value.code)
    assert message in text and str(path) in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, content, message", [
    ("missing.csv", None, "cannot be read: No such file or directory"),
    ("", None, "cannot be read: Is a directory"),
    ("empty.csv", b"", "must have columns 't' and 'q0', got []"),
    ("binary.csv", b"\xff\xfet,q0\n", "must have columns 't' and 'q0', "
     "got ['\ufffd\ufffdt', 'q0']"),
    ("cell.csv", b"t,q0\n0.000,0.1\xff\n",
     "line 2 column 'q0' holds '0.1\ufffd', not a number"),
], ids=["missing", "directory", "empty", "binary", "cell"])
def test_a_trace_that_cannot_be_read_exits_with_one_line(tmp_path, name,
                                                         content, message):
    # these used to end in a FileNotFoundError, an IsADirectoryError, a
    # StopIteration and two UnicodeDecodeError tracebacks
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune-kf", "--trace", str(path), "--joint", "q0",
                  "--out", str(tmp_path / "out")])
    assert str(exc.value.code) == f"trace {path} {message}"
    assert not (tmp_path / "out").exists()


def untrained_nets(names):
    scv = ScvParams(coulomb=1.0, breakaway=2.0, stribeck_vel=0.1, viscous=0.5)
    net = pinn.FrictionNet(3, 4, 4, 0.3, scv)
    return {name: net for name in names}


@pytest.mark.parametrize("names, edit, message", [
    (["left_hip_roll"], None, "no net for joint(s) right_hip_roll, torso_pitch"),
    (desk_biped().joint_names + ["knee"], None, "unknown joint(s) knee"),
    ({"schema_version": 1}, None, "'nets'"),
    # any version used to load
    ({"schema_version": 2}, None, "schema_version must be 1, got 2"),
    # these used to load: the first used to end the run at its first
    # tick with a numpy broadcast error, the second as 'diverged'
    (desk_biped().joint_names, lambda net: net.update(norm_mean=[0.0] * 5),
     "norm_mean must hold 2 * buffer_len = 6 finite numbers, got [0.0, 0.0,"),
    (desk_biped().joint_names,
     lambda net: net["params"]["b1"].__setitem__(0, float("nan")),
     "parameter b1 holds a number that is not finite"),
    # the first used to end in an AttributeError traceback, the other two
    # in a line that named no field
    ({"schema_version": 1, "nets": [1]}, None,
     "'nets' must be a mapping, got list"),
    ([1], None, "the top level must be a mapping, got list"),
    ({"schema_version": 1, "nets": {"torso_pitch": [1]}}, None,
     "nets['torso_pitch'] must be a mapping, got list"),
], ids=["missing", "unknown", "malformed", "version", "norm", "nan",
        "nets-list", "top-level-list", "joint-list"])
def test_rejected_nets_file_exits_with_one_line(tmp_path, names, edit,
                                                message):
    nets_path = tmp_path / "nets.json"
    if isinstance(names, dict) or names == [1]:  # the whole file
        nets_path.write_text(json.dumps(names))
    else:
        pinn.save_nets(nets_path, untrained_nets(names))
    if edit is not None:  # of the first joint's saved net
        doc = json.loads(nets_path.read_text())
        edit(next(iter(doc["nets"].values())))
        nets_path.write_text(json.dumps(doc))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    args = ["run", "--scenario", str(path), "--mode", "UKF-PINN",
            "--nets", str(nets_path), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    text = str(exc.value.code)
    assert message in text and str(nets_path) in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, message", [
    ("missing.json", "No such file or directory"),
    ("", "Is a directory")], ids=["missing", "directory"])
def test_a_nets_path_that_cannot_be_read_exits_with_one_line(tmp_path, name,
                                                            message):
    # a directory used to end in an IsADirectoryError traceback
    nets_path = tmp_path / name
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--scenario", str(path), "--mode", "UKF-PINN",
                  "--nets", str(nets_path), "--out", str(tmp_path / "out")])
    text = str(exc.value.code)
    assert text.startswith(f"friction-net file {nets_path} rejected: ")
    assert message in text and "\n" not in text
    assert not (tmp_path / "out").exists()


def test_a_nets_file_is_checked_without_building_a_plant(tmp_path,
                                                       monkeypatch):
    # the joint names come from the scenario; a plant is built only to
    # train nets
    def no_plant(*args):
        raise AssertionError("the CLI built a plant")

    monkeypatch.setattr(cli, "Plant", no_plant)
    nets_path = tmp_path / "nets.json"
    pinn.save_nets(nets_path, untrained_nets(desk_biped().joint_names))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    assert cli.main(["run", "--scenario", str(path), "--mode", "UKF-PINN",
                     "--nets", str(nets_path), "--out",
                     str(tmp_path / "out")]) == 0


def test_trained_nets_are_written_for_reuse(tmp_path, monkeypatch, capsys):
    # a short identification log keeps the training cheap
    short_log = experiments.generate_friction_dataset(duration=0.1)
    monkeypatch.setattr(cli, "generate_friction_dataset",
                        lambda duration, seed: short_log)
    trained = []

    def recorded(*args, **kw):
        trained.append(experiments.default_friction_nets(*args, **kw))
        return trained[-1]

    monkeypatch.setattr(cli, "default_friction_nets", recorded)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--mode",
                     "Feedforward-PINN", "--out", str(out)]) == 0
    nets_path = out / "friction_nets.json"
    assert f"wrote {nets_path}" in capsys.readouterr().out
    loaded = pinn.load_nets(nets_path)
    nets, = trained
    assert loaded.keys() == nets.keys()
    r = np.random.default_rng(0)
    motor, joint = r.normal(size=(2, 5, experiments.NET_BUFFER_LEN))
    for name, net in nets.items():
        assert np.array_equal(pinn.predict(loaded[name], motor, joint),
                              pinn.predict(net, motor, joint)), name
    # joints that shared a net when saved share one when loaded
    assert len({id(n) for n in loaded.values()}) == len(
        {id(n) for n in nets.values()})
