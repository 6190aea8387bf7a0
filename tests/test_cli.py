"""Command-line entry points: rejected inputs end with a one-line message."""

import csv
import json

import numpy as np
import pytest

from torquesense import cli, experiments, pinn
from torquesense.friction import ScvParams
from torquesense.model import desk_biped


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
     "unexpected keyword argument 'foot'"),
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
], ids=["frame", "remove", "step", "rigid", "stick", "foot", "joint", "model",
        "key", "duration", "push", "gravity", "com_amplitude"])
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


def test_rerun_keeps_one_metrics_row_and_report_shows_diverged(tmp_path,
                                                              capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration": 0.55}))
    out = tmp_path / "out"
    args = ["run", "--scenario", str(path), "--mode", "Feedforward",
            "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["diverged"] == "False"
    # a push the plant cannot integrate: the first step diverges, so no
    # metric has a sample
    diverging = tmp_path / "diverging.json"
    diverging.write_text(json.dumps({"duration": 0.55, "disturbances": [
        {"time": 0.0, "duration": 0.1, "frame": "torso_push",
         "force": [1e40, 0.0, 0.0]}]}))
    assert cli.main(["run", "--scenario", str(diverging), "--mode",
                     "Feedforward", "--out", str(out)]) == 1
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out)]) == 0
    header, _, row, diverged = capsys.readouterr().out.splitlines()[:4]
    assert header.split(" | ")[-1] == "diverged |"
    assert row.split(" | ")[-1] == "False |"
    assert diverged.split(" | ")[-2:] == ["True", "True |"]


def test_report_loads_metrics_written_without_the_diverged_column(tmp_path,
                                                                  capsys):
    (tmp_path / "metrics.csv").write_text(
        "mode,seed,config_hash,torque_rmse_overall,avg_abs_torque,"
        "peak_abs_torque,fell,fall_time,com_mean_error_mm,com_max_error_mm\n"
        "Feedforward,0,abc,0.5,1.0,2.0,False,,\"[1.0, 2.0, 3.0]\","
        "\"[2.0, 3.0, 4.0]\"\n")
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.startswith("| Feedforward | 0.5 |")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scenario, message", [
    ({"noise": {"joint_encoder_bits": 30}},
     "ScenarioConfig.noise (joint_encoder_bits 30, motor_encoder_bits 16) "
     "at the 0.001 s step: the encoder-filter gain "
     "for q_accel=0.001, q_jerk=200 at lsb 5.85167e-09 rad does not settle "
     "within 20000 steps"),
    ({"step": 0.003},
     "ScenarioConfig.step (0.003 s) must divide the 0.01 s balancer period "
     "into whole steps"),
], ids=["encoder", "balancer"])
def test_a_scenario_the_run_refuses_exits_with_one_line(
        tmp_path, monkeypatch, command, scenario, message):
    # a 30-bit joint encoder at a 1 ms step, whose filter gain never
    # settles, or a step off the balancer's grid: both used to end in a
    # traceback, and a mode with friction nets used to train them first;
    # the run refuses them before it trains nets or takes a plant step
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


@pytest.mark.parametrize("header, missing", [
    ("mode,seed", "config_hash, torque_rmse_overall, avg_abs_torque, "
     "peak_abs_torque, fell, fall_time, com_mean_error_mm, com_max_error_mm"),
    ("", "mode, seed, config_hash, torque_rmse_overall, avg_abs_torque, "
     "peak_abs_torque, fell, fall_time, com_mean_error_mm, com_max_error_mm"),
], ids=["short", "empty"])
def test_report_rejects_a_metrics_file_without_its_columns(tmp_path, header,
                                                           missing):
    # used to end in KeyError: 'torque_rmse_overall'
    path = tmp_path / "metrics.csv"
    path.write_text(header + "\n" + ("Feedforward,0\n" if header else ""))
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--in", str(tmp_path)])
    assert str(exc.value.code) == f"{path} lacks column(s) {missing}"
    assert not (tmp_path / "report.md").exists()


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
    (np.arange(200) * 1e-3, ["--population", "1"],
     "GaConfig.parents_mating (2) must not exceed population_size (1)"),
    (np.arange(200) * 1e-3, ["--generations", "0"],
     "GaConfig.generations must be at least 1, got 0"),
], ids=["constant-t", "uneven-t", "short", "nan", "population",
        "generations"])
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
    # the GA's bounds hold densities whose filter gain never settles;
    # `run` would refuse such gains, so tune-kf writes none
    path = tmp_path / "trace.csv"
    x = np.round(np.sin(np.arange(200) * 0.01), 3)
    write_trace(path, np.arange(200) * 1e-3, x, x)
    monkeypatch.setattr(cli, "tune_kf", lambda *args, **kw: (
        {"q_accel": 275.0, "q_jerk": 0.0284}, []))
    with pytest.raises(SystemExit) as exc:
        cli.main(["tune-kf", "--trace", str(path), "--joint", "q0",
                  "--out", str(tmp_path / "out")])
    text = str(exc.value.code)
    assert "q_accel=275, q_jerk=0.0284" in text and "does not settle" in text
    assert "\n" not in text
    assert not (tmp_path / "out").exists()


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


def untrained_nets(names):
    scv = ScvParams(coulomb=1.0, breakaway=2.0, stribeck_vel=0.1, viscous=0.5)
    net = pinn.FrictionNet(3, 4, 4, 0.3, scv)
    return {name: net for name in names}


@pytest.mark.parametrize("names, edit, message", [
    (["left_hip_roll"], None, "no net for joint(s) right_hip_roll, torso_pitch"),
    (desk_biped().joint_names + ["knee"], None, "unknown joint(s) knee"),
    (None, None, "'nets'"),
    # these used to load: the first used to end the run at its first
    # tick with a numpy broadcast error, the second as 'diverged'
    (desk_biped().joint_names, lambda net: net.update(norm_mean=[0.0] * 5),
     "norm_mean must hold 2 * buffer_len = 6 finite numbers, got [0.0, 0.0,"),
    (desk_biped().joint_names,
     lambda net: net["params"]["b1"].__setitem__(0, float("nan")),
     "parameter b1 holds a number that is not finite"),
], ids=["missing", "unknown", "malformed", "norm", "nan"])
def test_rejected_nets_file_exits_with_one_line(tmp_path, names, edit,
                                                message):
    nets_path = tmp_path / "nets.json"
    if names is None:
        nets_path.write_text(json.dumps({"schema_version": 1}))
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
