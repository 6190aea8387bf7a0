"""Command-line entry points: rejected inputs end with a one-line message."""

import csv
import json

import pytest

from torquesense import cli


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("scenario, message", [
    ({"object_events": [{"time": 1.0, "frame": "left_foot", "height": 0.03,
                         "action": "insert"}]},
     "unknown foot frame 'left_foot'"),
    ({"object_events": [{"time": 1.0, "frame": "left_sole", "height": 0.03,
                         "action": "remove"}]},
     "no object under left_sole"),
    ({"step": 5e-4, "sensor_rate": 1000.0}, "must equal 1/sensor_rate"),
    ({"elastic_transmission": False}, "elastic_transmission: false"),
    ({"contact": {"tangential_stiffness": 4000.0}},
     "unknown contact key 'tangential_stiffness'"),
    ({"joints": {"left_hip_rol": {"friction": {"coulomb": 0.2}}}},
     "unknown joint 'left_hip_rol'"),
    ({"model": "missing.urdf"}, "No such file"),
    ({"stepsize": 1e-3}, "unexpected keyword argument 'stepsize'"),
    ({}, "duration (0.1 s) leaves no samples after the 0.5 s metrics burn-in"),
], ids=["frame", "remove", "step", "rigid", "stick", "joint", "model", "key",
        "duration"])
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
    capsys.readouterr()
    assert cli.main(["report", "--in", str(out)]) == 0
    header, _, row = capsys.readouterr().out.splitlines()[:3]
    assert header.split(" | ")[-1] == "diverged |"
    assert row.split(" | ")[-1] == "False |"


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
