"""Command-line entry points: rejected inputs end with a one-line message."""

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
    ({"model": "missing.urdf"}, "No such file"),
    ({"stepsize": 1e-3}, "unexpected keyword argument 'stepsize'"),
], ids=["frame", "remove", "step", "model", "key"])
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
