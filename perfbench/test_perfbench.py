"""Schema and smoke checks of the benchmark; no timing is asserted."""

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spec():
    return json.loads((HERE / "spec.json").read_text())


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    for p in bench["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p
        assert (ROOT / p).is_dir()
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_bounds(bench):
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_layer_metric_maps_to_end_to_end_and_workload(bench, spec):
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert set(spec["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    assert set(spec["end_to_end"]) == e2e
    for name, row in spec["per_layer"].items():
        targets = row["moves"] + row.get("guards", [])
        assert targets and set(targets) <= e2e, name
        assert row["on"] and set(row["on"]) <= workloads, name
        assert set(row["not_on"]) <= workloads - set(row["on"]), name
    seeds = spec["seeds"]
    assert isinstance(seeds["default"], int)
    assert isinstance(seeds["held_out"], int)
    assert seeds["default"] != seeds["held_out"]


def test_computed_metric_names_match_declared(bench):
    op = types.SimpleNamespace(wall_s=2.0, sim_s=1.0, sim_wall_s=2.0,
                               outputs={"torque_rmse": 1.0}, train_samples=0)
    e2e = run.end_to_end_metrics([op, op], 0.6)
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    layer = run.per_layer_metrics([op, op], [False, True], [],
                                  workloads.OUTPUT_NAMES)
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}


def test_span_attribution_counts():
    # one plant step whose derivative evaluation builds joint transforms
    # twice, and a torque-filter step calling crba once
    recorded = [
        ("plant.step", 0, 1000, -1),
        ("dynamics.joint_transforms", 100, 200, 0),
        ("dynamics.joint_transforms", 300, 400, 0),
        ("ukf.step", 1000, 1500, -1),
        ("dynamics.crba", 1100, 1300, 3),
    ]
    m = spans.layer_metrics(recorded, 2000)
    assert m["plant.derivs_per_step"] == 2.0
    assert m["dynamics.calls_per_tick.plant"] == 2.0
    assert m["dynamics.calls_per_tick.ukf"] == 1.0
    assert m["dynamics.calls_per_tick.control"] == 0.0
    assert m["plant.self_frac"] == pytest.approx(800 / 2000)
    assert m["ukf.self_frac"] == pytest.approx(300 / 2000)
    assert m["dynamics.self_frac"] == pytest.approx(400 / 2000)


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = spans.Tracer()
    tracer.patch(mod, "outer", "a.outer")
    tracer.patch(mod, "inner", "b.inner")
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.inner is original
    (outer, _, _, p_outer), (inner, _, _, p_inner) = tracer.spans
    assert (outer, p_outer, inner, p_inner) == ("a.outer", -1, "b.inner", 0)


def test_meter_clock_leaves_out_the_kernel():
    meter = speed.Meter()
    with meter:
        w0, c0 = time.perf_counter(), meter.clock()
        while time.perf_counter() - w0 < 3 * speed.PERIOD_S:
            pass
        wall, program = time.perf_counter() - w0, meter.clock() - c0
    # the kernels run before, during and after the measured stretch
    assert len(meter.samples) > 2 * speed.BRACKET
    during = sum(meter.samples[speed.BRACKET:-speed.BRACKET])
    assert program == pytest.approx(wall - during, abs=1e-3)
    assert meter.scale() > 0


def test_every_traced_target_exists():
    sys.path.insert(0, str(ROOT / "src"))
    names = {name for _, _, name in spans._targets()}
    assert {"plant.step", "ukf.step", "pinn.predict_bounded",
            "dynamics.crba", "kf.filter_trace"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-id",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
