"""The benchmark's workloads run on the package as it stands.

`perfbench/workloads.py` drives the package through its API as a user
does: `GaConfig` and `tune_kf(config=)`, `default_friction_nets` and
`train_friction_net(epochs=)`, `ControlConfig(mode=)`, the report keys
of `run_scenario`, `Plant.scv`, `pinn.build_samples` and
`validation_mse`.  Each workload runs its setup and one operation here,
so a change that breaks a name or a report key the benchmark reads
fails in the tests, not only in a benchmark run.  Nothing is timed.
"""

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_workload_runs_one_operation(name):
    setup, op = workloads.WORKLOADS[name]
    result = op(setup(0), time.perf_counter)
    assert result.failure is None
    assert result.sim_s > 0.0
    assert result.outputs
    assert all(math.isfinite(v) for v in result.outputs.values())
