"""Shared fixtures.

The expensive session fixtures (friction dataset, trained nets,
closed-loop runs) only execute when a test requests them, so the cheap
unit-test files stay fast.
"""

import numpy as np
import pytest

from torquesense.control import ControlConfig
from torquesense.experiments import (
    default_friction_nets,
    generate_friction_dataset,
    make_disturbance_scenario,
    run_scenario,
)
from torquesense.plant import Plant, ScenarioConfig


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture(scope="session")
def friction_dataset():
    """Ground-truth friction log from the locked-base plant (joint 0)."""
    return generate_friction_dataset(duration=6.0, seed=0)


@pytest.fixture(scope="session")
def nominal_plant():
    return Plant(ScenarioConfig(duration=5.0, seed=0))


@pytest.fixture(scope="session")
def nominal_nets(nominal_plant, friction_dataset):
    """Friction nets trained once on the nominal plant, shared by all runs."""
    return default_friction_nets(nominal_plant, dataset=friction_dataset)


@pytest.fixture(scope="session")
def disturbance_runs(nominal_nets):
    """(report, log) per feedback mode on the randomized-push scenario."""
    scenario = make_disturbance_scenario(seed=0)
    out = {}
    for mode in ("UKF-PINN", "UKF-NoComp", "RNEA-NoComp", "RNEA-PINN"):
        out[mode] = run_scenario(scenario, ControlConfig(mode=mode),
                                 nets=nominal_nets)
    return out
