"""Friction scaling for the scalability tests: a joint's friction
parameters scaled by one factor, and one controller re-run on plants
whose friction is scaled."""

import dataclasses

import numpy as np

from torquesense import experiments
from torquesense.control import ControlConfig
from torquesense.friction import ScvParams


def scaled(params, factor):
    """`params` with all magnitude levels scaled by `factor`; the
    Stribeck velocity, a shape parameter, is kept."""
    if not (np.isfinite(factor) and factor > 0.0):
        raise ValueError(f"friction scaling must be positive and finite, "
                         f"got {factor}")
    return ScvParams(params.coulomb * factor, params.breakaway * factor,
                     params.stribeck_vel, params.viscous * factor)


def scaled_scenario(scenario, factor):
    """`scenario` with every joint's resolved friction scaled by
    `factor`; each joint gets an entry of its own that keeps its motor
    and elasticity settings."""
    joints = {name: {**entry, "friction": dataclasses.asdict(
        scaled(ScvParams(**entry["friction"]), factor))}
        for name, entry in scenario.actuators.items()}
    return dataclasses.replace(scenario, joints=joints)


def scalability_sweep(scenario, scalings, control=None, nets=None):
    """Re-run the same controller on plants with scaled friction.

    The friction nets and filter settings stay fixed (trained on the
    nominal plant); only the plant friction parameters change (see
    `scaled_scenario`).
    """
    # every scaled scenario is built, and so checked, before the first run
    scenarios = [(scale, scaled_scenario(scenario, scale))
                 for scale in scalings]
    cfg = control or ControlConfig()
    reports = []
    for scale, scenario_k in scenarios:
        rep, _ = experiments.run_scenario(scenario_k, cfg, nets=nets)
        rep["friction_scale"] = scale
        reports.append(rep)
    return reports
