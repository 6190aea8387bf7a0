"""The benchmark's workloads: inputs from a seed, one operation, its outputs.

Each workload has a `setup(seed)` that builds what every operation
reuses and an `op(ctx, clock)` that does one unit of measured work,
timed with `clock()` (seconds), and returns an `Op`.  Outputs are the
deterministic numbers the program produced; the runner requires them to
repeat bit for bit.
"""

import dataclasses
import math

import numpy as np

from torquesense import experiments, ga, kf, pinn
from torquesense.control import ControlConfig
from torquesense.plant import Plant, ScenarioConfig

# The push schedule is the canonical one (`make_disturbance_scenario`
# at seed 0: a 28 N torso shove at t = 1.30 s for 0.23 s) cut to the
# first PUSH_DURATION seconds.  The workload seed drives the sensor noise
# and, for UKF-PINN, the identification log and net initialisation.  A
# schedule drawn from the workload seed would change the work per
# simulated second, and some draws knock the robot over.
PUSH_SCHEDULE_SEED = 0
PUSH_DURATION = 1.6            # s simulated per closed-loop run
NETS_ID_DURATION = 0.4         # s of locked-base log the push nets learn from
BURN_IN = 0.5                  # s, same as compute_metrics

OFFLINE_ID_DURATION = 1.0      # s of locked-base multi-sine excitation
HELD_OUT = 0.2                 # tail share of the log the net never sees
TRAIN_EPOCHS = 40
GA_POPULATION = 20
GA_GENERATIONS = 10
GA_BOUNDS = [(-4.0, 4.0), (-2.0, 8.0)]   # log10 q_accel, log10 q_jerk
ENCODER_BITS = 12
ENCODER_SAMPLES = 1000
ENCODER_DT = 1e-3


@dataclasses.dataclass
class Op:
    """One measured operation."""
    wall_s: float           # clock seconds of the whole operation
    sim_s: float            # simulated seconds it produced
    sim_wall_s: float       # clock seconds of the simulation part
    outputs: dict           # deterministic results, name -> float
    failure: str = None     # why the program's run is unacceptable
    train_samples: int = 0  # samples times epochs given to pinn.train


def _push_setup(seed, mode):
    scenario = experiments.make_disturbance_scenario(seed=PUSH_SCHEDULE_SEED)
    scenario = dataclasses.replace(scenario, duration=PUSH_DURATION, seed=seed)
    nets = None
    if mode == "UKF-PINN":
        dataset = experiments.generate_friction_dataset(
            duration=NETS_ID_DURATION, seed=seed)
        nets = experiments.default_friction_nets(Plant(scenario),
                                                 dataset=dataset, seed=seed)
    return {"scenario": scenario, "control": ControlConfig(mode=mode),
            "nets": nets}


def _push_op(ctx, clock):
    t0 = clock()
    report, log = experiments.run_scenario(ctx["scenario"], ctx["control"],
                                           nets=ctx["nets"])
    wall = clock() - t0
    outputs = {"torque_rmse": report["torque_rmse_overall"],
               "com_err_mm": max(report["com_mean_error_mm"])}
    if ctx["nets"] is not None:
        keep = log.t >= log.t[0] + BURN_IN
        err = log.tau_feedback[keep] - log.tau_true[keep]
        outputs["torque_est_rmse"] = float(np.sqrt(np.mean(err ** 2)))
    failure = None
    if report["diverged"]:
        failure = f"diverged at t={report['fall_time']}"
    elif report["fell"]:
        failure = f"fell at t={report['fall_time']}"
    sim_s = float(log.t[-1]) if len(log.t) else 0.0
    return Op(wall, sim_s, wall, outputs, failure)


def encoder_trace(seed):
    """Quantized multi-sine joint position, as a 12-bit encoder reads it."""
    rng = np.random.default_rng((seed, ENCODER_BITS))
    t = np.arange(ENCODER_SAMPLES) * ENCODER_DT
    amp = rng.uniform(0.1, 0.5, size=3)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    freq = np.array([0.5, 1.3, 2.9])
    pos = (amp[:, None] * np.sin(2.0 * np.pi * freq[:, None] * t
                                 + phase[:, None])).sum(axis=0)
    lsb = kf.encoder_lsb(ENCODER_BITS)
    return np.round(pos / lsb) * lsb


def _offline_setup(seed):
    # generate_friction_dataset logs joint 0 of the nominal plant
    plant = Plant(ScenarioConfig(seed=seed, lock_base=True))
    return {"seed": seed, "scv": plant.scv[0], "trace": encoder_trace(seed)}


def _offline_op(ctx, clock):
    seed = ctx["seed"]
    t0 = clock()
    dataset = experiments.generate_friction_dataset(
        duration=OFFLINE_ID_DURATION, seed=seed)
    t1 = clock()
    config = ga.GaConfig(bounds=GA_BOUNDS, population_size=GA_POPULATION,
                         generations=GA_GENERATIONS,
                         parents_mating=GA_POPULATION // 2, seed=seed)
    gains, history = ga.tune_kf(ctx["trace"], ENCODER_DT,
                                kf.encoder_lsb(ENCODER_BITS), config=config)
    split = int(round(len(dataset[0]) * (1.0 - HELD_OUT)))
    net = experiments.train_friction_net(tuple(a[:split] for a in dataset),
                                         ctx["scv"], seed=seed,
                                         epochs=TRAIN_EPOCHS)
    held = pinn.build_samples(*(a[split:] for a in dataset), net.buffer_len)
    friction_rmse = math.sqrt(pinn.validation_mse(net, held))
    wall = clock() - t0
    outputs = {"friction_rmse": friction_rmse,
               "kf_cost": -history[-1]["best"],
               "q_accel": gains["q_accel"], "q_jerk": gains["q_jerk"]}
    train_samples = (split - net.buffer_len + 1) * TRAIN_EPOCHS
    return Op(wall, float(dataset[0][-1]), t1 - t0, outputs,
              train_samples=train_samples)


# deterministic outputs reported by the traced run (0 where a workload has
# no such output)
OUTPUT_NAMES = ("torque_rmse", "torque_est_rmse", "com_err_mm",
                "friction_rmse", "kf_cost")

WORKLOADS = {
    "push-ukf-pinn": (lambda seed: _push_setup(seed, "UKF-PINN"), _push_op),
    "push-feedforward": (lambda seed: _push_setup(seed, "Feedforward"),
                         _push_op),
    "offline-id": (_offline_setup, _offline_op),
}
