"""Experiment runner: metrics algebra, runs, sweeps, scenarios."""

import dataclasses
import gc
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from friction_scaling import scalability_sweep, scaled, scaled_scenario
from reference_kf import ScalarOnlineKf
from torquesense import experiments, pinn
from torquesense.control import CURRENT_LIMIT, MODES, ControlConfig
from torquesense.experiments import (
    DEFAULT_KF_GAINS,
    OBJECT_HEIGHT,
    OBJECT_TIMES,
    Controller,
    OnlineKf,
    check_nets,
    compute_metrics,
    generate_friction_dataset,
    group_by_net,
    make_disturbance_scenario,
    make_object_scenario,
    predict_friction,
    render_table,
    run_scenario,
    RunLog,
    ScenarioRefused,
)
from torquesense.kf import encoder_lsb, filter_trace
from torquesense.friction import ScvParams
from torquesense.model import desk_biped
from torquesense.plant import (Disturbance, Plant, ScenarioConfig,
                               SimulationDiverged)

SHORT = dict(duration=1.2, seed=0)


def synthetic_log(n_joints=2, T=2000, dt=1e-3, offset=None, seed=0):
    r = np.random.default_rng(seed)
    t = np.arange(T) * dt
    tau_true = r.normal(size=(T, n_joints))
    tau_d = tau_true + (r.normal(size=(T, n_joints)) if offset is None
                        else np.asarray(offset))
    com = r.normal(scale=1e-3, size=(T, 3))
    return RunLog(t, tau_d, tau_true, tau_d.copy(), com, np.zeros((T, 3)),
                  np.zeros((T, n_joints)), False, float("nan"), False)


def test_metric_identities():
    log = synthetic_log()
    rep = compute_metrics(log, ScenarioConfig(), ControlConfig())
    mse = np.array(rep["torque_mse"])
    rmse = np.array(rep["torque_rmse"])
    mae = np.array(rep["torque_mae"])
    assert np.allclose(rmse ** 2, mse, rtol=1e-12)
    assert np.all(mae <= rmse + 1e-15)          # Jensen's inequality
    # overall RMSE pools all joints
    keep = log.t >= 0.5
    err = log.tau_d[keep] - log.tau_true[keep]
    assert rep["torque_rmse_overall"] == pytest.approx(
        np.sqrt(np.mean(err ** 2)), rel=1e-12)


def test_metric_constant_offset_case():
    log = synthetic_log(offset=[0.3, -0.7])
    rep = compute_metrics(log, ScenarioConfig(), ControlConfig())
    assert np.allclose(rep["torque_rmse"], [0.3, 0.7], atol=1e-12)
    assert np.allclose(rep["torque_mae"], [0.3, 0.7], atol=1e-12)
    assert np.allclose(rep["torque_mse"], [0.09, 0.49], atol=1e-12)


def test_com_error_windowed_before_first_disturbance():
    log = synthetic_log()
    # CoM error nonzero only after the (only) disturbance at t = 1.0
    log.com[:] = 0.0
    log.com[log.t >= 1.0] = 0.05
    scen = ScenarioConfig(disturbances=[
        Disturbance(1.0, 0.2, "torso_push", (0.0, 10.0, 0.0))])
    rep = compute_metrics(log, scen, ControlConfig())
    assert np.allclose(rep["com_mean_error_mm"], 0.0, atol=1e-12)
    # without the disturbance the window extends over the offset region
    rep2 = compute_metrics(log, ScenarioConfig(), ControlConfig())
    assert max(rep2["com_mean_error_mm"]) > 1.0


def test_render_table_markdown():
    log = synthetic_log(offset=[0.25, 0.25])
    rep = compute_metrics(log, ScenarioConfig(), ControlConfig(mode="Feedforward"))
    table = render_table([rep])
    lines = table.strip().splitlines()
    assert lines[0].startswith("| mode |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert "Feedforward" in lines[2]
    assert "0.25" in lines[2]


def test_online_kf_tracks_constant_acceleration():
    dt = 1e-3
    kf = OnlineKf(dt, [encoder_lsb(20)], q_accel=1e-2, q_jerk=1e2)
    x = v = None
    for k in range(4000):
        t = k * dt
        x, v, a = kf.update(0.5 * 3.0 * t * t)
    assert abs(v[0] - 3.0 * (k * dt)) < 1e-3
    assert abs(a[0] - 3.0) < 1e-3


@pytest.mark.parametrize("bits", [12, 16])
def test_online_kf_tracks_filter_trace_after_convergence(bits):
    # once the batch filter's gain schedule has converged it applies the
    # steady-state gain, which the online filter uses from the start
    dt, lsb = 1e-3, encoder_lsb(bits)
    t = np.arange(3000) * dt
    z = np.round((0.4 * np.sin(2 * np.pi * 1.3 * t) + 0.5 * t * t) / lsb) * lsb
    one = {key: [q] for key, q in DEFAULT_KF_GAINS.items()}
    xs, vs, accs = (est[0] for est in filter_trace(z, dt, lsb, **one))
    start = 1000
    kf = OnlineKf(dt, [lsb], **DEFAULT_KF_GAINS)
    kf.x[:], kf.v[:], kf.a[:] = xs[start - 1], vs[start - 1], accs[start - 1]
    for k in range(start, len(z)):
        x, v, a = kf.update(z[k])
        assert (x[0], v[0], a[0]) == (xs[k], vs[k], accs[k])


def test_encoder_bank_matches_one_filter_per_channel():
    # a 12-bit + 16-bit bank, three channels of each kind, against one
    # scalar filter per channel over 3000 samples
    dt = 1e-3
    lsb = np.repeat([encoder_lsb(12), encoder_lsb(16)], 3)
    x0 = np.array([0.1, -0.2, 0.3, 1.0, -2.0, 0.5])
    bank = OnlineKf(dt, lsb, **DEFAULT_KF_GAINS)
    bank.x[:] = x0
    scalar = [ScalarOnlineKf(dt, lsb[c], **DEFAULT_KF_GAINS, x0=x0[c])
              for c in range(6)]
    t = np.arange(3000) * dt
    phase = np.arange(6)[:, None]
    z = x0[:, None] + 0.4 * np.sin(2 * np.pi * 1.3 * t + phase) + 0.5 * t * t
    z = np.round(z / lsb[:, None]) * lsb[:, None]
    for k in range(len(t)):
        x, v, a = bank.update(z[:, k])
        ref = np.array([f.update(z[c, k]) for c, f in enumerate(scalar)])
        assert np.array_equal(x, ref[:, 0])
        assert np.array_equal(v, ref[:, 1])
        assert np.array_equal(a, ref[:, 2])


def test_encoder_gains_computed_once_per_distinct_lsb(monkeypatch):
    calls = []
    steady_state_gain = experiments.steady_state_gain

    def recorded(dt, lsb, *args):
        calls.append(np.array(lsb))
        return steady_state_gain(dt, lsb, *args)

    monkeypatch.setattr(experiments, "steady_state_gain", recorded)
    scenario = ScenarioConfig(duration=0.55, seed=0)
    run_scenario(scenario, ControlConfig(mode="Feedforward"))
    generate_friction_dataset(duration=0.01)
    distinct = [encoder_lsb(scenario.noise["motor_encoder_bits"]),
                encoder_lsb(scenario.noise["joint_encoder_bits"])]
    # one batched recursion per run over the two encoder kinds, not one
    # per channel
    assert len(calls) == 2
    for lsb in calls:
        assert np.array_equal(lsb, distinct)


def test_gains_that_never_settle_are_rejected_before_the_run(monkeypatch):
    # a 30-bit joint encoder at a 1 ms step: the filter gain at the
    # default densities never settles, and the message names the
    # scenario keys that set the resolutions
    def step(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(Plant, "step", step)
    message = re.escape(
        "ScenarioConfig.noise (joint_encoder_bits 30, motor_encoder_bits "
        "16) at the 0.001 s step: the encoder-filter gain "
        "for q_accel=0.001, q_jerk=200 at lsb 5.85167e-09 rad does not "
        "settle within 20000 steps")
    with pytest.raises(ScenarioRefused, match=message + "$"):
        run_scenario(ScenarioConfig(**SHORT, noise={"joint_encoder_bits": 30}),
                     ControlConfig(mode="Feedforward"))


def test_run_scenario_requires_nets_for_estimating_modes():
    with pytest.raises(ValueError, match="nets"):
        run_scenario(ScenarioConfig(**SHORT), ControlConfig(mode="UKF-PINN"))


def test_nets_must_key_exactly_the_model_joints():
    names = Plant(ScenarioConfig()).model.joint_names
    nets = mixed_nets(names)
    check_nets(nets, names)
    partial = {"left_hip_roll": nets["left_hip_roll"]}
    with pytest.raises(ValueError, match=r"no net for joint\(s\) "
                       r"right_hip_roll, torso_pitch, .*, left_ankle_pitch;"):
        run_scenario(ScenarioConfig(**SHORT), ControlConfig(mode="UKF-PINN"),
                     nets=partial)
    extra = dict(nets, left_hip_rol=nets["left_hip_roll"], knee=None)
    with pytest.raises(ValueError, match=r"^friction nets: unknown joint\(s\) "
                       r"knee, left_hip_rol; the model's joints are "
                       r"left_hip_roll, right_hip_roll"):
        check_nets(extra, names)


def test_scalability_sweep_validation_and_identity():
    scen = ScenarioConfig(**SHORT)
    with pytest.raises(ValueError, match="positive"):
        scalability_sweep(scen, [-0.5], control=ControlConfig(mode="Feedforward"))
    with pytest.raises(ValueError, match="positive and finite"):
        scalability_sweep(scen, [float("nan")],
                          control=ControlConfig(mode="Feedforward"))
    base, _ = run_scenario(scen, ControlConfig(mode="Feedforward"))
    reports = scalability_sweep(scen, [1.0],
                                control=ControlConfig(mode="Feedforward"))
    assert reports[0]["friction_scale"] == 1.0
    # scaling by exactly 1 reproduces the nominal trajectory
    assert reports[0]["torque_rmse_overall"] == base["torque_rmse_overall"]
    assert reports[0]["torque_rmse"] == base["torque_rmse"]


def test_scalability_sweep_scales_every_joint_and_keeps_the_rest(monkeypatch):
    # a named joint entry replaces "default": its friction must be scaled
    # too, and every joint keeps its motor and elasticity settings
    scen = ScenarioConfig(joints={
        "default": {"motor": {"k_t": 0.12}, "elasticity": {"damping": 6.0}},
        "left_hip_roll": {"friction": {"coulomb": 3.0, "breakaway": 4.0},
                          "motor": {"reduction": 80.0}},
    }, **SHORT)
    ran = []
    monkeypatch.setattr(experiments, "run_scenario",
                        lambda scenario, *a, **kw: ran.append(scenario) or ({}, None))
    scalability_sweep(scen, [0.5])
    nominal, scaled_plant = Plant(scen), Plant(ran[0])
    roll = nominal.model.joint_names.index("left_hip_roll")
    assert nominal.scv[roll].coulomb == 3.0
    for j in range(nominal.n):
        assert scaled_plant.scv[j] == scaled(nominal.scv[j], 0.5), j
    for name in ("k_t", "reduction", "motor_inertia", "elastic_k",
                 "elastic_d"):
        assert np.array_equal(getattr(scaled_plant, name),
                              getattr(nominal, name))
    assert len(set(nominal.reduction)) == 2 and len(set(nominal.k_t)) == 2


def test_disturbance_scenario_construction():
    s1 = make_disturbance_scenario(seed=4)
    s2 = make_disturbance_scenario(seed=4)
    assert s1.config_hash() == s2.config_hash()
    assert 4 <= len(s1.disturbances) <= 8
    times = [d.time for d in s1.disturbances]
    assert times == sorted(times)
    for d in s1.disturbances:
        assert d.frame == "torso_push"
        assert 1.0 <= d.time <= s1.duration - 0.6
        f = np.asarray(d.force)
        assert f[2] == 0.0
        assert 10.0 <= np.linalg.norm(f) <= 40.0 + 1e-9
    assert make_disturbance_scenario(seed=5).config_hash() != s1.config_hash()


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_disturbance_scenario_checks_its_seed_before_drawing(seed):
    # the seed is checked as the config's, before the pushes are drawn
    with pytest.raises(ValueError, match="ScenarioConfig.seed must be a "
                       "nonnegative integer"):
        make_disturbance_scenario(seed=seed)


def test_disturbance_scenario_keeps_its_pushes():
    # the push schedules the benchmark and the disturbance runs are built on
    assert [make_disturbance_scenario(seed=k).config_hash()
            for k in (0, 1, 7)] == ["93c461ec4688497d", "890becb0f9a01040",
                                    "83f4c03fbc0ea747"]


def test_object_scenario_construction():
    s = make_object_scenario(seed=1)
    assert len(s.object_events) == 2
    ins, rem = s.object_events
    assert (ins.action, rem.action) == ("insert", "remove")
    assert ins.height == rem.height == OBJECT_HEIGHT == 0.03
    assert ins.frame == rem.frame == "right_sole"
    assert ins.region == rem.region == "front"
    assert (ins.time, rem.time) == OBJECT_TIMES
    assert ins.time < rem.time
    assert tuple(s.com_amplitude) == (0.0, 0.0, 0.0)


def test_friction_dataset_shapes_and_determinism():
    t1, mv1, jv1, fr1 = generate_friction_dataset(duration=0.5, seed=2)
    t2, mv2, jv2, fr2 = generate_friction_dataset(duration=0.5, seed=2)
    assert len(t1) == 500
    assert np.array_equal(mv1, mv2)
    assert np.array_equal(jv1, jv2)
    assert np.array_equal(fr1, fr2)
    # the excitation actually moves the joint
    assert np.max(np.abs(jv1)) > 0.01
    # friction opposes the motion most of the time
    moving = np.abs(jv1) > 0.2
    assert np.mean(np.sign(fr1[moving]) == np.sign(jv1[moving])) > 0.9


def test_friction_dataset_takes_its_length_from_the_scenario():
    # the log holds one row per 1 ms step of the base-locked scenario
    # built from `duration`, stamped with the time after that step
    for duration, rows in ((0.02, 20), (0.035, 35)):
        t, mv, jv, fr = generate_friction_dataset(duration=duration)
        assert len(t) == len(mv) == len(jv) == len(fr) == rows
        assert np.allclose(t, np.arange(1, rows + 1) * 1e-3, rtol=0,
                           atol=1e-12)


@pytest.mark.parametrize("step", [5e-4, 2e-3])
def test_step_must_match_sensor_rate(step):
    # the sensors sample once per plant step, so nothing sets their rate
    # apart from the step: the sensor_rate key of older scenario files
    # is refused, even as 1/step
    plant = Plant(ScenarioConfig(step=step))
    state = plant.initial_state()
    for k in range(1, 4):
        state, sensors = plant.step(state, np.zeros(plant.n))
        assert sensors.t == state.t == pytest.approx(k * step)
    with pytest.raises(TypeError,
                       match="unexpected keyword argument 'sensor_rate'"):
        ScenarioConfig(step=step, sensor_rate=1 / step)


def mixed_nets(joint_names):
    """Joints mapped to three nets with different buffer lengths, one of
    them serving a single joint."""
    scv = ScvParams(coulomb=1.0, breakaway=2.0, stribeck_vel=0.1, viscous=0.5)
    long = pinn.FrictionNet(6, 10, 7, 0.3, scv, seed=1)
    short = pinn.FrictionNet(3, 5, 9, 0.3, scv, seed=2)
    lone = pinn.FrictionNet(4, 6, 6, 0.3, scv, seed=3)
    for net in (long, short, lone):
        net.params["W3"] *= 4.0  # outputs large enough for the clip to act
    picks = [long, short, short, long, lone, short, long, long]
    return {name: picks[j] for j, name in enumerate(joint_names)}


def per_joint_friction(nets, joint_names, mv_buf, jv_buf):
    out = []
    for j, name in enumerate(joint_names):
        L = nets[name].buffer_len
        out.append(pinn.predict_bounded(nets[name], mv_buf[None, -L:, j],
                                        jv_buf[None, -L:, j])[0])
    return np.array(out)


def test_batched_friction_matches_the_per_joint_loop():
    names = [f"j{j}" for j in range(8)]
    nets = mixed_nets(names)
    groups = group_by_net(nets, names)
    assert [net.buffer_len for net, _ in groups] == [6, 3, 4]
    assert [idx.tolist() for _, idx in groups] == [[0, 3, 6, 7], [1, 2, 5], [4]]
    r = np.random.default_rng(0)
    for _ in range(20):
        mv, jv = 3.0 * r.normal(size=(6, 8)), r.normal(size=(6, 8))
        batched = predict_friction(groups, mv, jv)
        loop = per_joint_friction(nets, names, mv, jv)
        assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_closed_loop_calls_each_net_once_per_tick(monkeypatch):
    # long enough to pass the metrics' 0.5 s burn-in
    scenario = ScenarioConfig(duration=0.55, seed=0)
    names = Plant(scenario).model.joint_names
    nets = mixed_nets(names)
    calls = []
    diffs = []
    batched = experiments.predict_friction
    predict_bounded = pinn.predict_bounded

    def counted(*args, **kw):
        calls.append(1)
        return predict_bounded(*args, **kw)

    def checked(groups, mv_buf, jv_buf):
        out = batched(groups, mv_buf, jv_buf)
        loop = per_joint_friction(nets, names, mv_buf, jv_buf)
        diffs.append(np.max(np.abs(out - loop)) / max(np.max(np.abs(loop)), 1e-300))
        return out

    monkeypatch.setattr(experiments, "predict_friction", checked)
    monkeypatch.setattr(pinn, "predict_bounded", counted)
    report, log = run_scenario(scenario, ControlConfig(mode="UKF-PINN"), nets=nets)
    assert len(diffs) == len(log.t) == 550
    # three distinct nets: three calls per tick, plus the 8 per tick of
    # the per-joint reference above
    assert len(calls) == len(log.t) * (3 + 8)
    assert max(diffs) <= 1e-12


def test_ukf_nocomp_runs_no_friction_nets(monkeypatch):
    # its filter's friction channel is masked and it compensates nothing,
    # so nets given to it are never called and change nothing
    scenario = ScenarioConfig(duration=0.55, seed=0)
    nets = mixed_nets(Plant(scenario).model.joint_names)
    control = ControlConfig(mode="UKF-NoComp")
    _, bare = run_scenario(scenario, control)

    def unused(*args):
        raise AssertionError("UKF-NoComp predicted friction")

    monkeypatch.setattr(experiments, "predict_friction", unused)
    _, given = run_scenario(scenario, control, nets=nets)
    for field in dataclasses.fields(RunLog):
        np.testing.assert_array_equal(getattr(given, field.name),
                                      getattr(bare, field.name),
                                      err_msg=field.name, strict=True)


@pytest.fixture(scope="module")
def short_log_nets():
    """Friction nets learned from a 0.4 s identification log."""
    return experiments.default_friction_nets(
        Plant(ScenarioConfig()), generate_friction_dataset(duration=0.4))


@pytest.mark.parametrize("mode", ["UKF-PINN", "UKF-NoComp", "RNEA-PINN",
                                  "RNEA-NoComp"])
def test_a_controller_built_from_the_scenario_replays_a_run(
        monkeypatch, short_log_nets, mode):
    # a push run's sensor stream, ticked through a controller built from
    # the scenario with no plant and no balancer, gives the run's torque
    # feedback bit for bit: the feedback reads the sensors alone
    scenario = ScenarioConfig(duration=0.8, disturbances=[
        Disturbance(0.55, 0.15, "torso_push", (25.0, -10.0, 0.0))])
    stream = []
    plant_step = Plant.step

    def recorded(self, *args):
        state, sensors = plant_step(self, *args)
        stream.append(sensors)
        return state, sensors

    monkeypatch.setattr(Plant, "step", recorded)
    _, log = run_scenario(scenario, ControlConfig(mode=mode),
                          nets=short_log_nets)
    assert len(stream) == len(log.t) == 800

    def unavailable(*args):
        raise AssertionError("the replay reached a plant or the balancer")

    monkeypatch.setattr(experiments, "Plant", unavailable)
    monkeypatch.setattr(Controller, "balance", unavailable)
    controller = Controller(scenario, mode, short_log_nets)
    replayed = np.empty_like(log.tau_feedback)
    for k, sensors in enumerate(stream):
        controller.tick(sensors)
        replayed[k] = controller.tau_feedback
    assert replayed.tobytes() == log.tau_feedback.tobytes()
    assert np.isfinite(replayed).all()


@pytest.mark.parametrize("duration", [0.05, 0.5, 0.501])
def test_run_no_longer_than_the_burn_in_is_rejected(duration):
    message = re.escape(f"duration ({duration:g} s)") + ".*0.5 s metrics burn-in"
    with pytest.raises(ValueError, match=message):
        run_scenario(ScenarioConfig(duration=duration),
                     ControlConfig(mode="Feedforward"))


def test_run_just_past_the_burn_in_has_finite_metrics():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, log = run_scenario(ScenarioConfig(duration=0.502),
                                   ControlConfig(mode="Feedforward"))
    assert np.isfinite(report["torque_rmse_overall"])
    assert np.all(np.isfinite(report["torque_rmse"]))


DIVERGING_PUSHES = {1e20: 1, 1e40: 0, 1e200: 0}  # N -> ticks completed


@pytest.fixture(scope="module", params=sorted(DIVERGING_PUSHES))
def diverged_run(request):
    """(push force, scenario, report, log) of a run whose plant cannot
    integrate a push at t = 0."""
    scenario = ScenarioConfig(duration=0.6, disturbances=[
        Disturbance(0.0, 0.1, "torso_push", (request.param, 0.0, 0.0))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, log = run_scenario(scenario, ControlConfig(mode="Feedforward"))
    return request.param, scenario, report, log


def test_a_push_the_plant_cannot_integrate_ends_as_a_diverged_report(
        diverged_run):
    force, scenario, report, log = diverged_run
    assert report["diverged"] and report["fell"]
    assert report["fall_time"] == pytest.approx(
        (DIVERGING_PUSHES[force] + 1) * scenario.step)
    # no sample falls after the burn-in or before the push
    for key in ("torque_mse", "torque_rmse", "torque_mae",
                "torque_rmse_overall", "avg_abs_torque", "com_mean_error_mm",
                "com_max_error_mm"):
        assert report[key] is None, key
    assert (report["peak_abs_torque"] is None) == (len(log.t) == 0)


def test_a_step_too_long_for_the_transmission_ends_as_a_diverged_report(
        monkeypatch):
    # at 5 ms the elastic transmission's stage states grow until a
    # stage's base rotation overflows; that used to end the run in
    # "ValueError: math domain error" from exp_so3
    diverged = []
    step = Plant.step

    def recorded(self, state, currents):
        try:
            return step(self, state, currents)
        except SimulationDiverged as exc:
            diverged.append((state.t, exc.time))
            raise

    monkeypatch.setattr(Plant, "step", recorded)
    report, log = run_scenario(ScenarioConfig(step=5e-3, duration=0.55),
                               ControlConfig(mode="Feedforward"))
    assert report["diverged"] and report["fell"]
    # the step after the last logged tick diverged, at its end time
    [(start, end)] = diverged
    assert 0.0 < start == log.t[-1] < 0.55
    assert end == pytest.approx(start + 5e-3)


def test_a_diverged_log_holds_exactly_the_ticks_it_completed(diverged_run):
    force, scenario, _, log = diverged_run
    rows = DIVERGING_PUSHES[force]
    np.testing.assert_array_equal(log.t, np.arange(1, rows + 1)
                                  * scenario.step)
    n = len(desk_biped().joint_names)
    shapes = {"t": (rows,), "com": (rows, 3), "com_ref": (rows, 3)}
    for field in dataclasses.fields(RunLog):
        value = getattr(log, field.name)
        if isinstance(value, np.ndarray):
            assert value.shape == shapes.get(field.name, (rows, n)), field.name
            assert value.dtype == np.float64 and value.flags.c_contiguous


def test_a_run_holds_a_bounded_log_per_tick(monkeypatch):
    control = ControlConfig(mode="Feedforward")
    run_scenario(ScenarioConfig(duration=0.502), control)  # warm every cache
    held = []
    compute_metrics = experiments.compute_metrics

    def traced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return compute_metrics(*args)

    monkeypatch.setattr(experiments, "compute_metrics", traced)
    # tracing slows a run ~6x: two runs 100 ticks apart
    for duration in (0.502, 0.602):
        tracemalloc.start()
        try:
            run_scenario(ScenarioConfig(duration=duration), control)
        finally:
            tracemalloc.stop()
    # the log's 39 float64 values per tick take 312 B
    assert (held[1] - held[0]) / 100 <= 400


@pytest.mark.parametrize("mode", MODES)
def test_a_run_leaves_no_reference_cycle(mode):
    # a controller tied into a cycle outlives its run until a full
    # collection, and every run of a sweep or a benchmark adds one
    scenario = ScenarioConfig(duration=0.502, seed=0)
    nets = mixed_nets(Plant(scenario).model.joint_names)
    gc.collect()
    gc.disable()
    try:
        run_scenario(scenario, ControlConfig(mode=mode), nets=nets)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_saturating_run_reports_its_saturation_events():
    # a 400 N torso shove drives the legs' currents to the limit, through
    # the one output stage of a torque mode and of the position baseline:
    # no current leaves it beyond the limit, and each tick it clipped
    # counts once, however many joints it clipped
    scenario = ScenarioConfig(duration=0.55, disturbances=[
        Disturbance(0.0, 0.1, "torso_push", (400.0, 0.0, 0.0))])
    for mode in ("Feedforward", "PositionControl"):
        report, log = run_scenario(scenario, ControlConfig(mode=mode))
        at_limit = np.abs(log.currents) == CURRENT_LIMIT
        assert np.max(np.abs(log.currents)) == CURRENT_LIMIT, mode
        assert report["saturation_events"] == log.saturation_events \
            == np.count_nonzero(at_limit.any(axis=1)), mode
        # several joints clip at once on some ticks
        assert at_limit.sum() > log.saturation_events, mode


# a softer transmission keeps the RK4 plant stable at 5 and 10 ms steps
SOFT_JOINTS = {"default": {"elasticity": {"stiffness": 500.0, "damping": 2.0}}}


@pytest.mark.parametrize("mode, step, every", [
    ("Feedforward", 1e-3, 10), ("Feedforward", 2e-3, 5),
    ("Feedforward", 5e-3, 2), ("Feedforward", 1e-2, 1),
    ("PositionControl", 1e-3, None),
], ids=["1ms", "2ms", "5ms", "every_tick", "position_control"])
def test_balancer_runs_on_its_cadence_through_the_loop(monkeypatch, mode,
                                                       step, every):
    # the 10 ms balancer runs before the plant step of ticks 0, every,
    # 2 every, ..., and never where the mode has no balancer
    ticks, balanced = [], []
    plant_step = Plant.step
    balancer = experiments.high_level_balancer

    def counted_step(self, *args):
        ticks.append(len(ticks))
        return plant_step(self, *args)

    def counted_balancer(*args, **kw):
        balanced.append(len(ticks))
        return balancer(*args, **kw)

    monkeypatch.setattr(Plant, "step", counted_step)
    monkeypatch.setattr(experiments, "high_level_balancer", counted_balancer)
    report, log = run_scenario(
        ScenarioConfig(step=step, duration=0.55, joints=SOFT_JOINTS),
        ControlConfig(mode=mode))
    assert not report["fell"]
    assert len(ticks) == len(log.t) == round(0.55 / step)
    assert balanced == ([] if every is None else ticks[::every])


@pytest.mark.parametrize("step", [3e-3, 4e-3], ids=["333Hz", "250Hz"])
def test_a_balancer_period_off_the_step_grid_is_rejected(monkeypatch, step):
    # a 333 Hz or 250 Hz plant steps 3 or 4 ms, neither of which divides
    # the 10 ms balancer period; the run is refused before its first step
    def plant_step(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(Plant, "step", plant_step)
    with pytest.raises(ScenarioRefused, match="balancer period"):
        run_scenario(ScenarioConfig(step=step, duration=0.55),
                     ControlConfig(mode="Feedforward"))


@pytest.mark.parametrize("kw, error, match", [
    ({"duration": 0.3}, ValueError, "leaves no samples after"),
    ({"step": 3e-3}, ScenarioRefused, "balancer period"),
    ({"noise": {"joint_encoder_bits": 30}}, ScenarioRefused,
     "does not settle"),
], ids=["duration", "balancer", "encoder"])
def test_a_scenario_is_checked_runnable_without_a_plant(monkeypatch, kw,
                                                        error, match):
    # the checks run_scenario makes before its first step, made on the
    # scenario alone
    def no_plant(*args):
        raise AssertionError("a plant was built")

    scenario = ScenarioConfig(**{"duration": 0.55, **kw})
    with pytest.raises(error, match=match):
        run_scenario(scenario, ControlConfig(mode="Feedforward"))
    monkeypatch.setattr(experiments, "Plant", no_plant)
    with pytest.raises(error, match=match):
        experiments.check_runnable(scenario)
    experiments.check_runnable(ScenarioConfig(duration=0.55))


def test_the_run_refuses_in_the_order_check_runnable_checks():
    # too short and off the balancer's grid: the run used to build a
    # plant and refuse the step, where the check refuses the duration
    scenario = ScenarioConfig(step=0.003, duration=0.1)
    with pytest.raises(ValueError) as checked:
        experiments.check_runnable(scenario)
    with pytest.raises(ValueError) as run:
        run_scenario(scenario, ControlConfig(mode="Feedforward"))
    assert type(run.value) is type(checked.value)
    assert str(run.value) == str(checked.value)
    assert "leaves no samples after" in str(run.value)


def test_rate_mismatch_names_the_control_setting():
    # the balancer rate is fixed, so the message names the setting a
    # scenario can change, with its value, and the period it must divide
    message = re.escape("ScenarioConfig.step (0.003 s) must divide the "
                        "0.01 s balancer period into whole steps")
    with pytest.raises(ValueError, match=message):
        run_scenario(ScenarioConfig(step=3e-3, duration=0.55),
                     ControlConfig(mode="Feedforward"))


# no sensor noise, no quantization and no CoM sway
QUIET = ScenarioConfig(
    duration=3.0, com_amplitude=(0.0, 0.0, 0.0),
    noise={"quantize": False, "current_std": 0.0, "ft_force_std": 0.0,
           "ft_torque_std": 0.0, "imu_acc_std": 0.0, "imu_gyro_std": 0.0})
QUIET_PUSH = dataclasses.replace(QUIET, disturbances=[
    Disturbance(1.0, 0.1, desk_biped().push_frame, (40.0, 0.0, 0.0))])


@pytest.mark.parametrize("mode", [
    "UKF-NoComp", "Feedforward",
    pytest.param("RNEA-NoComp", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: the RNEA loop enters a 17 Hz "
        "torso_pitch cycle (~10 N.m std) after this push; a fair RNEA "
        "baseline makes this pass"))])
def test_one_quiet_push_leaves_torso_pitch_at_rest(mode):
    # a 40 N, 0.1 s push with no noise and no CoM sway; one second after
    # it ends, the torso's true joint torque must have settled
    _, log = run_scenario(QUIET_PUSH, ControlConfig(mode=mode))
    assert not log.fell
    window = (log.t >= 2.0) & (log.t < 3.0)
    pitch = desk_biped().joint_names.index("torso_pitch")
    assert np.std(log.tau_true[window, pitch]) < 1.0


@pytest.mark.parametrize("mode", [
    "UKF-NoComp", "Feedforward",
    pytest.param("RNEA-NoComp", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: at friction x0.1 the start "
        "transient alone drives the RNEA loop into its 17 Hz torso_pitch "
        "cycle (~19 N.m std); a fair RNEA baseline makes this pass"))])
def test_quiet_standing_at_low_friction_leaves_torso_pitch_at_rest(mode):
    # no push: with every joint's friction at a tenth, the torso's true
    # joint torque must be at rest over [2, 3) s
    _, log = run_scenario(scaled_scenario(QUIET, 0.1),
                          ControlConfig(mode=mode))
    assert not log.fell
    window = (log.t >= 2.0) & (log.t < 3.0)
    pitch = desk_biped().joint_names.index("torso_pitch")
    assert np.std(log.tau_true[window, pitch]) < 1.0


@pytest.mark.parametrize("mode", [
    "Feedforward",
    *(pytest.param(mode, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 13: the PI loop's integral "
        f"action hunts against Coulomb friction ({swing} N.m std)"))
      for mode, swing in (("RNEA-NoComp", "~0.36"), ("UKF-NoComp", "~0.57")))])
def test_quiet_standing_holds_every_joint_torque_still(mode):
    # 4 s of standing at nominal friction, no push: over the last
    # second no joint's true torque may swing by 0.05 N.m (std)
    _, log = run_scenario(dataclasses.replace(QUIET, duration=4.0),
                          ControlConfig(mode=mode))
    assert not log.fell
    window = log.t >= 3.0
    assert np.max(np.std(log.tau_true[window], axis=0)) < 0.05
