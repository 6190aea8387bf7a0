"""Genetic-algorithm optimizer: convergence, elitism, determinism."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from reference_kf import kf_fitness_one
from torquesense import ga
from torquesense.ga import GaConfig, kf_fitness, optimize, tune_kf
from torquesense.kf import encoder_lsb


def sphere_center(c):
    """Population fitness: minus the squared distance of each row to c."""
    c = np.asarray(c)
    return lambda pop: -np.sum((pop - c) ** 2, axis=-1)


def test_converges_on_convex_landscape():
    c = np.array([0.3, -1.2])
    cfg = GaConfig(bounds=[(-2.0, 2.0), (-2.0, 2.0)], population_size=60,
                   generations=50, parents_mating=30, seed=3)
    best, history = optimize(cfg, sphere_center(c))
    # within 1% of the box span of the optimum
    assert np.all(np.abs(best - c) < 0.04)
    assert len(history) == 50


def test_elitism_monotonic_best():
    cfg = GaConfig(bounds=[(-1.0, 1.0)] * 3, population_size=30,
                   generations=25, parents_mating=15, seed=5)
    _, history = optimize(cfg, sphere_center([0.1, 0.2, 0.3]))
    bests = [h["best"] for h in history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    # the recorded best genes always score the recorded best fitness
    for h in history:
        assert sphere_center([0.1, 0.2, 0.3])(h["best_genes"]) == \
            pytest.approx(h["best"])


def test_deterministic_given_seed():
    cfg = GaConfig(bounds=[(-1.0, 1.0), (0.0, 2.0)], population_size=20,
                   generations=10, parents_mating=10, seed=7)
    b1, h1 = optimize(cfg, sphere_center([0.5, 1.0]))
    b2, h2 = optimize(cfg, sphere_center([0.5, 1.0]))
    assert np.array_equal(b1, b2)
    for a, b in zip(h1, h2):
        assert a["best"] == b["best"]
        assert a["mean"] == b["mean"]
        assert np.array_equal(a["best_genes"], b["best_genes"])


def test_population_of_one_with_full_elitism_never_changes():
    cfg = GaConfig(bounds=[(-1.0, 1.0), (-1.0, 1.0)], population_size=1,
                   generations=5, parents_mating=1, seed=11)
    best, history = optimize(cfg, sphere_center([0.0, 0.0]))
    assert all(h["best"] == history[0]["best"] for h in history)
    assert all(np.array_equal(h["best_genes"], history[0]["best_genes"])
               for h in history)


def test_nan_fitness_scored_minus_inf():
    cfg = GaConfig(bounds=[(0.0, 1.0)], population_size=8, generations=3,
                   parents_mating=4, seed=13)

    def fitness(pop):
        return np.where(pop[:, 0] > 0.5, np.nan, pop[:, 0])

    best, history = optimize(cfg, fitness)
    assert best[0] <= 0.5
    assert np.isfinite(history[-1]["best"])
    # with no finite score there is nothing to select on
    with pytest.raises(ValueError, match="generation 0 has a finite"):
        optimize(cfg, lambda pop: np.full(len(pop), np.nan))


def test_fitness_errors_propagate():
    cfg = GaConfig(bounds=[(0.0, 1.0)], population_size=4, generations=2,
                   parents_mating=2, seed=17)

    def broken(genes):
        raise TypeError("fitness bug")

    with pytest.raises(TypeError, match="fitness bug"):
        optimize(cfg, broken)

    # the fitness takes the genes only; a stochastic one closes over
    # its own generator
    def two_args(genes, rng):
        return float(genes[0])

    with pytest.raises(TypeError, match="rng"):
        optimize(cfg, two_args)


def test_fitness_must_score_every_row():
    cfg = GaConfig(bounds=[(0.0, 1.0)] * 2, population_size=6,
                   generations=2, parents_mating=3, seed=23)
    # a per-candidate fitness handed the population returns one number
    with pytest.raises(ValueError, match=r"one score per row.*\(6, 2\)"):
        optimize(cfg, lambda pop: -float(np.sum(pop ** 2)))
    with pytest.raises(ValueError, match="one score per row"):
        optimize(cfg, lambda pop: -pop ** 2)


def test_config_validation():
    with pytest.raises(ValueError, match=r"parents_mating \(6\) must not "
                       r"exceed population_size \(5\)"):
        GaConfig(bounds=[(0.0, 1.0)], population_size=5, parents_mating=6)
    with pytest.raises(ValueError):
        GaConfig(bounds=[(1.0, 0.0)])
    for name in ("population_size", "generations", "parents_mating"):
        with pytest.raises(ValueError, match=f"GaConfig.{name} must be at "
                           f"least 1, got 0"):
            GaConfig(bounds=[(0.0, 1.0)], **{name: 0})


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    # -1 used to pass and end the search in numpy's default_rng
    with pytest.raises(ValueError, match=r"^GaConfig\.seed must be a "
                       rf"nonnegative integer, got {re.escape(repr(seed))}$"):
        GaConfig(bounds=[(0.0, 1.0)], seed=seed)
    assert GaConfig(bounds=[(0.0, 1.0)], seed=np.int64(3)).seed == 3


def synthetic_trace(n=2000, dt=1e-3, lsb=encoder_lsb(12), noise=False, seed=0):
    t = np.arange(n) * dt
    z = 0.8 * np.sin(2 * np.pi * 1.0 * t)
    if noise:
        z = z + np.random.default_rng(seed).normal(scale=lsb, size=n)
    return np.round(z / lsb) * lsb


def test_kf_fitness_basic_properties():
    dt, lsb = 1e-3, encoder_lsb(12)
    trace = synthetic_trace()
    s1, = kf_fitness([[1e-2, 1e2]], trace, dt, lsb)
    s2, = kf_fitness([[1e-2, 1e2]], trace, dt, lsb)
    assert s1 == s2  # identical candidates, identical scores
    assert np.isfinite(s1) and s1 <= 0.0
    assert kf_fitness([[-1.0, 1.0]], trace, dt, lsb)[0] == -np.inf
    with pytest.raises(ValueError):
        kf_fitness([[1.0, 1.0]], trace[:50], dt, lsb)


def test_kf_fitness_stack_matches_the_per_candidate_fitness():
    dt, lsb = 1e-3, encoder_lsb(12)
    trace = synthetic_trace(noise=True)
    r = np.random.default_rng(3)
    genes = np.column_stack([10.0 ** r.uniform(-4.0, 4.0, 9),
                             10.0 ** r.uniform(-2.0, 8.0, 9)])
    genes[3] = genes[7]            # a repeated candidate
    genes[5, 1] = -1.0             # a negative density scores -inf per row
    genes[6, 0] = -0.5
    scores = kf_fitness(genes, trace, dt, lsb)
    assert scores.shape == (9,)
    assert scores[5] == scores[6] == -np.inf
    for g, s in zip(genes, scores):
        assert s == kf_fitness_one(g, trace, dt, lsb)
        assert kf_fitness(g[None], trace, dt, lsb)[0] == s
    assert np.all(kf_fitness(genes[5:7], trace, dt, lsb) == -np.inf)


def perfbench_encoder_trace(seed):
    """The offline-id benchmark workload's 12-bit encoder trace."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.encoder_trace(seed), workloads.GA_BOUNDS


@pytest.mark.parametrize("seed", [0, 1])
def test_tune_kf_matches_the_per_candidate_ga(seed, monkeypatch):
    from torquesense import ga
    dt, lsb = 1e-3, encoder_lsb(12)
    trace, bounds = perfbench_encoder_trace(seed)
    cfg = GaConfig(bounds=bounds, population_size=20, generations=10,
                   parents_mating=10, seed=seed)
    rows_per_pass = []
    filter_trace = ga.filter_trace

    def counted(*a):
        rows_per_pass.append(len(a[3]))
        return filter_trace(*a)

    monkeypatch.setattr(ga, "filter_trace", counted)
    gains, history = tune_kf(trace, dt, lsb, config=cfg)

    # the reference scores every candidate of every generation afresh
    seen = set()
    rows_scored = []

    def every_row(pop):
        rows_scored.append(len(pop))
        seen.update(row.tobytes() for row in pop)
        return np.array([kf_fitness_one(10.0 ** g, trace, dt, lsb)
                         for g in pop])

    best, ref_history = optimize(cfg, every_row)
    # each distinct candidate of the tune is filtered exactly once, in
    # at most one pass per generation
    assert sum(rows_per_pass) == len(seen) < sum(rows_scored)
    assert len(rows_per_pass) <= cfg.generations
    assert gains == {"q_accel": float(10.0 ** best[0]),
                     "q_jerk": float(10.0 ** best[1])}
    assert len(history) == len(ref_history) == cfg.generations
    for h, ref in zip(history, ref_history):
        assert h.keys() == ref.keys()
        for key in ("generation", "best", "generation_best", "mean"):
            assert h[key] == ref[key]
        assert np.array_equal(h["best_genes"], ref["best_genes"])


def test_zero_noise_constant_velocity_error_terms_vanish():
    # on an exact linear trace a low-Q filter drives every raw fitness
    # ingredient (alignment, integration consistency, jerk) to ~zero
    from torquesense.kf import filter_trace
    dt = 1e-3
    t = np.arange(6000) * dt
    trace = 0.3 * t
    x, v, _ = (est[0] for est in
               filter_trace(trace, dt, encoder_lsb(24), [1e-2], [1e1]))
    half = len(t) // 2
    align = x[half:] - trace[half:]
    integ = np.diff(x[half:]) / dt - v[half + 1:]
    jerk = np.diff(v[half:], 2) / dt ** 2
    assert np.mean(align ** 2) < 1e-8
    assert np.mean(integ ** 2) < 1e-8
    assert np.mean(jerk ** 2) < 1e-8


def test_larger_jerk_weight_gives_smoother_filter(monkeypatch):
    # the weights are module constants, set here to compare three
    dt, lsb = 1e-3, encoder_lsb(12)
    trace = synthetic_trace(noise=True)
    cfg = GaConfig(bounds=[(-4.0, 4.0), (-2.0, 8.0)], population_size=20,
                   generations=8, parents_mating=10, seed=19)
    jerk_vars = []
    from torquesense.kf import filter_trace
    for w_jerk in (0.1, 10.0, 1000.0):
        monkeypatch.setattr(ga, "FITNESS_WEIGHTS", (w_jerk, 0.1, 10.0, 1.0))
        gains, _ = tune_kf(trace, dt, lsb, config=cfg)
        _, (v,), _ = filter_trace(trace, dt, lsb, [gains["q_accel"]],
                                  [gains["q_jerk"]])
        jerk_vars.append(np.var(np.diff(v, 2) / dt ** 2))
    assert jerk_vars[2] < jerk_vars[0]
