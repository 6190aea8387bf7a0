"""Genetic-algorithm optimizer: convergence, elitism, determinism."""

import numpy as np
import pytest

from torquesense.ga import GaConfig, kf_fitness, optimize, tune_kf
from torquesense.kf import encoder_lsb


def sphere_center(c):
    c = np.asarray(c)
    return lambda genes: -float(np.sum((genes - c) ** 2))


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
                   generations=5, parents_mating=1, elitism_fraction=1.0,
                   seed=11)
    best, history = optimize(cfg, sphere_center([0.0, 0.0]))
    assert all(h["best"] == history[0]["best"] for h in history)
    assert all(np.array_equal(h["best_genes"], history[0]["best_genes"])
               for h in history)


def test_nan_fitness_scored_minus_inf():
    cfg = GaConfig(bounds=[(0.0, 1.0)], population_size=8, generations=3,
                   parents_mating=4, seed=13)

    def fitness(genes):
        return float("nan") if genes[0] > 0.5 else float(genes[0])

    best, history = optimize(cfg, fitness)
    assert best[0] <= 0.5
    assert np.isfinite(history[-1]["best"])


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


def test_zero_mutation_no_crossover_preserves_gene_values():
    # every child is a copy of a parent: gene values never leave the
    # initial population's value set
    cfg = GaConfig(bounds=[(0.0, 1.0)] * 2, population_size=12,
                   generations=6, parents_mating=6, crossover="none",
                   mutation_rate=0.0, seed=17)
    seen = set()

    def fitness(genes):
        seen.add(tuple(np.round(genes, 12)))
        return -float(np.sum(genes ** 2))

    optimize(cfg, fitness)
    # only the 12 founding individuals ever get evaluated
    assert len(seen) <= 12


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(bounds=[(0.0, 1.0)], population_size=5, parents_mating=6)
    with pytest.raises(ValueError):
        GaConfig(bounds=[(0.0, 1.0)], mutation_rate=1.5)
    with pytest.raises(ValueError):
        GaConfig(bounds=[(1.0, 0.0)])
    with pytest.raises(ValueError):
        GaConfig(bounds=[(0.0, 1.0)], crossover="uniform")


def synthetic_trace(n=2000, dt=1e-3, lsb=encoder_lsb(12), noise=False, seed=0):
    t = np.arange(n) * dt
    z = 0.8 * np.sin(2 * np.pi * 1.0 * t)
    if noise:
        z = z + np.random.default_rng(seed).normal(scale=lsb, size=n)
    return np.round(z / lsb) * lsb


def test_kf_fitness_basic_properties():
    dt, lsb = 1e-3, encoder_lsb(12)
    trace = synthetic_trace()
    s1 = kf_fitness([1e-2, 1e2], trace, dt, lsb)
    s2 = kf_fitness([1e-2, 1e2], trace, dt, lsb)
    assert s1 == s2  # identical candidates, identical scores
    assert np.isfinite(s1) and s1 <= 0.0
    assert kf_fitness([-1.0, 1.0], trace, dt, lsb) == -np.inf
    with pytest.raises(ValueError):
        kf_fitness([1.0, 1.0], trace[:50], dt, lsb)


def test_zero_noise_constant_velocity_error_terms_vanish():
    # on an exact linear trace a low-Q filter drives every raw fitness
    # ingredient (alignment, integration consistency, jerk) to ~zero
    from torquesense.kf import filter_trace
    dt = 1e-3
    t = np.arange(6000) * dt
    trace = 0.3 * t
    x, v, _ = filter_trace(trace, dt, encoder_lsb(24), 1e-2, 1e1)
    half = len(t) // 2
    align = x[half:] - trace[half:]
    integ = np.diff(x[half:]) / dt - v[half + 1:]
    jerk = np.diff(v[half:], 2) / dt ** 2
    assert np.mean(align ** 2) < 1e-8
    assert np.mean(integ ** 2) < 1e-8
    assert np.mean(jerk ** 2) < 1e-8


def test_larger_jerk_weight_gives_smoother_filter():
    dt, lsb = 1e-3, encoder_lsb(12)
    trace = synthetic_trace(noise=True)
    cfg = GaConfig(bounds=[(-4.0, 4.0), (-2.0, 8.0)], population_size=20,
                   generations=8, parents_mating=10, seed=19)
    jerk_vars = []
    from torquesense.kf import filter_trace
    for w_jerk in (0.1, 10.0, 1000.0):
        gains, _ = tune_kf(trace, dt, lsb, config=cfg,
                           weights=(w_jerk, 0.1, 10.0, 1.0))
        _, v, _ = filter_trace(trace, dt, lsb, gains["q_accel"], gains["q_jerk"])
        jerk_vars.append(np.var(np.diff(v, 2) / dt ** 2))
    assert jerk_vars[2] < jerk_vars[0]
