"""Real-coded genetic algorithm for scalar hyperparameter tuning.

`GaConfig()` is the encoder-filter search `torquesense tune-kf` runs:
genes log10 q_accel in [-4, 4] and log10 q_jerk in [-2, 8], population
40 over 15 generations, 20 parents picked by `TOURNAMENT_K`-tournament,
two-point crossover, `MUTATION_RATE` per-gene uniform mutation and
top-`ELITISM_FRACTION` elitism, seed 0.  The same optimizer runs any
small fitness landscape given its own bounds.  `kf_fitness` scores
encoder traces of at least `MIN_TRACE_SAMPLES` samples.
"""

from dataclasses import dataclass

import numpy as np

from .kf import filter_trace, quantization_variance

TOURNAMENT_K = 4          # entrants per parent-selection tournament
MUTATION_RATE = 0.20      # chance that a child's gene is redrawn
ELITISM_FRACTION = 0.10   # share of a generation kept unchanged
MIN_TRACE_SAMPLES = 100   # shortest trace kf_fitness scores


@dataclass
class GaConfig:
    """Search settings; bounds holds one (low, high) per gene."""
    bounds: tuple = ((-4.0, 4.0), (-2.0, 8.0))
    population_size: int = 40
    generations: int = 15
    parents_mating: int = 20
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(
                self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"GaConfig.seed must be a nonnegative integer, "
                             f"got {self.seed!r}")
        for name in ("population_size", "generations", "parents_mating"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"GaConfig.{name} must be at least 1, "
                                 f"got {v}")
        if self.parents_mating > self.population_size:
            raise ValueError(
                f"GaConfig.parents_mating ({self.parents_mating}) must not "
                f"exceed population_size ({self.population_size})")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"empty gene bounds ({lo}, {hi})")


def _two_point_crossover(a, b, rng):
    n = len(a)
    if n < 2:
        return a.copy()
    i, j = sorted(rng.choice(n + 1, size=2, replace=False))
    child = a.copy()
    child[i:j] = b[i:j]
    return child


def optimize(config, fitness):
    """Maximize `fitness` over the gene box; returns (best, history).

    `fitness` scores a whole generation at once: it is called as
    fitness(pop) with `pop` a (population_size, genes) array, one
    candidate per row, and returns one score per row.  It must be
    deterministic (a stochastic fitness closes over its own seeded
    generator); NaN scores are treated as -inf.  A first generation
    with no finite score leaves selection nothing to go on and raises
    ValueError.  `history` is a list of per-generation dicts with
    best/mean fitness and the best genes so far.
    """
    rng = np.random.default_rng(config.seed)
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    n_genes = len(config.bounds)
    pop = rng.uniform(lo, hi, size=(config.population_size, n_genes))
    n_elite = max(1, int(round(ELITISM_FRACTION * config.population_size)))

    history = []
    best_genes = None
    best_fit = -np.inf
    for gen in range(config.generations):
        scores = np.array(fitness(pop), dtype=float)
        if scores.shape != (len(pop),):
            raise ValueError(f"fitness must return one score per row of its "
                             f"({len(pop)}, {n_genes}) population, got shape "
                             f"{scores.shape}")
        scores[np.isnan(scores)] = -np.inf
        order = np.argsort(scores)[::-1]
        if scores[order[0]] > best_fit:
            best_fit = scores[order[0]]
            best_genes = pop[order[0]].copy()
        if best_genes is None:
            raise ValueError(f"no candidate of generation {gen} has a finite "
                             f"fitness score")
        finite = scores[np.isfinite(scores)]
        history.append({"generation": gen,
                        "best": float(best_fit),
                        "generation_best": float(scores[order[0]]),
                        "mean": float(finite.mean()) if len(finite) else -np.inf,
                        "best_genes": best_genes.copy()})
        if gen == config.generations - 1:
            break

        # k-tournament parent selection
        parents = np.empty((config.parents_mating, n_genes))
        for p in range(config.parents_mating):
            entrants = rng.integers(0, len(pop), size=TOURNAMENT_K)
            parents[p] = pop[entrants[np.argmax(scores[entrants])]]

        children = []
        n_children = config.population_size - n_elite
        for c in range(n_children):
            a = parents[rng.integers(len(parents))]
            b = parents[rng.integers(len(parents))]
            child = _two_point_crossover(a, b, rng)
            mask = rng.random(n_genes) < MUTATION_RATE
            if mask.any():
                child[mask] = rng.uniform(lo[mask], hi[mask])
            children.append(child)

        elite = pop[order[:n_elite]].copy()
        pop = np.vstack([elite] + children) if children else elite
    return best_genes, history


# (jerk, acceleration, alignment, integration) weights of `kf_fitness`
FITNESS_WEIGHTS = (1.0, 0.1, 10.0, 1.0)


def _mean_square(d):
    """Row means of d ** 2; squares the temporary `d` in place."""
    np.square(d, out=d)
    return np.mean(d, axis=-1)


def kf_fitness(genes, trace, dt, lsb):
    """Score (q_accel, q_jerk) candidates on an encoder position trace.

    `genes` is a (P, 2) stack; the (P,) scores come from one batched
    filter pass.  A candidate with a negative density scores -inf.

    Score = -(w1*jerk term + w2*accel term + w3*position-alignment term
    + w4*velocity/position integration-inconsistency term), with the
    `FITNESS_WEIGHTS`; larger is better.  Each term is dimensionless:
    jerk and acceleration are measured relative to what plain finite
    differencing of the trace produces, alignment relative to the
    quantization variance, so the weights behave the same across signal
    scales.  The jerk and acceleration terms are the smoothness target;
    alignment keeps the estimate pinned to the measured positions.
    """
    z = np.asarray(trace, dtype=float)
    if len(z) < MIN_TRACE_SAMPLES:
        raise ValueError(f"trace too short: {len(z)} < {MIN_TRACE_SAMPLES} "
                         f"samples")
    q = np.asarray(genes, dtype=float)
    valid = ~np.any(q < 0.0, axis=1)
    scores = np.full(len(q), -np.inf)
    if valid.any():
        x, v = filter_trace(z, dt, lsb, q[valid, 0], q[valid, 1])[:2]
        # each (P, n) term is reduced to its row means as soon as it is
        # formed, so a generation holds x, v and at most two terms.
        # Smoothness is measured on the velocity estimate so that a
        # filter tracking the quantization staircase cannot hide
        # velocity noise in an over-smoothed acceleration state.
        jerk = _mean_square(np.diff(v, 2) / dt ** 2)
        accel = _mean_square(np.diff(v) / dt)
        align = _mean_square(x - z)
        integ = _mean_square(np.diff(x) / dt - v[:, 1:])
        # finite-difference baselines for scale normalization
        fd_acc = np.diff(z, 2) / dt ** 2
        fd_jerk = np.diff(z, 3) / dt ** 3
        eps = 1e-30
        jerk_ref = np.mean(fd_jerk ** 2) + eps
        acc_ref = np.mean(fd_acc ** 2) + eps
        align_ref = quantization_variance(lsb) + eps
        integ_ref = np.mean(v ** 2, axis=-1) + eps
        w1, w2, w3, w4 = FITNESS_WEIGHTS
        # alignment is penalized only beyond the quantization floor: the
        # truth-tracking estimate necessarily differs from the measured
        # staircase by the quantization error itself
        align_excess = np.maximum(0.0, align / align_ref - 1.0)
        cost = (w1 * jerk / jerk_ref
                + w2 * accel / acc_ref
                + w3 * align_excess
                + w4 * integ / integ_ref)
        scores[valid] = -cost
    return scores


def tune_kf(trace, dt, lsb, config):
    """GA-tune (q_accel, q_jerk) for one encoder channel.

    The densities span many decades, so the genes are log10 of the
    densities, within `config.bounds`.  A candidate is filtered once
    per tune: elites and unchanged children keep the score of their
    first generation, and the candidates a generation adds are scored
    by one batched filter pass.
    """
    scores = {}

    def fitness(pop):
        keys = [row.tobytes() for row in pop]
        new = {k: row for k, row in zip(keys, pop) if k not in scores}
        if new:
            genes = np.array(list(new.values()))
            scores.update(zip(new, kf_fitness(10.0 ** genes, trace, dt, lsb)))
        return np.array([scores[k] for k in keys])

    best, history = optimize(config, fitness)
    return {"q_accel": float(10.0 ** best[0]), "q_jerk": float(10.0 ** best[1])}, history
