"""Genetic optimization of the surface phase shifts.

Maximizes the closed-form sum rate over the N phase angles, which is cheap
and deterministic, so the search never pays for Monte Carlo averaging.
The population evolves under elitism (the best individuals survive
unchanged, making the best-ever fitness monotone), fitness-proportional
parent selection among the non-elites, per-gene uniform crossover, and
Gaussian mutation of the leftover individuals.  Iteration stops at the
generation cap or once the mean fitness has stopped moving.

Each generation is bred from five array draws, in this order: the roulette
keys, one exponential per non-elite (the parents are the smallest keys
scaled by fitness, which draws them without replacement in proportion to
fitness), the crossover pairs (C, 2), the crossover masks (C, N), the
mutation pick and the mutation noise (Mu, N).

The unit phasors exp(j*theta) travel beside the phases: elites keep theirs
and children gather theirs through their crossover, so each generation
exponentiates only its mutants before the whole population, elites
included, is scored: the closed-form site evaluates its unit moments from
the aligned gains of those phasors (`ClosedFormSite.phasor_stats`), and
`transceiver.log_rates` gives their rates under the budget's three SINR
scalars, taken once per run (`transceiver.sinr_scalars`), as in
`closed_form_rates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import ClosedFormSite, closed_form_site
from .budget import ConfigurationError, LinkBudget, SystemConfig, check_fields
from .channel import Geometry
from .transceiver import PhaseConfig, log_rates, sinr_scalars

TWO_PI = 2.0 * np.pi

# GAParams fields that must hold an integer
_INTEGER_FIELDS = ("n_total", "n_elite", "n_parents", "n_crossover", "n_mutation",
                   "max_iters", "window", "seed")


@dataclass(frozen=True)
class GAParams:
    """Population structure and termination settings.

    Every generation is rebuilt as n_elite survivors + n_crossover
    offspring + n_mutation mutants, so the three must sum to n_total.
    Parents are drawn from the non-elites; mutants from the individuals
    that are neither elites nor parents.
    """

    n_total: int = 200
    n_elite: int = 20
    n_parents: int = 40
    n_crossover: int = 144
    n_mutation: int = 36
    mutation_sigma: float = np.pi / 8.0  # radians
    max_iters: int = 100
    f_tol: float = 1e-4                  # mean-fitness change threshold, bits
    window: int = 10                     # generations averaged for the f_tol test
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _INTEGER_FIELDS, reals=("mutation_sigma", "f_tol"))
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.f_tol < 0.0:
            raise ConfigurationError(f"f_tol must be nonnegative, got {self.f_tol}")
        if self.n_elite < 1:
            raise ConfigurationError("at least one elite is required")
        if self.n_crossover < 0 or self.n_mutation < 0:
            raise ConfigurationError("offspring counts must be nonnegative")
        if self.n_elite + self.n_crossover + self.n_mutation != self.n_total:
            raise ConfigurationError(
                f"elites + crossover + mutation offspring must equal the population "
                f"({self.n_elite}+{self.n_crossover}+{self.n_mutation} != {self.n_total})"
            )
        if self.n_parents < 2 or self.n_elite + self.n_parents > self.n_total:
            raise ConfigurationError("parent count must fit among the non-elites")
        if self.n_mutation > 0 and self.n_elite + self.n_parents >= self.n_total:
            raise ConfigurationError("mutation needs at least one non-elite non-parent individual")
        if self.mutation_sigma <= 0.0:
            raise ConfigurationError("mutation_sigma must be positive")
        if self.max_iters < 1 or self.window < 1:
            raise ConfigurationError("max_iters and window must be positive")


@dataclass
class GAHistory:
    """Per-generation trace of the search."""

    best_fitness: list = field(default_factory=list)
    mean_fitness: list = field(default_factory=list)
    stop_reason: str = "max_iters"  # or "f_tol": the mean fitness stopped moving

    @property
    def generations(self) -> int:
        return len(self.best_fitness)

    def rows(self):
        """(generation, best, mean) tuples, e.g. for CSV export."""
        return [
            (g, self.best_fitness[g], self.mean_fitness[g])
            for g in range(self.generations)
        ]


def crossover(parent_a: np.ndarray, parent_b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-gene uniform choice between the two parents, for one pair (N,)
    or a stack of pairs (..., N), from one draw of a fair-coin mask."""
    mask = rng.random(parent_a.shape) < 0.5
    return np.where(mask, parent_a, parent_b)


def mutate(theta: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise to every gene of one individual (N,) or
    a stack (..., N), reduced modulo 2*pi."""
    return np.mod(theta + rng.normal(0.0, sigma, theta.shape), TWO_PI)


def _roulette(indices: np.ndarray, weights: np.ndarray, count: int, rng) -> np.ndarray:
    """Fitness-proportional selection without replacement, in the order of
    successive sampling: the `count` smallest of n exponential keys
    E_i / w_i, in key order (Efraimidis and Spirakis, IPL 2006).  Strictly
    positive weights are guaranteed by shifting, so degenerate fitness falls
    back to a nearly uniform draw."""
    w = weights - weights.min() + 1e-12
    keys = rng.standard_exponential(len(w)) / w
    return indices[np.argsort(keys)[:count]]


def _next_generation(pop: np.ndarray, phasors: np.ndarray, fit: np.ndarray, params: GAParams,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The bred population and its unit phasors exp(j*theta), from one
    scored generation and the five draws of the module docstring.

    Elites keep their phasors, and children gather theirs through the same
    crossover of parent rows as their genes, so only the mutants are
    exponentiated again; every row still equals np.exp(1j * theta) bit for
    bit.
    """
    n_total, n_genes = pop.shape
    order = np.argsort(-fit, kind="stable")
    elites = order[: params.n_elite]
    non_elite = order[params.n_elite :]

    parent_idx = _roulette(non_elite, fit[non_elite], params.n_parents, rng)
    pairs = parent_idx[rng.integers(0, params.n_parents, size=(params.n_crossover, 2))]
    # cross the parents' row indices over gene by gene, then gather the
    # children's genes and phasors through them
    shape = (params.n_crossover, n_genes)
    rows = crossover(np.broadcast_to(pairs[:, :1], shape), np.broadcast_to(pairs[:, 1:], shape),
                     rng)
    genes = np.arange(n_genes)

    spare = np.ones(n_total, dtype=bool)
    spare[elites] = False
    spare[parent_idx] = False
    leftover = np.flatnonzero(spare)
    pick = rng.choice(leftover, size=params.n_mutation,
                      replace=len(leftover) < params.n_mutation)
    mutants = mutate(pop[pick], params.mutation_sigma, rng)

    return (np.concatenate([pop[elites], pop[rows, genes], mutants]),
            np.concatenate([phasors[elites], phasors[rows, genes], np.exp(1j * mutants)]))


def optimize_phases(
    geom: Geometry,
    cfg: SystemConfig,
    budget: LinkBudget,
    params: GAParams,
    site: ClosedFormSite | None = None,
) -> tuple[PhaseConfig, GAHistory]:
    """Run the genetic search and return the best phases ever seen.

    The fitness is the closed-form sum rate under the budget and `cfg.b`,
    scored for each whole generation at once, on the unit phasors carried
    beside the phases, through `site` (the closed-form site of `geom` and
    `cfg`, built here when not given) and the budget's SINR scalars, taken
    once per run; a generation's scores equal the sums of
    `closed_form_rates` on its moments bit for bit.  The surface must be
    started up, otherwise every candidate scores zero and there is nothing
    to optimize.
    """
    if not budget.startup_met:
        raise ConfigurationError("cannot optimize a surface that does not start up")

    site = site if site is not None else closed_form_site(geom, cfg)
    scalars = sinr_scalars(budget, cfg)

    def score(phasors):
        return log_rates(site.phasor_stats(phasors), scalars).sum(axis=-1)

    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    pop = rng.uniform(0.0, TWO_PI, (params.n_total, cfg.N))
    phasors = np.exp(1j * pop)
    fit = score(phasors)

    history = GAHistory()
    best_idx = int(np.argmax(fit))
    best_theta = pop[best_idx].copy()
    best_fit = float(fit[best_idx])

    def record():
        history.best_fitness.append(best_fit)
        history.mean_fitness.append(float(fit.mean()))

    record()
    for _ in range(params.max_iters):
        pop, phasors = _next_generation(pop, phasors, fit, params, rng)
        fit = score(phasors)

        gen_best = int(np.argmax(fit))
        if fit[gen_best] > best_fit:
            best_fit = float(fit[gen_best])
            best_theta = pop[gen_best].copy()
        record()

        if history.generations > params.window:
            deltas = np.abs(np.diff(history.mean_fitness[-(params.window + 1):]))
            if deltas.mean() < params.f_tol:
                history.stop_reason = "f_tol"
                break

    return PhaseConfig(best_theta), history
