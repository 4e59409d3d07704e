import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arisim import (
    ConfigurationError,
    GAParams,
    Mode,
    SystemConfig,
    closed_form_rates,
    closed_form_site,
    compute_stats,
    crossover,
    make_geometry,
    mutate,
    optimize_phases,
    resolve_budget,
)
from arisim import ga
from arisim.analytic import MomentCoefficients
from arisim.channel import substream


@pytest.fixture(scope="module")
def ga_instance():
    cfg = SystemConfig(M=16, N=8, K=2, epsilon=(10.0, 10.0), trials=50, seed=17)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    return cfg, geom, budget


def tiny_params(**kw):
    base = dict(n_total=24, n_elite=4, n_parents=8, n_crossover=14, n_mutation=6,
                max_iters=12, f_tol=0.0, seed=1)
    base.update(kw)
    return GAParams(**base)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        GAParams(n_total=10, n_elite=2, n_crossover=4, n_mutation=2)  # 2+4+2 != 10
    with pytest.raises(ConfigurationError):
        GAParams(n_elite=0, n_crossover=164, n_mutation=36)
    with pytest.raises(ConfigurationError):
        GAParams(mutation_sigma=0.0)
    with pytest.raises(ConfigurationError):
        GAParams(n_parents=190)  # cannot fit among non-elites
    with pytest.raises(ConfigurationError):
        GAParams(max_iters=0)


@pytest.mark.parametrize("kw", [
    {"mutation_sigma": float("nan")},
    {"mutation_sigma": float("inf")},
    {"f_tol": float("nan")},
    {"f_tol": -1e-4},
    {"n_total": 200.0},
    {"max_iters": True},
    {"window": 2.5},
    {"seed": 1.5},
    {"seed": -1},
    {"n_crossover": 181, "n_mutation": -1},  # the counts still sum to n_total
])
def test_params_reject_bad_values(kw):
    with pytest.raises(ConfigurationError):
        GAParams(**kw)


def test_params_accept_numpy_integers():
    params = GAParams(n_total=np.int64(200), max_iters=np.int32(5), window=np.int64(3),
                      seed=np.uint8(7))
    assert params == GAParams(max_iters=5, window=3, seed=7)
    assert type(params.n_total) is int and type(params.seed) is int


def test_crossover_identity():
    rng = substream(3, 0)
    x = rng.uniform(0, 2 * np.pi, 16)
    np.testing.assert_array_equal(crossover(x, x, rng), x)


def test_crossover_picks_parent_genes():
    rng = substream(4, 0)
    a = np.zeros(64)
    b = np.ones(64)
    child = crossover(a, b, rng)
    assert set(np.unique(child)) <= {0.0, 1.0}
    assert 0.0 in child and 1.0 in child  # overwhelmingly likely at 64 genes


def test_crossover_on_a_stack_takes_each_gene_from_its_own_parents():
    rng = substream(7, 0)
    C, N = 200, 64
    parent_a = rng.uniform(0.0, 1.0, (C, N))
    parent_b = rng.uniform(2.0, 3.0, (C, N))
    children = crossover(parent_a, parent_b, rng)
    assert children.shape == (C, N)
    from_a = children == parent_a
    assert np.all(from_a | (children == parent_b))
    # fair coin per gene: the share from parent_a within 5 binomial SDs of 1/2
    assert abs(from_a.mean() - 0.5) < 5.0 * np.sqrt(0.25 / (C * N))
    assert len({row.tobytes() for row in from_a}) == C  # one mask per child


def test_mutate_on_a_stack_adds_iid_noise():
    P, N, sigma = 36, 16, 0.4
    theta = substream(8, 0).uniform(0.0, 2 * np.pi, (P, N))
    moved = mutate(theta, sigma, substream(9, 0))
    twin = np.mod(theta + substream(9, 0).normal(0.0, sigma, (P, N)), 2 * np.pi)
    np.testing.assert_array_equal(moved, twin)
    assert np.all(moved >= 0.0) and np.all(moved < 2 * np.pi)


def test_mutate_vanishing_sigma_is_identity():
    rng = substream(5, 0)
    x = rng.uniform(0, 2 * np.pi, 32)
    moved = mutate(x, 1e-14, substream(6, 0))
    np.testing.assert_allclose(moved, x, atol=1e-12)


@given(sigma=st.floats(min_value=1e-3, max_value=4.0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mutate_stays_feasible(sigma, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, 16)
    y = mutate(x, sigma, rng)
    assert np.all(y >= 0.0) and np.all(y < 2 * np.pi)


def test_constant_landscape_keeps_best(ga_instance):
    # all-zero moment coefficients make every closed-form rate 0
    cfg, geom, budget = ga_instance
    site = closed_form_site(geom, cfg)
    zero = MomentCoefficients(*(tuple(np.zeros_like(x) for x in group)
                                for group in site.coefficients))
    silent = dataclasses.replace(site, coefficients=zero)
    best, hist = optimize_phases(geom, cfg, budget, tiny_params(), site=silent)
    assert hist.best_fitness[0] == 0.0
    assert all(f == hist.best_fitness[0] for f in hist.best_fitness)


def test_best_fitness_monotone(ga_instance):
    cfg, geom, budget = ga_instance
    for seed in (1, 2, 3):
        _, hist = optimize_phases(geom, cfg, budget, tiny_params(seed=seed, max_iters=20))
        diffs = np.diff(hist.best_fitness)
        assert np.all(diffs >= 0.0)


def test_history_and_feasibility(ga_instance):
    cfg, geom, budget = ga_instance
    best, hist = optimize_phases(geom, cfg, budget, tiny_params())
    assert hist.generations == 13  # initial population plus 12 iterations
    assert np.all(best.theta >= 0.0) and np.all(best.theta < 2 * np.pi)
    rows = hist.rows()
    assert rows[0][0] == 0 and len(rows) == hist.generations
    assert hist.best_fitness[-1] == pytest.approx(
        closed_form_rates(compute_stats(geom, cfg, best), budget, cfg).sum(), rel=1e-12
    )


def test_optimize_deterministic(ga_instance):
    cfg, geom, budget = ga_instance
    best_a, hist_a = optimize_phases(geom, cfg, budget, tiny_params(seed=9))
    best_b, hist_b = optimize_phases(geom, cfg, budget, tiny_params(seed=9))
    np.testing.assert_array_equal(best_a.theta, best_b.theta)
    assert hist_a.best_fitness == hist_b.best_fitness
    assert hist_a.mean_fitness == hist_b.mean_fitness


def test_early_termination_on_flat_fitness(ga_instance):
    cfg, geom, budget = ga_instance
    params = tiny_params(max_iters=50, f_tol=1e9, window=3)
    _, hist = optimize_phases(geom, cfg, budget, params)
    # the huge tolerance triggers the moving-average stop right after the window fills
    assert hist.generations == 4


def test_stop_reason(ga_instance):
    cfg, geom, budget = ga_instance
    _, hist = optimize_phases(geom, cfg, budget, tiny_params(max_iters=50, f_tol=1e9, window=3))
    assert hist.stop_reason == "f_tol"
    _, hist = optimize_phases(geom, cfg, budget, tiny_params(f_tol=0.0))
    assert hist.stop_reason == "max_iters"


def test_random_stream_layout_is_stable(ga_instance):
    # best phases and mean-fitness history of this search with array-drawn
    # breeding and exponential-key roulette parents; they change only if the
    # GA's random stream layout changes.  The best phases come from
    # generation 9, so they pin the breeding draws too.
    cfg, geom, budget = ga_instance
    best, hist = optimize_phases(geom, cfg, budget, tiny_params(seed=9))
    np.testing.assert_array_equal(best.theta, [
        5.2655694840182585, 5.656140831082619, 2.8158432173952304, 2.7329558154997042,
        0.6627152704596939, 0.5229424105689147, 2.493258158604393, 4.775251050436767,
    ])
    np.testing.assert_allclose(hist.mean_fitness, [
        4.191055278968366, 4.233748451095485, 4.193623063433769, 4.32845051764926,
        4.365471774914511, 4.306283983724902, 4.240111911078796, 4.392713987391231,
        4.599067951620407, 4.646940782334371, 4.824182598389662, 4.843675159133846,
        4.737817380411904,
    ], rtol=1e-12, atol=0.0)


def test_generation_replays_from_documented_draw_order(ga_instance, monkeypatch):
    # rebuild generation 1 by hand from a twin generator: roulette keys,
    # crossover pairs (C, 2), masks (C, N), mutation pick, noise (Mu, N)
    cfg, geom, budget = ga_instance
    params = tiny_params(max_iters=1, seed=5)
    site = closed_form_site(geom, cfg)
    calls = []
    breed = ga._next_generation

    def recorded(pop, phasors, fit, params, rng):
        bred = breed(pop, phasors, fit, params, rng)
        calls.append((pop.copy(), fit.copy(), bred[0].copy()))
        return bred

    monkeypatch.setattr(ga, "_next_generation", recorded)
    optimize_phases(geom, cfg, budget, params, site=site)
    assert len(calls) == 1
    initial, scored, bred = calls[0]

    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    pop = rng.uniform(0.0, 2 * np.pi, (params.n_total, cfg.N))
    np.testing.assert_array_equal(initial, pop)
    # scoring the phases gives the bits of the carried phasors' scores
    fit = closed_form_rates(site.stats(pop), budget, cfg).sum(axis=-1)
    np.testing.assert_array_equal(scored, fit)
    order = np.argsort(-fit, kind="stable")
    non_elite = order[params.n_elite:]
    w = fit[non_elite] - fit[non_elite].min() + 1e-12
    keys = rng.standard_exponential(len(non_elite)) / w
    parent_idx = non_elite[np.argsort(keys)[: params.n_parents]]
    pairs = rng.integers(0, params.n_parents, size=(params.n_crossover, 2))
    mask = rng.random((params.n_crossover, cfg.N)) < 0.5
    children = np.where(mask, pop[parent_idx][pairs[:, 0]], pop[parent_idx][pairs[:, 1]])
    leftover = np.setdiff1d(non_elite, parent_idx)
    pick = rng.choice(leftover, size=params.n_mutation, replace=False)
    noise = rng.normal(0.0, params.mutation_sigma, (params.n_mutation, cfg.N))
    mutants = np.mod(pop[pick] + noise, 2 * np.pi)
    expected = np.concatenate([pop[order[: params.n_elite]], children, mutants])
    np.testing.assert_array_equal(bred, expected)


def test_carried_phasors_are_the_exponentiated_phases(ga_instance):
    # drive the search's own breeding step generation by generation: the
    # phasors carried beside the phases equal np.exp(1j * pop) bit for bit,
    # and the scores on them replay the search's history exactly
    cfg, geom, budget = ga_instance
    params = tiny_params(max_iters=15, seed=6)
    site = closed_form_site(geom, cfg)
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    pop = rng.uniform(0.0, 2 * np.pi, (params.n_total, cfg.N))
    phasors = np.exp(1j * pop)
    means = []
    for _ in range(params.max_iters + 1):
        np.testing.assert_array_equal(phasors, np.exp(1j * pop))
        unit = site.phasor_stats(phasors)
        fit = closed_form_rates(unit, budget, cfg).sum(axis=-1)
        means.append(float(fit.mean()))
        pop, phasors = ga._next_generation(pop, phasors, fit, params, rng)
    _, hist = optimize_phases(geom, cfg, budget, params)
    assert hist.mean_fitness == means


def test_roulette_follows_successive_sampling():
    # per-position selection frequencies of the exponential-key draw against
    # the exact law of drawing without replacement in proportion to weight;
    # the least fit individual's shifted weight is 1e-12
    fitness = np.array([0.0, 1.0, 2.5, 0.5, 3.0, 1.5, 4.0, 0.25])
    weights = fitness + 1e-12
    count, draws = 3, 20000
    exact = np.zeros((count, len(weights)))
    for prefix in itertools.permutations(range(len(weights)), count):
        prob, left = 1.0, weights.sum()
        for item in prefix:
            prob *= weights[item] / left
            left -= weights[item]
        for position, item in enumerate(prefix):
            exact[position, item] += prob

    rng = substream(11, 0)
    labels = np.arange(10, 18)
    picked = np.array([ga._roulette(labels, fitness, count, rng) for _ in range(draws)]) - 10
    freq = np.stack([np.bincount(picked[:, j], minlength=len(weights)) for j in range(count)])
    freq = freq / draws
    se = np.sqrt(exact * (1.0 - exact) / draws)
    assert np.all(np.abs(freq - exact) <= 4.0 * se + 1e-9)
    assert np.all(np.sort(picked, axis=1)[:, 1:] != np.sort(picked, axis=1)[:, :-1])


@pytest.mark.parametrize("counts", [
    dict(n_crossover=20, n_mutation=0),  # 12 leftover individuals, none mutated
    dict(n_parents=20, n_crossover=20, n_mutation=0),  # no leftover individuals
    dict(n_crossover=0, n_mutation=20),
])
def test_empty_offspring_groups(ga_instance, counts):
    cfg, geom, budget = ga_instance
    best, hist = optimize_phases(geom, cfg, budget, tiny_params(**counts))
    assert hist.generations == 13
    assert np.all(np.diff(hist.best_fitness) >= 0.0)
    assert np.all(best.theta >= 0.0) and np.all(best.theta < 2 * np.pi)


def test_optimizer_beats_random_baseline(ga_instance):
    cfg, geom, budget = ga_instance
    best, hist = optimize_phases(geom, cfg, budget, tiny_params(max_iters=30, seed=2))
    random_theta = substream(1000, 0).uniform(0.0, 2 * np.pi, (100, cfg.N))
    site = closed_form_site(geom, cfg)
    baseline = closed_form_rates(site.stats(random_theta), budget, cfg).sum(axis=-1).mean()
    assert hist.best_fitness[-1] >= baseline


def test_startup_required(ga_instance):
    cfg, geom, _ = ga_instance
    from dataclasses import replace
    dark = replace(cfg, P_T_dbm=-30.0)
    budget = resolve_budget(dark, geom.alpha, Mode.ACTIVE)
    with pytest.raises(ConfigurationError):
        optimize_phases(geom, dark, budget, tiny_params())
