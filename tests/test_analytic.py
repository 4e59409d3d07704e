import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arisim import (
    LinkBudget,
    Mode,
    PhaseConfig,
    SystemConfig,
    closed_form_rates,
    compute_stats,
    make_geometry,
    resolve_budget,
    sinr,
    trial_statistics,
)
from arisim import analytic
from arisim.channel import array_response, los_components, substream
from helpers import aligned_gains, closed_form_pairs, polynomial_moments


def rayleigh_moments(m, n, k_users=1):
    """Unit moments of a degenerate system: no LoS anywhere, unit
    large-scale gains."""
    cfg = SystemConfig(M=m, N=n, K=k_users, epsilon=(0.0,) * k_users, delta=0.0)
    geom = replace(make_geometry(cfg), alpha=np.ones(k_users), beta=1.0)
    return compute_stats(geom, cfg, PhaseConfig(np.zeros(n)))


def test_stats_invariants(desk):
    cfg, geom, phases, _ = desk
    site = analytic.closed_form_site(geom, cfg)
    assert np.all(np.abs(aligned_gains(geom, cfg, phases.theta)) <= cfg.N + 1e-9)
    assert np.all(site.u > 0.0)
    np.testing.assert_allclose(np.diag(site.hbar_inner).real, cfg.N, rtol=1e-12)
    expected_u = geom.beta * geom.alpha / ((cfg.delta + 1) * (np.asarray(cfg.epsilon) + 1))
    np.testing.assert_allclose(site.u, expected_u, rtol=1e-12)


def test_aligned_phases_reach_maximum_gain(desk):
    cfg, geom, _, _ = desk
    hbar = los_components(geom, cfg).hbar
    a_ris = array_response(cfg.N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    for k in range(cfg.K):
        aligned = PhaseConfig(np.angle(a_ris) - np.angle(hbar[:, k]))
        assert abs(aligned_gains(geom, cfg, aligned.theta)[k]) == pytest.approx(cfg.N, rel=1e-12)


def test_identity_phases_on_matched_steering(desk_cfg):
    # if a user's steering vector equals the surface-departure vector, the
    # unshifted surface already aligns it perfectly
    cfg = desk_cfg
    geom = make_geometry(cfg)
    matched = replace(geom, user_aoa=np.vstack([geom.ris_aod, geom.user_aoa[1:]]))
    f = aligned_gains(matched, cfg, np.zeros(cfg.N))
    assert abs(f[0]) == pytest.approx(cfg.N, rel=1e-12)


def test_gain_bound_over_many_phase_draws(desk):
    cfg, geom, _, _ = desk
    rng = substream(404, 0)
    for _ in range(200):
        f = aligned_gains(geom, cfg, PhaseConfig.random(cfg.N, rng).theta)
        assert np.all(np.abs(f) <= cfg.N + 1e-9)


def test_degenerate_fourth_moment():
    # no LoS, unit gains: E||g||^4 = M(M+1)N(N+1); 36 at M=N=2
    assert rayleigh_moments(2, 2).signal[0] == pytest.approx(36.0, rel=1e-12)
    assert rayleigh_moments(8, 4).signal[0] == pytest.approx(8 * 9 * 4 * 5, rel=1e-12)


def test_degenerate_mean_gain():
    assert rayleigh_moments(2, 2).channel_gain[0] == pytest.approx(4.0, rel=1e-12)
    assert rayleigh_moments(64, 16).channel_gain[0] == pytest.approx(64 * 16, rel=1e-12)


def test_degenerate_cross_moments():
    # Rayleigh limits derived by conditioning on the second hop:
    # E|g_k^H g_i|^2 = MN(M+N) and E||g_k^H H2 Phi||^2 = MN(M+N)
    unit = rayleigh_moments(8, 4, k_users=2)
    want = 8 * 4 * (8 + 4)
    assert unit.interference[0] == pytest.approx(want, rel=1e-12)
    assert unit.dynamic_noise[0] == pytest.approx(want, rel=1e-12)
    # with three users each interference sums two such pairs
    cfg = SystemConfig(M=8, N=4, K=3, epsilon=(0.0,) * 3, delta=0.0)
    site = analytic.closed_form_site(replace(make_geometry(cfg), alpha=np.ones(3), beta=1.0), cfg)
    pairs = closed_form_pairs(site, np.zeros(cfg.N))
    np.testing.assert_allclose(pairs[~np.eye(3, dtype=bool)], want, rtol=1e-12)
    np.testing.assert_allclose(site.stats(np.zeros(cfg.N)).interference, 2 * want, rtol=1e-12)


def test_interference_moment_symmetry(desk):
    cfg, geom, phases, _ = desk
    pairs = closed_form_pairs(analytic.closed_form_site(geom, cfg), phases.theta)
    np.testing.assert_allclose(pairs, pairs.T, rtol=1e-12)
    assert np.all(np.diag(pairs) == 0.0)
    interference = compute_stats(geom, cfg, phases).interference
    np.testing.assert_allclose(interference, pairs.sum(axis=1), rtol=1e-12)


def test_moment_global_phase_invariance(desk):
    cfg, geom, phases, _ = desk
    base = compute_stats(geom, cfg, phases)
    shifted = compute_stats(geom, cfg, PhaseConfig(phases.theta + 1.234))
    for name, value in zip(base._fields, base):
        np.testing.assert_allclose(getattr(shifted, name), value, rtol=1e-10, err_msg=name)


def test_high_resolution_converges_to_ideal(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    for k in range(cfg.K):
        ideal = closed_form_rates(stats, budget, replace(cfg, b="ideal"))[k]
        twelve = closed_form_rates(stats, budget, replace(cfg, b=12))[k]
        assert ideal - twelve == pytest.approx(0.0, abs=1e-3)
        assert twelve <= ideal


def test_rate_monotone_in_bits(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    for k in range(cfg.K):
        rates = [closed_form_rates(stats, budget, replace(cfg, b=b))[k] for b in range(1, 13)]
        assert all(rates[i] <= rates[i + 1] + 1e-12 for i in range(len(rates) - 1))
        assert rates[-1] <= closed_form_rates(stats, budget, replace(cfg, b="ideal"))[k]


def test_zero_power_zero_rate(desk):
    cfg, geom, phases, budget = desk
    silent = LinkBudget(
        p=0.0, eta=budget.eta, P_A=budget.P_A,
        startup_met=True, sigma_v2_w=budget.sigma_v2_w,
    )
    stats = compute_stats(geom, cfg, phases)
    assert closed_form_rates(stats, silent, cfg)[0] == 0.0


def test_startup_failure_zeroes_rates(desk_cfg):
    cfg = replace(desk_cfg, P_T_dbm=-30.0)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    stats = compute_stats(geom, cfg, PhaseConfig(np.zeros(cfg.N)))
    assert np.all(closed_form_rates(stats, budget, cfg) == 0.0)


@pytest.mark.parametrize("mode", [Mode.ACTIVE, Mode.PASSIVE])
@pytest.mark.parametrize("b", [1, "ideal"])
def test_silent_budget_rates_are_exactly_zero(desk_cfg, mode, b):
    # a surface that did not start up has p = 0, so the SINR is exactly 0 on
    # expected and on per-trial moments, and the rate is 0.0, not a rounding
    cfg = replace(desk_cfg, P_T_dbm=-30.0, b=b)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, mode)
    assert not budget.startup_met
    phases = PhaseConfig(np.zeros(cfg.N))
    for unit in (compute_stats(geom, cfg, phases), trial_statistics(geom, cfg, phases, 8)):
        assert np.all(sinr(unit, budget, cfg) == 0.0)
        assert np.all(closed_form_rates(unit, budget, cfg) == 0.0)


def test_passive_wins_between_thresholds():
    # with 128 elements the active surface needs ~17.3 dBm but the passive
    # one only ~11.1 dBm, so in between the passive link is strictly better
    cfg = SystemConfig(M=64, N=128, K=4, P_T_dbm=15.0, trials=10)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(2, 0))
    stats = compute_stats(geom, cfg, phases)
    active = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    passive = resolve_budget(cfg, geom.alpha, Mode.PASSIVE)
    assert not active.startup_met and passive.startup_met
    assert closed_form_rates(stats, active, cfg).sum() == 0.0
    assert closed_form_rates(stats, passive, cfg).sum() > 0.0


def test_active_wins_with_ample_power():
    cfg = SystemConfig(M=64, N=128, K=4, P_T_dbm=30.0, trials=10)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(2, 0))
    stats = compute_stats(geom, cfg, phases)
    active = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    passive = resolve_budget(cfg, geom.alpha, Mode.PASSIVE)
    assert closed_form_rates(stats, active, cfg).sum() > closed_form_rates(stats, passive, cfg).sum()


PRIMES = (2, 3, 5, 7, 11, 13)


@given(
    K=st.integers(1, 5),
    N=st.sampled_from(PRIMES),
    M=st.integers(1, 12),
    delta=st.sampled_from([0.0, 0.5, 3.0]),
    eps=st.lists(st.sampled_from([0.0, 1.0, 10.0]), min_size=5, max_size=5),
    b=st.sampled_from([1, 3]),
    mode=st.sampled_from(list(Mode)),
    ideal_adc=st.booleans(),
    powered=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_population_rows_match_single_evaluations(
    K, N, M, delta, eps, b, mode, ideal_adc, powered, seed
):
    cfg = SystemConfig(M=M, N=N, K=K, b="ideal" if ideal_adc else b, delta=delta,
                       epsilon=tuple(eps[:K]), P_T_dbm=30.0 if powered else -30.0, trials=10,
                       seed=seed)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, mode)
    assert budget.startup_met == powered
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (4, N))
    # one row aligned to user 0, where |f_0| reaches N
    hbar = los_components(geom, cfg).hbar
    a_ris = array_response(N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    theta[0] = np.mod(np.angle(a_ris) - np.angle(hbar[:, 0]), 2.0 * np.pi)

    pop = analytic.closed_form_site(geom, cfg).stats(theta)
    rates = closed_form_rates(pop, budget, cfg)
    assert rates.shape == (4, K)
    for p in range(4):
        one = compute_stats(geom, cfg, PhaseConfig(theta[p]))
        np.testing.assert_allclose(rates[p], closed_form_rates(one, budget, cfg),
                                   rtol=1e-12, atol=0.0)
        if not powered:
            assert np.all(rates[p] == 0.0)
        for name, value in zip(pop._fields, one):
            np.testing.assert_allclose(value, getattr(pop, name)[p], rtol=1e-12, atol=0.0,
                                       err_msg=name)


@given(
    K=st.integers(1, 4),
    N=st.sampled_from(PRIMES),
    M=st.integers(1, 12),
    delta=st.sampled_from([0.0, 0.5, 3.0]),
    eps=st.lists(st.sampled_from([0.0, 1.0, 10.0]), min_size=4, max_size=4),
    P=st.sampled_from([1, 7]),
    seed=st.integers(0, 2**16),
)
# the pair sums grow as K^2, so check them beyond the few users drawn
@example(K=8, N=13, M=12, delta=0.5, eps=[0.0, 1.0, 10.0, 1.0] * 2, P=7, seed=8)
@example(K=16, N=13, M=12, delta=0.5, eps=[0.0, 1.0, 10.0, 1.0] * 4, P=7, seed=16)
@settings(max_examples=60, deadline=None)
def test_moments_match_reference_polynomials(K, N, M, delta, eps, P, seed):
    # the site's summed pair forms against each moment's own polynomial in
    # F_k and the coupling, for a population and for its first row alone
    cfg = SystemConfig(M=M, N=N, K=K, delta=delta, epsilon=tuple(eps[:K]), trials=10, seed=seed)
    site = analytic.closed_form_site(make_geometry(cfg), cfg)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (P, N))
    for phases in (theta, theta[0]):
        unit = site.stats(phases)
        for name, value, want in zip(unit._fields, unit, polynomial_moments(site, phases)):
            assert value.shape == want.shape, name
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0, err_msg=name)
        assert np.all(np.diagonal(closed_form_pairs(site, phases), axis1=-2, axis2=-1) == 0.0)


def test_site_of_many_users_stays_small():
    # a site holds K x K coefficients per pair, so at 32 users its build
    # stays far below a megabyte, and a population's moments still match
    # each moment's own polynomial
    cfg = SystemConfig(M=64, N=64, K=32, epsilon=(10.0,) * 32, trials=10, seed=3)
    geom = make_geometry(cfg)
    tracemalloc.start()
    try:
        site = analytic.closed_form_site(geom, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (7, cfg.N))
    unit = site.stats(theta)
    for name, value, want in zip(unit._fields, unit, polynomial_moments(site, theta)):
        assert value.shape == want.shape == (7, cfg.K), name
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0, err_msg=name)
