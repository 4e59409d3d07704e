from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arisim import (
    ChannelStats,
    LinkBudget,
    Mode,
    PhaseConfig,
    SystemConfig,
    channel_gain_moment,
    closed_form_rates,
    compute_stats,
    dynamic_noise_moment,
    interference_moment,
    make_geometry,
    quantization_moment,
    resolve_budget,
    signal_moment,
)
from arisim import analytic
from arisim.channel import array_response, los_components, substream


def rayleigh_stats(m, n, k_users=1):
    """Degenerate stats: no LoS anywhere, unit large-scale gains."""
    return ChannelStats(
        f=np.zeros(k_users, complex),
        u=np.ones(k_users),
        hbar_inner=n * np.eye(k_users, dtype=complex),
        M=m, N=n, delta=0.0, eps=np.zeros(k_users), beta=1.0, alpha=np.ones(k_users),
    )


def test_stats_invariants(desk):
    cfg, geom, phases, _ = desk
    stats = compute_stats(geom, cfg, phases)
    assert np.all(np.abs(stats.f) <= cfg.N + 1e-9)
    assert np.all(stats.u > 0.0)
    np.testing.assert_allclose(np.diag(stats.hbar_inner).real, cfg.N, rtol=1e-12)
    expected_u = geom.beta * geom.alpha / ((cfg.delta + 1) * (np.asarray(cfg.epsilon) + 1))
    np.testing.assert_allclose(stats.u, expected_u, rtol=1e-12)


def test_aligned_phases_reach_maximum_gain(desk):
    cfg, geom, _, _ = desk
    hbar, _ = los_components(geom, cfg)
    a_ris = array_response(cfg.N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    for k in range(cfg.K):
        aligned = PhaseConfig(np.angle(a_ris) - np.angle(hbar[:, k]))
        stats = compute_stats(geom, cfg, aligned)
        assert abs(stats.f[k]) == pytest.approx(cfg.N, rel=1e-12)


def test_identity_phases_on_matched_steering(desk_cfg):
    # if a user's steering vector equals the surface-departure vector, the
    # unshifted surface already aligns it perfectly
    cfg = desk_cfg
    geom = make_geometry(cfg)
    matched = replace(geom, user_aoa=np.vstack([geom.ris_aod, geom.user_aoa[1:]]))
    stats = compute_stats(matched, cfg, PhaseConfig(np.zeros(cfg.N)))
    assert abs(stats.f[0]) == pytest.approx(cfg.N, rel=1e-12)


def test_gain_bound_over_many_phase_draws(desk):
    cfg, geom, _, _ = desk
    rng = substream(404, 0)
    for _ in range(200):
        stats = compute_stats(geom, cfg, PhaseConfig.random(cfg.N, rng))
        assert np.all(np.abs(stats.f) <= cfg.N + 1e-9)


def test_degenerate_fourth_moment():
    # no LoS, unit gains: E||g||^4 = M(M+1)N(N+1); 36 at M=N=2
    stats = rayleigh_stats(2, 2)
    assert signal_moment(stats, 0) == pytest.approx(36.0, rel=1e-12)
    stats = rayleigh_stats(8, 4)
    assert signal_moment(stats, 0) == pytest.approx(8 * 9 * 4 * 5, rel=1e-12)


def test_degenerate_mean_gain():
    stats = rayleigh_stats(2, 2)
    assert channel_gain_moment(stats, 0) == pytest.approx(4.0, rel=1e-12)
    stats = rayleigh_stats(64, 16)
    assert channel_gain_moment(stats, 0) == pytest.approx(64 * 16, rel=1e-12)


def test_degenerate_cross_moments():
    # Rayleigh limits derived by conditioning on the second hop:
    # E|g_k^H g_i|^2 = MN(M+N) and E||g_k^H H2 Phi||^2 = MN(M+N)
    stats = rayleigh_stats(8, 4, k_users=2)
    want = 8 * 4 * (8 + 4)
    assert interference_moment(stats, 0, 1) == pytest.approx(want, rel=1e-12)
    assert dynamic_noise_moment(stats, 0) == pytest.approx(want, rel=1e-12)


def test_interference_moment_symmetry(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    for k in range(cfg.K):
        for i in range(cfg.K):
            if i != k:
                assert interference_moment(stats, k, i, budget.eta) == pytest.approx(
                    interference_moment(stats, i, k, budget.eta), rel=1e-12
                )
    with pytest.raises(ValueError):
        interference_moment(stats, 0, 0)


def test_moment_global_phase_invariance(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    shifted = compute_stats(geom, cfg, phases.shifted(1.234))
    for k in range(cfg.K):
        assert signal_moment(shifted, k, budget.eta) == pytest.approx(
            signal_moment(stats, k, budget.eta), rel=1e-10)
        assert dynamic_noise_moment(shifted, k, budget.eta) == pytest.approx(
            dynamic_noise_moment(stats, k, budget.eta), rel=1e-10)
        assert channel_gain_moment(shifted, k, budget.eta) == pytest.approx(
            channel_gain_moment(stats, k, budget.eta), rel=1e-10)
        assert quantization_moment(shifted, k, budget, cfg) == pytest.approx(
            quantization_moment(stats, k, budget, cfg), rel=1e-10)
        for i in range(cfg.K):
            if i != k:
                assert interference_moment(shifted, k, i, budget.eta) == pytest.approx(
                    interference_moment(stats, k, i, budget.eta), rel=1e-10)


def test_passive_rate_is_active_formula_without_dynamic_noise(desk):
    cfg, geom, phases, _ = desk
    passive = resolve_budget(cfg, geom.alpha, Mode.PASSIVE)
    stats = compute_stats(geom, cfg, phases)
    # the active formula with eta = 1 and no dynamic noise is definitionally equal
    unit_gain = replace(passive, mode=Mode.ACTIVE, eta=1.0, sigma_v2_w=0.0)
    np.testing.assert_allclose(closed_form_rates(stats, passive, cfg),
                               closed_form_rates(stats, unit_gain, cfg), rtol=1e-12)


def test_high_resolution_converges_to_ideal(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    for k in range(cfg.K):
        ideal = closed_form_rates(stats, budget, cfg, ideal_adc=True)[k]
        twelve = closed_form_rates(stats, budget, replace(cfg, b=12))[k]
        assert ideal - twelve == pytest.approx(0.0, abs=1e-3)
        assert twelve <= ideal


def test_rate_monotone_in_bits(desk):
    cfg, geom, phases, budget = desk
    stats = compute_stats(geom, cfg, phases)
    for k in range(cfg.K):
        rates = [closed_form_rates(stats, budget, replace(cfg, b=b))[k] for b in range(1, 13)]
        assert all(rates[i] <= rates[i + 1] + 1e-12 for i in range(len(rates) - 1))
        assert rates[-1] <= closed_form_rates(stats, budget, cfg, ideal_adc=True)[k]


def test_zero_power_zero_rate(desk):
    cfg, geom, phases, budget = desk
    silent = LinkBudget(
        p=np.zeros(cfg.K), eta=budget.eta, P_A=budget.P_A,
        startup_met=True, mode=Mode.ACTIVE, sigma_v2_w=budget.sigma_v2_w,
    )
    stats = compute_stats(geom, cfg, phases)
    assert closed_form_rates(stats, silent, cfg)[0] == 0.0


def test_startup_failure_zeroes_rates(desk_cfg):
    cfg = replace(desk_cfg, P_T_dbm=-30.0)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    stats = compute_stats(geom, cfg, PhaseConfig(np.zeros(cfg.N)))
    assert np.all(closed_form_rates(stats, budget, cfg) == 0.0)


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
    cfg = SystemConfig(M=M, N=N, K=K, b=b, delta=delta, epsilon=tuple(eps[:K]),
                       P_T_dbm=30.0 if powered else -30.0, trials=10, seed=seed)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, mode)
    assert budget.startup_met == powered
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (4, N))
    # one row aligned to user 0, where |f_0| reaches N
    hbar, _ = los_components(geom, cfg)
    a_ris = array_response(N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    theta[0] = np.mod(np.angle(a_ris) - np.angle(hbar[:, 0]), 2.0 * np.pi)

    pop = analytic.closed_form_site(geom, cfg).stats(theta)
    rates = closed_form_rates(pop, budget, cfg, ideal_adc=ideal_adc)
    assert rates.shape == (4, K)
    eta = budget.eta
    arrays = {
        "signal": analytic.signal_moments(pop, eta),
        "interference": analytic.interference_moments(pop, eta),
        "dynamic_noise": analytic.dynamic_noise_moments(pop, eta),
        "channel_gain": analytic.channel_gain_moments(pop, eta),
        "quantization": analytic.quantization_moments(pop, budget, cfg),
    }
    for p in range(4):
        one = compute_stats(geom, cfg, PhaseConfig(theta[p]))
        np.testing.assert_allclose(rates[p], closed_form_rates(one, budget, cfg, ideal_adc=ideal_adc),
                                   rtol=1e-12, atol=0.0)
        if not powered:
            assert np.all(rates[p] == 0.0)
        for k in range(K):
            per_user = {
                "signal": signal_moment(one, k, eta),
                "dynamic_noise": dynamic_noise_moment(one, k, eta),
                "channel_gain": channel_gain_moment(one, k, eta),
                "quantization": quantization_moment(one, k, budget, cfg),
            }
            for name, value in per_user.items():
                assert value == pytest.approx(arrays[name][p, k], rel=1e-12, abs=0.0), name
            for i in range(K):
                if i != k:
                    assert interference_moment(one, k, i, eta) == pytest.approx(
                        arrays["interference"][p, k, i], rel=1e-12, abs=0.0)
