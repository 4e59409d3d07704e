import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arisim import (
    LinkBudget,
    Mode,
    closed_form_site,
    PhaseConfig,
    SystemConfig,
    Moments,
    aqnm_alpha,
    estimate_moments,
    make_geometry,
    measured_ris_power,
    monte_carlo_rate,
    rate_from_statistics,
    resolve_budget,
    sinr,
    trial_statistics,
)
from arisim.channel import (
    STREAM_FADING,
    bartlett_factor,
    los_components,
    sample_channel_batch,
    sample_gram_batch,
    substream,
)
from arisim import transceiver
from arisim.transceiver import (
    AQNM_RHO,
    BATCH,
    literal_trial_statistics,
    log_rates,
    reduced_draw_applies,
    shared_trial_statistics,
    sinr_scalars,
)

from helpers import literal_draw, sinr_from_definition, sinr_terms_reference


def test_aqnm_alpha_table():
    assert aqnm_alpha(1) == pytest.approx(1 - 0.3634, abs=1e-12)
    assert aqnm_alpha(2) == pytest.approx(1 - 0.1175, abs=1e-12)
    assert aqnm_alpha(4) == pytest.approx(1 - 0.009497, abs=1e-12)
    assert aqnm_alpha(5) == pytest.approx(1 - 0.002499, abs=1e-12)
    assert aqnm_alpha(8) == pytest.approx(1 - (math.pi * math.sqrt(3) / 2) * 2**-16, abs=1e-12)
    assert aqnm_alpha("ideal") == 1.0


def test_aqnm_alpha_monotone_across_table_boundary():
    values = [aqnm_alpha(b) for b in range(1, 13)]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    assert values[-1] < 1.0


def lloyd_max_distortion(b, iterations=3000):
    """Mean squared error of the 2^b-level Lloyd-Max quantizer of a unit
    Gaussian (Max, IRE Trans. IT 1960): alternate midpoint thresholds and
    centroid levels from a uniform start."""
    erf = np.frompyfunc(math.erf, 1, 1)
    levels = 2**b
    y = (np.arange(levels) - (levels - 1) / 2) * (4.0 / levels)
    for _ in range(iterations):
        t = np.concatenate([[-np.inf], (y[1:] + y[:-1]) / 2, [np.inf]])
        cdf = 0.5 * (1.0 + erf(t / math.sqrt(2.0)).astype(float))
        pdf = np.exp(-t**2 / 2) / math.sqrt(2.0 * math.pi)
        prob = np.diff(cdf)
        y = -np.diff(pdf) / prob
    # at the centroids E{x Q(x)} = E{Q(x)^2}, so the error is 1 - E{Q(x)^2}
    return 1.0 - float(np.sum(y**2 * prob))


def test_aqnm_table_matches_lloyd_max():
    # the table sits within 2.3e-3 relative of Lloyd-Max at b = 1-5, the
    # furthest at b = 5; its b = 4 entry, 0.009497 as Fan et al. (IEEE
    # Commun. Lett. 2015) tabulate it, sits 4.2e-4 below Lloyd-Max's 0.009501
    for b, rho in AQNM_RHO.items():
        assert rho == pytest.approx(lloyd_max_distortion(b), rel=3e-3), b
    # the asymptote that takes over at b = 6 sits 3.1 % above Lloyd-Max
    jump = (1.0 - aqnm_alpha(6)) / lloyd_max_distortion(6) - 1.0
    assert 0.0 < jump < 0.04


def test_aqnm_alpha_rejects_bad_bits():
    for bad in (0, -1, 2.5, "three", True):
        with pytest.raises(ValueError):
            aqnm_alpha(bad)


def test_phase_config_reduction():
    phases = PhaseConfig(np.array([0.0, 2 * np.pi + 0.5, -0.25]))
    assert np.all(phases.theta >= 0.0) and np.all(phases.theta < 2 * np.pi)
    assert phases.theta[1] == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(np.abs(phases.phi), 1.0, atol=1e-15)


def one_trial(geom, cfg, phases, s):
    """Unit moments of the literal kernel's one trial from stream (s,), the
    draw of `literal_draw(geom, cfg, s)`."""
    return literal_trial_statistics(geom, cfg, phases, 1, stream=(s,))


def test_sinr_matches_literal_definition(paper_cfg):
    # production path against a start-from-scratch evaluator
    cfg = paper_cfg
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    phases = PhaseConfig.random(cfg.N, substream(51, 0))
    got = sinr(one_trial(geom, cfg, phases, 50), budget, cfg)[0]
    H1, H2 = literal_draw(geom, cfg, 50)
    want = sinr_from_definition(
        H1, H2, phases.theta, budget.p, budget.eta,
        budget.sigma_v2_w, cfg.sigma_n2_w, aqnm_alpha(cfg.b),
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_sinr_passive_matches_definition(paper_cfg):
    cfg = paper_cfg
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.PASSIVE)
    phases = PhaseConfig.random(cfg.N, substream(53, 0))
    got = sinr(one_trial(geom, cfg, phases, 52), budget, cfg)[0]
    H1, H2 = literal_draw(geom, cfg, 52)
    want = sinr_from_definition(
        H1, H2, phases.theta, budget.p, 1.0, 0.0,
        cfg.sigma_n2_w, aqnm_alpha(cfg.b),
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_ideal_adc_drops_quantization_term(desk):
    cfg, geom, phases, active = desk
    got = sinr(one_trial(geom, cfg, phases, 54), active, replace(cfg, b="ideal"))[0]
    H1, H2 = literal_draw(geom, cfg, 54)
    want = sinr_from_definition(
        H1, H2, phases.theta, active.p, active.eta,
        active.sigma_v2_w, cfg.sigma_n2_w, alpha=1.0,
    )
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_single_user_has_no_interference():
    cfg = SystemConfig(M=16, N=4, K=1, epsilon=(10.0,), trials=10, seed=3)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    got = sinr(one_trial(geom, cfg, PhaseConfig(np.zeros(cfg.N)), 55), budget, cfg)[0]
    assert got.shape == (1,)
    assert got[0] > 0.0


def test_quantization_sandwich(desk):
    # more bits never hurt, and ideal ADCs dominate every finite resolution
    cfg, geom, phases, budget = desk
    stats = one_trial(geom, cfg, phases, 56)
    prev = None
    for bits in range(1, 9):
        got = sinr(stats, budget, replace(cfg, b=bits))[0]
        if prev is not None:
            assert np.all(got >= prev - 1e-15)
        prev = got
    top = sinr(stats, budget, replace(cfg, b="ideal"))[0]
    assert np.all(top >= prev)


def test_global_phase_invariance(desk):
    # a common offset on every element leaves each trial's SINR unchanged
    cfg, geom, phases, budget = desk
    base = sinr(literal_trial_statistics(geom, cfg, phases, 8, stream=(57,)), budget, cfg)
    for offset in (0.37, np.pi / 3, 5.1):
        moved = PhaseConfig(phases.theta + offset)
        shifted = sinr(literal_trial_statistics(geom, cfg, moved, 8, stream=(57,)), budget, cfg)
        np.testing.assert_allclose(shifted, base, rtol=1e-10)


def test_scale_consistency_ideal_mode(desk):
    # multiplying all transmit powers and both noise powers by the same
    # constant leaves the ideal-ADC SINR unchanged for a fixed realization
    cfg, geom, phases, base_budget = desk
    stats = one_trial(geom, cfg, phases, 58)
    cfg = replace(cfg, b="ideal")
    base = sinr(stats, base_budget, cfg)[0]
    c_db = 20.0  # factor 100
    scaled_cfg = replace(cfg, sigma_n2_dbm=cfg.sigma_n2_dbm + c_db)
    scaled_budget = LinkBudget(
        p=base_budget.p * 100.0,
        eta=base_budget.eta,
        P_A=base_budget.P_A,
        startup_met=True,
        sigma_v2_w=base_budget.sigma_v2_w * 100.0,
    )
    scaled = sinr(stats, scaled_budget, scaled_cfg)[0]
    np.testing.assert_allclose(scaled, base, rtol=1e-12)


def test_zero_transmit_power_gives_zero_rates(desk):
    cfg, geom, phases, budget = desk
    silent = LinkBudget(
        p=0.0, eta=budget.eta, P_A=budget.P_A,
        startup_met=True, sigma_v2_w=budget.sigma_v2_w,
    )
    report = monte_carlo_rate(geom, cfg, phases, silent, trials=32)
    assert report.sum_rate == 0.0
    assert np.all(report.per_user_rate == 0.0)


def test_rates_decrease_with_noise(desk):
    cfg, geom, phases, budget = desk
    base = monte_carlo_rate(geom, cfg, phases, budget, trials=200)
    noisier = monte_carlo_rate(
        geom, replace(cfg, sigma_n2_dbm=cfg.sigma_n2_dbm + 3.0), phases, budget, trials=200
    )
    assert np.all(noisier.per_user_rate <= base.per_user_rate)


def test_monte_carlo_deterministic(desk):
    cfg, geom, phases, budget = desk
    a = monte_carlo_rate(geom, cfg, phases, budget, trials=300)
    b = monte_carlo_rate(geom, cfg, phases, budget, trials=300)
    np.testing.assert_array_equal(a.per_user_rate, b.per_user_rate)
    np.testing.assert_array_equal(a.std_err, b.std_err)
    assert a.sum_rate == b.sum_rate
    assert a.trials_used == 300


def test_monte_carlo_startup_not_met(desk_cfg):
    cfg = replace(desk_cfg, P_T_dbm=-20.0)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    assert not budget.startup_met
    report = monte_carlo_rate(geom, cfg, PhaseConfig(np.zeros(cfg.N)), budget)
    assert report.sum_rate == 0.0
    assert report.trials_used == 0
    assert np.all(report.per_user_rate == 0.0)


def test_std_err_scaling(desk):
    cfg, geom, phases, budget = desk
    small = monte_carlo_rate(geom, cfg, phases, budget, trials=1000)
    large = monte_carlo_rate(geom, cfg, phases, budget, trials=4000)
    ratio = small.std_err / large.std_err
    assert np.all(ratio > 2.0 * 0.8) and np.all(ratio < 2.0 * 1.2)


def test_rate_report_consistency(desk):
    cfg, geom, phases, budget = desk
    report = monte_carlo_rate(geom, cfg, phases, budget, trials=128)
    assert report.sum_rate == pytest.approx(report.per_user_rate.sum(), rel=1e-12)
    assert np.all(report.per_user_rate >= 0.0)


def test_measured_power_zero_without_sources(desk):
    cfg, geom, phases, _ = desk
    silent = LinkBudget(
        p=0.0, eta=1.0, P_A=0.0,
        startup_met=True, sigma_v2_w=0.0,
    )
    assert measured_ris_power(geom, cfg, phases, silent, trials=64) == 0.0


def test_measured_power_quadratic_in_gain(desk):
    cfg, geom, phases, budget = desk
    doubled = LinkBudget(
        p=budget.p, eta=2.0 * budget.eta, P_A=budget.P_A,
        startup_met=True, sigma_v2_w=budget.sigma_v2_w,
    )
    base = measured_ris_power(geom, cfg, phases, budget, trials=500)
    four_x = measured_ris_power(geom, cfg, phases, doubled, trials=500)
    # identical draws, so the quadratic scaling is exact
    assert four_x == pytest.approx(4.0 * base, rel=1e-12)


def test_measured_power_builds_the_los_parts_once(desk, monkeypatch):
    # three batches of user channels share one set of steering vectors
    cfg, geom, phases, budget = desk
    want = measured_ris_power(geom, cfg, phases, budget, trials=2 * BATCH + 1)
    built = []
    los = transceiver.los_components

    def counted(*args):
        built.append(args)
        return los(*args)

    monkeypatch.setattr(transceiver, "los_components", counted)
    assert measured_ris_power(geom, cfg, phases, budget, trials=2 * BATCH + 1) == want
    assert len(built) == 1


def test_one_statistics_set_serves_every_budget():
    # K = 3 with prime N; both surface modes with b-bit and with ideal ADCs
    cfg = SystemConfig(M=8, N=5, K=3, epsilon=(10.0, 2.0, 0.0), b=2, seed=13)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(14, 0))
    trials = 6
    stats = literal_trial_statistics(geom, cfg, phases, trials)
    H1, planes = sample_channel_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 0), trials,
                                      los_components(geom, cfg))
    H2 = planes[0] + 1j * planes[1]
    active = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    passive = resolve_budget(cfg, geom.alpha, Mode.PASSIVE)
    ideal = replace(cfg, b="ideal")
    cases = [
        (active, cfg, aqnm_alpha(2)),
        (passive, cfg, aqnm_alpha(2)),
        (active, ideal, 1.0),
        (passive, ideal, 1.0),
    ]
    for budget, point, alpha in cases:
        got = sinr(stats, budget, point)
        want = [
            sinr_from_definition(H1[t], H2[t], phases.theta, budget.p, budget.eta,
                                 budget.sigma_v2_w, cfg.sigma_n2_w, alpha)
            for t in range(trials)
        ]
        np.testing.assert_allclose(got, want, rtol=1e-12)


@given(
    K=st.integers(1, 5),
    b=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, "ideal"]),
    budget=st.sampled_from(["active", "passive", "cutoff"]),
    delta=st.sampled_from([0.0, 1.0]),
    eps=st.lists(st.sampled_from([0.0, 10.0]), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sinr_scalars_match_the_moment_expression(K, b, budget, delta, eps, seed):
    # s / (I + r q + c1 d + c2 g) against moments_at and the SINR terms
    # written out, on expected moments of a population and on per-trial
    # moments; five elements at -10 dBm switch and bias draw exactly 0 dBm,
    # so "cutoff" is an active budget at the start-up cutoff, p = eta = 0,
    # where every SINR and rate is exactly zero
    cfg = SystemConfig(M=8, N=5, K=K, b=b, delta=delta, epsilon=tuple(eps[:K]),
                       P_T_dbm=0.0 if budget == "cutoff" else 30.0, P_SW_dbm=-10.0,
                       P_DC_dbm=-10.0, trials=8, seed=seed)
    geom = make_geometry(cfg)
    link = resolve_budget(cfg, geom.alpha, Mode.PASSIVE if budget == "passive" else Mode.ACTIVE)
    assert link.startup_met == (budget != "cutoff")
    scalars = sinr_scalars(link, cfg)
    assert (scalars is None) == (budget == "cutoff")
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (3, cfg.N))
    for unit in (closed_form_site(geom, cfg).stats(theta),
                 trial_statistics(geom, cfg, PhaseConfig(theta[0]))):
        num, den = sinr_terms_reference(unit, link, cfg)
        want = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
        got = sinr(unit, link, cfg)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(log_rates(unit, scalars), np.log2(1.0 + got))
        if budget == "cutoff":
            assert np.all(got == 0.0) and np.all(log_rates(unit, scalars) == 0.0)


def test_trial_statistics_follow_the_batch_layout(desk):
    # trial BATCH + t is trial t of batch 1 of the fading stream, for full
    # draws of both hops and for the Gram-form draw alike
    cfg, geom, phases, _ = desk
    stats = literal_trial_statistics(geom, cfg, phases, BATCH + 7)
    assert all(x.shape[0] == BATCH + 7 for x in stats)
    H1, planes = sample_channel_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 1), 7,
                                      los_components(geom, cfg))
    G0 = ((planes[0] + 1j * planes[1]) * phases.phi) @ H1
    np.testing.assert_allclose(stats.channel_gain[BATCH:], (np.abs(G0) ** 2).sum(axis=1),
                               rtol=1e-12)

    assert reduced_draw_applies(cfg.M, cfg.N, cfg.K)
    stats = trial_statistics(geom, cfg, phases, BATCH + 7)
    assert all(x.shape[0] == BATCH + 7 for x in stats)
    batch = sample_gram_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 1), 7)
    want = _reduced(geom, cfg, phases, batch)
    for name, value in zip(Moments._fields, want):
        np.testing.assert_array_equal(getattr(stats, name)[BATCH:], value, err_msg=name)


@pytest.mark.parametrize("M, N, K", [(8, 5, 2), (8, 3, 2)])
def test_shared_statistics_equal_each_phase_vectors_own(M, N, K):
    # a reduced-draw size and a literal one, over two batches; the reduced
    # kernel consumes the draw's H2 U in place, so the first phase vector's
    # moments must not see the second's
    assert reduced_draw_applies(M, N, K) == (N == 5)
    cfg = SystemConfig(M=M, N=N, K=K, epsilon=(10.0, 1.0), seed=5)
    geom = make_geometry(cfg)
    phase_sets = [PhaseConfig.random(N, substream(6, j)) for j in range(2)]
    trials = BATCH + 9
    shared = shared_trial_statistics(geom, cfg, phase_sets, trials)
    assert len(shared) == 2
    for moments, phases in zip(shared, phase_sets):
        alone = trial_statistics(geom, cfg, phases, trials)
        for name, value, want in zip(Moments._fields, moments, alone):
            np.testing.assert_array_equal(value, want, err_msg=name)


def test_trial_statistics_checks_inputs(desk):
    cfg, geom, phases, budget = desk
    with pytest.raises(ValueError):
        trial_statistics(geom, cfg, phases, trials=0)
    with pytest.raises(ValueError):
        trial_statistics(geom, cfg, PhaseConfig(np.zeros(cfg.N + 1)), trials=4)
    stats = trial_statistics(geom, cfg, phases, trials=4)
    with pytest.raises(ValueError):
        sinr(stats, budget, replace(cfg, K=3, epsilon=(10.0,) * 3))


# each library function that takes a trial count, called on desk's
# (cfg, geom, phases, budget) and a count
TRIAL_COUNT_USERS = {
    "trial_statistics": lambda c, g, ph, b, t: trial_statistics(g, c, ph, t),
    "literal_trial_statistics": lambda c, g, ph, b, t: literal_trial_statistics(g, c, ph, t),
    "monte_carlo_rate": lambda c, g, ph, b, t: monte_carlo_rate(g, c, ph, b, t),
    "estimate_moments": lambda c, g, ph, b, t: estimate_moments(g, c, ph, b, t, 5),
    "measured_ris_power": lambda c, g, ph, b, t: measured_ris_power(g, c, ph, b, t),
}


@pytest.mark.parametrize("trials", [2.5, True, 0])
@pytest.mark.parametrize("name", TRIAL_COUNT_USERS)
def test_trial_counts_must_be_positive_integers(desk, name, trials):
    # a fractional count used to be truncated (2.5 ran 2 trials) and a
    # boolean read as one trial
    with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials!r}"):
        TRIAL_COUNT_USERS[name](*desk, trials)


def test_monte_carlo_rate_scores_the_moments_in_place():
    # beyond the per-trial moments that trial_statistics returns, the
    # scoring holds the (T, K) rates, one (T, K) temporary or deviation
    # array, and the per-trial sums and their deviations: no copy of the
    # moments, whose 5K columns would exceed that allowance at any K > 1
    cfg = SystemConfig(M=16, N=8, K=4, seed=2)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(3, 0))
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    T = 20000  # the moments, not the batch's temporaries, set trial_statistics' peak
    monte_carlo_rate(geom, cfg, phases, budget, trials=16)  # first-call allocations
    peaks = []
    for run in (lambda: trial_statistics(geom, cfg, phases, T),
                lambda: monte_carlo_rate(geom, cfg, phases, budget, trials=T)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * T * (3 * cfg.K + 2)


def test_one_trial_rates_have_zero_standard_errors(desk):
    cfg, geom, phases, budget = desk
    report = rate_from_statistics(trial_statistics(geom, cfg, phases, np.int64(1)), budget, cfg)
    assert report.trials_used == 1
    assert np.all(report.std_err == 0.0)
    assert report.sum_std_err == 0.0


def test_kernel_slices_do_not_change_statistics():
    # at (64, 64) the literal kernel takes at most 16 trials at a time;
    # reducing the whole batch in one call gives the same bits
    cfg = SystemConfig(M=64, N=64, K=3, epsilon=(10.0, 1.0, 0.0), seed=3)
    assert transceiver.KERNEL_BYTES // (16 * cfg.M * cfg.N) <= transceiver.KERNEL_MIN_TRIALS
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(4, 0))
    stats = literal_trial_statistics(geom, cfg, phases, 40)
    H1, H2 = sample_channel_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 0), 40,
                                  los_components(geom, cfg))
    whole = transceiver._batch_statistics(H1, H2, phases.phi)
    for name, value in zip(Moments._fields, whole):
        np.testing.assert_array_equal(getattr(stats, name), value, err_msg=name)


def test_trial_statistics_memory_is_about_one_planar_batch():
    # the H2 planes of a batch dominate; no complex H2-sized array is formed
    cfg = SystemConfig(M=144, N=64, K=4, seed=2)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(3, 0))
    trials = 256
    tracemalloc.start()
    try:
        literal_trial_statistics(geom, cfg, phases, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    planes = 16 * trials * cfg.M * cfg.N
    assert peak <= 1.2 * planes


def _reduced(geom, cfg, phases, batch):
    """The reduced kernel on one whole `sample_gram_batch` draw."""
    site = transceiver._gram_site(geom, cfg, los_components(geom, cfg), phases.phi)
    return transceiver._gram_statistics(*batch, site)


# the law check's systems: delta off {0, 1} with mixed Rician factors and a
# prime N; delta = 0 with one user; M = K at the edge N = K + 2; fewer
# complement dimensions than users (N - K - 1 = 1 < K); every user without
# LoS, so the first hop's mean is zero; power_sweep's size
LAW_SYSTEMS = [
    dict(M=8, N=7, K=3, delta=0.5, epsilon=(10.0, 0.0, 1.0), seed=4),
    dict(M=6, N=5, K=1, delta=0.0, epsilon=(3.0,), seed=6),
    dict(M=3, N=5, K=3, delta=2.0, epsilon=(2.0, 0.0, 10.0), seed=8),
    dict(M=4, N=6, K=4, delta=1.0, epsilon=(10.0, 1.0, 0.0, 3.0), seed=5),
    dict(M=8, N=9, K=3, delta=1.0, epsilon=(0.0, 0.0, 0.0), seed=7),
    dict(M=64, N=128, K=4, delta=1.0, epsilon=(10.0,) * 4, seed=1),
]


@pytest.mark.parametrize("kwargs", LAW_SYSTEMS)
def test_reduced_draw_has_the_law_of_full_draws(kwargs):
    # every moment's mean within 4 combined standard errors of the literal
    # kernel's on independent full draws
    cfg = SystemConfig(**kwargs)
    assert reduced_draw_applies(cfg.M, cfg.N, cfg.K)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(cfg.seed, 9))
    trials = 6000 if cfg.M * cfg.N <= 1024 else 2000  # full draws at (64, 128) are slow
    reduced = trial_statistics(geom, cfg, phases, trials, stream=(cfg.seed, 10))
    full = literal_trial_statistics(geom, cfg, phases, trials, stream=(cfg.seed, 11))
    for name, x, y in zip(Moments._fields, reduced, full):
        se = np.sqrt((x.var(axis=0, ddof=1) + y.var(axis=0, ddof=1)) / trials)
        gap = np.abs(x.mean(axis=0) - y.mean(axis=0))
        assert np.all(gap <= 4.0 * se), (name, gap / np.where(se > 0.0, se, 1.0))


def test_reduced_draw_survives_degenerate_factors(monkeypatch):
    # a pure-LoS user at aligned phases makes B = [Phi H1, a_ris] singular,
    # and a pure-LoS surface-BS hop makes G0^H G0 singular: the Cholesky
    # factorization of the per-trial (K+1)-square B^H B, or of the K-square
    # G0^H G0, falls back to the eigendecomposition, and the moments keep
    # the law of full draws
    fallbacks = []

    def counted(a, _f=np.linalg.eigh):
        fallbacks.append(a.shape[-1])
        return _f(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for kwargs, align, size in (
        (dict(M=8, N=6, K=1, delta=1.0, epsilon=(1e30,), seed=3), True, 2),     # B^H B
        (dict(M=6, N=4, K=2, delta=1e30, epsilon=(1e30, 1.0), seed=8), False, 2),  # G0^H G0
    ):
        cfg = SystemConfig(**kwargs)
        geom = make_geometry(cfg)
        los = los_components(geom, cfg)
        phases = (PhaseConfig(np.angle(los.a_ris) - np.angle(los.hbar[:, 0])) if align
                  else PhaseConfig.random(cfg.N, substream(1, 2)))
        trials = 2000
        fallbacks.clear()
        reduced = trial_statistics(geom, cfg, phases, trials, stream=(1, 10))
        assert size in fallbacks, fallbacks
        full = literal_trial_statistics(geom, cfg, phases, trials, stream=(1, 11))
        for name, x, y in zip(Moments._fields, reduced, full):
            assert np.all(np.isfinite(x)), name
            se = np.sqrt((x.var(axis=0, ddof=1) + y.var(axis=0, ddof=1)) / trials)
            gap = np.abs(x.mean(axis=0) - y.mean(axis=0))
            assert np.all(gap <= 4.0 * se + 1e-9 * np.abs(y.mean(axis=0))), name


def _digest(stats):
    """sha256 of the moments at 10 significant digits: they pass through
    BLAS, whose last bits may differ between CPUs."""
    text = " ".join(f"{v:.9e}" for x in stats for v in np.ravel(x))
    return hashlib.sha256(text.encode()).hexdigest()


# digests of the first five trials of the reduced draw's moments
PINNED_MOMENTS = [
    (dict(M=16, N=8, K=4, delta=1.0, epsilon=(10.0, 10.0, 10.0, 10.0), seed=3),
     "9023f547b1c160518049fc0a5a9ad3e36440b70256f17f66c830fc8952a0a4b7"),
    (dict(M=12, N=7, K=2, delta=0.5, epsilon=(0.0, 3.0), seed=9),
     "84394159ca847b1f72588e431d973fbd261445d8307cd0981888ceb5fa030fb4"),
]


@pytest.mark.parametrize("kwargs, sha", PINNED_MOMENTS, ids=["M16-N8-K4", "M12-N7-K2"])
def test_reduced_moments_match_pinned_values(kwargs, sha):
    cfg = SystemConfig(**kwargs)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(cfg.seed, 9))
    assert _digest(trial_statistics(geom, cfg, phases, 5)) == sha


@pytest.mark.parametrize("n, K", [(6, 3), (2, 4)])
def test_bartlett_factor_has_the_wishart_law(n, K):
    # T^H T against W = Z^H Z with Z (n, K) iid CN(0, 1): E W = n I and
    # E|W_ij - E W_ij|^2 = n on and off the diagonal, also for n < K,
    # where W is singular
    count = 20000
    T = bartlett_factor(substream(21, n), count, n, K)
    r = min(n, K)
    assert T.shape == (count, r, K)
    i = np.arange(r)
    assert np.all(T[:, i, i].real > 0.0) and np.all(T[:, i, i].imag == 0.0)
    assert not np.tril(T, -1).any()
    W = T.conj().swapaxes(1, 2) @ T
    dev = W - n * np.eye(K)
    for part in (dev.real, dev.imag):
        se = part.std(axis=0) / math.sqrt(count)
        assert np.all(np.abs(part.mean(axis=0)) <= 4.0 * se + 1e-12)
    d = np.abs(dev) ** 2
    se = d.std(axis=0) / math.sqrt(count)
    assert np.all(np.abs(d.mean(axis=0) - n) <= 4.0 * se)


def test_reduced_kernel_slices_do_not_change_statistics():
    # at (144, 64, 4) the reduced kernel takes at most 45 trials at a time
    cfg = SystemConfig(M=144, N=64, K=4, epsilon=(10.0, 1.0, 0.0, 2.0), delta=0.5, seed=3)
    assert transceiver.KERNEL_BYTES // (16 * cfg.M * (cfg.K + 1)) < 100
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(4, 0))
    stats = trial_statistics(geom, cfg, phases, 100)
    batch = sample_gram_batch(geom, cfg, substream(cfg.seed, STREAM_FADING, 0), 100)
    for name, value in zip(Moments._fields, _reduced(geom, cfg, phases, batch)):
        np.testing.assert_array_equal(getattr(stats, name), value, err_msg=name)


@pytest.mark.parametrize("M, N, K", [(8, 4, 3), (8, 3, 3), (2, 8, 3)])
def test_literal_kernel_where_the_reduced_draw_does_not_apply(M, N, K):
    # N <= K + 1 leaves no complement to reduce, M < K a singular G0^H G0
    cfg = SystemConfig(M=M, N=N, K=K, epsilon=(10.0, 0.0, 1.0), seed=5)
    assert not reduced_draw_applies(M, N, K)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(6, 0))
    got = trial_statistics(geom, cfg, phases, 40)
    want = literal_trial_statistics(geom, cfg, phases, 40)
    for name in Moments._fields:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    if N <= K + 1:
        with pytest.raises(ValueError):
            sample_gram_batch(geom, cfg, substream(7, 0), 4)


def test_reduced_draw_memory_is_far_below_one_planar_batch():
    # the reduced batch at (144, 64, 4) is about an eighth of the H2 planes
    # of a full batch, and the kernel's slices add little to it
    cfg = SystemConfig(M=144, N=64, K=4, seed=2)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(3, 0))
    trials = 256
    tracemalloc.start()
    try:
        trial_statistics(geom, cfg, phases, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    planes = 16 * trials * cfg.M * cfg.N
    assert peak <= 0.2 * planes
