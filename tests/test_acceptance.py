"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from arisim import (
    Mode,
    PhaseConfig,
    SystemConfig,
    estimate_moments,
    make_geometry,
    measured_ris_power,
    moments_at,
    monte_carlo_rate,
    optimize_phases,
    resolve_budget,
    sinr,
)
from arisim import analytic
from arisim.channel import STREAM_PHASES, array_response, los_components, substream
from arisim.ga import GAParams
from arisim.transceiver import literal_trial_statistics

from helpers import aligned_gains, closed_form_pairs, literal_draw, oracle_pairs


def _report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def baseline_phases(cfg):
    return PhaseConfig.random(cfg.N, substream(cfg.seed, STREAM_PHASES, cfg.N))


@pytest.fixture(scope="module")
def baseline():
    cfg = SystemConfig()  # 64 antennas, 16 elements, 4 users, 1-bit ADCs, 30 dBm
    geom = make_geometry(cfg)
    return cfg, geom, baseline_phases(cfg)


def test_ac1_surface_power_identity(baseline):
    cfg, geom, phases = baseline
    start = time.monotonic()
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    measured = measured_ris_power(geom, cfg, phases, budget, trials=100_000)
    expected = budget.eta**2 * cfg.N * (budget.p * float(geom.alpha.sum()) + budget.sigma_v2_w)
    elapsed = time.monotonic() - start
    rel = abs(measured - expected) / expected
    assert expected == pytest.approx(budget.P_A, rel=1e-12)  # budget inverts the identity
    assert elapsed < 30.0
    _report("AC-1 surface power identity", rel <= 0.01,
            f"rel dev {rel:.3%}, tol 1%, {elapsed:.1f}s")


def test_ac2_moment_oracle_equivalence():
    start = time.monotonic()
    cfg = SystemConfig(M=8, N=4, K=2, epsilon=(10.0, 10.0), seed=42)
    geom = make_geometry(cfg)
    phases = baseline_phases(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    ref = moments_at(analytic.compute_stats(geom, cfg, phases), budget, cfg)
    est, se = estimate_moments(geom, cfg, phases, budget, trials=100_000, seed=cfg.seed + 1)
    # every interference pair, on the oracle's draws and from the closed form
    site = analytic.closed_form_site(geom, cfg)
    ref_pairs = budget.eta**4 * closed_form_pairs(site, phases.theta)
    est_pairs, se_pairs = oracle_pairs(geom, cfg, phases, budget, 100_000, cfg.seed + 1)

    worst = {}

    def within(name, estimate, se, reference, rel_tol):
        tol = max(rel_tol * abs(reference), 4.0 * se)
        dev = abs(estimate - reference)
        worst[name] = max(worst.get(name, 0.0), dev / abs(reference))
        return dev <= tol

    ok = True
    for k in range(cfg.K):
        for name in ("signal", "interference", "channel_gain", "quantization", "dynamic_noise"):
            ok &= within(name, getattr(est, name)[k], getattr(se, name)[k],
                         getattr(ref, name)[k], 0.03)
        for i in range(cfg.K):
            if i != k:
                ok &= within("interference pair", est_pairs[k, i], se_pairs[k, i],
                             ref_pairs[k, i], 0.03)

    # the misprinted prefactor variant, u_k^2 u_i^2 in place of u_k u_i,
    # must fail the very same check
    u = site.u
    bad_ref = ref_pairs[0, 1] * (u[0] * u[1])
    bad_tol = max(0.03 * abs(bad_ref), 4.0 * se_pairs[0, 1])
    printed_fails = abs(est_pairs[0, 1] - bad_ref) > bad_tol

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{n} {v:.2%}" for n, v in sorted(worst.items()))
    _report("AC-2 moment oracle equivalence", ok and printed_fails,
            f"worst rel devs: {detail}; misprinted prefactor rejected={printed_fails}; "
            f"{elapsed:.1f}s")


def test_ac3_closed_form_matches_monte_carlo():
    start = time.monotonic()
    # representative fixed geometry; the approximation bias varies a few
    # percent with the drawn angles (see notes in the repo docs)
    cfg = SystemConfig(seed=99, trials=2000)
    geom = make_geometry(cfg)
    phases = baseline_phases(cfg)
    stats = analytic.compute_stats(geom, cfg, phases)
    devs = {}
    for mode in (Mode.ACTIVE, Mode.PASSIVE):
        budget = resolve_budget(cfg, geom.alpha, mode)
        closed = float(analytic.closed_form_rates(stats, budget, cfg).sum())
        mc = monte_carlo_rate(geom, cfg, phases, budget, trials=2000)
        devs[mode.value] = abs(closed - mc.sum_rate) / mc.sum_rate
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    ok = all(d <= 0.05 for d in devs.values())
    _report("AC-3 closed form vs Monte Carlo", ok,
            f"active dev {devs['active']:.2%}, passive dev {devs['passive']:.2%}, "
            f"tol 5%, {elapsed:.1f}s")


def test_ac4_adc_resolution_convergence(baseline):
    cfg, geom, phases = baseline
    start = time.monotonic()
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    stats = analytic.compute_stats(geom, cfg, phases)
    monotone = True
    close_at_12 = True
    small_gap_at_4 = True
    worst_gap4 = 0.0
    for k in range(cfg.K):
        rates = [analytic.closed_form_rates(stats, budget, replace(cfg, b=b))[k]
                 for b in range(1, 13)]
        ideal = analytic.closed_form_rates(stats, budget, replace(cfg, b="ideal"))[k]
        monotone &= all(rates[i] <= rates[i + 1] + 1e-12 for i in range(11))
        close_at_12 &= abs(ideal - rates[11]) <= 1e-3
        gap4 = (ideal - rates[3]) / ideal
        worst_gap4 = max(worst_gap4, gap4)
        small_gap_at_4 &= gap4 <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("AC-4 ADC convergence", monotone and close_at_12 and small_gap_at_4,
            f"monotone={monotone}, 12-bit gap<=1e-3 bits={close_at_12}, "
            f"4-bit gap {worst_gap4:.2%} (tol 5%), {elapsed:.1f}s")


def test_ac5_startup_thresholds_and_crossover():
    start = time.monotonic()
    cfg = SystemConfig(N=128, trials=2000)
    geom = make_geometry(cfg)
    phases = baseline_phases(cfg)

    # active circuits need 17.27 dBm, passive only 11.07 dBm
    active_zero = True
    passive_positive = True
    for p_t in (5.0, 12.0, 15.0, 17.0):
        point = replace(cfg, P_T_dbm=p_t)
        a = resolve_budget(point, geom.alpha, Mode.ACTIVE)
        stats = analytic.compute_stats(geom, point, phases)
        active_zero &= not a.startup_met
        active_zero &= float(analytic.closed_form_rates(stats, a, point).sum()) == 0.0
        active_zero &= monte_carlo_rate(geom, point, phases, a, trials=10).sum_rate == 0.0
        if p_t >= 12.0:
            p = resolve_budget(point, geom.alpha, Mode.PASSIVE)
            passive_positive &= p.startup_met
            passive_positive &= float(analytic.closed_form_rates(stats, p, point).sum()) > 0.0

    point = replace(cfg, P_T_dbm=30.0)
    stats = analytic.compute_stats(geom, point, phases)
    a = resolve_budget(point, geom.alpha, Mode.ACTIVE)
    p = resolve_budget(point, geom.alpha, Mode.PASSIVE)
    closed_gap = (float(analytic.closed_form_rates(stats, a, point).sum())
                  > float(analytic.closed_form_rates(stats, p, point).sum()))
    mc_a = monte_carlo_rate(geom, point, phases, a, trials=2000)
    mc_p = monte_carlo_rate(geom, point, phases, p, trials=2000)
    mc_gap = mc_a.sum_rate > mc_p.sum_rate
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report("AC-5 startup thresholds and crossover",
            active_zero and passive_positive and closed_gap and mc_gap,
            f"active zero below threshold={active_zero}, passive positive={passive_positive}, "
            f"30 dBm active>{'>' if mc_gap else '<='}passive "
            f"(mc {mc_a.sum_rate:.2f} vs {mc_p.sum_rate:.2f}), {elapsed:.1f}s")


def test_ac6_genetic_optimizer():
    start = time.monotonic()

    # (a) LoS-dominant single user: the search must approach the known
    # phase-alignment optimum |f| = N
    los_cfg = SystemConfig(M=16, N=16, K=1, epsilon=(1e6,), delta=1e6, seed=11, trials=10)
    los_geom = make_geometry(los_cfg)
    los_budget = resolve_budget(los_cfg, los_geom.alpha, Mode.ACTIVE)
    params = GAParams(mutation_sigma=np.pi / 32, max_iters=300, f_tol=0.0, seed=3)
    best, hist = optimize_phases(los_geom, los_cfg, los_budget, params)
    monotone_a = bool(np.all(np.diff(hist.best_fitness) >= 0.0))
    aligned_gain = abs(aligned_gains(los_geom, los_cfg, best.theta)[0])
    # the alignment optimum itself is exactly N
    hbar = los_components(los_geom, los_cfg).hbar
    a_ris = array_response(los_cfg.N, los_geom.ris_aod[0], los_geom.ris_aod[1])
    exact = abs(aligned_gains(los_geom, los_cfg, np.angle(a_ris) - np.angle(hbar[:, 0]))[0])
    assert exact == pytest.approx(los_cfg.N, rel=1e-12)

    # (b) baseline system: optimized sum rate at least the random-phase mean
    cfg = SystemConfig(trials=10)
    geom = make_geometry(cfg)
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    best_b, hist_b = optimize_phases(geom, cfg, budget, GAParams(seed=5))
    monotone_b = bool(np.all(np.diff(hist_b.best_fitness) >= 0.0))
    random_theta = substream(2025, 0).uniform(0.0, 2 * np.pi, (100, cfg.N))
    site = analytic.closed_form_site(geom, cfg)
    baseline_mean = float(
        analytic.closed_form_rates(site.stats(random_theta), budget, cfg).sum(axis=-1).mean())
    improved = hist_b.best_fitness[-1] >= baseline_mean

    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    ok = monotone_a and monotone_b and aligned_gain >= 0.95 * los_cfg.N and improved
    _report("AC-6 genetic optimizer", ok,
            f"monotone={monotone_a and monotone_b}, aligned |f|={aligned_gain:.2f} "
            f"(target {0.95 * los_cfg.N:.1f}), optimized {hist_b.best_fitness[-1]:.3f} "
            f">= random mean {baseline_mean:.3f}, {elapsed:.1f}s")


def test_ac7_invariant_suite(baseline):
    cfg, geom, phases = baseline
    start = time.monotonic()
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)

    # global-phase invariance of the SINR of several literal-kernel trials
    # and of every closed-form moment
    shifted = PhaseConfig(phases.theta + 0.731)
    literal = literal_trial_statistics(geom, cfg, phases, 8, stream=(cfg.seed, 9))
    sinr_base = sinr(literal, budget, cfg)
    sinr_shift = sinr(literal_trial_statistics(geom, cfg, shifted, 8, stream=(cfg.seed, 9)),
                      budget, cfg)
    phase_ok = bool(np.all(np.abs(sinr_shift - sinr_base) <= 1e-10 * np.abs(sinr_base)))
    ref = moments_at(analytic.compute_stats(geom, cfg, phases), budget, cfg)
    moved = moments_at(analytic.compute_stats(geom, cfg, shifted), budget, cfg)
    site = analytic.closed_form_site(geom, cfg)
    ref_pairs = budget.eta**4 * closed_form_pairs(site, phases.theta)
    moved_pairs = budget.eta**4 * closed_form_pairs(site, shifted.theta)
    for k in range(cfg.K):
        pairs = [(a[k], b[k]) for a, b in zip(ref, moved)] + [
            (ref_pairs[k, i], moved_pairs[k, i])
            for i in range(cfg.K) if i != k
        ]
        phase_ok &= all(abs(a - b) <= 1e-10 * abs(a) for a, b in pairs)

    # aligned-gain bound over many random phase configurations
    rng = substream(4242, 0)
    bound_ok = all(
        np.all(np.abs(aligned_gains(geom, cfg, PhaseConfig.random(cfg.N, rng).theta))
               <= cfg.N + 1e-9)
        for _ in range(1000)
    )

    # interference symmetry
    sym_ok = all(
        math.isclose(ref_pairs[k, i], ref_pairs[i, k], rel_tol=1e-12)
        for k in range(cfg.K) for i in range(cfg.K) if i != k
    )

    # bit-identical reruns of every seeded operation
    det_ok = True
    g2 = make_geometry(cfg)
    det_ok &= np.array_equal(geom.user_aoa, g2.user_aoa) and geom.beta == g2.beta
    H1_a, H2_a = literal_draw(geom, cfg, cfg.seed, 9)
    H1_b, H2_b = literal_draw(geom, cfg, cfg.seed, 9)
    det_ok &= np.array_equal(H1_a, H1_b) and np.array_equal(H2_a, H2_b)
    again = literal_trial_statistics(geom, cfg, phases, 8, stream=(cfg.seed, 9))
    det_ok &= all(np.array_equal(a, b) for a, b in zip(literal, again))
    mc_a = monte_carlo_rate(geom, cfg, phases, budget, trials=200)
    mc_b = monte_carlo_rate(geom, cfg, phases, budget, trials=200)
    det_ok &= np.array_equal(mc_a.per_user_rate, mc_b.per_user_rate)
    est_a, _ = estimate_moments(geom, cfg, phases, budget, 500, 3)
    est_b, _ = estimate_moments(geom, cfg, phases, budget, 500, 3)
    det_ok &= np.array_equal(est_a.signal, est_b.signal)
    small = SystemConfig(M=16, N=8, K=2, epsilon=(10.0, 10.0), trials=10, seed=17)
    sg = make_geometry(small)
    sb = resolve_budget(small, sg.alpha, Mode.ACTIVE)
    tiny = GAParams(n_total=24, n_elite=4, n_parents=8, n_crossover=14, n_mutation=6,
                    max_iters=6, f_tol=0.0, seed=1)
    ga_a, _ = optimize_phases(sg, small, sb, tiny)
    ga_b, _ = optimize_phases(sg, small, sb, tiny)
    det_ok &= np.array_equal(ga_a.theta, ga_b.theta)

    # quantization sandwich per realization, over five literal-kernel trials
    sandwich_ok = True
    draws = literal_trial_statistics(geom, cfg, phases, 5, stream=(cfg.seed, 10))
    prev = None
    for bits in (1, 2, 4, 8):
        s = sinr(draws, budget, replace(cfg, b=bits))
        if prev is not None:
            sandwich_ok &= bool(np.all(s >= prev - 1e-15))
        prev = s
    top = sinr(draws, budget, replace(cfg, b="ideal"))
    sandwich_ok &= bool(np.all(top >= prev))

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok = phase_ok and bound_ok and sym_ok and det_ok and sandwich_ok
    _report("AC-7 invariant suite", ok,
            f"phase invariance={phase_ok}, gain bound={bound_ok}, symmetry={sym_ok}, "
            f"determinism={det_ok}, quantization sandwich={sandwich_ok}, {elapsed:.1f}s")
