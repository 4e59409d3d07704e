from dataclasses import replace

import numpy as np
import pytest

from arisim import (
    Geometry,
    LinkBudget,
    Mode,
    PhaseConfig,
    SystemConfig,
    estimate_moments,
    make_geometry,
    moments_at,
    resolve_budget,
    wishart_moment_check,
)
from arisim import analytic
from arisim.channel import complex_planes, sample_channel_batch, substream
from arisim.transceiver import BATCH
from helpers import rayleigh_norm4_mean


def unit_gain_geometry(cfg):
    """Geometry with alpha = beta = 1 so moments reduce to array sizes."""
    geom = make_geometry(cfg)
    return Geometry(
        user_aoa=geom.user_aoa, ris_aod=geom.ris_aod, bs_aoa=geom.bs_aoa,
        user_pos=geom.user_pos, dist_user=geom.dist_user, dist_ris=geom.dist_ris,
        alpha=np.ones(cfg.K), beta=1.0,
    )


def unit_budget(cfg, p=1.0):
    return LinkBudget(
        p=np.full(cfg.K, p), eta=1.0, P_A=0.0,
        startup_met=True, mode=Mode.ACTIVE, sigma_v2_w=cfg.sigma_v2_w,
    )


def test_rayleigh_mean_gain():
    # fully scattered channel with unit gains: E||g_k||^2 = M*N
    cfg = SystemConfig(M=8, N=4, K=1, epsilon=(0.0,), delta=0.0, seed=3)
    geom = unit_gain_geometry(cfg)
    est = estimate_moments(geom, cfg, PhaseConfig(np.zeros(cfg.N)), unit_budget(cfg), 20000, 11)
    assert abs(est.channel_gain[0] - cfg.M * cfg.N) <= 3.0 * est.se_channel_gain[0]


def test_rayleigh_fourth_moment():
    cfg = SystemConfig(M=4, N=4, K=1, epsilon=(0.0,), delta=0.0, seed=3)
    geom = unit_gain_geometry(cfg)
    est = estimate_moments(geom, cfg, PhaseConfig(np.zeros(cfg.N)), unit_budget(cfg), 40000, 12)
    want = rayleigh_norm4_mean(cfg.M, cfg.N)
    assert abs(est.signal[0] - want) <= 4.0 * est.se_signal[0]


def test_estimates_deterministic(desk):
    cfg, geom, phases, budget = desk
    a = estimate_moments(geom, cfg, phases, budget, 2000, 5)
    b = estimate_moments(geom, cfg, phases, budget, 2000, 5)
    np.testing.assert_array_equal(a.signal, b.signal)
    np.testing.assert_array_equal(a.interference, b.interference)
    np.testing.assert_array_equal(a.quantization, b.quantization)
    c = estimate_moments(geom, cfg, phases, budget, 2000, 6)
    assert not np.array_equal(a.signal, c.signal)


def test_estimates_match_direct_definition(desk):
    # every moment from the literal per-trial expressions, over two batches
    # drawn from the oracle's stream substream(seed, batch)
    cfg, geom, phases, budget = desk
    trials, seed = BATCH + 5, 5
    samples = {name: [] for name in ("sig", "cross", "dyn", "gain", "quant")}
    Phi = np.diag(phases.phi)
    I = np.eye(cfg.M)
    for b_idx, count in ((0, BATCH), (1, trials - BATCH)):
        H1, planes = sample_channel_batch(geom, cfg, substream(seed, b_idx), count)
        H2 = complex_planes(planes)
        for t in range(count):
            G = budget.eta * H2[t] @ Phi @ H1[t]
            R_in = G @ G.conj().T
            gain = np.array([np.vdot(G[:, k], G[:, k]).real for k in range(cfg.K)])
            samples["gain"].append(gain)
            samples["sig"].append(gain**2)
            samples["cross"].append([[abs(np.vdot(G[:, k], G[:, i])) ** 2 if i != k else 0.0
                                      for i in range(cfg.K)] for k in range(cfg.K)])
            samples["dyn"].append([np.linalg.norm(G[:, k].conj() @ H2[t] @ Phi) ** 2
                                   for k in range(cfg.K)])
            samples["quant"].append([
                (G[:, k].conj() @ np.diag(np.diag(budget.p[k] * R_in + cfg.sigma_n2_w * I))
                 @ G[:, k]).real
                for k in range(cfg.K)
            ])
    est = estimate_moments(geom, cfg, phases, budget, trials, seed)
    for name, mean, se in (
        ("sig", est.signal, est.se_signal),
        ("cross", est.interference, est.se_interference),
        ("dyn", est.dynamic_noise, est.se_dynamic_noise),
        ("gain", est.channel_gain, est.se_channel_gain),
        ("quant", est.quantization, est.se_quantization),
    ):
        x = np.asarray(samples[name])
        np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / np.sqrt(trials), rtol=1e-10)


def test_interference_diagonal_is_masked(desk):
    cfg, geom, phases, budget = desk
    est = estimate_moments(geom, cfg, phases, budget, 1000, 5)
    assert np.all(np.diag(est.interference) == 0.0)
    assert np.all(est.interference[~np.eye(cfg.K, dtype=bool)] > 0.0)


def test_standard_errors_shrink(desk):
    cfg, geom, phases, budget = desk
    small = estimate_moments(geom, cfg, phases, budget, 1000, 5)
    large = estimate_moments(geom, cfg, phases, budget, 16000, 5)
    assert np.all(large.se_signal < small.se_signal)


def test_moment_oracle_agreement_smoke(desk):
    # light version of the acceptance run: every closed form within a few
    # percent of its estimate at 20k trials
    cfg, geom, phases, budget = desk
    ref = moments_at(analytic.compute_stats(geom, cfg, phases).unit, budget, cfg)
    est = estimate_moments(geom, cfg, phases, budget, 20000, 5)
    for k in range(cfg.K):
        assert est.signal[k] == pytest.approx(ref.signal[k], rel=0.05)
        assert est.channel_gain[k] == pytest.approx(ref.channel_gain[k], rel=0.03)
        assert est.dynamic_noise[k] == pytest.approx(ref.dynamic_noise[k], rel=0.07)
        assert est.quantization[k] == pytest.approx(ref.quantization[k], rel=0.06)


def test_closed_form_and_oracle_moments_have_one_layout():
    # K = 3: the closed form and the oracle give the same fields, each of the
    # same shape, and neither counts a user as its own interferer
    cfg = SystemConfig(M=8, N=5, K=3, epsilon=(10.0, 1.0, 0.0), seed=4)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(8, 0))
    budget = resolve_budget(cfg, geom.alpha, Mode.ACTIVE)
    closed = moments_at(analytic.compute_stats(geom, cfg, phases).unit, budget, cfg)
    est = estimate_moments(geom, cfg, phases, budget, 64, 5)
    for name in closed._fields:
        assert getattr(est, name).shape == getattr(closed, name).shape, name
        assert getattr(est, "se_" + name).shape == getattr(closed, name).shape, name
    assert closed.interference.shape == (cfg.K, cfg.K)
    for interference in (closed.interference, est.interference):
        assert np.all(np.diag(interference) == 0.0)
        assert np.all(interference[~np.eye(cfg.K, dtype=bool)] > 0.0)


def test_wishart_trace_identity(paper_cfg):
    report = wishart_moment_check(paper_cfg, trials=64, seed=2)
    geom = make_geometry(paper_cfg)
    assert report.trace_surrogate == pytest.approx(paper_cfg.N * geom.beta, rel=1e-12)


def test_wishart_exact_without_los():
    # central case: the surrogate is the true second moment, so the
    # deviation sits at the sampling floor
    cfg = SystemConfig(M=16, N=4, K=2, epsilon=(10.0, 10.0), delta=0.0, seed=9)
    report = wishart_moment_check(cfg, trials=20000, seed=4)
    assert report.frob_rel_dev <= 3.0 * report.frob_rel_se


def test_wishart_approximation_quality_at_scale(paper_cfg):
    # measured at 1.4% for a unit Rician factor at the baseline sizes;
    # the 5% bound leaves room for the surrogate's systematic error
    report = wishart_moment_check(paper_cfg, trials=20000, seed=4)
    assert report.frob_rel_dev <= 0.05
    assert report.frob_rel_dev > report.frob_rel_se  # genuinely approximate
    assert "deviation" in report.summary()


def test_wishart_deviation_grows_with_rician_factor():
    base = SystemConfig(M=16, N=8, K=2, epsilon=(10.0, 10.0), seed=6)
    devs = []
    for delta in (0.0, 1.0, 4.0):
        report = wishart_moment_check(replace(base, delta=delta), trials=8000, seed=8)
        devs.append(report.frob_rel_dev)
    assert devs[0] < devs[1] < devs[2]
