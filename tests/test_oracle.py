import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arisim import (
    Geometry,
    Moments,
    PhaseConfig,
    SystemConfig,
    estimate_moments,
    make_geometry,
)
from arisim import analytic
from arisim.channel import (
    array_response,
    los_components,
    sample_channel_batch,
    substream,
)
from arisim import transceiver
from arisim.transceiver import BATCH, literal_trial_statistics
from helpers import closed_form_pairs, oracle_pairs, rayleigh_norm4_mean


def unit_gain_geometry(cfg):
    """Geometry with alpha = beta = 1 so moments reduce to array sizes."""
    geom = make_geometry(cfg)
    return Geometry(
        user_aoa=geom.user_aoa, ris_aod=geom.ris_aod, bs_aoa=geom.bs_aoa,
        user_pos=geom.user_pos, dist_user=geom.dist_user, dist_ris=geom.dist_ris,
        alpha=np.ones(cfg.K), beta=1.0,
    )


def test_rayleigh_mean_gain():
    # fully scattered channel with unit gains: E||g_k||^2 = M*N
    cfg = SystemConfig(M=8, N=4, K=1, epsilon=(0.0,), delta=0.0, seed=3)
    geom = unit_gain_geometry(cfg)
    mean, se = estimate_moments(geom, cfg, PhaseConfig(np.zeros(cfg.N)), 20000, 11)
    assert abs(mean.channel_gain[0] - cfg.M * cfg.N) <= 3.0 * se.channel_gain[0]


def test_rayleigh_fourth_moment():
    cfg = SystemConfig(M=4, N=4, K=1, epsilon=(0.0,), delta=0.0, seed=3)
    geom = unit_gain_geometry(cfg)
    mean, se = estimate_moments(geom, cfg, PhaseConfig(np.zeros(cfg.N)), 40000, 12)
    want = rayleigh_norm4_mean(cfg.M, cfg.N)
    assert abs(mean.signal[0] - want) <= 4.0 * se.signal[0]


def test_estimates_deterministic(desk):
    cfg, geom, phases, _ = desk
    a, _ = estimate_moments(geom, cfg, phases, 2000, 5)
    b, _ = estimate_moments(geom, cfg, phases, 2000, 5)
    np.testing.assert_array_equal(a.signal, b.signal)
    np.testing.assert_array_equal(a.interference, b.interference)
    np.testing.assert_array_equal(a.quantization, b.quantization)
    c, _ = estimate_moments(geom, cfg, phases, 2000, 6)
    assert not np.array_equal(a.signal, c.signal)


def test_estimates_match_direct_definition(desk):
    # every unit moment from the literal per-trial expressions of
    # G0 = H2 Phi H1, over two batches drawn from the oracle's stream
    # substream(seed, batch)
    cfg, geom, phases, _ = desk
    trials, seed = BATCH + 5, 5
    # in the field order of Moments
    samples = {name: [] for name in ("sig", "cross", "dyn", "gain", "quant")}
    Phi = np.diag(phases.phi)
    los = los_components(geom, cfg)
    for b_idx, count in ((0, BATCH), (1, trials - BATCH)):
        H1, planes = sample_channel_batch(geom, cfg, substream(seed, b_idx), count, los)
        H2 = planes[0] + 1j * planes[1]
        for t in range(count):
            G0 = H2[t] @ Phi @ H1[t]
            R_in = G0 @ G0.conj().T
            gain = np.array([np.vdot(G0[:, k], G0[:, k]).real for k in range(cfg.K)])
            samples["gain"].append(gain)
            samples["sig"].append(gain**2)
            samples["cross"].append([sum(abs(np.vdot(G0[:, k], G0[:, i])) ** 2
                                         for i in range(cfg.K) if i != k)
                                     for k in range(cfg.K)])
            samples["dyn"].append([np.linalg.norm(G0[:, k].conj() @ H2[t] @ Phi) ** 2
                                   for k in range(cfg.K)])
            samples["quant"].append([
                (G0[:, k].conj() @ np.diag(np.diag(R_in)) @ G0[:, k]).real
                for k in range(cfg.K)
            ])
    for per_trial, mean, se in zip(samples.values(),
                                   *estimate_moments(geom, cfg, phases, trials, seed)):
        x = np.asarray(per_trial)
        np.testing.assert_allclose(mean, x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / np.sqrt(trials), rtol=1e-10)


def test_one_trial_estimate_is_that_trial(desk):
    cfg, geom, phases, _ = desk
    mean, se = estimate_moments(geom, cfg, phases, 1, 5)
    trial = literal_trial_statistics(geom, cfg, phases, 1, stream=(5,))
    for name in Moments._fields:
        np.testing.assert_array_equal(getattr(mean, name), getattr(trial, name)[0])
        assert np.all(getattr(se, name) == 0.0), name


def test_oracle_module_does_not_import_the_closed_form():
    # the oracle certifies the closed form, so its module must not reach it
    tree = ast.parse(Path(transceiver.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported if "analytic" in name]


def test_interference_diagonal_is_masked(desk):
    # each user's interference sums its pairs with the other users alone,
    # never its own ||g_k||^4; a lone user has none
    cfg, geom, phases, _ = desk
    mean, se = estimate_moments(geom, cfg, phases, 1000, 5)
    pairs, _ = oracle_pairs(geom, cfg, phases, 1000, 5)
    np.testing.assert_allclose(mean.interference, pairs.sum(axis=1), rtol=1e-12)
    assert np.all(mean.interference > 0.0) and np.all(se.interference > 0.0)
    lone = SystemConfig(M=8, N=4, K=1, epsilon=(10.0,), seed=3)
    geom = make_geometry(lone)
    mean, se = estimate_moments(geom, lone, PhaseConfig(np.zeros(lone.N)), 64, 5)
    assert mean.interference[0] == 0.0 and se.interference[0] == 0.0


def test_standard_errors_shrink(desk):
    cfg, geom, phases, _ = desk
    _, small = estimate_moments(geom, cfg, phases, 1000, 5)
    _, large = estimate_moments(geom, cfg, phases, 16000, 5)
    assert np.all(large.signal < small.signal)


def test_moment_oracle_agreement_smoke(desk):
    # light version of the acceptance run: every closed form within a few
    # percent of its estimate at 20k trials
    cfg, geom, phases, _ = desk
    ref = analytic.compute_stats(geom, cfg, phases)
    est, _ = estimate_moments(geom, cfg, phases, 20000, 5)
    for k in range(cfg.K):
        assert est.signal[k] == pytest.approx(ref.signal[k], rel=0.05)
        assert est.channel_gain[k] == pytest.approx(ref.channel_gain[k], rel=0.03)
        assert est.dynamic_noise[k] == pytest.approx(ref.dynamic_noise[k], rel=0.07)
        assert est.quantization[k] == pytest.approx(ref.quantization[k], rel=0.06)


def test_closed_form_and_oracle_moments_have_one_layout():
    # K = 3: the closed form and the oracle give the same fields, each of the
    # same shape, (K,), and neither counts a user as its own interferer
    cfg = SystemConfig(M=8, N=5, K=3, epsilon=(10.0, 1.0, 0.0), seed=4)
    geom = make_geometry(cfg)
    phases = PhaseConfig.random(cfg.N, substream(8, 0))
    closed = analytic.compute_stats(geom, cfg, phases)
    est, se = estimate_moments(geom, cfg, phases, 64, 5)
    for name in closed._fields:
        assert getattr(est, name).shape == getattr(closed, name).shape, name
        assert getattr(se, name).shape == getattr(closed, name).shape, name
    assert closed.interference.shape == (cfg.K,)
    site = analytic.closed_form_site(geom, cfg)
    for pairs in (closed_form_pairs(site, phases.theta),
                  oracle_pairs(geom, cfg, phases, 64, 5)[0]):
        assert np.all(np.diag(pairs) == 0.0)
        assert np.all(pairs[~np.eye(cfg.K, dtype=bool)] > 0.0)


@given(
    M=st.integers(2, 16),
    N=st.sampled_from([2, 3, 5, 7]),
    K=st.integers(1, 5),
    delta=st.floats(0.1, 5.0).filter(lambda d: abs(d - 1.0) > 0.05),
    eps=st.lists(st.sampled_from([0.0, 0.5, 1.0, 10.0]), min_size=5, max_size=5),
    aligned=st.booleans(),
    seed=st.integers(0, 2**16),
)
# the configs' delta in {0, 1}, at K = 3 with mixed Rician factors and a
# prime N, at random and at aligned phases
@example(M=8, N=7, K=3, delta=0.0, eps=[10.0, 0.0, 1.0, 0.5, 10.0], aligned=False, seed=3)
@example(M=8, N=7, K=3, delta=0.0, eps=[10.0, 0.0, 1.0, 0.5, 10.0], aligned=True, seed=11)
@example(M=8, N=7, K=3, delta=1.0, eps=[10.0, 0.0, 1.0, 0.5, 10.0], aligned=False, seed=29)
@example(M=8, N=7, K=3, delta=1.0, eps=[10.0, 0.0, 1.0, 0.5, 10.0], aligned=True, seed=3)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_every_moment_matches_oracle(M, N, K, delta, eps, aligned, seed):
    # small random systems, drawn away from the delta in {0, 1} that the
    # configs use, and those deltas as examples: every closed-form moment,
    # and every interference pair, within max(3%, 4 SE) of the oracle
    cfg = SystemConfig(M=M, N=N, K=K, delta=delta, epsilon=tuple(eps[:K]), seed=seed)
    geom = make_geometry(cfg)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, N)
    if aligned:  # |f_0| reaches N
        hbar = los_components(geom, cfg).hbar
        a_ris = array_response(N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
        theta = np.angle(a_ris) - np.angle(hbar[:, 0])
    phases = PhaseConfig(theta)
    ref = analytic.compute_stats(geom, cfg, phases)
    mean, se = estimate_moments(geom, cfg, phases, 20000, seed + 1)
    pair_ref = closed_form_pairs(analytic.closed_form_site(geom, cfg), theta)
    pair_mean, pair_se = oracle_pairs(geom, cfg, phases, 20000, seed + 1)
    off_diagonal = ~np.eye(K, dtype=bool)
    for name, m, s, r, keep in (*zip(Moments._fields, mean, se, ref, [slice(None)] * 5),
                                ("pairs", pair_mean, pair_se, pair_ref, off_diagonal)):
        dev, tol = np.abs(m - r)[keep], np.maximum(0.03 * np.abs(r), 4.0 * s)[keep]
        assert np.all(dev <= tol), (name, dev / np.abs(r)[keep])
