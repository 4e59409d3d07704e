"""Brute-force Monte Carlo verification of the closed-form moments.

Every expectation the closed forms claim is estimated here directly from
fresh channel draws, with standard errors, so the analytic module can be
certified numerically.  This module intentionally does not import the
analytic module: the two routes to each moment stay independent.

Also checks the central-Wishart surrogate used for the dynamic-noise
moment: the Gram matrix W = H2^H H2 of the Rician second hop is non-central
Wishart, and E{W W} is approximated by M*S*(M*S + tr(S)) with the adjusted
covariance S = Sigma + (LoS mean)(LoS mean)^H / M.  The surrogate is exact
when the LoS part vanishes and degrades slowly as the Rician factor grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import (
    Geometry,
    los_components,
    make_geometry,
    sample_channel_batch,
    substream,
)
from .transceiver import PhaseConfig, batch_ranges, literal_trial_statistics, moments_at


@dataclass(frozen=True, eq=False)
class MomentEstimates:
    """Sample means and standard errors of the five combined-channel moments,
    in the field order of `transceiver.Moments`."""

    signal: np.ndarray             # (K,)   mean ||g_k||^4
    interference: np.ndarray       # (K, K) mean |g_k^H g_i|^2, diagonal zeroed
    dynamic_noise: np.ndarray      # (K,)   mean ||g_k^H H2 Phi||^2
    channel_gain: np.ndarray       # (K,)   mean ||g_k||^2
    quantization: np.ndarray       # (K,)   mean g_k^H diag(p_k G G^H + sn2 I) g_k
    se_signal: np.ndarray
    se_interference: np.ndarray
    se_dynamic_noise: np.ndarray
    se_channel_gain: np.ndarray
    se_quantization: np.ndarray
    trials: int


def estimate_moments(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int,
    seed: int,
) -> MomentEstimates:
    """Estimate all five moments from `trials` fresh channel draws.

    Deterministic given (seed, trials); the stream is independent of the
    rate-simulation streams so estimates never reuse simulation draws.  The
    draws are full draws of both hops at every size
    (`literal_trial_statistics`), so the oracle checks the reduced draw of
    the Monte Carlo rates from outside.
    """
    per_trial = moments_at(literal_trial_statistics(geom, cfg, phases, trials, stream=(seed,)),
                           budget, cfg)

    def mean_se(x):
        m = x.mean(axis=0)
        se = x.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(m)
        return m, se

    means, ses = zip(*map(mean_se, per_trial))
    return MomentEstimates(*means, *ses, trials)


@dataclass(frozen=True, eq=False)
class WishartMomentReport:
    """Monte Carlo E{W W} against its central-Wishart surrogate."""

    mc: np.ndarray            # (N, N) sample mean of W @ W
    approx: np.ndarray        # (N, N) M*S*(M*S + tr(S))
    se: np.ndarray            # (N, N) per-entry standard error of the mean
    frob_rel_dev: float       # ||mc - approx||_F / ||approx||_F
    frob_rel_se: float        # sqrt(sum se^2) / ||approx||_F  (sampling noise floor)
    max_entry_dev: float      # max |mc - approx| over entries, relative to ||approx||_F / N
    trace_surrogate: float    # tr(S), equals N * beta
    trials: int

    def summary(self) -> str:
        return (
            f"relative Frobenius deviation {self.frob_rel_dev:.4%} "
            f"(sampling floor {self.frob_rel_se:.4%}, {self.trials} trials)"
        )


def wishart_moment_check(cfg: SystemConfig, trials: int, seed: int) -> WishartMomentReport:
    """Compare E{(H2^H H2)^2} against the central-Wishart surrogate."""
    if trials < 1:
        raise ValueError("trials must be positive")
    geom = make_geometry(cfg)
    los = los_components(geom, cfg)
    N, M, d, beta = cfg.N, cfg.M, cfg.delta, geom.beta

    # the LoS Gram Hbar2^H Hbar2 of Hbar2 = a_bs a_ris^H is M a_ris a_ris^H
    surrogate_cov = beta / (1.0 + d) * (np.eye(N) + d * np.outer(los.a_ris, los.a_ris.conj()))
    trace = float(np.trace(surrogate_cov).real)
    approx = M * surrogate_cov @ (M * surrogate_cov + trace * np.eye(N))

    s1 = np.zeros((N, N), dtype=complex)
    s2 = np.zeros((N, N))
    for b_idx, lo, hi in batch_ranges(trials):
        rng = substream(seed, b_idx)
        _, H2 = sample_channel_batch(geom, cfg, rng, hi - lo, los)
        # W = H2^H H2 from the planes A, B of H2: (A^T A + B^T B) + j(A^T B - B^T A)
        AB = H2[0].swapaxes(1, 2) @ H2[1]
        W = (H2.swapaxes(2, 3) @ H2).sum(axis=0) + 1j * (AB - AB.swapaxes(1, 2))
        del H2, AB
        WW = W @ W
        s1 += WW.sum(axis=0)
        s2 += (np.abs(WW) ** 2).sum(axis=0)

    mc = s1 / trials
    var = np.maximum(s2 / trials - np.abs(mc) ** 2, 0.0)
    se = np.sqrt(var / trials)

    approx_norm = float(np.linalg.norm(approx))
    dev = mc - approx
    return WishartMomentReport(
        mc=mc,
        approx=approx,
        se=se,
        frob_rel_dev=float(np.linalg.norm(dev)) / approx_norm,
        frob_rel_se=float(np.sqrt((se**2).sum())) / approx_norm,
        max_entry_dev=float(np.abs(dev).max()) * N / approx_norm,
        trace_surrogate=trace,
        trials=trials,
    )
