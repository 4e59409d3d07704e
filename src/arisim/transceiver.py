"""Cascaded-channel transceiver chain: quantization, MRC and Monte Carlo rates.

The BS applies maximal-ratio combining to the ADC output, modeled with the
additive quantization noise model (AQNM): the quantizer scales its input by
alpha = 1 - rho and adds Gaussian noise whose covariance is proportional to
the diagonal of the input power.  Achievable rates are per-user ergodic
values E{log2(1 + SINR)} estimated over fading realizations.

Monte Carlo trials are processed in fixed-size batches, each with its own
generator derived from (seed, batch index), so results depend only on the
seed and trial count, never on execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import LinkBudget, Mode, SystemConfig
from .channel import (
    STREAM_FADING,
    STREAM_SYMBOLS,
    ChannelRealization,
    Geometry,
    crandn,
    sample_channel_batch,
    sample_user_channels,
    substream,
)

# Trials per RNG batch.  Part of the determinism contract: changing it
# changes which generator produces which trial.
BATCH = 512

# The statistics kernel works on slices of a batch of about this many bytes
# of H2 planes, and at least this many trials, so that its temporaries stay
# small beside the batch; the reduction is per trial, so no value changes.
KERNEL_BYTES = 1 << 19
KERNEL_MIN_TRIALS = 16

# Distortion factor rho of an optimal scalar quantizer for small bit widths;
# beyond 5 bits the pi*sqrt(3)/2 * 2^(-2b) asymptote is accurate.
AQNM_RHO = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009479, 5: 0.002499}


def aqnm_alpha(b) -> float:
    """Quantization gain alpha = 1 - rho(b); alpha = 1 for ideal ADCs."""
    if b == "ideal":
        return 1.0
    if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"quantization bits must be a positive integer or 'ideal', got {b!r}")
    rho = AQNM_RHO[b] if b <= 5 else (math.pi * math.sqrt(3.0) / 2.0) * 2.0 ** (-2 * b)
    return 1.0 - rho


def quantization_gain(cfg: SystemConfig, mode: Mode) -> float:
    """Effective alpha for the given operating mode."""
    return 1.0 if mode is Mode.IDEAL_ADC else aqnm_alpha(cfg.b)


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """The N surface phase shifts, stored reduced modulo 2*pi."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.mod(np.asarray(self.theta, dtype=float), 2.0 * np.pi)
        object.__setattr__(self, "theta", t)

    @property
    def n_elements(self) -> int:
        return self.theta.shape[0]

    @property
    def phi(self) -> np.ndarray:
        """Diagonal of the unit-modulus reflection matrix, exp(j*theta)."""
        return np.exp(1j * self.theta)

    def shifted(self, offset: float) -> "PhaseConfig":
        """Same configuration with a common offset added to every element."""
        return PhaseConfig(self.theta + offset)

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "PhaseConfig":
        return PhaseConfig(rng.uniform(0.0, 2.0 * np.pi, n))


@dataclass(frozen=True, eq=False)
class RateReport:
    """Per-user ergodic rates with Monte Carlo standard errors."""

    per_user_rate: np.ndarray  # (K,) bits/s/Hz
    sum_rate: float
    std_err: np.ndarray        # (K,) standard error of each per-user mean
    trials_used: int
    sum_std_err: float         # standard error of the sum rate (per-trial sums)

    @staticmethod
    def silent(K: int) -> "RateReport":
        """Report of a surface that did not start up: zero rates, no trials."""
        return RateReport(np.zeros(K), 0.0, np.zeros(K), 0, 0.0)


def cascaded_channel(real: ChannelRealization, phases: PhaseConfig, eta: float) -> np.ndarray:
    """Effective BS-side channel G = eta * H2 * diag(exp(j*theta)) * H1, (M, K)."""
    H1, H2 = real.H1, real.H2
    if H2.shape[1] != phases.n_elements or H1.shape[0] != phases.n_elements:
        raise ValueError(
            f"dimension mismatch: H2 {H2.shape}, H1 {H1.shape}, {phases.n_elements} phases"
        )
    return eta * (H2 * phases.phi) @ H1


def batch_ranges(trials: int):
    """(batch index, first trial, end trial) of each RNG batch of BATCH trials."""
    for b_idx in range(0, (trials + BATCH - 1) // BATCH):
        lo = b_idx * BATCH
        yield b_idx, lo, min(lo + BATCH, trials)


@dataclass(frozen=True, eq=False)
class TrialStatistics:
    """Budget-free per-trial statistics of the unit-gain cascaded channel
    G0 = H2 diag(exp(j*theta)) H1, with columns g0_k.

    Every term of the post-combining SINR is one of these scaled by powers
    of eta, the transmit powers, the two noise powers and the quantization
    gain, so one set serves every budget, mode and bit width at a fixed
    (geometry, phases, fading draws).
    """

    norm2: np.ndarray      # (T, K)    ||g0_k||^2
    cross2: np.ndarray     # (T, K, K) |g0_k^H g0_i|^2 for i != k, zero on the diagonal
    dyn: np.ndarray        # (T, K)    ||H2^H g0_k||^2
    row4: np.ndarray       # (T, K, K) sum_m |G0_mk|^2 |G0_mi|^2
    row_noise: np.ndarray  # (T, K)    sum_m (sum_n |H2_mn|^2) |G0_mk|^2, strict AQNM only

    @property
    def trials(self) -> int:
        return self.norm2.shape[0]


def _batch_statistics(H1: np.ndarray, H2: np.ndarray, phi: np.ndarray):
    """The TrialStatistics fields of H1 (T, N, K) and of H2 given as its
    real and imaginary planes (2, T, M, N).

    Every product is one real matmul over both planes: a complex matrix
    viewed as float holds its columns as [re, im] pairs, so with H2 = A + jB
    the plane products A @ X and B @ (jX), summed, are H2 X as pairs.  No
    complex H2-sized array is formed, and scaling H1 by phi instead of H2
    keeps every temporary far smaller than H2 itself.
    """
    T, N, K = H1.shape
    X = np.empty((2, T, N, K), dtype=complex)
    np.multiply(phi[:, None], H1, out=X[0])
    np.multiply(1j * phi[:, None], H1, out=X[1])
    Y = H2 @ X.view(np.float64)                      # (2, T, M, 2K)
    del X
    Y[0] += Y[1]
    G = Y[0]                                         # G0 = H2 Phi H1 as [re, im] pairs
    R = (G.swapaxes(1, 2) @ G).reshape(T, K, 2, K, 2)
    gram_re = R[:, :, 0, :, 0] + R[:, :, 1, :, 1]    # Re, Im of g0_k^H g0_i
    gram_im = R[:, :, 0, :, 1] - R[:, :, 1, :, 0]
    norm2 = np.diagonal(gram_re, axis1=1, axis2=2).copy()
    cross2 = gram_re * gram_re + gram_im * gram_im
    diag = np.arange(K)
    cross2[:, diag, diag] = 0.0
    np.multiply(G.view(complex), -1j, out=Y[1].view(complex))
    Z = H2.swapaxes(2, 3) @ Y                        # A^T G0 and B^T (-j G0), (2, T, N, 2K)
    Z[0] += Z[1]                                     # H2^H G0 as pairs
    Z[0] *= Z[0]
    z = Z[0].sum(axis=1)
    dyn = z[:, 0::2] + z[:, 1::2]
    del Z
    Y[1] *= Y[1]
    power = np.add(Y[1, ..., 0::2], Y[1, ..., 1::2])  # |G0_mk|^2, (T, M, K)
    del Y, G
    row4 = power.swapaxes(1, 2) @ power
    h2 = H2[..., None, :]
    h2_rows = (h2 @ h2.swapaxes(3, 4))[..., 0, 0]    # sum_n |H2_mn|^2 per plane, (2, T, M)
    row_noise = ((h2_rows[0] + h2_rows[1])[:, None, :] @ power)[:, 0, :]
    return norm2, cross2, dyn, row4, row_noise


def trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> TrialStatistics:
    """Draw `trials` fading realizations and reduce each to its statistics.

    Batch b comes from `substream(*stream, b)`, by default the fading
    stream `(cfg.seed, STREAM_FADING)`, so the result depends only on the
    stream and the trial count.  Each batch's channels are dropped once
    reduced.
    """
    T = cfg.trials if trials is None else int(trials)
    if T < 1:
        raise ValueError("trials must be positive")
    if phases.n_elements != cfg.N:
        raise ValueError(f"{phases.n_elements} phases for {cfg.N} surface elements")
    key = (cfg.seed, STREAM_FADING) if stream is None else tuple(stream)
    K = cfg.K
    fields = (np.empty((T, K)), np.empty((T, K, K)), np.empty((T, K)),
              np.empty((T, K, K)), np.empty((T, K)))
    phi = phases.phi
    step = max(KERNEL_MIN_TRIALS, KERNEL_BYTES // (16 * cfg.M * cfg.N))
    for b_idx, lo, hi in batch_ranges(T):
        H1, H2 = sample_channel_batch(geom, cfg, substream(*key, b_idx), hi - lo)
        for start in range(lo, hi, step):
            end = min(start + step, hi)
            part = slice(start - lo, end - lo)
            for out, value in zip(fields, _batch_statistics(H1[part], H2[:, part], phi)):
                out[start:end] = value
        del H1, H2  # free this batch before the next one is drawn
    return TrialStatistics(*fields)


def sinr_from_statistics(
    stats: TrialStatistics,
    budget: LinkBudget,
    cfg: SystemConfig,
    strict_aqnm: bool = False,
) -> np.ndarray:
    """Post-combining SINR per trial and user, (T, K).

    For user k with combined channel g_k = eta * g0_k the SINR is

        p_k a^2 ||g_k||^4  /  ( a^2 sum_{i!=k} p_i |g_k^H g_i|^2
                                + eta^2 a^2 sv2 ||g_k^H H2 Phi||^2
                                + a^2 sn2 ||g_k||^2
                                + a(1-a) g_k^H diag(p_k G G^H + sn2 I) g_k )

    with a the quantization gain.  `strict_aqnm` replaces the scalar p_k in
    the quantizer-input power by the exact per-user allocation diag(p) and
    adds the amplified dynamic noise to it; with equal powers and no
    dynamic-noise term the two coincide.
    """
    if stats.norm2.shape[1] != cfg.K:
        raise ValueError(f"statistics for {stats.norm2.shape[1]} users, config has {cfg.K}")
    a = quantization_gain(cfg, budget.mode)
    p = budget.p
    sn2 = cfg.sigma_n2_w
    sv2 = budget.sigma_v2_w
    e2 = budget.eta**2
    e4 = e2 * e2
    n = stats.norm2

    interference = a**2 * e4 * (stats.cross2 @ p)
    dynamic = a**2 * e4 * sv2 * stats.dyn
    awgn = a**2 * sn2 * e2 * n
    if strict_aqnm:
        # quantizer-input power with the exact per-user allocation and the
        # amplified dynamic noise: diag(G P G^H + eta^2 sv2 H2 H2^H + sn2 I)
        quant_in = e4 * (stats.row4 @ p + sv2 * stats.row_noise)
    else:
        quant_in = e4 * p * stats.row4.sum(axis=2)
    quant = a * (1.0 - a) * (quant_in + sn2 * e2 * n)

    num = p * a**2 * e4 * n**2
    den = interference + dynamic + awgn + quant
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def rate_from_statistics(
    stats: TrialStatistics,
    budget: LinkBudget,
    cfg: SystemConfig,
    strict_aqnm: bool = False,
) -> RateReport:
    """Per-user ergodic rates of one budget over the trials of `stats`."""
    K = cfg.K
    if not budget.startup_met:
        return RateReport.silent(K)
    rates = np.log2(1.0 + sinr_from_statistics(stats, budget, cfg, strict_aqnm))
    T = stats.trials
    per_user = rates.mean(axis=0)
    if T > 1:
        std_err = rates.std(axis=0, ddof=1) / math.sqrt(T)
        sum_std_err = float(rates.sum(axis=1).std(ddof=1) / math.sqrt(T))
    else:
        std_err = np.zeros(K)
        sum_std_err = 0.0
    return RateReport(per_user, float(per_user.sum()), std_err, T, sum_std_err)


def instantaneous_sinr(
    real: ChannelRealization,
    phases: PhaseConfig,
    budget: LinkBudget,
    cfg: SystemConfig,
    strict_aqnm: bool = False,
) -> np.ndarray:
    """SINR per user for one realization; all zeros if the surface is down."""
    if not budget.startup_met:
        return np.zeros(cfg.K)
    H2 = np.stack([real.H2.real, real.H2.imag])[:, None]
    stats = TrialStatistics(*_batch_statistics(real.H1[None], H2, phases.phi))
    return sinr_from_statistics(stats, budget, cfg, strict_aqnm)[0]


def monte_carlo_rate(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int | None = None,
    strict_aqnm: bool = False,
) -> RateReport:
    """Estimate per-user ergodic rates by averaging over fading draws.

    Deterministic for a fixed (seed, trials) pair regardless of batching.
    """
    T = cfg.trials if trials is None else int(trials)
    if T < 1:
        raise ValueError("trials must be positive")
    if not budget.startup_met:
        return RateReport.silent(cfg.K)
    return rate_from_statistics(trial_statistics(geom, cfg, phases, T), budget, cfg, strict_aqnm)


def measured_ris_power(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int,
) -> float:
    """Monte Carlo estimate of the power radiated by the surface, watts.

    Draws fresh user channels, unit-power Gaussian symbols and dynamic
    noise, and averages ||eta * Phi * (H1 diag(sqrt(p)) x + v)||^2.  For a
    correctly resolved active budget this reproduces
    eta^2 * N * (sum_k p_k alpha_k + sigma_v^2) = P_A.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    sqrt_p = np.sqrt(budget.p)
    sv = math.sqrt(budget.sigma_v2_w)
    phi = phases.phi
    total = 0.0
    for b_idx, lo, hi in batch_ranges(trials):
        rng = substream(cfg.seed, STREAM_SYMBOLS, b_idx)
        count = hi - lo
        H1 = sample_user_channels(geom, cfg, rng, count)
        x = crandn(rng, (count, cfg.K))
        v = sv * crandn(rng, (count, cfg.N))
        y = budget.eta * phi * (np.einsum("tnk,tk->tn", H1, sqrt_p * x) + v)
        total += float((np.abs(y) ** 2).sum())
    return total / trials
