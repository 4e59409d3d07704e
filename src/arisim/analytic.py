"""Closed-form approximate uplink rates for the cascaded Rician channel.

The ergodic per-user rate is approximated by moving the expectation inside
the log ratio, which reduces everything to five deterministic moments of
the combined channel g_k = eta * H2 * Phi * h_k:

    E{||g_k||^4},  E{|g_k^H g_i|^2},  E{||g_k^H H2 Phi||^2},
    E{||g_k||^2},  E{g_k^H diag(p_k G G^H + sn2 I) g_k}.

Each moment has a closed form in the array sizes, the Rician factors, the
large-scale gains and two phase-dependent functionals: the aligned LoS gain
f_k = a_N^H(ris departure) Phi hbar_k and the steering inner products
hbar_k^H hbar_i.  The dynamic-noise moment additionally relies on a
central-Wishart approximation of the second hop's Gram matrix, so it is the
least exact of the five; all are validated against brute-force Monte Carlo
estimates in the oracle module.

Only f depends on the phases.  `closed_form_site` gathers everything else
once per geometry, and `ClosedFormSite.stats` evaluates f for one phase
vector (N,) or a whole population (P, N).  The moments and the rates are
array expressions over the trailing user axes, (..., K) and (..., K, K), so
one call scores a population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import Geometry, array_response, los_components
from .transceiver import PhaseConfig, quantization_gain


@dataclass(frozen=True, eq=False)
class ChannelStats:
    """Deterministic inputs of the closed-form rate expressions."""

    f: np.ndarray           # (..., K) aligned LoS gains f_k(Phi), one row per phase vector
    u: np.ndarray           # (K,) composite gains beta*alpha_k/((delta+1)(eps_k+1))
    hbar_inner: np.ndarray  # (K, K) steering inner products hbar_k^H hbar_i
    M: int
    N: int
    delta: float
    eps: np.ndarray         # (K,)
    beta: float
    alpha: np.ndarray       # (K,)


@dataclass(frozen=True, eq=False)
class ClosedFormSite:
    """Phase-free part of the closed form for one (geometry, system)."""

    B: np.ndarray           # (N, K) conj(a_ris) * hbar, so that f = exp(j*theta) @ B
    u: np.ndarray
    hbar_inner: np.ndarray
    M: int
    N: int
    delta: float
    eps: np.ndarray
    beta: float
    alpha: np.ndarray

    def stats(self, theta) -> ChannelStats:
        """Statistics for phases `theta` of shape (N,) or (P, N)."""
        f = np.exp(1j * np.asarray(theta, dtype=float)) @ self.B
        return ChannelStats(f, self.u, self.hbar_inner, self.M, self.N, self.delta,
                            self.eps, self.beta, self.alpha)


def closed_form_site(geom: Geometry, cfg: SystemConfig) -> ClosedFormSite:
    """Build the steering vectors and large-scale factors once."""
    hbar, _ = los_components(geom, cfg)
    a_ris = array_response(cfg.N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    eps = np.asarray(cfg.epsilon)
    u = geom.beta * geom.alpha / ((cfg.delta + 1.0) * (eps + 1.0))
    return ClosedFormSite(a_ris.conj()[:, None] * hbar, u, hbar.conj().T @ hbar,
                          cfg.M, cfg.N, cfg.delta, eps, geom.beta, geom.alpha)


def compute_stats(geom: Geometry, cfg: SystemConfig, phases: PhaseConfig) -> ChannelStats:
    """Evaluate the phase functionals and large-scale factors once."""
    return closed_form_site(geom, cfg).stats(phases.theta)


def _pairs(stats: ChannelStats):
    """Per-pair operands over (..., K, K), user k on rows and i on columns:
    eps_k, eps_i, |f_k|^2, |f_i|^2 and the LoS coupling
    Re{f_k * conj(f_i) * hbar_k^H hbar_i}.

    The aligned-gain product is conjugated against the steering inner
    product; the opposite pairing fails the Monte Carlo oracle whenever the
    steering vectors are strongly correlated.
    """
    f = stats.f[..., :, None]
    g = stats.f[..., None, :]
    cross = (f * np.conj(g) * stats.hbar_inner).real
    return (stats.eps[:, None], stats.eps[None, :],
            np.abs(f) ** 2, np.abs(g) ** 2, cross)


def _off_diagonal_sum(x: np.ndarray) -> np.ndarray:
    """Sum over i != k of a (..., K, K) array, shape (..., K)."""
    return np.where(np.eye(x.shape[-1], dtype=bool), 0.0, x).sum(axis=-1)


def signal_moments(stats: ChannelStats, eta: float = 1.0) -> np.ndarray:
    """E{||g_k||^4} for every user, (..., K)."""
    M, N, d = stats.M, stats.N, stats.delta
    e = stats.eps
    fk2 = np.abs(stats.f) ** 2
    return (
        eta**4 * M * stats.u ** 2 * (
            M * d**2 * e**2 * fk2**2
            + 2.0 * d * e * fk2 * (2 * M * N + M * N * e + M * N + 2 * M + N * e + N + 2)
            + M * N**2 * (2 * d**2 + e**2 + 2 * d * e + 2 * d + 2 * e + 1)
            + N**2 * (e**2 + 2 * d * e + 2 * d + 2 * e + 1)
            + M * N * (2 * d + 2 * e + 1)
            + N * (2 * d + 2 * e + 1)
        )
    )


def interference_moments(
    stats: ChannelStats, eta: float = 1.0, printed_prefactor: bool = False
) -> np.ndarray:
    """E{|g_k^H g_i|^2} for every pair, (..., K, K); the diagonal is not a
    moment of the model and is left as the formula gives it.

    `printed_prefactor` switches to a u_k^2 * u_i^2 prefactor variant kept
    only for documentation; dimensional analysis and the Monte Carlo oracle
    both require u_k * u_i, which is the default.
    """
    M, N, d = stats.M, stats.N, stats.delta
    ek, ei, fk2, fi2, cross = _pairs(stats)
    uk, ui = stats.u[:, None], stats.u[None, :]
    u_pref = uk**2 * ui**2 if printed_prefactor else uk * ui
    return (
        eta**4 * M * u_pref * (
            M * d**2 * ek * ei * fk2 * fi2
            + d * ek * fk2 * (d * M * N + N * ei + N + 2 * M)
            + d * ei * fi2 * (d * M * N + N * ek + N + 2 * M)
            + N**2 * (M * d**2 + d * (ek + ei + 2) + (ei + 1) * (ek + 1))
            + M * N * (2 * d + ek + ei + 1)
            + M * ek * ei * np.abs(stats.hbar_inner) ** 2
            + 2.0 * M * d * ek * ei * cross
        )
    )


def dynamic_noise_moments(stats: ChannelStats, eta: float = 1.0) -> np.ndarray:
    """E{||g_k^H H2 Phi||^2} for every user, (..., K): gain seen by the
    surface's dynamic noise after combining.  Uses the central-Wishart
    approximation of (H2^H H2)^2."""
    M, N, d = stats.M, stats.N, stats.delta
    e = stats.eps
    fk2 = np.abs(stats.f) ** 2
    b_u = stats.beta * stats.u
    return (
        eta**2 * M**2 * b_u / (d + 1.0)
        * (d * e * (2.0 + d * N) * fk2 + 2 * N * d + N**2 * d**2 + N * e + N)
        + eta**2 * M * N * b_u * (d * e * fk2 + N * d + N * e + N)
    )


def channel_gain_moments(stats: ChannelStats, eta: float = 1.0) -> np.ndarray:
    """E{||g_k||^2} for every user, (..., K): mean combined-channel power."""
    M, N, d = stats.M, stats.N, stats.delta
    e = stats.eps
    fk2 = np.abs(stats.f) ** 2
    return eta**2 * M * stats.u * (d * e * fk2 + d * N + e * N + N)


def quantization_moments(
    stats: ChannelStats, budget: LinkBudget, cfg: SystemConfig
) -> np.ndarray:
    """E{g_k^H diag(p_k G G^H + sn2 I) g_k} for every user, (..., K):
    quantization-noise coupling.

    Carries the user's own fourth moment, the AWGN contribution and the
    per-entry coupling with every interferer; transmit powers and the noise
    floor are folded in, matching how the term enters the SINR denominator.
    """
    M, N, d = stats.M, stats.N, stats.delta
    e = stats.eps
    fk2 = np.abs(stats.f) ** 2
    eta = budget.eta
    p = budget.p

    own = p * eta**4 * M * stats.u ** 2 * (
        (d * e * fk2) ** 2
        + 4.0 * d * e * fk2 * (N * (d + e + 1) + 2)
        + 2.0 * N**2 * (d + e + 1) ** 2
        + 2.0 * N * (2 * d + 2 * e + 1)
    )
    noise = cfg.sigma_n2_w * channel_gain_moments(stats, eta)

    ek, ei, fk2, fi2, pair_re = _pairs(stats)  # fk2 again, broadcast over pairs
    u_ki = stats.u[:, None] * stats.u[None, :]
    cross = (
        u_ki * (d * ek * fk2 + N * (d + ek + 1)) * (d * ei * fi2 + N * (d + ei + 1))
        + 2.0 * d * u_ki * (ek * ei * pair_re + ek * fk2 + ei * fi2 + N)
    )
    return own + noise + p * eta**4 * M * _off_diagonal_sum(cross)


def signal_moment(stats: ChannelStats, k: int, eta: float = 1.0) -> float:
    """E{||g_k||^4}: fourth moment of the combined-channel norm."""
    return float(signal_moments(stats, eta)[..., k])


def interference_moment(
    stats: ChannelStats, k: int, i: int, eta: float = 1.0, printed_prefactor: bool = False
) -> float:
    """E{|g_k^H g_i|^2}: pairwise interference coupling, k != i."""
    if k == i:
        raise ValueError("interference moment is defined for distinct users")
    return float(interference_moments(stats, eta, printed_prefactor)[..., k, i])


def dynamic_noise_moment(stats: ChannelStats, k: int, eta: float = 1.0) -> float:
    """E{||g_k^H H2 Phi||^2}: gain seen by the surface's dynamic noise."""
    return float(dynamic_noise_moments(stats, eta)[..., k])


def channel_gain_moment(stats: ChannelStats, k: int, eta: float = 1.0) -> float:
    """E{||g_k||^2}: mean combined-channel power."""
    return float(channel_gain_moments(stats, eta)[..., k])


def quantization_moment(
    stats: ChannelStats, k: int, budget: LinkBudget, cfg: SystemConfig
) -> float:
    """E{g_k^H diag(p_k G G^H + sn2 I) g_k}: quantization-noise coupling."""
    return float(quantization_moments(stats, budget, cfg)[..., k])


def closed_form_rates(
    stats: ChannelStats, budget: LinkBudget, cfg: SystemConfig, ideal_adc: bool = False
) -> np.ndarray:
    """Closed-form approximate per-user rates, bits/s/Hz, (..., K).

    One formula serves every mode: a passive budget carries no dynamic
    noise (sigma_v^2 = 0, eta = 1), and ideal ADCs (`ideal_adc`, or an
    ideal-ADC budget) drop the quantization term.  Zero when the surface
    is down.
    """
    if not budget.startup_met:
        return np.zeros(np.shape(stats.f))
    eta = budget.eta
    p = budget.p
    interf = _off_diagonal_sum(interference_moments(stats, eta) * p)
    dyn = eta**2 * budget.sigma_v2_w * dynamic_noise_moments(stats, eta)
    awgn = cfg.sigma_n2_w * channel_gain_moments(stats, eta)
    den = interf + dyn + awgn
    alpha_q = 1.0 if ideal_adc else quantization_gain(cfg, budget.mode)
    if alpha_q < 1.0:
        den += (1.0 - alpha_q) / alpha_q * quantization_moments(stats, budget, cfg)
    return np.log2(1.0 + p * signal_moments(stats, eta) / den)


def closed_form_sum_rate(
    geom: Geometry, cfg: SystemConfig, budget: LinkBudget, phases: PhaseConfig
) -> float:
    """Sum of the per-user closed-form rates for one phase configuration."""
    if not budget.startup_met:
        return 0.0
    stats = compute_stats(geom, cfg, phases)
    return float(closed_form_rates(stats, budget, cfg).sum())
