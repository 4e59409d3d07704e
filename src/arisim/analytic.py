"""Closed-form approximate uplink rates for the cascaded Rician channel.

The ergodic per-user rate is approximated by moving the expectation inside
the log ratio, which reduces everything to five deterministic moments of
the combined channel g_k = eta * H2 * Phi * h_k:

    E{||g_k||^4},  sum_{i!=k} E{|g_k^H g_i|^2},  E{||g_k^H H2 Phi||^2},
    E{||g_k||^2},  E{g_k^H diag(p G G^H + sn2 I) g_k}.

Each moment has a closed form in the array sizes, the Rician factors, the
large-scale gains and two phase-dependent functionals: the aligned LoS gain
f_k = a_N^H(ris departure) Phi hbar_k and the steering inner products
hbar_k^H hbar_i.  All five are exact; the dynamic-noise moment uses the
second moment of the second hop's non-central Gram matrix,
E{(H2^H H2)^2} = P^2 + (2M+N) s P + s tr(P) I + s^2 M(M+N) I with
P = Hbar2^H Hbar2 and s the scattered variance.  Each is validated against
the brute-force Monte Carlo oracle, `transceiver.estimate_moments`.

Only f depends on the phases.  `closed_form_site` gathers everything else
once per geometry: each moment's terms are collected into coefficients of
F_k = |f_k|^2 and the LoS coupling c_ki = Re{f_k conj(f_i) hbar_k^H hbar_i}
(`MomentCoefficients`).  `ClosedFormSite.phasor_stats` evaluates each moment
straight from f and F, for the unit phasors exp(j*theta) of one phase
vector (N,) or of a whole population (P, N), which the genetic search
carries; the pair forms of the interference and the cross quantization
terms are summed over the interferers i with a few K x K products, so a
phase vector costs O(K^2).  `ClosedFormSite.stats` does the same from the
phases.  Both return the unit moments as `transceiver.Moments`, which a
budget scores with `transceiver.log_rates`, the expression Monte Carlo
applies to its per-trial moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import Geometry, los_components
from .transceiver import Moments, PhaseConfig, log_rates, sinr_scalars


class MomentCoefficients(NamedTuple):
    """Phase-free coefficients of the five moments at eta = 1 and unit
    power, as polynomials in the aligned gains F_k = |f_k|^2 and the LoS
    coupling c_ki = Re{f_k conj(f_i) hbar_k^H hbar_i}:

        signal, quantization (own)   x0 + x1 F_k + x2 F_k^2            (K,) each
        channel gain, dynamic noise  x0 + x1 F_k                       (K,) each
        interference, quantization   x00 + x10 F_k + x01 F_i            (K, K) each,
          (cross)                      + x11 F_k F_i + xc c_ki          zero diagonal

    Every term of the closed forms is gathered here, so a phase vector
    costs a handful of array operations.  The coupling is conjugated
    against the steering inner product; the opposite pairing fails the
    Monte Carlo oracle whenever the steering vectors are strongly
    correlated.
    """

    signal: tuple
    gain: tuple
    dynamic_noise: tuple
    quantization: tuple
    interference: tuple
    quantization_cross: tuple


def _moment_coefficients(
    u: np.ndarray, hbar_inner: np.ndarray, M: int, N: int, delta: float,
    eps: np.ndarray, beta: float,
) -> MomentCoefficients:
    """Collect the closed forms' terms by powers of F and c."""
    d, e = delta, eps
    Mu2 = M * u**2
    signal = (
        Mu2 * (M * N**2 * (2 * d**2 + e**2 + 2 * d * e + 2 * d + 2 * e + 1)
               + N**2 * (e**2 + 2 * d * e + 2 * d + 2 * e + 1)
               + M * N * (2 * d + 2 * e + 1)
               + N * (2 * d + 2 * e + 1)),
        Mu2 * 2.0 * d * e * (2 * d * M * N + M * N * e + M * N + 2 * M + N * e + N + 2),
        Mu2 * M * d**2 * e**2,
    )
    gain = (M * u * (d * N + e * N + N), M * u * d * e)
    b_u = beta * u
    dynamic_noise = (
        M**2 * b_u / (d + 1.0) * (2 * N * d + N**2 * d**2 + N * e + N)
        + M * N**2 * b_u / (d + 1.0) * (d * e + 2 * d + e + 1),
        M**2 * b_u / (d + 1.0) * d * e * (2.0 + d * N) + M * N * b_u / (d + 1.0) * d * e,
    )
    quantization = (
        Mu2 * (2.0 * N**2 * (d + e + 1) ** 2 + 2.0 * N * (2 * d + 2 * e + 1)),
        Mu2 * 4.0 * d * e * (N * (d + e + 1) + 2),
        Mu2 * d**2 * e**2,
    )

    ek, ei = e[:, None], e[None, :]
    Mu = M * u[:, None] * u[None, :]
    off = 1.0 - np.eye(len(u))
    interference = tuple(off * x for x in (
        Mu * (N**2 * (M * d**2 + d * (ek + ei + 2) + (ei + 1) * (ek + 1))
              + M * N * (2 * d + ek + ei + 1)
              + M * ek * ei * np.abs(hbar_inner) ** 2),
        Mu * d * ek * (d * M * N + N * ei + N + 2 * M),
        Mu * d * ei * (d * M * N + N * ek + N + 2 * M),
        Mu * M * d**2 * ek * ei,
        Mu * 2.0 * M * d * ek * ei,
    ))
    # quantization cross term for i != k:
    # (a_k + b_k F_k) (a_i + b_i F_i) + 2d (e_k e_i c_ki + e_k F_k + e_i F_i + N)
    #   + e_k e_i |hbar_k^H hbar_i|^2 + N (e_k + e_i + 1)
    a, b = N * (d + e + 1), d * e
    ak, ai, bk, bi = a[:, None], a[None, :], b[:, None], b[None, :]
    quantization_cross = tuple(off * Mu * x for x in (
        ak * ai + 2.0 * d * N + ek * ei * np.abs(hbar_inner) ** 2 + N * (ek + ei + 1),
        bk * ai + 2.0 * d * ek,
        ak * bi + 2.0 * d * ei,
        bk * bi,
        2.0 * d * ek * ei,
    ))
    return MomentCoefficients(signal, gain, dynamic_noise, quantization, interference,
                              quantization_cross)


@dataclass(frozen=True, eq=False)
class ClosedFormSite:
    """Phase-free part of the closed form for one (geometry, system)."""

    B: np.ndarray           # (N, K) conj(a_ris) * hbar, so that f = exp(j*theta) @ B
    u: np.ndarray           # (K,) composite gains beta*alpha_k/((delta+1)(eps_k+1))
    hbar_inner: np.ndarray  # (K, K) steering inner products hbar_k^H hbar_i
    coefficients: MomentCoefficients
    # the phase-free parts of the interference and the cross quantization
    # pair forms, built once from `coefficients` (so `dataclasses.replace`
    # rebuilds them) rather than on every scoring call: sum_i x00,
    # sum_i x10, x01^T, x11^T and (xc * hbar_inner)^T
    pair_sums: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pair_sums", tuple(
            (x00.sum(axis=1), x10.sum(axis=1), x01.T, x11.T, (xc * self.hbar_inner).T)
            for x00, x10, x01, x11, xc in (self.coefficients.interference,
                                           self.coefficients.quantization_cross)))

    def stats(self, theta) -> Moments:
        """Expected unit moments for phases `theta` of shape (N,) or (P, N)."""
        return self.phasor_stats(np.exp(1j * np.asarray(theta, dtype=float)))

    def phasor_stats(self, phasors: np.ndarray) -> Moments:
        """Expected unit moments for unit phasors exp(j*theta), (N,) or
        (P, N), each (..., K), straight from the aligned gains
        f = phasors @ B and F = |f|^2.  A pair form summed over the
        interferers i is

            sum_i x00 + (sum_i x10 + (F @ x11^T)_k) F_k + (F @ x01^T)_k
                + Re{f_k (conj(f) @ (xc * hbar_inner)^T)_k},

        so no moment costs more than O(K^2) per phase vector."""
        f = phasors @ self.B
        F = f.real**2 + f.imag**2
        f_conj = f.conj()
        interference, cross = (
            x00 + (x10 + F @ x11) * F + F @ x01 + (f * (f_conj @ xc)).real
            for x00, x10, x01, x11, xc in self.pair_sums)
        c = self.coefficients
        s0, s1, s2 = c.signal
        q0, q1, q2 = c.quantization
        return Moments(
            (s2 * F + s1) * F + s0,
            interference,
            c.dynamic_noise[1] * F + c.dynamic_noise[0],
            c.gain[1] * F + c.gain[0],
            (q2 * F + q1) * F + q0 + cross,
        )


def closed_form_site(geom: Geometry, cfg: SystemConfig) -> ClosedFormSite:
    """Build the steering vectors, large-scale factors and moment
    coefficients once."""
    hbar, a_ris, _ = los_components(geom, cfg)
    eps = np.asarray(cfg.epsilon)
    u = geom.beta * geom.alpha / ((cfg.delta + 1.0) * (eps + 1.0))
    hbar_inner = hbar.conj().T @ hbar
    coefficients = _moment_coefficients(u, hbar_inner, cfg.M, cfg.N, cfg.delta, eps, geom.beta)
    return ClosedFormSite(a_ris.conj()[:, None] * hbar, u, hbar_inner, coefficients)


def compute_stats(geom: Geometry, cfg: SystemConfig, phases: PhaseConfig) -> Moments:
    """Expected unit moments of one phase vector, from a site built for it."""
    return closed_form_site(geom, cfg).stats(phases.theta)


def closed_form_rates(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """Closed-form approximate per-user rates, bits/s/Hz, (..., K), from
    expected unit moments.

    One formula serves both modes: a passive budget carries no dynamic
    noise (sigma_v^2 = 0, eta = 1), and ideal ADCs (b = "ideal") drop the
    quantization term.  Zero when the surface is down, as p = 0 there.
    A caller scoring many moment sets under one budget takes its
    `sinr_scalars` once and calls `log_rates` as here.
    """
    return log_rates(unit, sinr_scalars(budget, cfg))
