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
(`MomentCoefficients`).  Every moment is then a linear form in the
monomials 1, F_k, F_k F_i and c_ki, written once (`_unit_moments`; the
interference sums its pair form over the interferers i), and its matrix,
that form applied to the unit monomials, is one phase-free weight matrix
W with 5K columns.  So `ClosedFormSite.stats` finds the unit moments
(`transceiver.Moments`) of one phase vector (N,) or a whole population
(P, N) from one real matmul of those monomials with W; `flat_phasor_stats`
does the same from the unit phasors exp(j*theta), which the genetic search
carries, and keeps the moments flat, as they come out of the matmul.  A
budget scores them with `transceiver.log_rates`, the expression Monte
Carlo applies to its per-trial moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import Geometry, los_components
from .transceiver import (Moments, PhaseConfig, flat_moments, log_rates, sinr_scalars,
                          split_moments)


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


def _pair_form(x: tuple, one, F, FF, coupling) -> np.ndarray:
    """x00 + x10 F_k + x01 F_i + x11 F_k F_i + xc c_ki over (..., K, K)."""
    x00, x10, x01, x11, xc = x
    return (x00 * one[..., None] + x10 * F[..., :, None] + x01 * F[..., None, :]
            + x11 * FF + xc * coupling)


def _unit_moments(c: MomentCoefficients, one, F, FF, coupling) -> Moments:
    """The unit moments as linear forms, with the coefficients `c`, in the
    monomials 1 (`one`, (..., 1)), F_k (..., K), F_k F_i (`FF`, (..., K, K))
    and c_ki (`coupling`, (..., K, K)); the pair forms, zero on their
    diagonals, are summed over the interferers i."""
    own_FF = np.diagonal(FF, axis1=-2, axis2=-1)
    s0, s1, s2 = c.signal
    q0, q1, q2 = c.quantization
    return Moments(
        s0 * one + s1 * F + s2 * own_FF,
        _pair_form(c.interference, one, F, FF, coupling).sum(axis=-1),
        c.dynamic_noise[0] * one + c.dynamic_noise[1] * F,
        c.gain[0] * one + c.gain[1] * F,
        q0 * one + q1 * F + q2 * own_FF
        + _pair_form(c.quantization_cross, one, F, FF, coupling).sum(axis=-1),
    )


def _monomials(f: np.ndarray, hbar_inner: np.ndarray) -> np.ndarray:
    """The monomials every moment is linear in, (..., 1 + K + 2K^2):
    1, F_k, F_k F_i and c_ki, the last two flattened row by row."""
    lead = f.shape[:-1]
    F = f.real**2 + f.imag**2
    FF = F[..., :, None] * F[..., None, :]
    coupling = (f[..., :, None] * f.conj()[..., None, :] * hbar_inner).real
    return np.concatenate([np.ones(lead + (1,)), F, FF.reshape(lead + (-1,)),
                           coupling.reshape(lead + (-1,))], axis=-1)


def _moment_weights(c: MomentCoefficients) -> np.ndarray:
    """The matrix W with `_monomials(f, hbar_inner)` @ W the unit moments,
    flat (`flat_moments`).  As the matrix of any linear map, it is the map,
    `_unit_moments`, applied to the unit monomials: the rows of the
    identity, split into the four groups.  W has (1 + K + 2K^2) 5K entries
    and its build costs O(K^4), so it is meant for a few users."""
    K = len(c.gain[0])
    n = 1 + K + 2 * K * K
    one, F, FF, coupling = np.split(np.eye(n), [1, 1 + K, 1 + K + K * K], axis=1)
    return flat_moments(_unit_moments(c, one, F, FF.reshape(n, K, K), coupling.reshape(n, K, K)))


@dataclass(frozen=True, eq=False)
class ClosedFormSite:
    """Phase-free part of the closed form for one (geometry, system)."""

    B: np.ndarray           # (N, K) conj(a_ris) * hbar, so that f = exp(j*theta) @ B
    u: np.ndarray           # (K,) composite gains beta*alpha_k/((delta+1)(eps_k+1))
    hbar_inner: np.ndarray  # (K, K) steering inner products hbar_k^H hbar_i
    coefficients: MomentCoefficients
    W: np.ndarray           # (1 + K + 2K^2, 5K) moment weights, `_moment_weights`

    def stats(self, theta) -> Moments:
        """Expected unit moments for phases `theta` of shape (N,) or (P, N)."""
        phasors = np.exp(1j * np.asarray(theta, dtype=float))
        return split_moments(self.flat_phasor_stats(phasors))

    def flat_phasor_stats(self, phasors: np.ndarray) -> np.ndarray:
        """Expected unit moments for unit phasors exp(j*theta), (N,) or
        (P, N), as one flat array (..., 5K), as
        `transceiver.flat_moments` lays it out."""
        return _monomials(phasors @ self.B, self.hbar_inner) @ self.W


def closed_form_site(geom: Geometry, cfg: SystemConfig) -> ClosedFormSite:
    """Build the steering vectors, large-scale factors, moment coefficients
    and moment weights once."""
    hbar, a_ris, _ = los_components(geom, cfg)
    eps = np.asarray(cfg.epsilon)
    u = geom.beta * geom.alpha / ((cfg.delta + 1.0) * (eps + 1.0))
    hbar_inner = hbar.conj().T @ hbar
    coefficients = _moment_coefficients(u, hbar_inner, cfg.M, cfg.N, cfg.delta, eps, geom.beta)
    return ClosedFormSite(a_ris.conj()[:, None] * hbar, u, hbar_inner, coefficients,
                          _moment_weights(coefficients))


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
