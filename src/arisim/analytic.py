"""Closed-form approximate uplink rates for the cascaded Rician channel.

The ergodic per-user rate is approximated by moving the expectation inside
the log ratio, which reduces everything to five deterministic moments of
the combined channel g_k = eta * H2 * Phi * h_k:

    E{||g_k||^4},  E{|g_k^H g_i|^2},  E{||g_k^H H2 Phi||^2},
    E{||g_k||^2},  E{g_k^H diag(p_k G G^H + sn2 I) g_k}.

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
(`MomentCoefficients`), and those into one phase-free weight matrix W.
Every moment is linear in the monomials 1, F_k, F_k F_i and v_a v_b, with
v = f as its [re, im] pairs, of which c_ki is a fixed combination, so
`ClosedFormSite.stats` finds the unit moments (`transceiver.Moments`) of
one phase vector (N,) or a whole population (P, N) from one real matmul of
those monomials with W; `phasor_stats` does the same from the unit phasors
exp(j*theta), which the genetic search carries.  The rates are the SINR of
`transceiver.sinr` on those moments, as array expressions over the trailing
user axes, (..., K) and (..., K, K), so one call scores a population and
the points of a sweep share one set of moments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import Geometry, los_components
from .transceiver import Moments, PhaseConfig, sinr


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


def _monomials(f: np.ndarray) -> np.ndarray:
    """The monomials every moment is linear in, (1 + K + K^2 + 4K^2, ...):
    1, F_k, F_k F_i and v_a v_b for v = f as its [re, im] pairs.  The
    monomial axis leads, so each product runs over the whole population."""
    K = f.shape[-1]
    v = np.ascontiguousarray(np.moveaxis(f.view(np.float64), -1, 0))
    lead = v.shape[1:]
    F = v[0::2] ** 2 + v[1::2] ** 2
    return np.concatenate([
        np.ones((1,) + lead),
        F,
        (F[:, None] * F[None]).reshape((K * K,) + lead),
        (v[:, None] * v[None]).reshape((4 * K * K,) + lead),
    ])


@functools.lru_cache(maxsize=None)
def _weight_positions(K: int) -> np.ndarray:
    """Flat positions in the moment weights W, (1 + K + 5K^2, 4K + K^2), of
    the coefficient entries that `_moment_weights` lists, in the field
    order of `MomentCoefficients`, with each coupling entry spread by R.

    W's rows follow `_monomials` and its columns `Moments`: signal (K),
    interference (K*K), dynamic noise, channel gain and quantization (K
    each).  A user's own terms sit on its F_k and F_k^2 rows; a pair's
    coupling spreads over the four v_{2k+r} v_{2i+s} rows.  The
    quantization cross terms of all partners i land in user k's column,
    so their positions repeat.
    """
    n_cols = 4 * K + K * K
    user = np.arange(K)
    k, i = np.indices((K, K))
    r, s = np.indices((2, 2))[:, :, :, None, None]
    F = 1 + user                                          # row of F_k
    FF = 1 + K + K * k + i                                # row of F_k F_i
    vv = 1 + K + K * K + 2 * K * (2 * k + r) + 2 * i + s  # row of v_{2k+r} v_{2i+s}
    signal, interference = user, K + K * k + i
    dynamic_noise, gain, quantization = (K + K * K + j * K + user for j in range(3))

    def own(col, terms):
        return [(0, col), (F, col), (FF[user, user], col)][:terms]

    def pair(col):
        return [(0, col), (F[k], col), (F[i], col), (FF, col), (vv, col)]

    slots = (own(signal, 3) + own(gain, 2) + own(dynamic_noise, 2) + own(quantization, 3)
             + pair(interference) + pair(quantization[k]))
    positions = np.concatenate([np.ravel(row * n_cols + col) for row, col in slots])
    positions.flags.writeable = False
    return positions


def _moment_weights(c: MomentCoefficients, hbar_inner: np.ndarray) -> np.ndarray:
    """The matrix W with `_monomials(f)` @ W the unit moments, concatenated
    in `Moments` order.

    The coupling is c_ki = sum_rs v_{2k+r} v_{2i+s} R[r, s, k, i], with
    R = [[Re h, Im h], [-Im h, Re h]] of h = hbar_k^H hbar_i, so its
    coefficient enters W as xc * R.  W has (1 + K + 5K^2)(4K + K^2)
    entries, so it is meant for a few users.
    """
    K = len(hbar_inner)
    R = np.array([[hbar_inner.real, hbar_inner.imag], [-hbar_inner.imag, hbar_inner.real]])
    # in `MomentCoefficients` field order, as `_weight_positions` places them
    values = [*c.signal, *c.gain, *c.dynamic_noise, *c.quantization,
              *c.interference[:4], c.interference[4] * R,
              *c.quantization_cross[:4], c.quantization_cross[4] * R]
    shape = (1 + K + 5 * K * K, 4 * K + K * K)
    return np.bincount(_weight_positions(K), np.concatenate([np.ravel(v) for v in values]),
                       minlength=shape[0] * shape[1]).reshape(shape)


@dataclass(frozen=True, eq=False)
class ClosedFormSite:
    """Phase-free part of the closed form for one (geometry, system)."""

    B: np.ndarray           # (N, K) conj(a_ris) * hbar, so that f = exp(j*theta) @ B
    u: np.ndarray           # (K,) composite gains beta*alpha_k/((delta+1)(eps_k+1))
    hbar_inner: np.ndarray  # (K, K) steering inner products hbar_k^H hbar_i
    coefficients: MomentCoefficients
    W: np.ndarray           # (1 + K + 5K^2, 4K + K^2) moment weights, `_moment_weights`

    def stats(self, theta) -> Moments:
        """Expected unit moments for phases `theta` of shape (N,) or (P, N)."""
        return self.phasor_stats(np.exp(1j * np.asarray(theta, dtype=float)))

    def phasor_stats(self, phasors: np.ndarray) -> Moments:
        """Expected unit moments for unit phasors exp(j*theta), (N,) or (P, N)."""
        f = phasors @ self.B
        K = f.shape[-1]
        m = np.moveaxis(_monomials(f), 0, -1) @ self.W
        KK = K + K * K
        return Moments(m[..., :K], m[..., K:KK].reshape(f.shape + (K,)), m[..., KK:KK + K],
                       m[..., KK + K:KK + 2 * K], m[..., KK + 2 * K:])


def closed_form_site(geom: Geometry, cfg: SystemConfig) -> ClosedFormSite:
    """Build the steering vectors, large-scale factors, moment coefficients
    and moment weights once."""
    hbar, a_ris, _ = los_components(geom, cfg)
    eps = np.asarray(cfg.epsilon)
    u = geom.beta * geom.alpha / ((cfg.delta + 1.0) * (eps + 1.0))
    hbar_inner = hbar.conj().T @ hbar
    coefficients = _moment_coefficients(u, hbar_inner, cfg.M, cfg.N, cfg.delta, eps, geom.beta)
    return ClosedFormSite(a_ris.conj()[:, None] * hbar, u, hbar_inner, coefficients,
                          _moment_weights(coefficients, hbar_inner))


def compute_stats(geom: Geometry, cfg: SystemConfig, phases: PhaseConfig) -> Moments:
    """Expected unit moments of one phase vector, from a site built for it."""
    return closed_form_site(geom, cfg).stats(phases.theta)


def closed_form_rates(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """Closed-form approximate per-user rates, bits/s/Hz, (..., K), from
    expected unit moments.

    One formula serves both modes: a passive budget carries no dynamic
    noise (sigma_v^2 = 0, eta = 1), and ideal ADCs (b = "ideal") drop the
    quantization term.  Zero when the surface is down, as p = 0 there.
    """
    return np.log2(1.0 + sinr(unit, budget, cfg))
