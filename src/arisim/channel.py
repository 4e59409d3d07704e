"""Rician fading channel generation for the user -> RIS -> BS uplink.

Geometry (user positions, arrival/departure angles, large-scale gains) is
drawn once per experiment from a dedicated seeded stream and then held
fixed; Monte Carlo trials vary only the small-scale fading.  The LoS
steering vectors of a site (`los_components`) are built once per Monte
Carlo run and passed to each of its batches.  A fading batch draws both
hops in full (`sample_channel_batch`) or, for the Monte Carlo moments, only
what they depend on, in Gram form (`sample_gram_batch`): the first hop's
scattered part on a (K+1)-dimensional basis, the RIS-BS hop's scattered
part on a basis of span{Phi H1, a_ris}, and Bartlett factors
(`bartlett_factor`) whose complex Wishart Gram matrices stand for both
hops' parts on the complements.  Every random
stream is derived from the master seed through `numpy.random.SeedSequence`
spawn keys, so results are reproducible and independent of how trials are
batched across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import SystemConfig, path_loss

# Spawn-key domains under the master seed.  Fading and symbol streams are
# further keyed by batch index.
STREAM_GEOMETRY = 0
STREAM_FADING = 1
STREAM_SYMBOLS = 2
STREAM_PHASES = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from `seed` and an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circular complex Gaussian draws, unit variance per entry."""
    z = rng.standard_normal(size=(2,) + tuple(shape))
    return (z[0] + 1j * z[1]) * math.sqrt(0.5)


def _grid_dims(L: int) -> tuple[int, int]:
    """Planar grid layout for L elements: square when L is a perfect square,
    otherwise the most-square rectangle (1 x L for primes)."""
    side = math.isqrt(L)
    if side * side == L:
        return side, side
    ny = next(d for d in range(side, 0, -1) if L % d == 0)
    return L // ny, ny


def array_response(L: int, az: float, el: float, d_over_lambda: float = 0.5) -> np.ndarray:
    """Planar-array response vector of length L.

    Element l (0-based) sits at grid coordinates x = l // ny, y = l % ny
    and contributes a unit-modulus phasor
    exp(j*2*pi*(d/lambda)*(x*sin(el)*sin(az) + y*cos(el))).
    """
    if L < 1:
        raise ValueError("array size must be positive")
    _, ny = _grid_dims(L)
    idx = np.arange(L)
    x = idx // ny
    y = idx % ny
    phase = 2.0 * np.pi * d_over_lambda * (x * np.sin(el) * np.sin(az) + y * np.cos(el))
    return np.exp(1j * phase)


@dataclass(frozen=True, eq=False)
class Geometry:
    """Fixed per-experiment geometry: angles, positions and large-scale gains."""

    user_aoa: np.ndarray   # (K, 2) azimuth/elevation of arrival at the RIS, per user
    ris_aod: np.ndarray    # (2,) azimuth/elevation of departure at the RIS toward the BS
    bs_aoa: np.ndarray     # (2,) azimuth/elevation of arrival at the BS
    user_pos: np.ndarray   # (K, 3) user positions, meters
    dist_user: np.ndarray  # (K,) user -> RIS distances
    dist_ris: float        # RIS -> BS distance
    alpha: np.ndarray      # (K,) large-scale gains, user -> RIS
    beta: float            # large-scale gain, RIS -> BS


def make_geometry(cfg: SystemConfig) -> Geometry:
    """Draw the fixed experiment geometry from the master seed.

    Users are placed uniformly over the semicircular disk of radius
    `user_radius` around `user_center`, on the side facing away from the
    BS (y >= center).  All angles are uniform on [0, 2*pi) as configured
    (elevations on [0, pi) when `restrict_elevation` is set); they are
    drawn independently of the positions, which only set the path losses.
    """
    rng = substream(cfg.seed, STREAM_GEOMETRY)
    K = cfg.K
    el_hi = np.pi if cfg.restrict_elevation else 2.0 * np.pi

    t = rng.uniform(0.0, np.pi, K)
    r = cfg.user_radius * np.sqrt(rng.uniform(0.0, 1.0, K))
    center = np.asarray(cfg.user_center)
    user_pos = np.column_stack([
        center[0] + r * np.cos(t),
        center[1] + r * np.sin(t),
        np.full(K, center[2]),
    ])

    user_aoa = np.column_stack([rng.uniform(0.0, 2.0 * np.pi, K), rng.uniform(0.0, el_hi, K)])
    ris_aod = np.array([rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, el_hi)])
    bs_aoa = np.array([rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, el_hi)])

    ris = np.asarray(cfg.ris_pos)
    dist_user = np.linalg.norm(user_pos - ris, axis=1)
    dist_ris = float(np.linalg.norm(ris - np.asarray(cfg.bs_pos)))
    alpha = path_loss(dist_user, cfg.pathloss_exp_user)
    beta = path_loss(dist_ris, cfg.pathloss_exp_ris)

    return Geometry(user_aoa, ris_aod, bs_aoa, user_pos, dist_user, dist_ris, alpha, beta)


class LineOfSight(NamedTuple):
    """Deterministic LoS parts of one site, built once per closed-form site
    or Monte Carlo run."""

    hbar: np.ndarray   # (N, K) per-user steering columns at the RIS
    a_ris: np.ndarray  # (N,) RIS departure steering vector toward the BS
    a_bs: np.ndarray   # (M,) BS arrival steering vector; the RIS-BS LoS is a_bs a_ris^H


def los_components(geom: Geometry, cfg: SystemConfig) -> LineOfSight:
    """The LoS steering vectors of both hops."""
    hbar = np.column_stack([
        array_response(cfg.N, az, el, cfg.d_over_lambda) for az, el in geom.user_aoa
    ])
    a_ris = array_response(cfg.N, geom.ris_aod[0], geom.ris_aod[1], cfg.d_over_lambda)
    a_bs = array_response(cfg.M, geom.bs_aoa[0], geom.bs_aoa[1], cfg.d_over_lambda)
    return LineOfSight(hbar, a_ris, a_bs)


def sample_channel_batch(
    geom: Geometry,
    cfg: SystemConfig,
    rng: np.random.Generator,
    count: int,
    los: LineOfSight,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` independent realizations: H1 as complex (count, N, K)
    and H2 as its real and imaginary planes, float (2, count, M, N).

    Each column of H1 mixes its fixed steering vector with fresh complex
    Gaussian noise at the user's Rician factor and is scaled so that
    E{||h_k||^2} = N * alpha_k; H2 is built the same way around the
    rank-one LoS part a_bs a_ris^H with E{||H2||_F^2} = M * N * beta.  H2's
    planes are the stream's real and imaginary normal draws themselves (the
    layout of `crandn`), scaled in place with the roundings of the complex
    expression, so no complex H2-sized array is formed.  `los` is the
    site's `los_components`.
    """
    H1 = sample_user_channels(geom, cfg, rng, count, los)

    # sqrt(beta) * (sqrt(d/(d+1)) Hbar2 + sqrt(1/(d+1)) sqrt(1/2) (z0 + j z1))
    d = cfg.delta
    H2 = rng.standard_normal(size=(2, count, cfg.M, cfg.N))
    H2 *= math.sqrt(0.5)
    H2 *= math.sqrt(1.0 / (d + 1.0))
    mean = math.sqrt(d / (d + 1.0)) * np.outer(los.a_bs, los.a_ris.conj())
    H2[0] += mean.real
    H2[1] += mean.imag
    H2 *= math.sqrt(geom.beta)
    return H1, H2


def _interleaved(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    """Complex normals of the given shape, each drawn as a (real, imaginary)
    pair of standard normals scaled by `scale`, viewed without a copy."""
    z = rng.standard_normal(size=tuple(shape) + (2,))
    z *= scale
    return z.view(complex)[..., 0]


def bartlett_factor(rng: np.random.Generator, count: int, n: int, K: int) -> np.ndarray:
    """`count` Bartlett factors T, complex (count, min(n, K), K), each with
    T^H T distributed as Z^H Z for Z (n, K) with iid CN(0, 1) entries: a
    complex Wishart matrix with n degrees of freedom.

    T is the triangular factor of a QR decomposition of Z: upper
    trapezoidal, with T[i, i] = sqrt(Gamma(n - i)) and CN(0, 1) entries
    above the diagonal.  The draws are the gammas, (count, min(n, K)), then
    the entries above the diagonal row by row as (real, imaginary) pairs.
    """
    r = min(n, K)
    T = np.zeros((count, r, K), dtype=complex)
    i = np.arange(r)
    T[:, i, i] = np.sqrt(rng.standard_gamma(n - i, size=(count, r)))
    rows, cols = np.triu_indices(r, 1, K)
    T[:, rows, cols] = _interleaved(rng, (count, rows.size), math.sqrt(0.5))
    return T


def sample_gram_batch(
    geom: Geometry,
    cfg: SystemConfig,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw `count` trials of what the combined-channel moments need of the
    two hops, in this order:

        X   complex (count, K+1, K), CN(0, 1): the first hop's scattered
            part on an (N, K+1) orthonormal basis V of a space that holds
            a_ris and Phi times the first hop's mean;
        T1  `bartlett_factor` with n = N-K-1: T1^H T1 stands for the Gram
            matrix of that scattered part on V's complement;
        SU  complex (count, M, K+1), CN(0, beta/(delta+1)): H2's scattered
            part on an orthonormal basis U of span{Phi H1, a_ris};
        T2  `bartlett_factor` with n = N-K-1, scaled by
            sqrt(beta/(delta+1)): T2^H T2 stands for the Gram matrix of
            the (N-K-1, K) normals through which H2's scattered part on
            U's complement enters the dynamic noise.

    The complex normals are (real, imaginary) pairs.  The transceiver's
    reduced kernel maps them onto the moments with exactly the law of full
    draws.  Needs N > K + 1.
    """
    M, N, K = cfg.M, cfg.N, cfg.K
    if N <= K + 1:
        raise ValueError(f"the reduced draw needs N > K + 1, got N = {N}, K = {K}")
    n = N - K - 1
    X = _interleaved(rng, (count, K + 1, K), math.sqrt(0.5))
    T1 = bartlett_factor(rng, count, n, K)
    SU = _interleaved(rng, (count, M, K + 1), math.sqrt(0.5 * geom.beta / (cfg.delta + 1.0)))
    T2 = bartlett_factor(rng, count, n, K)
    T2 *= math.sqrt(geom.beta / (cfg.delta + 1.0))
    return X, T1, SU, T2


def sample_user_channels(
    geom: Geometry,
    cfg: SystemConfig,
    rng: np.random.Generator,
    count: int,
    los: LineOfSight,
) -> np.ndarray:
    """Draw only the user -> RIS hop, (count, N, K): the first hop of
    `sample_channel_batch` and of the surface power measurement."""
    eps = np.asarray(cfg.epsilon)
    h_nlos = crandn(rng, (count, cfg.N, cfg.K))
    return np.sqrt(geom.alpha) * (
        np.sqrt(eps / (eps + 1.0)) * los.hbar + np.sqrt(1.0 / (eps + 1.0)) * h_nlos
    )
