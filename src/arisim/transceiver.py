"""Cascaded-channel transceiver chain: quantization, MRC and Monte Carlo rates.

The BS applies maximal-ratio combining to the ADC output, modeled with the
additive quantization noise model (AQNM): the quantizer scales its input by
alpha = 1 - rho and adds Gaussian noise whose covariance is proportional to
the diagonal of the input power.  Achievable rates are per-user ergodic
values E{log2(1 + SINR)} estimated over fading realizations.

Every user transmits at the same power p, so the SINR of user k, divided
through by eta^4 p, is s_k / (I_k + r q_k + c1 d_k + c2 g_k) in the unit
moments (`Moments`): the budget and the ADC enter only through three
scalars (`sinr_scalars`).  Monte Carlo scores a budget on every trial's
moments, the closed forms (`analytic`) on their expectations and the
genetic search on a whole population alike, with that one elementwise
expression (`log_rates`).

Monte Carlo trials are processed in fixed-size batches, each with its own
generator derived from (seed, batch index), so results depend only on the
seed and trial count, never on execution order or worker count.  The
moments need the first hop only through the Gram matrix of
B = [Phi H1, a_ris], and H2 only through H2 U, for an orthonormal basis U
of B's columns, and through the norms ||H2^H g0_k||^2; so wherever
N > K + 1 and M >= K a batch draws those in Gram form (the stream
pieces of `channel`): Bartlett factors for the parts on the
complements, and only H2 U at full size, as the quantization moment needs
every entry of G0.  The reduced kernel's moments have exactly the law of
full draws.  The literal kernel on full draws of both hops serves the
other sizes and the moment oracle (`literal_trial_statistics`,
`estimate_moments`); this module never imports `analytic`, so the oracle
is independent of the closed forms.  Either way a batch's M-sized part,
H2 U or H2's imaginary plane, is drawn and reduced slice by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budget import LinkBudget, SystemConfig, _is_integer
from .channel import (
    STREAM_FADING,
    STREAM_SYMBOLS,
    Geometry,
    crandn,
    h2_mean,
    los_components,
    sample_gram_complement,
    sample_gram_first_hop,
    sample_gram_rows,
    sample_h2_plane,
    sample_user_channels,
    substream,
)

# Trials per RNG batch.  Part of the determinism contract: changing it
# changes which generator produces which trial.
BATCH = 512

# The statistics kernel draws and reduces a batch's M-sized part in the
# fewest slices of at most about this many bytes each (but of at least this
# many trials where that allows), of even sizes: rows of SU, or of both H2
# planes, of which only the real plane is held for the whole batch.  So a
# site holds one slice of its channel draw, not the batch; each trial's
# draws and moments are its own, so no value changes.
KERNEL_BYTES = 1 << 19
KERNEL_MIN_TRIALS = 16

# Distortion factor rho of an optimal scalar quantizer for small bit widths;
# beyond 5 bits the pi*sqrt(3)/2 * 2^(-2b) asymptote is accurate.
AQNM_RHO = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}


def aqnm_alpha(b) -> float:
    """Quantization gain alpha = 1 - rho(b); alpha = 1 for ideal ADCs."""
    if b == "ideal":
        return 1.0
    if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
        raise ValueError(f"quantization bits must be a positive integer or 'ideal', got {b!r}")
    rho = AQNM_RHO[b] if b <= 5 else (math.pi * math.sqrt(3.0) / 2.0) * 2.0 ** (-2 * b)
    return 1.0 - rho


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """The N surface phase shifts, stored reduced modulo 2*pi."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.mod(np.asarray(self.theta, dtype=float), 2.0 * np.pi)
        object.__setattr__(self, "theta", t)

    @property
    def phi(self) -> np.ndarray:
        """Diagonal of the unit-modulus reflection matrix, exp(j*theta)."""
        return np.exp(1j * self.theta)

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


def _sample_mean(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the trial axis, by default the leading one, and its
    standard error, zero for a single trial, whose one deviation is 0.
    The error is taken in place, with the steps and so the bits of
    `np.std(ddof=1)`: `x` is left holding its squared deviations.  Each
    mean over the last axis of a C-ordered array is bit for bit that of
    its row alone."""
    T = x.shape[axis]
    mean = x.mean(axis=axis, keepdims=True)
    x -= mean
    x *= x
    return mean.squeeze(axis), np.sqrt(x.sum(axis=axis) / max(T - 1, 1)) / math.sqrt(T)


def batch_ranges(trials: int):
    """(batch index, first trial, end trial) of each RNG batch of BATCH trials."""
    for b_idx in range(0, (trials + BATCH - 1) // BATCH):
        lo = b_idx * BATCH
        yield b_idx, lo, min(lo + BATCH, trials)


class Moments(NamedTuple):
    """The five per-user unit moments of the cascaded channels
    g0_k = H2 Phi h1_k, with G0 = [g0_1 ... g0_K], from which the SINR under
    any budget follows through three scalars (`sinr_scalars`), each (..., K):

        signal         ||g0_k||^4
        interference   I_k = sum_{i!=k} |g0_k^H g0_i|^2
        dynamic_noise  ||g0_k^H H2 Phi||^2
        channel_gain   ||g0_k||^2
        quantization   g0_k^H diag(G0 G0^H) g0_k

    Monte Carlo holds one set per trial, the closed form and the oracle one
    set of expectations.
    """

    signal: np.ndarray
    interference: np.ndarray
    dynamic_noise: np.ndarray
    channel_gain: np.ndarray
    quantization: np.ndarray


def sinr_scalars(budget: LinkBudget, cfg: SystemConfig):
    """The scalars (r, c1, c2) through which a budget and the ADC enter
    every user's SINR, or None where the surface carries nothing (p = 0 or
    eta = 0, as at the start-up cutoff).

    With the combined channels g_k = eta g0_k, G = eta G0, and the
    quantization gain a = `aqnm_alpha(cfg.b)`, 1 for ideal ADCs, the SINR
    of user k is

        p ||g_k||^4  /  ( p I_k + eta^2 sv2 ||g_k^H H2 Phi||^2 + sn2 ||g_k||^2
                          + (1 - a)/a g_k^H diag(p G G^H + sn2 I) g_k ),

    and divided through by eta^4 p it is, in the unit moments,
    s_k / (I_k + r q_k + c1 d_k + c2 g_k), with r = (1 - a)/a,
    c1 = sv2/p and c2 = sn2/(a eta^2 p) (Zhang et al., IEEE JSTSP 2014,
    Lemma 1, under the AQNM of Fan et al., IEEE Commun. Lett. 2015).
    """
    if budget.p == 0.0 or budget.eta == 0.0:
        return None
    a = aqnm_alpha(cfg.b)
    return ((1.0 - a) / a, budget.sigma_v2_w / budget.p,
            cfg.sigma_n2_w / (a * budget.eta**2 * budget.p))


def _sinr(unit: Moments, scalars) -> np.ndarray:
    """s_k / (I_k + r q_k + c1 d_k + c2 g_k), (..., K), a new array, for
    the `sinr_scalars` (r, c1, c2), which may be arrays that broadcast
    against the moments; zero where they are None or the denominator is
    zero."""
    if scalars is None:
        return np.zeros(np.shape(unit.signal))
    r, c1, c2 = scalars
    den = r * unit.quantization
    den += unit.interference
    den += c1 * unit.dynamic_noise
    den += c2 * unit.channel_gain
    return np.divide(unit.signal, den, out=den, where=den > 0.0)


def log_rates(unit: Moments, scalars) -> np.ndarray:
    """Per-user rates log2(1 + SINR), bits/s/Hz, (..., K), of unit moments
    under the `sinr_scalars` of a budget: the one expression that scores
    Monte Carlo trials, closed forms and GA populations.  Each entry
    depends on its own moments alone, whatever the array's shape."""
    rates = _sinr(unit, scalars)
    rates += 1.0
    return np.log2(rates, out=rates)


def sinr(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """Post-combining SINR per user, (..., K), from a unit set of moments.

    On one trial's moments this is the exact SINR of that trial; on
    expected moments it is the closed-form approximation, which moves the
    expectation inside the ratio (Zhang et al., IEEE JSTSP 2014, Lemma 1).
    Zero where the surface carries nothing.
    """
    if unit.signal.shape[-1] != cfg.K:
        raise ValueError(f"moments for {unit.signal.shape[-1]} users, config has {cfg.K}")
    return _sinr(unit, sinr_scalars(budget, cfg))


def _gram(Y: np.ndarray) -> np.ndarray:
    """Y^H Y, complex (T, K, K), for a complex (T, M, K) stack given as its
    float view (T, M, 2K) of [re, im] pairs."""
    T, _, K2 = Y.shape
    K = K2 // 2
    R = (Y.swapaxes(1, 2) @ Y).reshape(T, K, 2, K, 2)
    out = np.empty((T, K, K), dtype=complex)
    np.add(R[:, :, 0, :, 0], R[:, :, 1, :, 1], out=out.real)
    np.subtract(R[:, :, 0, :, 1], R[:, :, 1, :, 0], out=out.imag)
    return out


def _squared_modulus(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """|z|^2 of each entry of a complex stack given as its float view of
    [re, im] pairs, squared in place; with `axis`, summed along it, the
    real and the imaginary squares apart, before each pair is added."""
    x *= x
    if axis is not None:
        x = x.sum(axis=axis)
    return np.add(x[..., 0::2], x[..., 1::2])


def _moments_of(gram: np.ndarray, dyn: np.ndarray, power: np.ndarray) -> Moments:
    """Unit moments from the Gram matrix G0^H G0, complex (T, K, K), which
    is consumed, the dynamic-noise terms and the entry powers |G0_mk|^2
    (T, M, K).  The gains ||g0_k||^2 are its diagonal.  Each user's
    interference sums the pairs |g0_k^H g0_i|^2 with its own term zeroed,
    not the whole row less ||g0_k||^4, which would cancel about log10(M)
    digits."""
    K = gram.shape[-1]
    norm2 = np.diagonal(gram.real, axis1=1, axis2=2).copy()
    cross2 = _squared_modulus(gram.view(np.float64))
    diag = np.arange(K)
    cross2[:, diag, diag] = 0.0
    # g0_k^H diag(G0 G0^H) g0_k = sum_m |G0_mk|^2 sum_i |G0_mi|^2
    quantization = (power.swapaxes(1, 2) @ power.sum(axis=2, keepdims=True))[..., 0]
    return Moments(norm2 * norm2, cross2.sum(axis=2), dyn, norm2, quantization)


def _batch_statistics(H1: np.ndarray, planes, phi: np.ndarray) -> Moments:
    """Unit moments of every trial of H1 (T, N, K) and of H2 given as its
    real and imaginary planes, (T, M, N) each, as a pair or stacked: the
    literal kernel.

    Every product is one real matmul per plane: a complex matrix viewed as
    float holds its columns as [re, im] pairs, so with H2 = A + jB the
    plane products A @ X and B @ (jX), summed, are H2 X as pairs.  No
    complex H2-sized array is formed, and scaling H1 by phi instead of H2
    keeps every temporary far smaller than H2 itself.
    """
    A, B = planes
    T, N, K = H1.shape
    X = np.empty((2, T, N, K), dtype=complex)
    np.multiply(phi[:, None], H1, out=X[0])
    np.multiply(1j * phi[:, None], H1, out=X[1])
    X = X.view(np.float64)
    Y = np.empty((2, T, A.shape[1], 2 * K))
    np.matmul(A, X[0], out=Y[0])
    np.matmul(B, X[1], out=Y[1])
    del X
    Y[0] += Y[1]
    G = Y[0]                                         # G0 = H2 Phi H1 as [re, im] pairs
    gram = _gram(G)                                  # g0_k^H g0_i
    np.multiply(G.view(complex), -1j, out=Y[1].view(complex))
    Z = A.swapaxes(1, 2) @ G                         # A^T G0
    Z += B.swapaxes(1, 2) @ Y[1]                     # + B^T (-j G0): H2^H G0 as pairs
    dyn = _squared_modulus(Z, axis=1)
    del Z
    power = _squared_modulus(Y[1])                   # |G0_mk|^2, (T, M, K)
    del Y, G
    return _moments_of(gram, dyn, power)


def _square_root(A: np.ndarray) -> np.ndarray:
    """F with F F^H = A for each Hermitian positive semidefinite A of a
    stack: the Cholesky factor, or from the eigendecomposition when some A
    is singular."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        lam, V = np.linalg.eigh(A)
        return V * np.sqrt(np.maximum(lam, 0.0))[:, None, :]


class _GramSite(NamedTuple):
    """The parts of the reduced kernel fixed by the geometry and the phases,
    built once per Monte Carlo run.  With the first hop's mean
    A = Phi hbar diag(sqrt(alpha eps/(eps+1))), its scattered scale
    s = sqrt(alpha/(eps+1)) and a Householder QR [A, a_ris] = V R_site,
    P = V^H A = R_site[:, :K] and q = V^H a_ris = R_site[:, K].  V, (N, K+1),
    has orthonormal columns even where [A, a_ris] is rank-deficient, as it
    is when a user has no LoS (eps = 0).  There a square root of the Gram
    matrix of [A, a_ris] in place of the QR would also serve, but a
    rounding-level change of [A, a_ris] then moves the moments by about
    1e-6 of their size, against 1e-15 with the QR."""

    P: np.ndarray    # (K+1, K)
    q: np.ndarray    # (K+1,)
    s: np.ndarray    # (K,)
    N: int
    los_gain: float  # sqrt(beta delta/(delta+1)), the RIS-BS LoS amplitude


def _gram_site(geom: Geometry, cfg: SystemConfig, los, phi: np.ndarray) -> _GramSite:
    eps = np.asarray(cfg.epsilon)
    A = phi[:, None] * los.hbar * np.sqrt(geom.alpha * eps / (eps + 1.0))
    R = np.linalg.qr(np.column_stack([A, los.a_ris]), mode="r")
    return _GramSite(R[:, :cfg.K], R[:, cfg.K], np.sqrt(geom.alpha / (eps + 1.0)), cfg.N,
                     math.sqrt(geom.beta * cfg.delta / (cfg.delta + 1.0)))


def _gram_statistics(X: np.ndarray, T1: np.ndarray, SU: np.ndarray,
                     site: _GramSite) -> tuple[Moments, np.ndarray]:
    """Unit moments of every trial of a Gram-form draw but T2,
    and a square root F of each trial's G0^H G0 (F F^H = G0^H G0): the
    reduced kernel, exact in law to `_batch_statistics` on full draws once
    `_complement_noise` of T2 and F is added to the dynamic noise.

    Phi H1 = A + Phi W diag(s) with W iid CN(0, 1), and Phi W has the law
    of W.  Split on the site's basis V (`_GramSite`) and its complement,
    B = [Phi H1, a_ris] has the Gram matrix C with
    C[:K, :K] = Y^H Y + (T1 s)^H (T1 s), C[K, :K] = q^H Y and C[K, K] = N,
    where Y = P + X s.  For any R with R^H R = C, B = U R for some U
    (N, K+1) with orthonormal columns, so H2 enters the moments only
    through H2 U, which gives G0 = H2 U R[:, :K] and the part
    ||(H2 U)^H g0_k||^2 of ||H2^H g0_k||^2, and through H2's scattered part
    on U's complement, whose share of ||H2^H g0_k||^2 has the law of the
    squared column norms of T2 F^H.  So F (T, K, K) is all that T2 needs,
    and T2 may be drawn after every slice of SU has been reduced.

    The moments do not change when the rows of G0 and H2 are rotated by a
    diagonal unitary, and a_bs has unit-modulus entries, so rotating by
    diag(conj(a_bs)) turns H2's LoS part into los_gain 1 a_ris^H while its
    scattered part keeps its law: H2 U = SU + los_gain 1 R[:, K]^H.  SU is
    consumed in place.
    """
    T, K1, K = X.shape
    Z = np.empty((T, K1 + T1.shape[1], K), dtype=complex)
    Y = Z[:, :K1]
    np.multiply(X, site.s, out=Y)
    Y += site.P
    np.multiply(T1, site.s, out=Z[:, K1:])
    C = np.empty((T, K1, K1), dtype=complex)
    C[:, :K, :K] = _gram(Z.view(np.float64))
    c = site.q.conj() @ Y                            # a_ris^H Phi H1, (T, K)
    C[:, K, :K] = c
    C[:, :K, K] = c.conj()
    C[:, K, K] = site.N
    # R^H R = C; from the eigendecomposition R is not triangular, so G0
    # takes all K+1 rows of R
    R = _square_root(C).conj().swapaxes(1, 2)
    H2U = SU
    H2U += site.los_gain * R[:, None, :, K].conj()
    Rk = R[:, :, :K]
    Q = _gram(H2U.view(np.float64))                  # (H2 U)^H H2 U, (T, K+1, K+1)
    P = Q @ Rk                                       # (H2 U)^H G0
    gram = Rk.conj().swapaxes(1, 2) @ P              # G0^H G0
    F = _square_root(gram)
    dyn = _squared_modulus(P.view(np.float64), axis=1)  # the share through H2 U
    power = _squared_modulus((H2U @ Rk).view(np.float64))  # |G0_mk|^2, (T, M, K)
    return _moments_of(gram, dyn, power), F


def _complement_noise(T2: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The dynamic noise's share through H2's scattered part on U's
    complement, (T, K): the squared column norms of T2 F^H, for the
    `_gram_statistics` square roots F of the same trials."""
    return _squared_modulus((T2 @ F.conj().swapaxes(1, 2)).view(np.float64), axis=1)


def reduced_draw_applies(M: int, N: int, K: int) -> bool:
    """Whether `trial_statistics` uses the reduced draw at (M, N, K): it
    needs a nonempty complement of span{Phi H1, a_ris} (N > K + 1).  With
    M < K, G0^H G0 is singular in every trial, so its square root always
    takes the eigendecomposition route, and the literal kernel measured
    faster there."""
    return N > K + 1 and M >= K


def _statistics(geom, cfg, phase_sets, trials, stream, reduced: bool) -> list:
    """Per-trial unit moments of each phase vector of `phase_sets`, each
    `Moments` of five contiguous (T, K) views of one array, from one set of
    reduced or of full draws, batch by batch.  Each batch's M-sized part is
    drawn and reduced in even slices of at most about KERNEL_BYTES, straight
    into those views.  A reduced batch is the Gram-form stream, and this is
    the one place that sequences it: X and T1 (`sample_gram_first_hop`),
    then each slice's rows of SU (`sample_gram_rows`), reduced at once to
    everything but the dynamic noise's complement share, for which each
    trial keeps a K x K square root until T2 (`sample_gram_complement`) is
    drawn.  A full batch draws H1 and H2's real plane, then each slice's
    rows of its imaginary plane.  The site's LoS parts are built once and
    serve every batch."""
    T = cfg.trials if trials is None else trials
    if not _is_integer(T) or T < 1:
        raise ValueError(f"trials must be a positive integer, got {T!r}")
    for phases in phase_sets:
        if len(phases.theta) != cfg.N:
            raise ValueError(f"{len(phases.theta)} phases for {cfg.N} surface elements")
    key = (cfg.seed, STREAM_FADING) if stream is None else tuple(stream)
    los = los_components(geom, cfg)
    M, N, K = cfg.M, cfg.N, cfg.K
    views = [Moments(*np.empty((5, T, K))) for _ in phase_sets]
    last = len(phase_sets) - 1
    # a slice's rows of SU hold M (K+1) complex values, of both H2 planes M N
    step = max(KERNEL_MIN_TRIALS, KERNEL_BYTES // (16 * M * (K + 1 if reduced else N)))

    def store(fields, moments, part):
        for field, value in zip(fields, moments):
            field[part] = value

    if reduced:
        sites = [_gram_site(geom, cfg, los, phases.phi) for phases in phase_sets]

        def draw(rng, count, parts, out):
            X, T1 = sample_gram_first_hop(cfg, rng, count)
            roots = np.empty((len(sites), count, K, K), dtype=complex)
            for part in parts:
                SU = sample_gram_rows(geom, cfg, rng, part.stop - part.start)
                for j, site in enumerate(sites):
                    # the kernel consumes SU, so each phase vector but the last takes a copy
                    moments, roots[j, part] = _gram_statistics(
                        X[part], T1[part], SU.copy() if j < last else SU, site)
                    store(out[j], moments, part)
            T2 = sample_gram_complement(geom, cfg, rng, count)
            for part in parts:
                for fields, F in zip(out, roots):
                    fields.dynamic_noise[part] += _complement_noise(T2[part], F[part])
    else:
        phis = [phases.phi for phases in phase_sets]
        mean = h2_mean(cfg, los)

        def draw(rng, count, parts, out):
            H1 = sample_user_channels(geom, cfg, rng, count, los)
            real = sample_h2_plane(geom, cfg, rng, mean.real, out=np.empty((count, M, N)))
            for part in parts:
                imag = sample_h2_plane(geom, cfg, rng, mean.imag,
                                       out=np.empty((part.stop - part.start, M, N)))
                for fields, phi in zip(out, phis):
                    store(fields, _batch_statistics(H1[part], (real[part], imag), phi), part)

    for b_idx, lo, hi in batch_ranges(T):
        # the fewest slices of at most `step` trials, of even sizes: the
        # largest slice sets the kernel's peak memory
        count = hi - lo
        n = -(-count // step)
        edges = [count * i // n for i in range(n + 1)]
        draw(substream(*key, b_idx), count, [slice(a, b) for a, b in zip(edges, edges[1:])],
             [Moments(*(field[lo:hi] for field in fields)) for fields in views])
    return views


def trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> Moments:
    """Draw `trials` fading realizations and reduce each to its unit
    moments, five contiguous (T, K) arrays.

    Batch b comes from `substream(*stream, b)`, by default the fading
    stream `(cfg.seed, STREAM_FADING)`, so the result depends only on the
    stream and the trial count.  Where `reduced_draw_applies`, a batch
    draws only what the moments need, in Gram form (`channel`'s stream
    pieces), whose moments have exactly the law of full draws; elsewhere
    it draws both hops in full, as `literal_trial_statistics` always does.
    Each batch's M-sized part is drawn and reduced slice by slice, which
    takes the same draws and so changes no value, and each batch is
    dropped before the next one.
    """
    return shared_trial_statistics(geom, cfg, (phases,), trials, stream)[0]


def shared_trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phase_sets,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> list:
    """`trial_statistics` of each phase vector of `phase_sets`, in order,
    all reduced from one draw of each batch (common random numbers): each
    equals `trial_statistics` at its own phases bit for bit."""
    reduced = reduced_draw_applies(cfg.M, cfg.N, cfg.K)
    return _statistics(geom, cfg, phase_sets, trials, stream, reduced)


def literal_trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> Moments:
    """`trial_statistics` from full draws of both hops
    (`sample_channel_batch`) at every size: the oracle's route, which
    checks the reduced draw from outside."""
    return _statistics(geom, cfg, (phases,), trials, stream, False)[0]


def estimate_moments(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    trials: int,
    seed: int,
) -> tuple[Moments, Moments]:
    """The oracle: sample means and standard errors of the five unit
    moments, each a `Moments`, over `trials` full draws of both hops
    (`literal_trial_statistics`) from the stream (seed,), which no rate
    simulation draws from; so it checks the reduced draw from outside.
    Every route scores these moments, so no budget enters."""
    per_trial = literal_trial_statistics(geom, cfg, phases, trials, stream=(seed,))
    mean, std_err = zip(*map(_sample_mean, per_trial))
    return Moments(*mean), Moments(*std_err)


def monte_carlo_rate(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int | None = None,
) -> RateReport:
    """Estimate per-user ergodic rates by averaging over fading draws.

    The per-trial unit moments of `trial_statistics` are scored where they
    lie, with no copy, by `log_rates`; the sum rate and its standard error
    are the mean and standard error of the per-trial sum rates.  A surface
    that does not start up has zero rates from no trials.  Deterministic
    for a fixed (seed, trials) pair regardless of batching.
    """
    stats = trial_statistics(geom, cfg, phases, trials)
    if not budget.startup_met:
        return RateReport(np.zeros(cfg.K), 0.0, np.zeros(cfg.K), 0, 0.0)
    rates = log_rates(stats, sinr_scalars(budget, cfg))
    sum_rate, sum_std_err = _sample_mean(rates.sum(axis=-1))
    per_user, std_err = _sample_mean(rates)
    return RateReport(per_user, float(sum_rate), std_err, rates.shape[0], float(sum_std_err))


def measured_ris_power(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the power radiated by the surface, watts,
    and its standard error.

    Draws fresh user channels, unit-power Gaussian symbols and dynamic
    noise, and averages ||eta * Phi * (sqrt(p) H1 x + v)||^2.  For a
    correctly resolved active budget this reproduces
    eta^2 * N * (p sum_k alpha_k + sigma_v^2) = P_A.  The estimate is the
    sum of every batch's powers over the trial count; the standard error
    is that of the per-trial powers.
    """
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    sqrt_p = math.sqrt(budget.p)
    sv = math.sqrt(budget.sigma_v2_w)
    phi = phases.phi
    los = los_components(geom, cfg)
    total = 0.0
    per_trial = np.empty(trials)
    for b_idx, lo, hi in batch_ranges(trials):
        rng = substream(cfg.seed, STREAM_SYMBOLS, b_idx)
        count = hi - lo
        H1 = sample_user_channels(geom, cfg, rng, count, los)
        x = crandn(rng, (count, cfg.K))
        v = sv * crandn(rng, (count, cfg.N))
        y = budget.eta * phi * (np.einsum("tnk,tk->tn", H1, sqrt_p * x) + v)
        power = np.abs(y) ** 2
        total += float(power.sum())
        power.sum(axis=1, out=per_trial[lo:hi])
    return total / trials, float(_sample_mean(per_trial)[1])
