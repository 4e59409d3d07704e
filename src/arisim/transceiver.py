"""Cascaded-channel transceiver chain: quantization, MRC and Monte Carlo rates.

The BS applies maximal-ratio combining to the ADC output, modeled with the
additive quantization noise model (AQNM): the quantizer scales its input by
alpha = 1 - rho and adds Gaussian noise whose covariance is proportional to
the diagonal of the input power.  Achievable rates are per-user ergodic
values E{log2(1 + SINR)} estimated over fading realizations.

`moments_at` alone scales moments by a budget, and the SINR's numerator
and denominator are written once, as a map linear in the unit moments
(`_sinr_map`).  So a budget is one matrix S, `sinr_matrix`, that map
applied to the unit basis.  Monte Carlo scores a budget on every trial's
moments, the closed forms (`analytic`) on their expectations and the
genetic search on a whole population alike: the product
flat_moments(unit) @ S, taken row by row (`sinr_terms`), then
`log_rates`.

Monte Carlo trials are processed in fixed-size batches, each with its own
generator derived from (seed, batch index), so results depend only on the
seed and trial count, never on execution order or worker count.  The
moments need the first hop only through the Gram matrix of
B = [Phi H1, a_ris], and H2 only through H2 U, for an orthonormal basis U
of B's columns, and through the norms ||H2^H g0_k||^2; so wherever
N > K + 1 and M >= K a batch draws those in Gram form
(`channel.sample_gram_batch`): Bartlett factors for the parts on the
complements, and only H2 U at full size, as the quantization moment needs
every entry of G0.  The reduced kernel's moments have exactly the law of
full draws.  The literal kernel on full draws of both hops serves the
other sizes and the moment oracle (`literal_trial_statistics`,
`estimate_moments`); this module never imports `analytic`, so the oracle
is independent of the closed forms.
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
    los_components,
    sample_channel_batch,
    sample_gram_batch,
    sample_user_channels,
    substream,
)

# Trials per RNG batch.  Part of the determinism contract: changing it
# changes which generator produces which trial.
BATCH = 512

# The statistics kernel reduces a batch in the fewest slices of at most
# about this many bytes of H2 planes each (but of at least this many trials
# where that allows), of even sizes, so that its temporaries stay small
# beside the batch; the reduction is per trial, so no value changes.
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
    standard error, zero for a single trial.  Each mean over the last axis
    of a C-ordered array is bit for bit that of its row alone."""
    T = x.shape[axis]
    mean = x.mean(axis=axis)
    std = x.std(axis=axis, ddof=1) if T > 1 else np.zeros_like(mean)
    return mean, std / math.sqrt(T)


def batch_ranges(trials: int):
    """(batch index, first trial, end trial) of each RNG batch of BATCH trials."""
    for b_idx in range(0, (trials + BATCH - 1) // BATCH):
        lo = b_idx * BATCH
        yield b_idx, lo, min(lo + BATCH, trials)


class Moments(NamedTuple):
    """The five moments of the combined channels g_k = eta * g0_k, with
    G = [g_1 ... g_K], that the post-combining SINR is built from:

        signal         ||g_k||^4                            (..., K)
        interference   |g_k^H g_i|^2, zero for i = k        (..., K, K)
        dynamic_noise  ||g_k^H H2 Phi||^2                   (..., K)
        channel_gain   ||g_k||^2                            (..., K)
        quantization   g_k^H diag(p_k G G^H + sn2 I) g_k    (..., K)

    Monte Carlo holds one set per trial, the closed form and the oracle one
    set of expectations.  A unit set is taken at eta = 1, with the
    quantization term per unit p_k and without its noise part;
    `moments_at` scales it to a budget.
    """

    signal: np.ndarray
    interference: np.ndarray
    dynamic_noise: np.ndarray
    channel_gain: np.ndarray
    quantization: np.ndarray


def moments_at(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> Moments:
    """The moments of a unit set under the budget's amplification and
    transmit powers and the configured noise floor."""
    if unit.signal.shape[-1] != cfg.K:
        raise ValueError(f"moments for {unit.signal.shape[-1]} users, config has {cfg.K}")
    e2 = budget.eta**2
    e4 = e2 * e2
    gain = e2 * unit.channel_gain
    return Moments(
        e4 * unit.signal,
        e4 * unit.interference,
        e2 * unit.dynamic_noise,
        gain,
        (e4 * budget.p) * unit.quantization + cfg.sigma_n2_w * gain,
    )


def flat_moments(unit: Moments) -> np.ndarray:
    """A set of moments as one array, (..., 4K + K^2): the fields in
    `Moments` order, the interference row by row."""
    lead = unit.signal.shape[:-1]
    return np.concatenate([x.reshape(lead + (-1,)) for x in unit], axis=-1)


def split_moments(flat: np.ndarray, K: int) -> Moments:
    """The `Moments` of K users held in a flat array (..., 4K + K^2), as
    views: the inverse of `flat_moments`."""
    KK = K + K * K
    return Moments(flat[..., :K], flat[..., K:KK].reshape(flat.shape[:-1] + (K, K)),
                   flat[..., KK:KK + K], flat[..., KK + K:KK + 2 * K], flat[..., KK + 2 * K:])


def _sinr_map(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """The numerators, then the denominators, of every user's SINR,
    (..., 2K), from a unit set of moments; linear in those moments.

    With the moments of `moments_at` and the quantization gain
    a = `aqnm_alpha(cfg.b)`, 1 for ideal ADCs, the SINR of user k is,
    after dividing numerator and denominator by a^2,

        p_k ||g_k||^4  /  ( sum_{i!=k} p_i |g_k^H g_i|^2
                            + eta^2 sv2 ||g_k^H H2 Phi||^2
                            + sn2 ||g_k||^2
                            + (1 - a)/a g_k^H diag(p_k G G^H + sn2 I) g_k ).
    """
    m = moments_at(unit, budget, cfg)
    a = aqnm_alpha(cfg.b)
    den = (m.interference @ budget.p + (budget.eta**2 * budget.sigma_v2_w) * m.dynamic_noise
           + cfg.sigma_n2_w * m.channel_gain + (1.0 - a) / a * m.quantization)
    return np.concatenate([budget.p * m.signal, den], axis=-1)


def sinr_matrix(budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """The SINR matrix S of a budget, (4K + K^2, 2K): `flat_moments(unit)
    @ S` holds the SINR terms that `_sinr_map` gives, numerators then
    denominators.  As the matrix of a linear map, S is that map applied to
    the unit basis, the rows of the identity; its rows follow the columns
    of `ClosedFormSite.W`."""
    n = 4 * cfg.K + cfg.K * cfg.K
    return _sinr_map(split_moments(np.eye(n), cfg.K), budget, cfg)


def sinr_terms(flat: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The SINR terms `flat @ S`, (..., 2K), of flat moments (..., 4K + K^2)
    under a SINR matrix: one vector-matrix product per row, so each row's
    terms are those of the row alone bit for bit, however many rows are
    scored together.  A matrix product sums a lone row in another order,
    and it loads BLAS code that a reduced-draw sweep runs nowhere else,
    about 0.19 MB of resident pages with numpy's bundled OpenBLAS on
    x86-64."""
    return (flat[..., None, :] @ S)[..., 0, :]


def _ratio(terms: np.ndarray) -> np.ndarray:
    """Numerator over denominator of SINR terms (..., 2K); zero where the
    denominator is zero."""
    K = terms.shape[-1] // 2
    num, den = terms[..., :K], terms[..., K:]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def log_rates(terms: np.ndarray) -> np.ndarray:
    """Per-user rates log2(1 + SINR), bits/s/Hz, (..., K), from SINR terms
    (..., 2K) such as `sinr_terms(flat_moments(unit), sinr_matrix(budget, cfg))`.
    Each entry depends on its own terms alone, whatever the array's shape."""
    rates = _ratio(terms)
    rates += 1.0
    return np.log2(rates, out=rates)


def sinr(unit: Moments, budget: LinkBudget, cfg: SystemConfig) -> np.ndarray:
    """Post-combining SINR per user, (..., K), from a unit set of moments:
    the ratio of the two halves of its SINR terms under the budget's SINR
    matrix (`sinr_matrix`, `sinr_terms`).

    On one trial's moments this is the exact SINR of that trial; on
    expected moments it is the closed-form approximation, which moves the
    expectation inside the ratio (Zhang et al., IEEE JSTSP 2014, Lemma 1).
    Zero where the denominator is zero.
    """
    return _ratio(sinr_terms(flat_moments(unit), sinr_matrix(budget, cfg)))


def _gram(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of Y^H Y, (T, K, K) each, for a complex
    (T, M, K) stack given as its float view (T, M, 2K) of [re, im] pairs."""
    T, _, K2 = Y.shape
    K = K2 // 2
    R = (Y.swapaxes(1, 2) @ Y).reshape(T, K, 2, K, 2)
    return R[:, :, 0, :, 0] + R[:, :, 1, :, 1], R[:, :, 0, :, 1] - R[:, :, 1, :, 0]


def _hermitian(parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The complex array of a (real, imaginary) pair such as `_gram`'s."""
    re, im = parts
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _moments_of(norm2: np.ndarray, gram_re: np.ndarray, gram_im: np.ndarray,
                dyn: np.ndarray, power: np.ndarray) -> Moments:
    """Unit moments from the gains ||g0_k||^2, the Gram matrix G0^H G0, the
    dynamic-noise terms and the entry powers |G0_mk|^2 (T, M, K)."""
    K = norm2.shape[1]
    cross2 = gram_re * gram_re + gram_im * gram_im
    diag = np.arange(K)
    cross2[:, diag, diag] = 0.0
    # g0_k^H diag(G0 G0^H) g0_k = sum_m |G0_mk|^2 sum_i |G0_mi|^2
    quantization = (power.swapaxes(1, 2) @ power.sum(axis=2, keepdims=True))[..., 0]
    return Moments(norm2 * norm2, cross2, dyn, norm2, quantization)


def _batch_statistics(H1: np.ndarray, H2: np.ndarray, phi: np.ndarray) -> Moments:
    """Unit moments of every trial of H1 (T, N, K) and of H2 given as its
    real and imaginary planes (2, T, M, N): the literal kernel.

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
    gram_re, gram_im = _gram(G)                      # g0_k^H g0_i
    norm2 = np.diagonal(gram_re, axis1=1, axis2=2).copy()
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
    return _moments_of(norm2, gram_re, gram_im, dyn, power)


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


def _gram_statistics(X: np.ndarray, T1: np.ndarray, SU: np.ndarray, T2: np.ndarray,
                     site: _GramSite) -> Moments:
    """Unit moments of every trial of a `sample_gram_batch` draw: the
    reduced kernel, exact in law to `_batch_statistics` on full draws.

    Phi H1 = A + Phi W diag(s) with W iid CN(0, 1), and Phi W has the law
    of W.  Split on the site's basis V (`_GramSite`) and its complement,
    B = [Phi H1, a_ris] has the Gram matrix C with
    C[:K, :K] = Y^H Y + (T1 s)^H (T1 s), C[K, :K] = q^H Y and C[K, K] = N,
    where Y = P + X s.  For any R with R^H R = C, B = U R for some U
    (N, K+1) with orthonormal columns, so H2 enters the moments only
    through H2 U, which gives G0 = H2 U R[:, :K] and the part
    ||(H2 U)^H g0_k||^2 of ||H2^H g0_k||^2, and through H2's scattered part
    on U's complement, whose share of ||H2^H g0_k||^2 has the law of the
    squared column norms of T2 F^H, with F F^H = G0^H G0.

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
    C[:, :K, :K] = _hermitian(_gram(Z.view(np.float64)))
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
    Q = _hermitian(_gram(H2U.view(np.float64)))     # (H2 U)^H H2 U, (T, K+1, K+1)
    P = Q @ Rk                                       # (H2 U)^H G0
    gram = Rk.conj().swapaxes(1, 2) @ P              # G0^H G0
    P = P.view(np.float64)
    P *= P
    p = P.sum(axis=1)
    dyn = p[:, 0::2] + p[:, 1::2]
    TF = (T2 @ _square_root(gram).conj().swapaxes(1, 2)).view(np.float64)
    TF *= TF
    t = TF.sum(axis=1)
    dyn += t[:, 0::2] + t[:, 1::2]
    G = (H2U @ Rk).view(np.float64)                  # G0 as [re, im] pairs
    G *= G
    power = np.add(G[..., 0::2], G[..., 1::2])       # |G0_mk|^2, (T, M, K)
    norm2 = np.diagonal(gram.real, axis1=1, axis2=2).copy()
    return _moments_of(norm2, gram.real, gram.imag, dyn, power)


def reduced_draw_applies(M: int, N: int, K: int) -> bool:
    """Whether `trial_statistics` uses the reduced draw at (M, N, K): it
    needs a nonempty complement of span{Phi H1, a_ris} (N > K + 1).  With
    M < K, G0^H G0 is singular in every trial, so its square root always
    takes the eigendecomposition route, and the literal kernel measured
    faster there."""
    return N > K + 1 and M >= K


def _statistics(geom, cfg, phase_sets, trials, stream, reduced: bool) -> list:
    """Per-trial unit moments of each phase vector of `phase_sets`, each a
    flat (T, 4K + K^2) array (`flat_moments`), from one set of reduced or
    of full draws, batch by batch, each batch reduced in even slices of at
    most about KERNEL_BYTES into the array's `split_moments` views; the
    site's LoS parts are built once and serve every batch."""
    T = cfg.trials if trials is None else trials
    if not _is_integer(T) or T < 1:
        raise ValueError(f"trials must be a positive integer, got {T!r}")
    for phases in phase_sets:
        if len(phases.theta) != cfg.N:
            raise ValueError(f"{len(phases.theta)} phases for {cfg.N} surface elements")
    key = (cfg.seed, STREAM_FADING) if stream is None else tuple(stream)
    los = los_components(geom, cfg)
    K = cfg.K
    out = [np.empty((T, 4 * K + K * K)) for _ in phase_sets]
    views = [split_moments(flat, K) for flat in out]
    last = len(phase_sets) - 1
    if reduced:
        sites = [_gram_site(geom, cfg, los, phases.phi) for phases in phase_sets]
        step = max(KERNEL_MIN_TRIALS, KERNEL_BYTES // (16 * cfg.M * (K + 1)))

        def draw(rng, count):
            return sample_gram_batch(geom, cfg, rng, count)

        def reduce(batch, part, j):
            X, T1, SU, T2 = (x[part] for x in batch)
            # the kernel consumes SU, so each phase vector but the last takes a copy
            return _gram_statistics(X, T1, SU.copy() if j < last else SU, T2, sites[j])
    else:
        step = max(KERNEL_MIN_TRIALS, KERNEL_BYTES // (16 * cfg.M * cfg.N))
        phis = [phases.phi for phases in phase_sets]

        def draw(rng, count):
            return sample_channel_batch(geom, cfg, rng, count, los)

        def reduce(batch, part, j):
            H1, H2 = batch
            return _batch_statistics(H1[part], H2[:, part], phis[j])

    for b_idx, lo, hi in batch_ranges(T):
        count = hi - lo
        batch = draw(substream(*key, b_idx), count)
        # the fewest slices of at most `step` trials, of even sizes: the
        # largest slice sets the kernel's peak memory
        parts = -(-count // step)
        edges = [count * i // parts for i in range(parts + 1)]
        for start, end in zip(edges, edges[1:]):
            for j, fields in enumerate(views):
                for field, value in zip(fields, reduce(batch, slice(start, end), j)):
                    field[lo + start:lo + end] = value
        del batch  # free this batch before the next one is drawn
    return out


def trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> Moments:
    """Draw `trials` fading realizations and reduce each to its unit
    moments, (T, K) and (T, K, K), views of one flat array
    (`split_moments`).

    Batch b comes from `substream(*stream, b)`, by default the fading
    stream `(cfg.seed, STREAM_FADING)`, so the result depends only on the
    stream and the trial count.  Where `reduced_draw_applies`, a batch
    draws only what the moments need, in Gram form (`sample_gram_batch`),
    whose moments have exactly the law of full draws; elsewhere it draws both
    hops in full, as `literal_trial_statistics` always does.  Each batch is
    reduced in slices once drawn, so the slicing changes no value, and
    dropped before the next one.
    """
    return split_moments(shared_trial_statistics(geom, cfg, (phases,), trials, stream)[0], cfg.K)


def shared_trial_statistics(
    geom: Geometry,
    cfg: SystemConfig,
    phase_sets,
    trials: int | None = None,
    stream: tuple[int, ...] | None = None,
) -> list:
    """`trial_statistics` of each phase vector of `phase_sets`, in order,
    all reduced from one draw of each batch (common random numbers), each
    as one flat (T, 4K + K^2) array: `flat_moments` of `trial_statistics`
    at its own phases bit for bit."""
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
    return split_moments(_statistics(geom, cfg, (phases,), trials, stream, False)[0], cfg.K)


def estimate_moments(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int,
    seed: int,
) -> tuple[Moments, Moments]:
    """The oracle: sample means and standard errors of the five moments
    under `budget`, each a `Moments`, over `trials` full draws of both hops
    (`literal_trial_statistics`) from the stream (seed,), which no rate
    simulation draws from; so it checks the reduced draw from outside."""
    per_trial = moments_at(literal_trial_statistics(geom, cfg, phases, trials, stream=(seed,)),
                           budget, cfg)
    mean, std_err = zip(*map(_sample_mean, per_trial))
    return Moments(*mean), Moments(*std_err)


def rate_from_statistics(stats: Moments, budget: LinkBudget, cfg: SystemConfig) -> RateReport:
    """Per-user ergodic rates of one budget over the per-trial unit
    moments of `trial_statistics`.  The sum rate and its standard error
    are the mean and standard error of the per-trial sum rates."""
    if not budget.startup_met:
        return RateReport(np.zeros(cfg.K), 0.0, np.zeros(cfg.K), 0, 0.0)
    rates = log_rates(sinr_terms(flat_moments(stats), sinr_matrix(budget, cfg)))
    per_user, std_err = _sample_mean(rates)
    sum_rate, sum_std_err = _sample_mean(rates.sum(axis=-1))
    return RateReport(per_user, float(sum_rate), std_err, rates.shape[0], float(sum_std_err))


def monte_carlo_rate(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int | None = None,
) -> RateReport:
    """Estimate per-user ergodic rates by averaging over fading draws.

    Deterministic for a fixed (seed, trials) pair regardless of batching.
    """
    return rate_from_statistics(trial_statistics(geom, cfg, phases, trials), budget, cfg)


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
    if not _is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    sqrt_p = np.sqrt(budget.p)
    sv = math.sqrt(budget.sigma_v2_w)
    phi = phases.phi
    los = los_components(geom, cfg)
    total = 0.0
    for b_idx, lo, hi in batch_ranges(trials):
        rng = substream(cfg.seed, STREAM_SYMBOLS, b_idx)
        count = hi - lo
        H1 = sample_user_channels(geom, cfg, rng, count, los)
        x = crandn(rng, (count, cfg.K))
        v = sv * crandn(rng, (count, cfg.N))
        y = budget.eta * phi * (np.einsum("tnk,tk->tn", H1, sqrt_p * x) + v)
        total += float((np.abs(y) ** 2).sum())
    return total / trials
