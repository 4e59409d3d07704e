"""Independent reference implementations used as oracles in tests.

Everything here is written in the most literal form possible (explicit
diagonal matrices, per-user loops, no algebraic shortcuts) so it can serve
as a second route against the vectorized production code.
"""

import numpy as np


def sinr_from_definition(H1, H2, theta, p, eta, sigma_v2, sigma_n2, alpha):
    """Per-user post-combining SINR, evaluated term by term from scratch;
    a scalar power `p` is every user's."""
    n = len(theta)
    m = H2.shape[0]
    n_users = H1.shape[1]
    p = np.broadcast_to(np.asarray(p, dtype=float), (n_users,))
    Phi = np.diag(np.exp(1j * np.asarray(theta)))
    A = eta * np.eye(n)
    G = H2 @ A @ Phi @ H1

    out = np.zeros(n_users)
    for k in range(n_users):
        g = G[:, k]
        num = p[k] * alpha**2 * np.linalg.norm(g) ** 4
        interf = alpha**2 * sum(
            p[i] * abs(np.vdot(g, G[:, i])) ** 2 for i in range(n_users) if i != k
        )
        dyn = eta**2 * alpha**2 * sigma_v2 * np.linalg.norm(g.conj() @ H2 @ Phi) ** 2
        awgn = alpha**2 * sigma_n2 * np.linalg.norm(g) ** 2
        R_in = p[k] * (G @ G.conj().T) + sigma_n2 * np.eye(m)
        D = np.diag(np.diag(R_in))
        quant = alpha * (1.0 - alpha) * float((g.conj() @ D @ g).real)
        den = interf + dyn + awgn + quant
        out[k] = num / den if num > 0 else 0.0
    return out


def sinr_terms_reference(unit, budget, cfg):
    """Numerators and denominators, (..., K) each, of every user's SINR,
    from a unit set of moments scaled by `moments_at` and combined term by
    term, with no scalars divided out."""
    from arisim import aqnm_alpha, moments_at

    m = moments_at(unit, budget, cfg)
    a = aqnm_alpha(cfg.b)
    p = budget.p
    den = (p * m.interference + (budget.eta**2 * budget.sigma_v2_w) * m.dynamic_noise
           + cfg.sigma_n2_w * m.channel_gain + (1.0 - a) / a * m.quantization)
    return p * m.signal, den


def oracle_pairs(geom, cfg, phases, budget, trials, seed):
    """Means and standard errors, (K, K) each, of the interference pairs
    eta^4 |g0_k^H g0_i|^2, zero for i = k, over the full draws of both hops
    that `estimate_moments(..., trials, seed)` reduces: batch b from
    substream(seed, b), BATCH trials each.  Each user's interference is
    the sum of its row."""
    from arisim.channel import los_components, sample_channel_batch, substream
    from arisim.transceiver import BATCH

    los = los_components(geom, cfg)
    Phi = np.diag(phases.phi)
    pairs = []
    for b_idx, lo in enumerate(range(0, trials, BATCH)):
        H1, planes = sample_channel_batch(geom, cfg, substream(seed, b_idx),
                                          min(BATCH, trials - lo), los)
        G0 = (planes[0] + 1j * planes[1]) @ Phi @ H1
        x = budget.eta**4 * np.abs(G0.conj().swapaxes(1, 2) @ G0) ** 2
        x[:, np.arange(cfg.K), np.arange(cfg.K)] = 0.0
        pairs.append(x)
    x = np.concatenate(pairs)
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(trials)


def closed_form_pairs(site, theta):
    """The closed form's interference pairs E{|g0_k^H g0_i|^2} of phases
    `theta`, (..., K, K), zero for i = k, from the site's coefficients,
    each pair its own polynomial; each user's interference moment is the
    sum of its row."""
    F, coupling = _gains_and_coupling(site, theta)
    return _pair_form(site.coefficients.interference, F, coupling)


def literal_draw(geom, cfg, *stream):
    """Complex H1 (N, K) and H2 (M, N) of the one trial that
    `literal_trial_statistics(geom, cfg, phases, 1, stream=stream)` reduces:
    trial 0 of batch 0 of `stream`, both hops drawn in full."""
    from arisim.channel import los_components, sample_channel_batch, substream

    H1, H2 = sample_channel_batch(geom, cfg, substream(*stream, 0), 1, los_components(geom, cfg))
    return H1[0], H2[0, 0] + 1j * H2[1, 0]


def aligned_gains(geom, cfg, theta):
    """The aligned LoS gains f_k = a_ris^H Phi hbar_k of phases `theta`,
    (N,) or (P, N), as the closed-form site forms them: exp(j*theta) @ B."""
    from arisim import closed_form_site

    return np.exp(1j * np.asarray(theta, dtype=float)) @ closed_form_site(geom, cfg).B


def rayleigh_norm4_mean(m, n):
    """E{||X y||^4} for X (m x n) and y (n,) with iid unit complex Gaussian
    entries: m(m+1) * n(n+1)."""
    return m * (m + 1) * n * (n + 1)


def _gains_and_coupling(site, theta):
    """F_k = |f_k|^2 and c_ki = Re{f_k conj(f_i) hbar_k^H hbar_i} of phases
    `theta`, (N,) or (P, N), with f = exp(j*theta) @ site.B."""
    f = np.exp(1j * np.asarray(theta, dtype=float)) @ site.B
    coupling = (f[..., :, None] * f.conj()[..., None, :] * site.hbar_inner).real
    return f.real**2 + f.imag**2, coupling


def _pair_form(c, F, coupling):
    """x00 + x10 F_k + x01 F_i + x11 F_k F_i + xc c_ki over (..., K, K)."""
    x00, x10, x01, x11, xc = c
    Fk, Fi = F[..., :, None], F[..., None, :]
    return (x11 * Fi + x10) * Fk + x01 * Fi + x00 + xc * coupling


def polynomial_moments(site, theta):
    """Unit moments of phases `theta`, (N,) or (P, N), from the site's
    moment coefficients, each moment evaluated as its own polynomial in
    the aligned gains F_k = |f_k|^2 and the LoS coupling
    c_ki = Re{f_k conj(f_i) hbar_k^H hbar_i}."""
    from arisim import Moments

    F, coupling = _gains_and_coupling(site, theta)
    c = site.coefficients
    s0, s1, s2 = c.signal
    q0, q1, q2 = c.quantization
    return Moments(
        (s2 * F + s1) * F + s0,
        _pair_form(c.interference, F, coupling).sum(axis=-1),
        c.dynamic_noise[1] * F + c.dynamic_noise[0],
        c.gain[1] * F + c.gain[0],
        (q2 * F + q1) * F + q0 + _pair_form(c.quantization_cross, F, coupling).sum(axis=-1),
    )
