"""Independent reference implementations used as oracles in tests.

Everything here is written in the most literal form possible (explicit
diagonal matrices, per-user loops, no algebraic shortcuts) so it can serve
as a second route against the vectorized production code.
"""

import numpy as np


def sinr_from_definition(H1, H2, theta, p, eta, sigma_v2, sigma_n2, alpha):
    """Per-user post-combining SINR, evaluated term by term from scratch."""
    n = len(theta)
    m = H2.shape[0]
    n_users = H1.shape[1]
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


def rayleigh_norm4_mean(m, n):
    """E{||X y||^4} for X (m x n) and y (n,) with iid unit complex Gaussian
    entries: m(m+1) * n(n+1)."""
    return m * (m + 1) * n * (n + 1)
