"""Single-mode impurity models in closed form: thermal (additive) noise,
phase diffusion, and pure loss.

Phase diffusion of variance sigma damps every coherence exactly,

    rho[n, m] -> rho[n, m] exp(-sigma (n - m)^2 / 2).

Additive Gaussian noise of variance sigma (each quadrature gains +sigma,
the mean photon number grows by sigma) factors into pure loss at
transmissivity eta = 1/(1 + sigma) followed by a quantum-limited amplifier
of gain G = 1 + sigma (Caruso, Giovannetti and Holevo, New J. Phys. 8, 310
(2006)).  Both halves have Kraus operators that shift every photon number
by k (Ivan, Sabapathy and Simon, Phys. Rev. A 84, 042311 (2011)):

    loss:     A_k |n> = sqrt(C(n, k) eta^(n-k) (1-eta)^k)       |n - k>
    amplify:  B_k |n> = sqrt(C(n+k, k) G^-(n+1) (1-1/G)^k)      |n + k>

so one kernel, out[n -+ k, m -+ k] += c_k[n] c_k[m] rho[n, m], serves both.
Every shift keeps the offset n - m, so a parity-definite input (no
odd-offset coherence) gives exact zeros at odd offsets.  Loss stays inside
the truncated space; the amplifier pushes population above the cutoff,
so its output is rescaled to the input trace and its tail is checked.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityMatrix, FockVector, check_tail

__all__ = ["thermal_channel", "phase_channel", "bs_loss"]


def _single_mode(rho: DensityMatrix) -> int:
    if rho.layout.nmodes != 1:
        raise ValueError("channel acts on a single-mode density matrix")
    return rho.layout.dims[0]


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < np.inf:
        raise ValueError("noise variance must be finite and non-negative")


def _binomial_pmf(d: int, eta: float) -> np.ndarray:
    """p[n, k] = C(n, k) eta^(n-k) (1-eta)^k for 0 <= k <= n < d, else 0.

    Built row by row from p[n, k] = eta p[n-1, k] + (1-eta) p[n-1, k-1]:
    a sum of non-negative terms, so it never overflows and eta = 0 or 1
    gives exact zeros and ones.
    """
    p = np.zeros((d, d))
    p[0, 0] = 1.0
    for n in range(1, d):
        p[n] = eta * p[n - 1]
        p[n, 1:] += (1.0 - eta) * p[n - 1, :-1]
    return p


def _shift_kraus(mat: np.ndarray, pmf: np.ndarray, down: bool) -> np.ndarray:
    """Sum over k of K_k mat K_k† for the photon-number shifts n -> n -+ k.

    The k-th operator takes |j + k> to |j> (down) or |j> to |j + k> (up)
    with amplitude sqrt(pmf[j + k, k]); shifts up past the cutoff are dropped.
    """
    d = mat.shape[0]
    out = np.zeros_like(mat)
    for k in range(d):
        c = np.sqrt(pmf[k:, k])
        high, low = slice(k, None), slice(None, d - k)
        src, dst = (high, low) if down else (low, high)
        out[dst, dst] += np.outer(c, c) * mat[src, src]
    return out


def thermal_channel(rho: DensityMatrix, sigma: float) -> DensityMatrix:
    """Additive (random-displacement) Gaussian noise of variance sigma.

    Loss at eta = 1/(1+sigma), then amplification at G = 1+sigma; both use
    the binomial table at eta, since the amplifier's c_k[n]^2 equals
    eta C(n+k, k) eta^n (1-eta)^k.  The output is rescaled to the input
    trace, and truncation of the amplified tail is flagged by check_tail.
    """
    _check_sigma(sigma)
    d = _single_mode(rho)
    eta = 1.0 / (1.0 + sigma)
    pmf = _binomial_pmf(d, eta)
    out = eta * _shift_kraus(_shift_kraus(rho.mat, pmf, down=True), pmf, down=False)
    out *= rho.trace() / np.trace(out).real
    result = DensityMatrix(rho.layout, out)
    check_tail(result, context="thermal channel")
    return result


def phase_channel(rho: DensityMatrix, sigma: float) -> DensityMatrix:
    """Gaussian phase diffusion of variance sigma (radians^2).

    Populations are kept; the (n, m) coherence is damped by
    exp(-sigma (n-m)^2 / 2).
    """
    _check_sigma(sigma)
    n = np.arange(_single_mode(rho))
    damping = np.exp(-0.5 * sigma * (n[:, None] - n[None, :]) ** 2)
    return DensityMatrix(rho.layout, rho.mat * damping)


def bs_loss(state: FockVector | DensityMatrix, transmissivity: float) -> DensityMatrix:
    """Pure loss: a beam splitter of this transmissivity against vacuum.

    Returns a density matrix; transmissivity 1 is the identity and 0 maps
    every input to vacuum.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    rho = state.density() if isinstance(state, FockVector) else state
    pmf = _binomial_pmf(_single_mode(rho), transmissivity)
    return DensityMatrix(rho.layout, _shift_kraus(rho.mat, pmf, down=True))
