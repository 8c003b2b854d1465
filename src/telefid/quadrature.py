"""Adaptive tensor-product Gauss-Legendre quadrature on a square.

All integrands in this package are Gaussian envelopes times bounded
oscillations, so a fixed box [-L, L]^2 with L = BOX_SIGMAS / sqrt(c)
(envelope exp(-c s^2) per axis) truncates below double precision, and
node doubling converges geometrically.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureError

# envelope exp(-c s^2) is < 1e-62 at s = 12/sqrt(c)
BOX_SIGMAS = 12.0
CONV_ABS_TOL = 1e-10
NODE_LADDER = (64, 128, 256, 512, 1024)


@lru_cache(maxsize=16)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def box_halfwidth(envelope_rate):
    """Half-width L for an integrand bounded by exp(-c (x^2 + p^2))."""
    if envelope_rate <= 0:
        raise QuadratureError("integrand has no Gaussian envelope")
    return BOX_SIGMAS / np.sqrt(envelope_rate)


def tensor_grid(L, n):
    """Nodes and combined weights for the n x n rule on [-L, L]^2."""
    t, w = _leggauss(n)
    x = L * t
    wx = L * w
    X, P = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wx, wx)
    return X, P, W


def integrate_adaptive(f, L):
    """Integrate f(X, P) over [-L, L]^2, doubling nodes until converged.

    f must accept 2D arrays and return the integrand values elementwise.
    Convergence is |I_n - I_{n/2}| < CONV_ABS_TOL (absolute). Raises
    QuadratureError when NODE_LADDER is exhausted.
    """
    prev = None
    delta = np.inf
    for n in NODE_LADDER:
        X, P, W = tensor_grid(L, n)
        val = np.sum(W * f(X, P))
        if prev is not None:
            delta = abs(val - prev)
            if delta < CONV_ABS_TOL:
                return val
        prev = val
    raise QuadratureError(
        f"no convergence on [-{L:.3g}, {L:.3g}]^2 after {NODE_LADDER[-1]} "
        f"nodes (last delta {delta:.3e})")
