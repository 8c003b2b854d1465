"""Adaptive tensor-product Gauss-Hermite quadrature on the plane.

Every integrand of the protocol is an exactly known Gaussian envelope
exp(-c (x^2 + p^2)) times polynomials, plane waves and exponentials of
linear forms. Scaled to that envelope, nodes t/sqrt(c) and weights
w e^{t^2}/sqrt(c) per axis, the n-node Gauss-Hermite rule integrates the
envelope times any polynomial of degree below 2n exactly, so node
doubling converges geometrically on nothing wider than the integrand.

Gauss-Legendre on a box of BOX_SIGMAS envelope widths remains for the
fixed rules of the measurement-average oracle.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

# envelope exp(-c s^2) is < 1e-62 at s = 12/sqrt(c)
BOX_SIGMAS = 12.0
CONV_ABS_TOL = 1e-10
NODE_LADDER = (16, 32, 64, 128, 256, 512, 1024)


@lru_cache(maxsize=16)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def box_halfwidth(envelope_rate):
    """Half-width L for an integrand bounded by exp(-c (x^2 + p^2))."""
    if envelope_rate <= 0:
        raise QuadratureError("integrand has no Gaussian envelope")
    return BOX_SIGMAS / np.sqrt(envelope_rate)


def _hermite_functions(t, n):
    """The orthonormal Hermite functions psi_{n-1}(t) and psi_n(t) as
    mantissas over one factor e^{log_scale} per node: e^{-t^2/2}
    underflows past t ~ 27, and the polynomial alone overflows there.
    Every step of the recurrence renormalizes by a power of 2, which
    is exact, and counts the exponents as integers."""
    prev, cur = np.zeros_like(t), np.ones_like(t)
    exp2 = np.zeros(t.shape, dtype=np.int64)
    for k in range(n):
        prev, cur = cur, (math.sqrt(2 / (k + 1)) * t * cur
                          - math.sqrt(k / (k + 1)) * prev)
        _, e = np.frexp(np.abs(prev) + np.abs(cur))
        prev, cur, exp2 = np.ldexp(prev, -e), np.ldexp(cur, -e), exp2 + e
    return prev, cur, exp2 * math.log(2) - t * t / 2 - math.log(math.pi) / 4


@lru_cache(maxsize=None)
def _hermite_rule(n):
    """Nodes t and w e^{t^2} of the n-node Gauss-Hermite rule: t from the
    Jacobi matrix and one Newton step, w e^{t^2} = 1/(n psi_{n-1}(t)^2).
    numpy's hermgauss weights w underflow past about 256 nodes."""
    off = np.sqrt(np.arange(1, n) / 2)
    t = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    prev, cur, _ = _hermite_functions(t, n)
    t = t - cur / (math.sqrt(2 * n) * prev)
    t = (t - t[::-1]) / 2
    prev, _, log_scale = _hermite_functions(t, n)
    w = np.exp(-2 * log_scale) / (n * prev * prev)
    return t, (w + w[::-1]) / 2


def tensor_grid(scale, n):
    """Nodes and combined weights of the n x n Gauss-Hermite rule for
    the envelope exp(-(x^2 + p^2)/scale^2), with the envelope divided
    out of the weights."""
    t, w = _hermite_rule(n)
    x = scale * t
    wx = scale * w
    X, P = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wx, wx)
    return X, P, W


def integrate_adaptive(f, rate):
    """Integrate f(X, P) over the plane, f being exp(-rate (x^2 + p^2))
    times a smooth factor, doubling Gauss-Hermite nodes until converged.

    f must accept 2D arrays and return the integrand values elementwise.
    Convergence is |I_n - I_{n/2}| < CONV_ABS_TOL (absolute). Raises
    QuadratureError when NODE_LADDER is exhausted.
    """
    if not rate > 0:
        raise QuadratureError("integrand has no Gaussian envelope")
    scale = 1 / math.sqrt(rate)
    prev = None
    delta = np.inf
    for n in NODE_LADDER:
        X, P, W = tensor_grid(scale, n)
        val = np.sum(W * f(X, P))
        if prev is not None:
            delta = abs(val - prev)
            if delta < CONV_ABS_TOL:
                return val
        prev = val
    raise QuadratureError(
        f"no convergence at envelope rate {rate:.3g} after "
        f"{NODE_LADDER[-1]} Gauss-Hermite nodes (last delta {delta:.3e})")
