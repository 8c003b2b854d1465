"""Adaptive tensor-product Gauss-Hermite quadrature on the plane.

Every integrand of the protocol is an exactly known Gaussian envelope
exp(-c (x^2 + p^2)) times polynomials, plane waves and exponentials of
linear forms. Scaled to that envelope, nodes t/sqrt(c) and weights
w e^{t^2}/sqrt(c) per axis, the n-node Gauss-Hermite rule integrates the
envelope times any polynomial of degree below 2n exactly, so node
doubling converges geometrically on nothing wider than the integrand.
A column of integrals runs in lockstep: every unconverged row of a rung
in one integrand call, as far as MAX_CALL_POINTS allows.

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
# the most grid points one integrand call of a lockstep integration
# takes: one row at 64 nodes, the rung where every integration of the
# quadrature-sweep benchmark stops. On a 2-core host its peak RSS was
# 40.0-40.2 MB at this cap, 41.1 at 8,192 points and 42.4-43.0 uncapped,
# none faster; at 1,024 points an operation took 24% longer
MAX_CALL_POINTS = 64 * 64


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
    out of the weights: (n, n) arrays, or (m, n, n) at m scales, the
    nodes as read-only views."""
    t, w = _hermite_rule(n)
    x, wx = np.multiply.outer(scale, t), np.multiply.outer(scale, w)
    shape = x.shape + (n,)
    return (np.broadcast_to(x[..., :, None], shape),
            np.broadcast_to(x[..., None, :], shape),
            wx[..., :, None] * wx[..., None, :])


def integrate_adaptive(f, rate):
    """Integrate f(X, P) over the plane, f being exp(-rate (x^2 + p^2))
    times a smooth factor, doubling Gauss-Hermite nodes until converged.

    f must accept 2D arrays and return the integrand values elementwise.
    Convergence is |I_n - I_{n/2}| < CONV_ABS_TOL (absolute). Raises
    QuadratureError when NODE_LADDER is exhausted.

    At a 1-D array of rates, one per row, the rows run in lockstep: each
    rung calls f(X, P, rows) on the (k, n, n) grids of the unconverged
    rows (indices into rate), in calls of MAX_CALL_POINTS points or one
    row at most, and each row stops at its own rung with its point call's
    value. Returns an array; the error is the first failing row's.
    """
    if np.ndim(rate) == 0:
        return integrate_adaptive(lambda X, P, rows: f(X[0], P[0]),
                                  [rate])[0]
    rate = np.asarray(rate, dtype=float)
    scale = 1 / np.sqrt(np.where(rate > 0, rate, 1.0))
    value = np.full(len(rate), np.nan + 0j)
    delta = np.full(len(rate), np.inf)
    todo, prev = np.flatnonzero(rate > 0), None
    for n in NODE_LADDER:
        step, val = max(1, MAX_CALL_POINTS // (n * n)), [np.empty(0)]
        for rows in (todo[i:i + step] for i in range(0, len(todo), step)):
            X, P, W = tensor_grid(scale[rows], n)
            # each row summed over its flat n x n block, as np.sum sums one
            val.append((W * f(X, P, rows)).reshape(len(rows), -1).sum(-1))
        val = np.concatenate(val)
        if prev is not None:
            delta[todo] = abs(val - prev)
            stop = delta[todo] < CONV_ABS_TOL
            value[todo[stop]] = val[stop]
            todo, val = todo[~stop], val[~stop]
        prev = val
    if np.isnan(value).any():
        row = np.argmax(np.isnan(value))
        raise QuadratureError(
            "integrand has no Gaussian envelope" if not rate[row] > 0 else
            f"no convergence at envelope rate {rate[row]:.3g} after "
            f"{NODE_LADDER[-1]} Gauss-Hermite nodes (last delta "
            f"{delta[row]:.3e})")
    return value
