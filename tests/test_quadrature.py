"""Adaptive tensor Gauss-Hermite integration on the Gaussian envelope."""

import math
import warnings

import numpy as np
import pytest

from telefid import QuadratureError
from telefid.quadrature import (MAX_CALL_POINTS, NODE_LADDER, _hermite_rule,
                                box_halfwidth, integrate_adaptive,
                                tensor_grid)


def test_box_halfwidth_scaling():
    assert box_halfwidth(1.0) == pytest.approx(12.0)
    assert box_halfwidth(4.0) == pytest.approx(6.0)
    with pytest.raises(QuadratureError):
        box_halfwidth(0.0)
    with pytest.raises(QuadratureError):
        box_halfwidth(-1.0)


@pytest.mark.parametrize("n", NODE_LADDER)
def test_tensor_grid_is_exact_below_degree_2n(n):
    """Each rung integrates e^{-c (x^2 + p^2)} x^{2a} p^{2b} exactly up
    to total degree 2n - 2, against Gamma(a + 1/2) Gamma(b + 1/2)
    / c^{a + b + 1}; the terms are summed from logarithms, as the
    moments overflow a float at 1024 nodes. Odd moments vanish by the
    rule's symmetry."""
    c = 0.7
    x, p, w = tensor_grid(1 / math.sqrt(c), n)
    assert x.shape == p.shape == w.shape == (n, n)
    for a, b in [(0, 0), (1, 0), (n - 1, 0), (n // 2, n // 2 - 1),
                 (3, n - 4)]:
        exact = sum(math.lgamma(k + 0.5) - (k + 0.5) * math.log(c)
                    for k in (a, b))
        terms = np.exp(np.log(w) - c * (x * x + p * p)
                       + 2 * a * np.log(np.abs(x))
                       + 2 * b * np.log(np.abs(p)) - exact)
        assert float(np.sum(terms)) == pytest.approx(1.0, rel=1e-11)
    odd = np.sum(w * np.exp(-c * (x * x + p * p)) * x ** 3 * p)
    assert abs(float(odd)) < 1e-14


def test_hermite_weights_are_finite_positive_and_match_hermgauss():
    """w e^{t^2} is finite and positive on every rung, built without a
    RuntimeWarning (hermgauss's w underflows past about 256 nodes),
    and equals hermgauss's where that is representable."""
    for n in NODE_LADDER:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, w = _hermite_rule.__wrapped__(n)
        assert t.shape == w.shape == (n,)
        assert np.all(np.isfinite(w)) and np.all(w > 0)
        if n <= 128:
            t_ref, w_ref = np.polynomial.hermite.hermgauss(n)
            np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-13)
            np.testing.assert_allclose(w, w_ref * np.exp(t_ref * t_ref),
                                       rtol=1e-13)


def test_gaussian_integral():
    val = integrate_adaptive(lambda x, p: np.exp(-(x * x + p * p) / 2), 0.5)
    assert complex(val).real == pytest.approx(2 * math.pi, abs=1e-12)


def test_oscillatory_gaussian():
    # displaced Gaussian, exact value 2 pi e^{-1/2}
    val = integrate_adaptive(
        lambda x, p: np.exp(-(x * x + p * p) / 2 + 1j * x), 0.5)
    assert complex(val) == pytest.approx(2 * math.pi * math.exp(-0.5),
                                         abs=1e-12)


def test_nonconvergent_raises():
    # envelope too flat: the node ladder cannot resolve the oscillation
    with pytest.raises(QuadratureError):
        integrate_adaptive(
            lambda x, p: np.exp(-1e-6 * (x * x + p * p))
            * np.cos(40.0 * x * p), 1e-6)


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
def test_no_envelope_raises(rate):
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda x, p: np.ones_like(x), rate)


def _rows_integrand(freqs, shapes):
    """Row k of a lockstep call is e^{-(x^2 + p^2)/2 + i freqs[k] x p}:
    the higher the frequency, the later its rung. shapes records the
    grid shape of each call."""
    freqs = np.asarray(freqs, dtype=float)

    def f(x, p, rows):
        shapes.append(x.shape)
        return np.exp(-(x * x + p * p) / 2
                      + 1j * freqs[rows][:, None, None] * x * p)
    return f


def _point(freq, rate):
    return integrate_adaptive(
        lambda x, p: np.exp(-(x * x + p * p) / 2 + 1j * freq * x * p), rate)


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def test_lockstep_rows_are_their_point_calls():
    """Rows that stop on different rungs, 20 of them at 16 nodes: each
    row is its point call's value to the bit, no call takes more than
    MAX_CALL_POINTS points unless it is one row, and the 16-node rung
    takes two calls."""
    # rows stop at 32, 32, 128 and 256 nodes
    freqs = np.tile([0.0, 0.5, 1.5, 3.0], 5)
    rates = np.full(20, 0.5)
    shapes = []
    got = integrate_adaptive(_rows_integrand(freqs, shapes), rates)
    assert got.shape == (20,)
    for k in range(20):
        assert _hex(got[k]) == _hex(_point(freqs[k], rates[k]))
    assert all(k * n * n <= MAX_CALL_POINTS or k == 1
               for k, n, _ in shapes)
    rungs = [n for _, n, _ in shapes]
    assert rungs.count(16) == 2 and len(set(rungs)) > 3


@pytest.mark.parametrize("bad, first", [
    ([0.5, float("nan"), 1e-6], "no Gaussian envelope"),
    ([0.5, 1e-6, float("nan")], "no convergence"),
])
def test_lockstep_error_is_the_first_failing_row(bad, first):
    """A NaN rate has no envelope, and the oscillation on a flat one does
    not converge while the 0.5 row does: the error raised is that of
    the first failing row, in order."""
    rates = np.array(bad)

    def f(x, p, rows):
        c = rates[rows][:, None, None]
        return np.exp(-c * (x * x + p * p)) * np.cos(40.0 * x * p * (c < 0.1))
    with pytest.raises(QuadratureError, match=first):
        integrate_adaptive(f, rates)
