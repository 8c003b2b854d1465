"""Teleportation fidelities: closed forms, quadrature overlap, Gaussian
alphabet averages, and the classical benchmark.

The closed forms hold at phi = pi, theta = 0 with real cat amplitude, and
fidelity_closed rejects anything else so that callers fall back to the
universal quadrature overlap. Those phases are not always optimal: a
cat can do better at complex gamma and theta != 0. Each family's
closed form is written once, as a FidelityForm: a ratio of quadratic
forms in (cos delta, sin delta) whose input dependence enters through a
few factors. Point values, prior averages and the optimizers all read
it, and the best delta is a 2x2 eigenvalue. The cat's prior average is
exactly its beta = 0 form at _shifted_noise; the Bell-type forms still
average theirs on GH_ORDER Gauss-Hermite nodes. The kernel is numpy
alone, which rounds a number as any element of an array, so a column of
points (inputs with arrays in fields, one value per row) takes one call
and gives each row its point's value, to the bit. The quadrature overlap
takes a column the same way and integrates its rows in lockstep, each
row again its point's value.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (NumericalError, PhaseSpecializationError,
                     QuadratureError)
from .phase_space import (_chi_input_arrays, _exp, _finite, _num,
                          _require, _rows, _shape, _spec_scalars)
from .protocol import _chi_out_arrays, gamma_cov, gaussian_pipeline
from .quadrature import CONV_ABS_TOL, integrate_adaptive

GH_ORDER = 60
# |angle mod 2pi| below this counts as the specialized phase
PHASE_TOL = 1e-12
# relative rounding bound of a closed form's cancelling terms
CANCEL_EPS = 16 * sys.float_info.epsilon


@dataclass(frozen=True)
class AlphabetPrior:
    """Gaussian prior p(beta) = exp(-|beta|^2 / sigma) / (pi sigma); a
    column of priors holds an array of sigma, one per row."""

    sigma: float

    def __post_init__(self):
        _require(*_finite("prior variance", self.sigma),
                 (self.sigma > 0, "sigma must be > 0, got {}", self.sigma))


@dataclass(frozen=True)
class FidelityReport:
    """A fidelity value, the route that gave it, and the amplitude or
    prior variance it was taken at: of a column, arrays of one per row."""

    value: float
    method: str
    beta: complex | None = None
    sigma: float | None = None


@lru_cache(maxsize=1)
def _gh_nodes():
    """Gauss-Hermite nodes with weights normalized to sum exactly 1,
    so averaging a constant is exact."""
    t, w = np.polynomial.hermite.hermgauss(GH_ORDER)
    return t, w / w.sum()


class FidelityForm(NamedTuple):
    """One family's closed-form fidelity as a function of the Bell angle
    delta, at fixed r, gamma, noise, gain and beta (or prior):

        F(delta) = a + (2 b s c + e s^2) / (h + n (c + s)^2),

    with c = cos delta, s = sin delta. The numerator and denominator are
    quadratic forms in (c, s), shifted by the delta = 0 value a (the twin
    beam, except for Buridan's core |01>). The denominator is the cat
    core norm 1 + n sin 2 delta with n = e^{-gamma^2} and h = 1 - n, and
    1 (n = 0, h = 1) for the other families. For the cat, b, e and h
    vanish like gamma^2 and are formed without cancellation, so small
    gamma loses no digits. Fields and delta are numbers or arrays,
    broadcast against each other (points, gains and gamma).
    """

    a: object
    b: object
    e: object
    n: object = 0.0
    h: object = 1.0

    def value(self, delta):
        c, s = np.cos(delta), np.sin(delta)
        den = self.h + self.n * (c + s) ** 2
        val = self.a + (2 * self.b * s * c + self.e * s * s) / den
        # a value below 0 by less than the rounding of terms that cancel
        # (a ~ -2bsc at large r) is a fidelity that rounds to 0
        zero = (val < 0) & (-val <= CANCEL_EPS * (
            abs(self.a) + (abs(2 * self.b * s * c) + abs(self.e * s * s))
            / den))
        return np.where(zero, 0.0, val)

    def top(self):
        """The top generalized eigenvalue lam of the shifted numerator
        and denominator forms: a + lam is the max over delta of F."""
        _, b, e, n, h = self
        w = h * (1 + n)
        x = e / 2 - b * n
        root = np.sqrt((b - n * e / 2) ** 2 + w * e * e / 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(x >= 0, (x + root) / w, b * b / (root - x))
        # gamma = 0: every delta gives the twin beam
        return np.where(w > 0, lam, 0.0)


def _delta_terms(r, gt, e, gam):
    """Delta_phi = (e^{-r}|g~ - e|)^2 + (e^{r}|g~ + e|)^2 + 2(1 + g~^2 +
    2 Gamma) at e = e^{i phi - tau/2} and its terms over Delta_phi,
    summing to 1: at e = -eps, the closed forms' scale Delta (see
    fidelity_closed). e^{r}|g~ + e| is one exponential and squares are
    products, so no term overflows before Delta; where Delta is inf,
    4/Delta = 0 makes every form 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.exp(r + np.log(np.abs(gt + e)))
        lo = np.exp(-r) * np.abs(gt - e)
        d0, d1, z = lo * lo, hi * hi, 2 * (1 + gt * gt + 2 * gam)
        D = d0 + d1 + z
        inf = D == math.inf
        return D, (np.where(inf, 0.0, d0 / D), np.where(inf, 0.0, d1 / D),
                   np.where(inf, 1.0, z / D))


def _bell_factors(gt, D, beta, sigma=None):
    """e^{-4v} times 1, v, v^2 and 2 (x^2 - y^2), x + i y = (g~ - 1)
    beta/sqrt(Delta) and v = x^2 + y^2 = u/Delta, all 0 where e^{-4v} is:
    at amplitudes beta or, given sigma, averaged over an AlphabetPrior of
    variance sigma as products of 1-D Gauss-Hermite sums in Re beta and
    Im beta. Taken over Delta first, v neither overflows where u^2 would
    nor is inf/inf. At beta = 0 they are 1, 0, 0 and 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma is not None:
            t, w = _gh_nodes()
            q = (gt - 1) * (gt - 1) * sigma / D
            # from q = 1e150 every weight e^{-4 q t^2} has underflowed,
            # and q^2 times their sums would be inf * 0; q is NaN
            # (inf/inf) only where Delta is inf and the form 0
            live = q < 1e150
            q = np.where(live, q, 0.0)
            ew = w * np.exp(-4 * q[..., None] * t * t)
            s0 = np.sum(ew, axis=-1)
            s1 = q * np.sum(ew * t * t, axis=-1)
            s2 = q * q * np.sum(ew * t ** 4, axis=-1)
            # x^2 - y^2 has zero mean under the isotropic prior
            return tuple(np.where(live, f, 0.0) for f in (
                s0 * s0, 2 * s1 * s0, 2 * (s2 * s0 + s1 * s1))) + (0.0,)
        scale = (gt - 1) / np.sqrt(D)
        x, y = scale * np.real(beta), scale * np.imag(beta)
        v = x * x + y * y
        e0 = np.exp(-4 * v)
        return tuple(np.where(e0 > 0, f, 0.0) for f in (
            e0, v * e0, v * v * e0, 2 * (x * x - y * y) * e0))


def _bell_form(family, gt, eps, D, terms, factors):
    """Squeezed-Bell (twin beam at delta = 0) or Buridan FidelityForm,
    in the Delta terms over Delta (pm + mm + z = 1) and _bell_factors:
    all O(1) times 4/Delta, so large r neither overflows nor cancels."""
    e0, e1, e2, eb = factors
    pm, mm, z = terms
    k = 4 / D
    if family == "buridan":
        # 2 (g~^2 - e^{-tau}) / Delta = 2 sgn(g~ - eps) sqrt(pm mm), as
        # (g~ + eps)|g~ - eps| = sqrt(d0 d1)
        c2 = 2 * np.copysign(np.sqrt(pm * mm), gt - eps) * (e0 - 4 * e1)
        # a, the |01> core's fidelity, is >= 0, but e0 z and c2 cancel as
        # g~, Gamma and tau go to 0; (a + |a|)/2 = max(a, 0), so rounding
        # below 0 is 0
        a = k * (e0 * z + 4 * (pm + mm) * e1 + c2)
        return FidelityForm((a + abs(a)) / 2,
                            -2 * k * eb * (pm - mm),
                            -2 * k * c2)
    pair = 16 * (pm - mm) ** 2 * (e2 - e1)
    twin = 8 * (pm + mm) * e1 - 2 * e0 * ((pm + mm) * z + 4 * pm * mm)
    return FidelityForm(k * e0, -k * (pm - mm) * (4 * e1 - e0),
                        k * (pair + twin))


def _exp_expm1(lo, ex):
    """e^lo (e^ex - 1) for lo <= 0 and lo + ex <= 0, as
    -e^{lo + ex} expm1(-ex) when ex > 0: no cancellation at small ex
    and no overflow at large ex."""
    return (-np.sign(ex) * np.exp(lo + np.maximum(ex, 0.0))
            * np.expm1(-np.abs(ex)))


def _cat_form(gamma, gt, eps, D, terms, beta):
    """Squeezed-cat FidelityForm for real, signed gamma at amplitudes
    beta, in Delta's terms over Delta, as _bell_form.
    The Gaussian overlap with Bogoliubov coefficients
    k1 = cosh(r) g~ - sinh(r) eps, k2 = cosh(r) eps - sinh(r) g~,
    has the exponents
    U = 2 e^{r}(g~ - eps) gamma/sqrt(Delta) = 2 gamma sgn(g~ - eps) sqrt(mm)
    and V = 2 e^{-r}(g~ + eps) gamma/sqrt(Delta) = 2 gamma sqrt(pm). With
    a + i b = 2 (g~ - 1) beta/sqrt(Delta) and t1 = e^{-a^2 - b^2} the
    twin beam, the cross term is n t1 Re e^{a U + gamma^2 (pm - mm) + i b V}
    and the cat term t1 e^{2 a U - U^2}. No exponent grows with r, and
    where Delta is inf, 4/Delta = 0 times bounded terms is 0.
    Where gamma^2 overflows, the form is the limit: n = 0, h = 1, no
    cross term and a cat term of -t1, or of 0 where mm = 0 (U = 0).
    Where t1 underflows, the cross term, at most sqrt(t1 (t1 + cat)), is
    lost beside cat s^2, and the cat term is its completed square, which
    overflows only to e^{-inf} = 0.
    """
    pm, mm, _ = terms
    with np.errstate(over="ignore", invalid="ignore"):
        limit = gamma * gamma == math.inf
        gamma = np.where(limit, 0.0, gamma)
        U = 2 * np.copysign(np.sqrt(mm), gt - eps) * gamma
        V = 2 * np.sqrt(pm) * gamma
        ex = gamma * gamma * (pm - mm)
        n, h = np.exp(-gamma * gamma), -np.expm1(-gamma * gamma)
        scale = 2 / np.sqrt(D) * (gt - 1)
        a, b = scale * np.real(beta), scale * np.imag(beta)
        lo = -a * a - b * b
        t1 = np.exp(lo)
        ph = b * V
        cross = (_exp_expm1(lo - gamma * gamma, a * U + ex) * np.cos(ph)
                 - 2 * n * t1 * np.sin(ph / 2) ** 2)
        cat = np.where(t1 > 0, _exp_expm1(lo, 2 * a * U - U * U),
                       np.exp(-(a - U) * (a - U) - b * b))
        k = 4 / D
        return FidelityForm(
            k * t1, np.where(limit | (t1 == 0), 0.0, k * cross),
            np.where(limit, np.where(mm > 0, -k * t1, 0.0), k * cat),
            np.where(limit, 0.0, n), np.where(limit, 1.0, h))


def _shifted_noise(gt, gam, sigma):
    """Gamma + (g~ - 1)^2 sigma, the noise at which the beta = 0
    fidelity is the average over an AlphabetPrior of variance sigma. A
    product: a huge gain overflows to inf, a fidelity of 0, where a
    square would raise."""
    with np.errstate(over="ignore"):
        return gam + (gt - 1) * (gt - 1) * sigma


def _fidelity_form(family, r, gamma, gt, gam, tau, beta, sigma=None):
    """The family's FidelityForm at effective gain g~ and noise Gamma, at
    amplitudes beta or, given sigma, averaged over an AlphabetPrior of
    variance sigma: the cat's average is its beta = 0 form at
    _shifted_noise. Every input is a number or an array, broadcast
    against the others; eps = e^{-tau/2}."""
    if family == "squeezed-cat" and sigma is not None:
        gam, beta = _shifted_noise(gt, gam, sigma), 0j
    eps = np.exp(-tau / 2)
    D, terms = _delta_terms(r, gt, -eps, gam)
    if family == "squeezed-cat":
        return _cat_form(gamma, gt, eps, D, terms, beta)
    return _bell_form(family, gt, eps, D, terms,
                      _bell_factors(gt, D, beta, sigma))


def _is_multiple(angle, period):
    return abs(math.remainder(angle, period)) <= PHASE_TOL


def _specialized_params(spec):
    """Validate the phase specialization, once for a spec or a column,
    and return (family, r, delta, signed real gamma) of the spec."""
    if not _is_multiple(spec.phi - math.pi, 2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need phi = pi, got {spec.phi}; use quadrature")
    if spec.family != "twin-beam" and not _is_multiple(spec.theta,
                                                       2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need theta = 0, got {spec.theta}; use quadrature")
    gamma = 0.0
    if spec.family == "squeezed-cat" and np.any(spec.gamma_mod > 0):
        if not _is_multiple(spec.gamma_phase, math.pi):
            raise PhaseSpecializationError(
                f"closed forms need real gamma, got phase "
                f"{spec.gamma_phase}; use quadrature")
        # + 0.0: a gamma_mod of 0 is gamma = +0.0 at any phase
        gamma = np.copysign(spec.gamma_mod, math.cos(spec.gamma_phase)) + 0.0
    return spec.family, spec.r, spec.delta, gamma


def _closed(spec, noise, gain, beta=0j, sigma=None):
    """The closed-form value at a point or of a column (an array) at
    amplitudes beta or, given sigma, averaged over an AlphabetPrior of
    variance sigma; a NumericalError names the first row not finite."""
    _shape(spec, noise, gain, beta, sigma)
    family, r, delta, gamma = _specialized_params(spec)
    value = _fidelity_form(family, r, gamma, gain.effective(noise),
                           gamma_cov(noise, gain), noise.tau, beta,
                           sigma).value(delta)
    _require((np.isfinite(value), f"{family} closed form is {{}} at r = {{}}",
              value, r), error=NumericalError)
    return _num(value)


def fidelity_closed(spec, noise, gain, beta=0j):
    """Closed-form fidelity at the specialized phases, at a point or, with
    any input a column (beta an array), of a column of points in one
    kernel call: a value per row, each its point's own to the bit.

    Internally g~ = g T and, with eps = e^{-tau/2}, the scale
    Delta = (e^{-r}(g~ + eps))^2 + (e^{r}(g~ - eps))^2 + 2(1 + g~^2 + 2 Gamma)
    set the overall 4/Delta prefactor and every exponent.
    """
    return FidelityReport(_closed(spec, noise, gain, beta), "closed",
                          beta=beta if np.ndim(beta) else complex(beta))


def _overlap(beta, spec, noise, gain, sigma=None):
    """(1/2pi) int chi_in(x,p) chi_out(-x,-p) dx dp by adaptive quadrature
    (given sigma, at the noise _shifted_noise: at beta = 0, the average
    over an AlphabetPrior of variance sigma) on the integrand's exact
    Gaussian envelope e^{-c (x^2+p^2)}, c = Delta_phi/8, eps = e^{-tau/2},
    Delta_phi = e^{2r}|g~ + e^{i phi} eps|^2 + e^{-2r}|g~ - e^{i phi} eps|^2
    + 2(1 + g~^2 + 2 Gamma), the closed forms' Delta at phi = pi, from
    _delta_terms with squares taken as products, so c overflows only to
    inf; there the fidelity is 0, as the integrand is bounded and
    vanishes off the origin. A negative value within the quadrature's
    tolerance, CONV_ABS_TOL/(2pi), is a fidelity that rounds to 0; below
    it, QuadratureError. At amplitudes beta, a point or a column: g~,
    Gamma, c, e^{-tau/2} and each row's _spec_scalars are formed once as
    columns, and the rows integrated in one lockstep integrate_adaptive
    call, whose integrand takes the rows it is given by index."""
    shape = _shape(spec, noise, gain, beta, sigma)
    gt, gam = gain.effective(noise), gamma_cov(noise, gain)
    if sigma is not None:  # a point skips it: inf (g~ - 1)^2 times 0 is NaN
        gam = _shifted_noise(gt, gam, sigma)
    D, _ = _delta_terms(spec.r, gt, np.exp(1j * spec.phi - noise.tau / 2),
                        gam)
    m = math.prod(shape)
    rate = np.broadcast_to(D / 8, m)
    live = np.flatnonzero(rate != math.inf)
    specs = _rows(spec, m)
    b, et, g, c = (np.broadcast_to(x, m)[live].reshape(-1, 1, 1) for x in
                   (beta, _exp(-noise.tau / 2), gt, gam))
    scalars = [np.reshape(v, (-1, 1, 1)) for v in zip(
        *(_spec_scalars(specs[row]) for row in live))]

    def integrand(x, p, rows):
        return _chi_input_arrays(b[rows], x, p) * _chi_out_arrays(
            b[rows], spec.family, [v[rows] for v in scalars], et[rows],
            g[rows], c[rows], -x, -p)

    value = np.zeros(m)
    value[live] = (integrate_adaptive(integrand, rate[live])
                   / (2 * math.pi)).real
    _require((~(value < -CONV_ABS_TOL / (2 * math.pi)),
              "overlap fidelity {:.3g} < 0", value), error=QuadratureError)
    return _num(np.reshape(np.where(value < 0, 0.0, value), shape))


def fidelity_quadrature(inp, spec, noise, gain):
    """Overlap fidelity (1/2pi) int chi_in(x,p) chi_out(-x,-p) dx dp by
    adaptive quadrature. Universal: any phases, any family. At a point
    or, as fidelity_closed, of a column (inp.beta may be an array)."""
    return FidelityReport(_overlap(inp.beta, spec, noise, gain),
                          "quadrature", beta=inp.beta)


def average_fidelity(spec, noise, gain, prior):
    """Fidelity averaged over the Gaussian alphabet prior, at a point or,
    as fidelity_closed, of a column of points.

    beta enters the overlap integrand only as a plane wave,
    e^{i sqrt2 (1 - g~)(p Re beta - x Im beta)}, which the prior averages
    to the envelope e^{-(1 - g~)^2 sigma (x^2 + p^2)/2} of the noise
    _shifted_noise. The cat's closed form takes it exactly, at beta = 0;
    the Bell-type forms factorize a Gauss-Hermite rule of order GH_ORDER
    in Re beta and Im beta into 1-D node sums; off the closed phases it
    is one quadrature at beta = 0 and that shifted noise per row, in one
    _overlap call, as fidelity_quadrature.
    """
    try:
        return FidelityReport(_closed(spec, noise, gain, sigma=prior.sigma),
                              "closed", sigma=prior.sigma)
    except PhaseSpecializationError:
        return FidelityReport(_overlap(0j, spec, noise, gain, prior.sigma),
                              "quadrature", sigma=prior.sigma)


def fidelity_gaussian_oracle(inp, r, noise, gain):
    """Fidelity from the covariance-algebra pipeline (twin-beam only)."""
    out = gaussian_pipeline(inp, r, noise, gain)
    return FidelityReport(out.fidelity(inp), "gaussian-oracle",
                          beta=inp.beta)


def classical_benchmark(prior):
    """Best classical fidelity for the Gaussian alphabet:
    (sigma + 1)/(2 sigma + 1), its terms halved so that none overflows."""
    return (0.5 * prior.sigma + 0.5) / (prior.sigma + 0.5)
