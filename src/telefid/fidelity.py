"""Teleportation fidelities: closed forms, quadrature overlap, Gaussian
alphabet averages, and the classical benchmark.

The closed forms hold at phi = pi, theta = 0 with real cat amplitude, and
fidelity_closed rejects anything else so that callers fall back to the
universal quadrature overlap. Those phases are not always optimal: a
cat can do better at complex gamma and theta != 0. Each family's
closed form is written once, as a FidelityForm: a ratio of quadratic
forms in (cos delta, sin delta) whose input dependence enters through a
few scalar factors. Point values, prior averages and the optimizers all
read it, and the best delta is a 2x2 eigenvalue. The cat's prior
average is exactly its beta = 0 form at _shifted_noise; the Bell-type
forms still average theirs on GH_ORDER Gauss-Hermite nodes.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (NumericalError, ParameterError,
                     PhaseSpecializationError, QuadratureError)
from .phase_space import (CoherentInput, ResourceSpec, _chi_input_arrays,
                          _require_finite)
from .protocol import _chi_out_arrays, gamma_cov, gaussian_pipeline
from .quadrature import CONV_ABS_TOL, integrate_adaptive

GH_ORDER = 60
# |angle mod 2pi| below this counts as the specialized phase
PHASE_TOL = 1e-12
LOG_DBL_MAX = math.log(sys.float_info.max)
# relative rounding bound of a closed form's cancelling terms
CANCEL_EPS = 16 * sys.float_info.epsilon


@dataclass(frozen=True)
class AlphabetPrior:
    """Gaussian prior p(beta) = exp(-|beta|^2 / sigma) / (pi sigma)."""

    sigma: float

    def __post_init__(self):
        _require_finite("prior variance", self.sigma)
        if self.sigma <= 0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class FidelityReport:
    """A fidelity value plus the parameter point it belongs to."""

    value: float
    method: str
    spec: object
    noise: object
    gain: object
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
    beam, except for Buridan's core |01>). The denominator is the cat core norm 1 + n sin 2 delta with
    n = e^{-gamma^2} and h = 1 - n, and 1 (n = 0, h = 1) for the other
    families. For the cat, b, e and h vanish like gamma^2 and are formed
    without cancellation, so small gamma loses no digits.

    Fields may be arrays over points, gains and gamma. delta is a
    scalar, or an array against them.
    """

    a: object
    b: object
    e: object
    n: object = 0.0
    h: object = 1.0

    def value(self, delta):
        xp = np if isinstance(delta, np.ndarray) else math
        c, s = xp.cos(delta), xp.sin(delta)
        den = self.h + self.n * (c + s) ** 2
        val = self.a + (2 * self.b * s * c + self.e * s * s) / den
        # a value below 0 by less than the rounding of terms that cancel
        # (a ~ -2bsc at large r) is a fidelity that rounds to 0
        zero = (val < 0) & (-val <= CANCEL_EPS * (
            abs(self.a) + (abs(2 * self.b * s * c) + abs(self.e * s * s))
            / den))
        return (np.where(zero, 0.0, val) if isinstance(val, np.ndarray)
                else 0.0 if zero else val)

    def top(self):
        """(max over delta of F, its argmax in [-pi/2, pi/2]): a plus the
        top generalized eigenvalue of the shifted numerator and
        denominator forms."""
        a, b, e, n, h = self
        w = h * (1 + n)
        x = e / 2 - b * n
        root = np.sqrt((b - n * e / 2) ** 2 + w * e * e / 4)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(x >= 0, (x + root) / w, b * b / (root - x))
        # gamma = 0: every delta gives the twin beam
        lam = np.where(w > 0, lam, 0.0)
        return a + lam, np.arctan2(b - lam * n, -e / 2) / 2


def _math(f, x):
    """math's f at a number, or at each element of an array: numpy's
    exp and log round differently from math's in the last bit, so column
    paths take math's, to keep each row the scalar path's."""
    if isinstance(x, np.ndarray):
        return np.reshape(np.fromiter(map(f, x.ravel().tolist()), float,
                                      x.size), x.shape)
    return f(x)


def _delta_parts(r, gt, e, gam):
    """e^{r}|g~ + e|, e^{-r}|g~ - e| and 2(1 + g~^2 + 2 Gamma), whose
    squares and last term sum to Delta_phi at e = e^{i phi - tau/2}:
    Delta at phi = pi. e may be real or complex. e^{r}|g~ + e| is one
    exponential, so it overflows only where its square would."""
    s = abs(gt + e)
    log_hi = r + math.log(s) if s else -math.inf
    hi = math.exp(log_hi) if log_hi < LOG_DBL_MAX else math.inf
    return hi, math.exp(-r) * abs(gt - e), 2 * (1 + gt * gt + 2 * gam)


def _delta_terms(r, gt, tau, gam):
    """Delta, the scale of all closed forms (see fidelity_closed), and
    its terms over Delta, summing to 1. e^{r} |g~ - eps| is one
    exponential and squares are products, so no term overflows before
    Delta; where Delta is inf, 4/Delta = 0 makes every form 0. A column
    of g~ gives columns, against numbers or columns of r, tau and Gamma
    (rows first), each row bit-identical to the scalar path: its log
    and exp are math's, taken over the elements."""
    if isinstance(gt, np.ndarray):
        e = -_math(math.exp, -tau / 2)
        # e^{r}|g~ + e| as _delta_parts forms it
        s = np.abs(gt + e)
        log_hi = np.where(s != 0, r + _math(math.log, np.where(s != 0, s, 1)),
                          -math.inf)
        fin = log_hi < LOG_DBL_MAX
        hi = np.where(fin, _math(math.exp, np.where(fin, log_hi, 0.0)),
                      math.inf)
        lo = _math(math.exp, -r) * np.abs(gt - e)
        with np.errstate(over="ignore", invalid="ignore"):
            d0, d1, z = lo * lo, hi * hi, 2 * (1 + gt * gt + 2 * gam)
            D = d0 + d1 + z
            inf = D == math.inf
            return D, (np.where(inf, 0.0, d0 / D), np.where(inf, 0.0, d1 / D),
                       np.where(inf, 1.0, z / D))
    hi, lo, z = _delta_parts(r, gt, -math.exp(-tau / 2), gam)
    d0, d1 = lo * lo, hi * hi
    D = d0 + d1 + z
    if D == math.inf:
        return D, (0.0, 0.0, 1.0)
    return D, (d0 / D, d1 / D, z / D)


def _bell_factors(gt, D, at):
    """e^{-4v} times 1, v, v^2 and 2 (x^2 - y^2), x + i y = (g~ - 1)
    beta/sqrt(Delta) and v = x^2 + y^2 = u/Delta, all 0 where e^{-4v} is:
    at one beta, or averaged over an AlphabetPrior as products of 1-D
    Gauss-Hermite sums in Re beta and Im beta. Taken over Delta first, v
    neither overflows where u^2 would nor is inf/inf. At beta = 0 they
    are 1, 0, 0 and 0, also for a column of Delta."""
    if isinstance(at, AlphabetPrior):
        t, w = _gh_nodes()
        q = (gt - 1) * (gt - 1) * at.sigma / D
        if not q < 1e150:
            # every weight e^{-4 q t^2} has underflowed, and q^2 times
            # their sums would be inf * 0; q is NaN (inf/inf) only where
            # Delta is inf and the form 0
            return 0.0, 0.0, 0.0, 0.0
        ew = w * np.exp(-4 * q * t * t)
        s0 = float(np.sum(ew))
        s1 = q * float(np.sum(ew * t * t))
        s2 = q * q * float(np.sum(ew * t ** 4))
        # x^2 - y^2 has zero mean under the isotropic prior
        return s0 * s0, 2 * s1 * s0, 2 * (s2 * s0 + s1 * s1), 0.0
    if not at:
        return 1.0, 0.0, 0.0, 0.0
    scale = (gt - 1) / math.sqrt(D)
    x, y = scale * at.real, scale * at.imag
    v = x * x + y * y
    e0 = math.exp(-4 * v)
    if not e0:
        return 0.0, 0.0, 0.0, 0.0
    return e0, v * e0, v * v * e0, 2 * (x * x - y * y) * e0


def _bell_form(family, gt, tau, D, terms, factors):
    """Squeezed-Bell (twin beam at delta = 0) or Buridan FidelityForm,
    in the Delta terms over Delta (pm + mm + z = 1) and _bell_factors:
    all O(1) times 4/Delta, so large r neither overflows nor cancels.
    g~, tau and the terms may be columns."""
    e0, e1, e2, eb = factors
    pm, mm, z = terms
    k = 4 / D
    if family == "buridan":
        # 2 (g~^2 - e^{-tau}) / Delta = 2 sgn(g~ - eps) sqrt(pm mm), as
        # (g~ + eps)|g~ - eps| = sqrt(d0 d1)
        xp = np if isinstance(pm, np.ndarray) else math
        c2 = (2 * xp.copysign(xp.sqrt(pm * mm),
                                  gt - _math(math.exp, -tau / 2))
              * (e0 - 4 * e1))
        # a, the |01> core's fidelity, is >= 0, but e0 z and c2 cancel as
        # g~, Gamma and tau go to 0; (a + |a|)/2 is max(a, 0) on scalars
        # and arrays alike, so rounding below 0 is 0
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
    if isinstance(ex, np.ndarray):
        return (-np.sign(ex) * np.exp(lo + np.maximum(ex, 0.0))
                * np.expm1(-np.abs(ex)))
    if ex > 0:
        return -math.exp(lo + ex) * math.expm1(-ex)
    return math.exp(lo) * math.expm1(ex)


def _cat_form(gamma, gt, tau, D, terms, beta):
    """Squeezed-cat FidelityForm for real, signed gamma (scalar or
    array) at one amplitude beta, in Delta's terms over Delta, as
    _bell_form; g~, tau and Delta's terms may be columns against gamma.
    The Gaussian overlap with Bogoliubov coefficients
    k1 = cosh(r) g~ - sinh(r) eps, k2 = cosh(r) eps - sinh(r) g~,
    eps = e^{-tau/2}, has the exponents
    U = 2 e^{r}(g~ - eps) gamma/sqrt(Delta) = 2 gamma sgn(g~ - eps) sqrt(mm)
    and V = 2 e^{-r}(g~ + eps) gamma/sqrt(Delta) = 2 gamma sqrt(pm). With
    a + i b = 2 (g~ - 1) beta/sqrt(Delta) and t1 = e^{-a^2 - b^2} the
    twin beam, the cross term is n t1 Re e^{a U + gamma^2 (pm - mm) + i b V}
    and the cat term t1 e^{2 a U - U^2}. No exponent grows with r, and
    where Delta is inf, 4/Delta = 0 times bounded terms is 0.
    Where gamma^2 overflows, the form is the limit: n = 0, h = 1, no
    cross term and a cat term of -t1, or of 0 where mm = 0 (U = 0).
    """
    pm, mm, _ = terms
    if not isinstance(gamma, np.ndarray) and gamma * gamma == math.inf:
        t1 = _cat_form(0.0, gt, tau, D, terms, beta).a
        return FidelityForm(t1, 0.0, -t1 if mm else 0.0)
    xp = np if np.ndarray in (type(gamma), type(D)) else math
    U = 2 * xp.copysign(xp.sqrt(mm), gt - _math(math.exp, -tau / 2)) * gamma
    V = 2 * xp.sqrt(pm) * gamma
    ex = gamma * gamma * (pm - mm)
    n, h = xp.exp(-gamma * gamma), -xp.expm1(-gamma * gamma)
    scale = 2 / xp.sqrt(D) * (gt - 1)
    a, b = scale * beta.real, scale * beta.imag
    lo = -a * a - b * b
    t1 = xp.exp(lo)
    # a column of t1 comes from the beta = 0 search, where it is 1
    if isinstance(t1, np.ndarray) or t1:
        ph = b * V
        cross = (_exp_expm1(lo - gamma * gamma, a * U + ex) * xp.cos(ph)
                 - 2 * n * t1 * xp.sin(ph / 2) ** 2)
        cat = _exp_expm1(lo, 2 * a * U - U * U)
    else:
        # the cross term, at most sqrt(t1 (t1 + cat)), is lost beside
        # cat s^2; the completed square overflows only to e^{-inf} = 0
        cross, cat = 0.0, math.exp(-(a - U) * (a - U) - b * b)
    k = 4 / D
    return FidelityForm(k * t1, k * cross, k * cat, n, h)


def _shifted_noise(gt, gam, sigma):
    """Gamma + (g~ - 1)^2 sigma, the noise at which the beta = 0
    fidelity is the average over an AlphabetPrior of variance sigma. A
    product: a huge gain overflows to inf, a fidelity of 0, where a
    square would raise."""
    return gam + (gt - 1) * (gt - 1) * sigma


def _fidelity_form(family, r, gamma, gt, gam, tau, at):
    """The family's FidelityForm at effective gain g~ and noise Gamma, at
    one amplitude beta or averaged over an AlphabetPrior: the cat's
    average is its beta = 0 form at _shifted_noise. At beta = 0, r, g~,
    Gamma and tau may be arrays, with a row per point first."""
    if family == "squeezed-cat":
        if isinstance(at, AlphabetPrior):
            gam, at = _shifted_noise(gt, gam, at.sigma), 0j
        return _cat_form(gamma, gt, tau, *_delta_terms(r, gt, tau, gam), at)
    D, terms = _delta_terms(r, gt, tau, gam)
    return _bell_form(family, gt, tau, D, terms, _bell_factors(gt, D, at))


def _is_multiple(angle, period):
    return abs(math.remainder(angle, period)) <= PHASE_TOL


def _specialized_params(spec):
    """Validate the phase specialization and return (family, r, delta,
    signed real gamma) of the spec."""
    if not _is_multiple(spec.phi - math.pi, 2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need phi = pi, got {spec.phi}; use quadrature")
    if spec.family != "twin-beam" and not _is_multiple(spec.theta,
                                                       2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need theta = 0, got {spec.theta}; use quadrature")
    gamma = 0.0
    if spec.family == "squeezed-cat" and spec.gamma_mod > 0:
        if not _is_multiple(spec.gamma_phase, math.pi):
            raise PhaseSpecializationError(
                f"closed forms need real gamma, got phase "
                f"{spec.gamma_phase}; use quadrature")
        gamma = math.copysign(spec.gamma_mod, math.cos(spec.gamma_phase))
    return spec.family, spec.r, spec.delta, gamma


def _closed_value(spec, noise, gain, at):
    """Closed-form fidelity at one amplitude beta or averaged over an
    AlphabetPrior."""
    family, r, delta, gamma = _specialized_params(spec)
    form = _fidelity_form(family, r, gamma, gain.effective(noise),
                          gamma_cov(noise, gain), noise.tau, at)
    val = float(form.value(delta))
    if not math.isfinite(val):
        raise NumericalError(f"{family} closed form is {val} at r = {r}")
    return val


def fidelity_closed(spec, noise, gain, beta=0j):
    """Closed-form fidelity at the specialized phases.

    Internally g~ = g T and, with eps = e^{-tau/2}, the scale
    Delta = (e^{-r}(g~ + eps))^2 + (e^{r}(g~ - eps))^2 + 2(1 + g~^2 + 2 Gamma)
    set the overall 4/Delta prefactor and every exponent.
    """
    beta = complex(beta)
    return FidelityReport(_closed_value(spec, noise, gain, beta), "closed",
                          spec, noise, gain, beta=beta)


def _overlap(inp, spec, noise, gain, spread=0.0):
    """(1/2pi) int chi_in(x,p) chi_out(-x,-p) e^{-spread (x^2+p^2)} dx dp
    by adaptive quadrature on the integrand's exact Gaussian envelope
    e^{-c (x^2+p^2)}, c = Delta_phi/8 + spread, with eps = e^{-tau/2} and
    Delta_phi = e^{2r}|g~ + e^{i phi} eps|^2 + e^{-2r}|g~ - e^{i phi} eps|^2
    + 2(1 + g~^2 + 2 Gamma), the closed forms' Delta at phi = pi, from
    _delta_parts with squares taken as products, so c overflows only to
    inf; there the fidelity is 0, as the integrand is bounded and
    vanishes off the origin. A negative value within the quadrature's
    tolerance, CONV_ABS_TOL/(2pi), is a fidelity that rounds to 0; below
    it, QuadratureError."""
    def integrand(x, p):
        val = (_chi_input_arrays(inp.beta, x, p)
               * _chi_out_arrays(inp, spec, noise, gain, -x, -p))
        return val * np.exp(-spread * (x * x + p * p)) if spread else val

    hi, lo, z = _delta_parts(spec.r, gain.effective(noise),
                             cmath.exp(1j * spec.phi - noise.tau / 2),
                             gamma_cov(noise, gain))
    rate = (hi * hi + lo * lo + z) / 8 + spread
    if rate == math.inf:
        return 0.0
    val = float((integrate_adaptive(integrand, rate) / (2 * math.pi)).real)
    if val < -CONV_ABS_TOL / (2 * math.pi):
        raise QuadratureError(f"overlap fidelity {val:.3g} < 0")
    return max(val, 0.0)


def fidelity_quadrature(inp, spec, noise, gain):
    """Overlap fidelity (1/2pi) int chi_in(x,p) chi_out(-x,-p) dx dp by
    adaptive quadrature. Universal: any phases, any family."""
    return FidelityReport(_overlap(inp, spec, noise, gain),
                          "quadrature", spec, noise, gain, beta=inp.beta)


def average_fidelity(spec, noise, gain, prior):
    """Fidelity averaged over the Gaussian alphabet prior.

    beta enters the overlap integrand only as a plane wave,
    e^{i sqrt2 (1 - g~)(p Re beta - x Im beta)}, which the prior averages
    to the envelope e^{-(1 - g~)^2 sigma (x^2 + p^2)/2} of the noise
    _shifted_noise. The cat's closed form takes it exactly, at beta = 0;
    the Bell-type forms factorize a Gauss-Hermite rule of order GH_ORDER
    in Re beta and Im beta into 1-D node sums; off the closed phases it
    is one quadrature.
    """
    try:
        val = _closed_value(spec, noise, gain, prior)
        method = "closed"
    except PhaseSpecializationError:
        gap = 1 - gain.effective(noise)
        spread = gap * gap * prior.sigma / 2
        val = _overlap(CoherentInput(0j), spec, noise, gain, spread)
        method = "quadrature"
    return FidelityReport(val, method, spec, noise, gain, sigma=prior.sigma)


def fidelity_gaussian_oracle(inp, r, noise, gain):
    """Fidelity from the covariance-algebra pipeline (twin-beam only)."""
    out = gaussian_pipeline(inp, r, noise, gain)
    spec = ResourceSpec.twin_beam(r)
    return FidelityReport(out.fidelity(inp), "gaussian-oracle", spec, noise,
                          gain, beta=inp.beta)


def classical_benchmark(prior):
    """Best classical fidelity for the Gaussian alphabet:
    (sigma + 1)/(2 sigma + 1)."""
    return (prior.sigma + 1.0) / (2.0 * prior.sigma + 1.0)
