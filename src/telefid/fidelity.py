"""Teleportation fidelities: closed forms, quadrature overlap, Gaussian
alphabet averages, and the classical benchmark.

The closed forms hold at the protocol-optimal phases phi = pi, theta = 0
with real cat amplitude; fidelity_closed rejects anything else so that
callers fall back to the universal quadrature overlap. Each family's
closed form is written once, as a FidelityForm: a ratio of quadratic
forms in (cos delta, sin delta) whose input dependence enters through a
few scalar factors, taken at one beta or averaged over the prior. Point
values, prior averages and the optimizers all read it, and the best
delta is a 2x2 eigenvalue.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (NumericalError, ParameterError,
                     PhaseSpecializationError)
from .phase_space import (CoherentInput, ResourceSpec, _chi_input_arrays,
                          _require_finite)
from .protocol import _chi_out_arrays, gamma_cov, gaussian_pipeline
from .quadrature import box_halfwidth, integrate_adaptive

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

    Fields may be arrays over gamma; delta is a scalar.
    """

    a: object
    b: object
    e: object
    n: object = 0.0
    h: object = 1.0

    def value(self, delta):
        c, s = math.cos(delta), math.sin(delta)
        den = self.h + self.n * (c + s) ** 2
        val = self.a + (2 * self.b * s * c + self.e * s * s) / den
        # a value below 0 by less than the rounding of terms that cancel
        # (a ~ -2bsc at large r) is a fidelity that rounds to 0
        if val < 0 and -val <= CANCEL_EPS * (
                abs(self.a) + (abs(2 * self.b * s * c)
                               + abs(self.e * s * s)) / den):
            return 0.0
        return val

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


def _delta_terms(r, gt, tau, gam):
    """Delta, the scale of all closed forms (see fidelity_closed), and
    its three terms over Delta, which sum to 1. Past r ~ 354 Delta
    overflows; the terms over Delta then come from their logarithms and
    Delta is inf, so 4/Delta underflows to 0 as the fidelity does."""
    ep = math.exp(tau / 2)
    lo, hi = (1 + ep * gt) ** 2, (1 - ep * gt) ** 2
    z = 2 * (1 + gt * gt + 2 * gam)
    if 2 * r - tau < LOG_DBL_MAX:
        d0, d1 = math.exp(-2 * r - tau) * lo, math.exp(2 * r - tau) * hi
        D = d0 + d1 + z
        if D < math.inf:
            return D, (d0 / D, d1 / D, z / D)
    logs = (-2 * r - tau + math.log(lo),
            2 * r - tau + math.log(hi) if hi else -math.inf, math.log(z))
    top = max(logs)
    scaled = [math.exp(x - top) for x in logs]
    log_d = top + math.log(sum(scaled))
    D = math.exp(log_d) if log_d < LOG_DBL_MAX else math.inf
    return D, [x / sum(scaled) for x in scaled]


def _bell_factors(gt, D, at):
    """e^{-4u/D} times 1, u, u^2 and 2 Re beta^2, u = (g~ - 1)^2 |beta|^2:
    at one amplitude beta, or averaged over an AlphabetPrior as products
    of 1-D Gauss-Hermite sums in Re beta and Im beta."""
    if isinstance(at, AlphabetPrior):
        t, w = _gh_nodes()
        q = (gt - 1) ** 2 * at.sigma
        ew = w * np.exp(-4 * q / D * t * t)
        s0 = float(np.sum(ew))
        s1 = q * float(np.sum(ew * t * t))
        s2 = q * q * float(np.sum(ew * t ** 4))
        # Re beta^2 = x^2 - y^2 has zero mean under the isotropic prior
        return s0 * s0, 2 * s1 * s0, 2 * (s2 * s0 + s1 * s1), 0.0
    u = (gt - 1) ** 2 * abs(at) ** 2
    e0 = math.exp(-4 * u / D)
    return e0, u * e0, u * u * e0, 2 * (at * at).real * e0


def _bell_form(family, gt, tau, D, terms, factors):
    """Squeezed-Bell (twin beam at delta = 0) or Buridan FidelityForm,
    in the Delta terms over Delta (pm + mm + z = 1), e1/D and e2/D^2: all
    O(1) times 4/Delta, so large r neither overflows nor cancels."""
    e0, e1, e2, eb = factors
    pm, mm, z = terms
    k = 4 / D
    if family == "buridan":
        c2 = 2 * (gt * gt - math.exp(-tau)) * (e0 - 4 * e1 / D) / D
        return FidelityForm(k * (e0 * z + 4 * (pm + mm) * e1 / D + c2),
                            -2 * k * (gt - 1) ** 2 * eb * (pm - mm) / D,
                            -2 * k * c2)
    pair = 16 * (pm - mm) ** 2 * (e2 / D - e1) / D
    twin = 8 * (pm + mm) * e1 / D - 2 * e0 * ((pm + mm) * z + 4 * pm * mm)
    return FidelityForm(k * e0, -k * (pm - mm) * (4 * e1 / D - e0),
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


def _cat_form(r, gamma, gt, tau, D, at):
    """Squeezed-cat FidelityForm for real, signed gamma (scalar or
    array).

    The exponents carry u = e^{r}(g~ - e^{-tau/2}) gamma and
    v = e^{-r}(g~ + e^{-tau/2}) gamma; they follow from the Gaussian
    overlap integral with Bogoliubov coefficients
    k1 = cosh(r) g~ - sinh(r) e^{-tau/2} and
    k2 = cosh(r) e^{-tau/2} - sinh(r) g~. With x + i y = (g~ - 1) beta
    and t1 = e^{-4 (x^2 + y^2)/D} the twin-beam term, the cross term is
    n t1 Re e^{(4 x u - u^2 + v^2 + 4 i y v)/D} and the cat term
    t1 e^{-4 u (u - 2 x)/D}; the prior average takes x and y on the
    Gauss-Hermite nodes, where both factorize.

    Where Delta overflows, the form is 0, as the fidelity underflows.
    Where gamma^2 overflows, it is the limit: n = 0, h = 1, no cross term
    and a cat term of -t1, or of 0 where u vanishes at g~ = e^{-tau/2}.
    """
    if D == math.inf:
        return FidelityForm(0.0, 0.0 * gamma, 0.0 * gamma)
    eps = math.exp(-tau / 2)
    if not isinstance(gamma, np.ndarray) and gamma * gamma == math.inf:
        t1 = _cat_form(r, 0.0, gt, tau, D, at).a
        return FidelityForm(t1, 0.0, -t1 if gt != eps else 0.0)
    prior = isinstance(at, AlphabetPrior)
    xp = np if prior or isinstance(gamma, np.ndarray) else math
    if xp is np:
        gamma = np.asarray(gamma, dtype=float)
    # u = 0 at g~ = e^{-tau/2}, where Delta stays finite past e^r's range
    u = (math.exp(r) * (gt - eps) if gt != eps else 0.0) * gamma
    v = math.exp(-r) * (gt + eps) * gamma
    n, h = xp.exp(-gamma * gamma), -xp.expm1(-gamma * gamma)
    if prior:
        t, w = _gh_nodes()
        x = math.sqrt(at.sigma) * (gt - 1) * t
        s0 = float(w @ np.exp(-4 * x * x / D))
        # nodes along the first axis, gamma along the rest
        x = x.reshape((-1,) + (1,) * gamma.ndim)
        lo = -4 * x * x / D
        t1 = s0 * s0
        # u^2 or v^2 past the double range makes a term 0 or NaN, as
        # Python floats do on the point path; a NaN exits as a fault
        with np.errstate(over="ignore", invalid="ignore"):
            xu = 4 * x * u / D
            # the cross term's x and y sums are s0 + re / n and s0 - im
            re = w @ _exp_expm1(lo - gamma * gamma,
                                xu + (v * v - u * u) / D)
            im = w @ (np.exp(lo) * 2 * np.sin(2 * x * v / D) ** 2)
            cross = s0 * (re - n * im) - re * im
            cat = s0 * (w @ _exp_expm1(lo, 2 * xu - 4 * u * u / D))
    else:
        x, y = (gt - 1) * at.real, (gt - 1) * at.imag
        lo = -4 * (x * x + y * y) / D
        xu = 4 * x * u / D
        t1 = math.exp(lo)
        ph = 4 * y * v / D
        cross = (_exp_expm1(lo - gamma * gamma, xu + (v * v - u * u) / D)
                 * xp.cos(ph) - 2 * n * t1 * xp.sin(ph / 2) ** 2)
        cat = _exp_expm1(lo, 2 * xu - 4 * u * u / D)
    k = 4 / D
    return FidelityForm(k * t1, k * cross, k * cat, n, h)


def _fidelity_form(family, r, gamma, gt, gam, tau, at):
    """The family's FidelityForm at effective gain g~ and noise Gamma, at
    one amplitude beta or averaged over an AlphabetPrior."""
    try:
        D, terms = _delta_terms(r, gt, tau, gam)
        if family == "squeezed-cat":
            return _cat_form(r, gamma, gt, tau, D, at)
        return _bell_form(family, gt, tau, D, terms, _bell_factors(gt, D, at))
    except OverflowError as exc:
        raise NumericalError(
            f"{family} closed form overflows at r = {r}") from exc


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

    Internally g~ = g T and the scale
    Delta = e^{-2r-tau}(1 + e^{tau/2} g~)^2
          + e^{2r-tau}(1 - e^{tau/2} g~)^2 + 2(1 + g~^2 + 2 Gamma)
    set the overall 4/Delta prefactor and every exponent.
    """
    beta = complex(beta)
    return FidelityReport(_closed_value(spec, noise, gain, beta), "closed",
                          spec, noise, gain, beta=beta)


def _overlap(inp, spec, noise, gain, spread=0.0):
    """(1/2pi) int chi_in(x,p) chi_out(-x,-p) e^{-spread (x^2+p^2)} dx dp
    by adaptive quadrature."""
    def integrand(x, p):
        val = (_chi_input_arrays(inp.beta, x, p)
               * _chi_out_arrays(inp, spec, noise, gain, -x, -p))
        return val * np.exp(-spread * (x * x + p * p)) if spread else val

    L = box_halfwidth(0.25 + gamma_cov(noise, gain) / 2
                      + gain.effective(noise) ** 2 / 4 + spread)
    return float((integrate_adaptive(integrand, L) / (2 * math.pi)).real)


def fidelity_quadrature(inp, spec, noise, gain):
    """Overlap fidelity (1/2pi) int chi_in(x,p) chi_out(-x,-p) dx dp by
    adaptive quadrature. Universal: any phases, any family."""
    return FidelityReport(_overlap(inp, spec, noise, gain),
                          "quadrature", spec, noise, gain, beta=inp.beta)


def average_fidelity(spec, noise, gain, prior):
    """Fidelity averaged over the Gaussian alphabet prior.

    On the closed path the closed forms factorize a Gauss-Hermite rule
    of order GH_ORDER in Re beta and Im beta into 1-D node sums.
    Otherwise beta enters the overlap integrand only as a plane wave,
    e^{i sqrt2 (1 - g~)(p Re beta - x Im beta)}, which the prior averages
    to the envelope e^{-(1 - g~)^2 sigma (x^2 + p^2)/2}: one quadrature.
    """
    try:
        val = _closed_value(spec, noise, gain, prior)
        method = "closed"
    except PhaseSpecializationError:
        spread = (1 - gain.effective(noise)) ** 2 * prior.sigma / 2
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
