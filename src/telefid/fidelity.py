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
        return self.a + ((2 * self.b * s * c + self.e * s * s)
                         / (self.h + self.n * (c + s) ** 2))

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


def _delta_scale(r, gt, tau, gam):
    """The common denominator scale Delta of all closed forms."""
    ep = math.exp(tau / 2)
    return (math.exp(-2 * r - tau) * (1 + ep * gt) ** 2
            + math.exp(2 * r - tau) * (1 - ep * gt) ** 2
            + 2 * (1 + gt * gt + 2 * gam))


def _ab_plus_minus(r, gt, tau):
    ep = math.exp(tau / 2)
    lo = (1 + ep * gt) ** 2
    hi = math.exp(4 * r) * (1 - ep * gt) ** 2
    return lo + hi, lo - hi


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


def _bell_form(family, r, gt, tau, D, factors):
    """Squeezed-Bell (twin beam at delta = 0) or Buridan FidelityForm."""
    e0, e1, e2, eb = factors
    ap, am = _ab_plus_minus(r, gt, tau)
    k = 4 / D
    kb = math.exp(-2 * r - tau) / D ** 2
    if family == "buridan":
        base = e0 + kb * ap * (4 * e1 - D * e0)
        c2 = (2 * kb * math.exp(2 * r) * (math.exp(tau) * gt * gt - 1)
              * (D * e0 - 4 * e1))
        return FidelityForm(k * (base + c2),
                            -2 * k * kb * (gt - 1) ** 2 * eb * am,
                            -2 * k * c2)
    cross = 2 * kb * (4 * e1 - D * e0)
    pair = (2 * math.exp(-4 * r - 2 * tau) / D ** 4 * am ** 2
            * (D * D * e0 - 8 * D * e1 + 8 * e2))
    return FidelityForm(k * e0, -k * cross * am / 2, k * (pair + cross * ap))


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
    """
    prior = isinstance(at, AlphabetPrior)
    xp = np if prior or isinstance(gamma, np.ndarray) else math
    if xp is np:
        gamma = np.asarray(gamma, dtype=float)
    eps = math.exp(-tau / 2)
    u = math.exp(r) * (gt - eps) * gamma
    v = math.exp(-r) * (gt + eps) * gamma
    n, h = xp.exp(-gamma * gamma), -xp.expm1(-gamma * gamma)
    if prior:
        t, w = _gh_nodes()
        x = math.sqrt(at.sigma) * (gt - 1) * t
        s0 = float(w @ np.exp(-4 * x * x / D))
        # nodes along the first axis, gamma along the rest
        x = x.reshape((-1,) + (1,) * gamma.ndim)
        lo = -4 * x * x / D
        xu = 4 * x * u / D
        t1 = s0 * s0
        # the cross term's x and y sums are s0 + re / n and s0 - im
        re = w @ _exp_expm1(lo - gamma * gamma, xu + (v * v - u * u) / D)
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
        D = _delta_scale(r, gt, tau, gam)
        if family == "squeezed-cat":
            return _cat_form(r, gamma, gt, tau, D, at)
        return _bell_form(family, r, gt, tau, D, _bell_factors(gt, D, at))
    except OverflowError as exc:
        raise NumericalError(
            f"{family} closed form overflows at r = {r}") from exc


def _is_multiple(angle, period):
    return abs(math.remainder(angle, period)) <= PHASE_TOL


def _specialized_params(spec):
    """Validate the phase specialization and return (family, r, delta,
    signed real gamma) of the resolved spec."""
    base = spec.resolve()
    if not _is_multiple(base.phi - math.pi, 2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need phi = pi, got {base.phi}; use quadrature")
    if base.family != "twin-beam" and not _is_multiple(base.theta,
                                                       2 * math.pi):
        raise PhaseSpecializationError(
            f"closed forms need theta = 0, got {base.theta}; use quadrature")
    gamma = 0.0
    if base.family == "squeezed-cat" and base.gamma_mod > 0:
        if _is_multiple(base.gamma_phase, 2 * math.pi):
            gamma = base.gamma_mod
        elif _is_multiple(base.gamma_phase - math.pi, 2 * math.pi):
            gamma = -base.gamma_mod
        else:
            raise PhaseSpecializationError(
                f"closed forms need real gamma, got phase "
                f"{base.gamma_phase}; use quadrature")
    return base.family, base.r, base.delta, gamma


def _closed_value(spec, noise, gain, at):
    """Closed-form fidelity at one amplitude beta or averaged over an
    AlphabetPrior."""
    family, r, delta, gamma = _specialized_params(spec)
    form = _fidelity_form(family, r, gamma, gain.effective(noise),
                          gamma_cov(noise, gain), noise.tau, at)
    return float(form.value(delta))


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


def fidelity_quadrature(inp, spec, noise, gain):
    """Overlap fidelity (1/2pi) int chi_in(x,p) chi_out(-x,-p) dx dp by
    adaptive quadrature. Universal: any phases, any family."""
    gt = gain.effective(noise)
    gam = gamma_cov(noise, gain)

    def integrand(x, p):
        return (_chi_input_arrays(inp.beta, x, p)
                * _chi_out_arrays(inp, spec, noise, gain, -x, -p))

    L = box_halfwidth(0.25 + gam / 2 + gt * gt / 4)
    val = integrate_adaptive(integrand, L) / (2 * math.pi)
    return FidelityReport(float(val.real), "quadrature", spec, noise, gain,
                          beta=inp.beta)


def average_fidelity(spec, noise, gain, prior):
    """Fidelity averaged over the Gaussian alphabet prior.

    Gauss-Hermite rule of order GH_ORDER in Re beta and Im beta, scaled
    by sqrt(sigma): on the closed path the closed forms factorize it into
    1-D node sums; otherwise it is the tensor rule over quadrature
    fidelities.
    """
    try:
        val = _closed_value(spec, noise, gain, prior)
        method = "closed"
    except PhaseSpecializationError:
        t, w = _gh_nodes()
        scale = math.sqrt(prior.sigma)
        val = float(sum(
            w[i] * w[j] * fidelity_quadrature(
                CoherentInput(scale * complex(t[i], t[j])), spec, noise,
                gain).value
            for i in range(len(t)) for j in range(len(t))))
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
