"""Output characteristic function of the nonideal teleportation protocol.

The protocol: the input mode and mode 1 of the resource interfere on a
balanced beam splitter; both Bell-measurement homodyne detectors sit
behind fictitious beam splitters of reflectivity R^2 with vacuum
ancillas; mode 2 crosses a lossy thermal channel of reduced time tau;
the outcome (x~, p~), scaled by the gain g, drives the corrective
displacement. Averaging over outcomes collapses the chain to a closed
form for chi_out, which this module implements directly together with
the intermediate conditioned states and two independent oracles used
to validate it: an outcome average of the conditioned states' kernel,
for every family, and an all-Gaussian covariance pipeline.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, QuadratureError
from .phase_space import (SQRT2, _chi_core_arrays, _chi_input_arrays,
                          _chi_resource_arrays, _cosh_sinh, _exp, _finite,
                          _num, _require, bogoliubov_args)
from .quadrature import (CONV_ABS_TOL, _leggauss, box_halfwidth,
                         integrate_adaptive)

# Gauss-Legendre nodes per axis of the measurement average, before a cat
MEAS_AVG_NODES = 384


@dataclass(frozen=True)
class NoiseParams:
    """Channel and detector imperfections.

    tau is the reduced propagation time of the lossy channel, n_th the
    thermal occupation of its environment, r2 the reflectivity R^2 of
    the fictitious detector beam splitters. R^2 = 1 (T = 0) degenerates
    the protocol and is rejected. A column holds arrays, one per row.
    """

    tau: float = 0.0
    n_th: float = 0.0
    r2: float = 0.0

    def __post_init__(self):
        _require(*_finite("noise parameters", self.tau, self.n_th, self.r2),
                 (self.tau >= 0, "tau must be >= 0, got {}", self.tau),
                 (self.n_th >= 0, "n_th must be >= 0, got {}", self.n_th),
                 ((0 <= self.r2) & (self.r2 < 1),
                  "reflectivity R^2 must lie in [0, 1), got {}", self.r2))

    @property
    def transmissivity(self):
        """Detector beam-splitter amplitude transmissivity T."""
        return _num(np.sqrt(1.0 - self.r2))

    @property
    def reflectivity(self):
        return _num(np.sqrt(self.r2))


@dataclass(frozen=True)
class GainSetting:
    """Gain rule: a fixed number g > 0, or None for g = 1/T (unity
    effective gain); of a column, an array of g, NaN for the unity rule."""

    g: float | None = None

    def __post_init__(self):
        g = self.g
        if g is not None:  # in a column, NaN marks a row on the unity rule
            _require((((g > 0) & (g < math.inf))
                      | (isinstance(g, np.ndarray) and np.isnan(g)),
                      "fixed gain must be > 0, got {}", g))

    @classmethod
    def fixed(cls, g):
        return cls(float(g))

    @classmethod
    def unity_over_t(cls):
        return cls()

    def gain(self, noise):
        """The bare gain g applied to the communicated outcome."""
        return self._rule(1.0 / noise.transmissivity, 1.0)

    def effective(self, noise):
        """g~ = g T; exactly 1 under the unity rule."""
        return self._rule(1.0, noise.transmissivity)

    def _rule(self, unity, scale):
        """g scale, or unity under the unity rule: no g, or a NaN row."""
        g = unity if self.g is None else self.g * scale
        return (np.where(np.isnan(self.g), unity, g)
                if isinstance(self.g, np.ndarray) else g)


@dataclass(frozen=True)
class BellOutcome:
    x_tilde: float
    p_tilde: float

    def __post_init__(self):
        _require(*_finite("Bell outcome", self.x_tilde, self.p_tilde))


def gamma_cov(noise, gain):
    """Thermal renormalized covariance Gamma of the output Gaussian
    noise factor: (1 - e^-tau)(1/2 + n_th) + g^2 R^2, at a GainSetting
    or at bare gains g, a number or an array, of a point or a column."""
    g = gain.gain(noise) if isinstance(gain, GainSetting) else gain
    # R^2 = 0 adds nothing, also where g^2 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        return _num((1.0 - _exp(-noise.tau)) * (0.5 + noise.n_th)
                    + np.where(noise.r2 == 0, 0.0, g * g * noise.r2))


def _chi_out_arrays(beta, spec, tau, gt, gam):
    """chi_out of one point, at amplitude beta, reduced channel time tau,
    effective gain g~ and noise Gamma, on arrays (x, p)."""
    et = math.exp(-tau / 2)

    def chi(x, p):
        a1 = gt * (x - 1j * p) / SQRT2
        a2 = et * (x + 1j * p) / SQRT2
        # no noise is a factor of 1, also where x^2 + p^2 overflows
        return (_chi_input_arrays(beta, gt * x, gt * p)
                * _chi_resource_arrays(spec, a1, a2)
                * (np.exp(-0.5 * gam * (x * x + p * p)) if gam else 1.0))
    return chi


def chi_out(inp, spec, noise, gain, pt):
    """Output characteristic function of the nonideal protocol:
    chi_in(g~x, g~p) chi_res(g~x, -g~p; e^{-tau/2}x, e^{-tau/2}p)
    exp{-Gamma (x^2+p^2)/2}. Past |x|, |p| ~ 1e154 the squares inside
    overflow to inf, and the value is their limit, 0."""
    gt, gam = gain.effective(noise), gamma_cov(noise, gain)
    with np.errstate(over="ignore"):
        return complex(_chi_out_arrays(inp.beta, spec, noise.tau, gt, gam)(
            np.asarray(float(pt.x)), np.asarray(float(pt.p))))


def chi_out_ideal(inp, spec, pt):
    """Ideal-protocol factorization chi_in(x,p) chi_res(x,-p;x,p): chi_out
    with no loss, noise or detector reflectivity at unity gain."""
    return chi_out(inp, spec, NoiseParams(), GainSetting(), pt)


def _bell_integrand(inp, spec, noise, a2):
    """(rate, z0, kernel) at mode-2 argument a2: kernel(s, u) is, at the
    unmeasured Bell quadratures xi - i v = z0 + s - i u,
    chi_in(T xi/sqrt2, T v/sqrt2) chi_res(T (xi - i v)/2, a2)
    e^{-R^2 (xi^2 + v^2)/4}, a bounded factor times its envelope
    exp(-rate (s^2 + u^2))."""
    T = noise.transmissivity
    ch, sh = _cosh_sinh(spec.r)
    # envelope rate T^2 (1 + cosh 2r)/8 + R^2/4, with 1 + cosh 2r = 2 cosh^2 r
    half = T * ch / 2
    rate = half * half + noise.r2 / 4
    # the resource's Gaussian in a1 = T (xi - i v)/2, of rate cosh(2r)/2,
    # peaks at a1* = -tanh(2r) e^{i phi} conj(a2); times the input's and
    # detectors' Gaussians, centred on 0 with kappa of the rate, the
    # envelope peaks at a1 = (1 - kappa) a1*
    ph = cmath.exp(1j * spec.phi)
    peak = -math.tanh(2 * spec.r) * ph * a2.conjugate()
    kappa = (T * T / 8 + noise.r2 / 4) / rate
    z0 = (2 / T) * (1 - kappa) * peak
    # the Bogoliubov arguments' terms of size e^{r} cancel near the peak;
    # in d = a1 - a1* they are xi1 = ch d - e^{i phi} conj(a2) sh/cosh 2r
    # and xi2 = a2 ch/cosh 2r + e^{i phi} sh conj(d), cosh 2r = ch^2 + sh^2
    c2 = ch * ch + sh * sh
    xi1_peak, xi2_peak = -ph * a2.conjugate() * (sh / c2), a2 * (ch / c2)

    def kernel(s, u):
        xi, v = s + z0.real, u - z0.imag
        d = T * (s - 1j * u) / 2 - kappa * peak
        return (np.exp(-noise.r2 * (xi * xi + v * v) / 4)
                * _chi_input_arrays(inp.beta, T * xi / SQRT2, T * v / SQRT2)
                * _chi_core_arrays(spec, ch * d + xi1_peak,
                                   xi2_peak + ph * sh * np.conj(d)))

    return rate, z0, kernel


def _bell_raw(inp, spec, noise, outcome, x2, p2):
    """Unnormalized Bell-conditioned value P(outcome) chi_Bm(x2, p2):
    (1/(2pi)^2) times the integral of e^{i xi p~ - i x~ v} times
    _bell_integrand's kernel, on nodes centred on the envelope's peak."""
    rate, z0, kernel = _bell_integrand(inp, spec, noise,
                                       complex(x2, p2) / SQRT2)

    def integrand(s, u):
        xi, v = s + z0.real, u - z0.imag
        return (np.exp(1j * (xi * outcome.p_tilde - outcome.x_tilde * v))
                * kernel(s, u))

    return integrate_adaptive(integrand, rate) / (2 * math.pi) ** 2


def outcome_distribution(inp, spec, noise, outcome):
    """Probability density of the Bell outcome (p~, x~). A negative
    value within the quadrature's tolerance, CONV_ABS_TOL/(2pi)^2, is a
    density that rounds to 0; below it, QuadratureError."""
    val = float(_bell_raw(inp, spec, noise, outcome, 0.0, 0.0).real)
    if val < -CONV_ABS_TOL / (2 * math.pi) ** 2:
        raise QuadratureError(f"outcome density {val:.3g} < 0 at {outcome}")
    return max(val, 0.0)


def chi_bell_conditioned(inp, spec, noise, outcome, pt):
    """Characteristic function of mode 2 conditioned on the outcome."""
    p_out = outcome_distribution(inp, spec, noise, outcome)
    if p_out <= 0:
        raise DegeneracyError(
            f"outcome density vanished at {outcome}; cannot condition")
    return complex(_bell_raw(inp, spec, noise, outcome,
                             float(pt.x), float(pt.p)) / p_out)


def propagate_lossy(chi_initial, tau, n_th, pt):
    """Evolve a single-mode chi through the lossy thermal channel.

    chi_initial is any callable chi(x, p). Closed-form solution of the
    channel's diffusion equation:
    chi(e^{-tau/2}x, e^{-tau/2}p) exp{-(1-e^-tau)(1/2+n_th)(x^2+p^2)/2}.
    """
    NoiseParams(tau=tau, n_th=n_th)  # the channel's rules
    x, p = float(pt.x), float(pt.p)
    et = math.exp(-tau / 2)
    damp = math.exp(-(1 - math.exp(-tau)) * (0.5 + n_th) * (x * x + p * p) / 2)
    return chi_initial(et * x, et * p) * damp


def displace_chi(chi, lam, pt):
    """chi of the displaced state D(lam) rho D+(lam) at pt."""
    x, p = float(pt.x), float(pt.p)
    phase = np.exp(1j * SQRT2 * (lam.real * p - lam.imag * x))
    return chi(x, p) * phase


def chi_out_via_measurement_average(inp, spec, noise, gain, pt):
    """Slow oracle for chi_out: explicit average over Bell outcomes, for
    every family. P(outcome) chi_Bm is _bell_integrand's kernel summed on
    a fixed Gauss-Legendre box of its envelope around z0, at outcomes on
    a box of the envelope's Fourier dual, of rate 1/(4 rate), around
    their mean T beta. Within 1e-12 of chi_out at any phases for r <= 3,
    |gamma| <= 5, g <= 1.5 and |x|, |p| <= 1.5; past that the fixed
    rules can fall short."""
    T = noise.transmissivity
    rate, z0, kernel = _bell_integrand(inp, spec, noise,
                                       math.exp(-noise.tau / 2) * pt.alpha)
    # a cat's |gamma gamma> term, a plane wave in a1, moves its outcomes
    # by T |xi1| at a1 = gamma, a2 = -gamma: |gamma| times |xi1| at unit
    # amplitude, a float product that overflows only to inf; the rules
    # resolve phases up to L_in L_out, so the nodes grow with the box
    unit = cmath.exp(1j * spec.gamma_phase)
    shift = spec.gamma_mod * float(abs(bogoliubov_args(spec.zeta, unit,
                                                       -unit)[0]))
    L_in, L_dual = box_halfwidth(rate), box_halfwidth(1 / (4 * rate))
    L_out = L_dual + T * shift
    if not L_out <= 3 * L_dual:
        # n x n matrices and n^3 products: |gamma| past about 12
        raise QuadratureError(f"cat amplitude {spec.gamma_mod} needs more "
                              "nodes than the measurement average takes")
    t, w = _leggauss(128 * math.ceil(MEAS_AVG_NODES / 128 * L_out / L_dual))
    s, w_in = L_in * t, L_in * w
    xt, pt_, w_out = (T * inp.beta.real + L_out * t,
                      T * inp.beta.imag + L_out * t, L_out * w)

    # raw[k, l] at outcome (x~_k, p~_l), via two matrix products: the
    # xi -> p~ phase and the v -> x~ phase, at xi - i v = z0 + s - i s'
    e_p = np.exp(1j * np.outer(z0.real + s, pt_)) * w_in[:, None]
    e_x = np.exp(-1j * np.outer(s - z0.imag, xt)) * w_in[:, None]
    K = kernel(s[:, None], s[None, :])
    raw = (e_x.T @ K.T @ e_p) / (2 * math.pi) ** 2

    # raw is P chi_Bm at e^{-tau/2} pt: the channel adds its damping (its
    # map of chi = 1), the gain's displacement its phase, then average
    lam = gain.gain(noise) * (xt[:, None] + 1j * pt_[None, :])
    damp = propagate_lossy(lambda x, p: 1.0, noise.tau, noise.n_th, pt)
    return complex(np.sum(np.outer(w_out, w_out)
                          * displace_chi(lambda x, p: raw, lam, pt)) * damp)


@dataclass(frozen=True)
class GaussianOutput:
    """Gaussian description of the teleported mode and of the outcome
    statistics, from the covariance-algebra pipeline."""

    mean: np.ndarray
    cov: np.ndarray
    outcome_mean: np.ndarray
    outcome_cov: np.ndarray

    def fidelity(self, inp):
        """Overlap with the input coherent state, in closed form."""
        sigma = self.cov + 0.5 * np.eye(2)
        d = self.mean - SQRT2 * np.array([inp.beta.real, inp.beta.imag])
        det = float(np.linalg.det(sigma))
        if det <= 0:
            raise DegeneracyError("singular output covariance")
        return float(math.exp(-0.5 * d @ np.linalg.solve(sigma, d))
                     / math.sqrt(det))


def gaussian_pipeline(inp, r, noise, gain):
    """Propagate means and covariances through the full measurement
    chain for the twin-beam resource (phi = pi convention).

    Modes ordered (in, 1, 2, 3, 4) with quadratures (x_k, p_k);
    3 and 4 are the vacuum ancillas of the detector beam splitters.
    Homodyne conditioning on (p_in'', x_1'') is a Schur complement;
    the outcome average restores a displaced Gaussian.
    """
    T = noise.transmissivity
    R = noise.reflectivity
    g = gain.gain(noise)

    m = np.zeros(10)
    m[0], m[1] = SQRT2 * inp.beta.real, SQRT2 * inp.beta.imag
    V = 0.5 * np.eye(10)
    # phi = pi convention: x anticorrelated, p correlated
    c2, s2 = (x / 2 for x in _cosh_sinh(2 * r))
    V[2:6, 2:6] = np.array([[c2, 0, -s2, 0],
                            [0, c2, 0, s2],
                            [-s2, 0, c2, 0],
                            [0, s2, 0, c2]])

    def two_mode_mix(i, j, t, rho):
        """Symplectic of a real beam splitter acting on modes i, j."""
        S = np.eye(10)
        for q in (0, 1):
            a, b = 2 * i + q, 2 * j + q
            S[a, a] = t
            S[a, b] = -rho
            S[b, a] = rho
            S[b, b] = t
        return S

    s = 1 / SQRT2
    S = two_mode_mix(0, 1, s, s)            # balanced Bell splitter
    S = two_mode_mix(1, 4, T, R) @ S        # detector splitter on x_1''
    S = two_mode_mix(0, 3, T, R) @ S        # detector splitter on p_in''
    m = S @ m
    V = S @ V @ S.T

    # homodyne of y = (p_in'', x_1''): indices 1 and 2
    iy = [1, 2]
    i2 = [4, 5]
    Vyy = V[np.ix_(iy, iy)]
    V2y = V[np.ix_(i2, iy)]
    det_yy = float(np.linalg.det(Vyy))
    if det_yy <= 1e-300:
        raise DegeneracyError("singular homodyne conditioning covariance")
    A = V2y @ np.linalg.inv(Vyy)
    V_cond = V[np.ix_(i2, i2)] - A @ V2y.T
    m2 = m[i2]
    my = m[iy]

    et = math.exp(-noise.tau / 2)
    add = (1 - math.exp(-noise.tau)) * (0.5 + noise.n_th)
    # displacement by lambda = g(x~ + i p~) with y = (p~, x~)
    J = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = et * A + SQRT2 * g * J
    mean_out = et * m2 + SQRT2 * g * J @ my
    cov_out = et * et * V_cond + add * np.eye(2) + B @ Vyy @ B.T
    return GaussianOutput(mean_out, cov_out, my.copy(), Vyy.copy())
