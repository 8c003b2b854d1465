"""Reference fidelities computed apart from telefid.

Nothing here imports the package. Every formula is derived again from
the protocol's physics:

* the output characteristic function of the nonideal protocol,
  chi_out(x, p) = chi_in(g~x, g~p) chi_res(g~(x - ip)/sqrt2,
  e^{-tau/2}(x + ip)/sqrt2) e^{-Gamma (x^2 + p^2)/2}, with
  Gamma = (1 - e^{-tau})(1/2 + n_th) + g^2 R^2 and g~ = g T;
* the resource chi_res(a1, a2) = <core| D1(xi1) D2(xi2) |core>, with
  the squeezer's Bogoliubov arguments
  xi_i = cosh(r) a_i + e^{i phi} sinh(r) conj(a_j), i != j;
* the fidelity with the coherent input |beta> as the overlap
  (1/2pi) int chi_in(x, p) chi_out(-x, -p) dx dp.

The twin beam is Gaussian, so its fidelity, its Gaussian-prior average
and its optimal averaged gain have closed forms. Every other family is
integrated on an envelope-scaled Gauss-Hermite tensor rule whose order
doubles until two rules agree; the rule differs from the program's
Gauss-Legendre box, so both agreeing is evidence. Under the prior
p(beta) = e^{-|beta|^2/sigma}/(pi sigma), beta enters the overlap only
through the phase e^{i sqrt2 (1 - g~)(p Re beta - x Im beta)}, whose
prior average is the envelope e^{-sigma (1 - g~)^2 (x^2 + p^2)/2}: the
average is one 2D integral and needs no rule over beta.
"""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
GH_LADDER = (16, 32, 64, 128, 256)
GH_TOL = 1e-13
BATCH_POINTS = 1 << 18  # grid points evaluated at once
FAMILIES = ("twin-beam", "squeezed-bell", "squeezed-cat", "buridan",
            "photon-subtracted")


class ConvergenceError(RuntimeError):
    """The reference rule did not converge."""


class Points:
    """A batch of protocol configurations in the CLI's parameters.

    Every field is a float array of one common length; gain holds the
    bare gain g and NaN for the unity rule g = 1/T, gamma is complex.
    """

    FIELDS = ("r", "tau", "nth", "r2", "gain", "delta", "theta", "phi",
              "gamma")
    DEFAULTS = {"tau": 0.0, "nth": 0.0, "r2": 0.0, "gain": math.nan,
                "delta": 0.0, "theta": 0.0, "phi": math.pi, "gamma": 0j}

    def __init__(self, family, **fields):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        arrays = {k: np.asarray(fields.get(k, self.DEFAULTS.get(k)))
                  for k in self.FIELDS}
        shape = np.broadcast_shapes((1,), *(a.shape for a in arrays.values()))
        for k, a in arrays.items():
            dtype = complex if k == "gamma" else float
            setattr(self, k, np.broadcast_to(a, shape).astype(dtype))
        self.size = int(np.prod(shape))

    def take(self, idx):
        return Points(self.family, **{k: getattr(self, k)[idx]
                                      for k in self.FIELDS})

    @property
    def transmissivity(self):
        return np.sqrt(1.0 - self.r2)

    @property
    def g(self):
        return np.where(np.isnan(self.gain), 1.0 / self.transmissivity,
                        self.gain)

    @property
    def g_eff(self):
        return np.where(np.isnan(self.gain), 1.0,
                        self.gain * self.transmissivity)

    @property
    def gamma_cov(self):
        return ((1.0 - np.exp(-self.tau)) * (0.5 + self.nth)
                + self.g ** 2 * self.r2)


def _twin_noise(pt):
    """1 + A: the added-noise sum of the twin-beam output, whose chi is
    exp(-A (x^2 + p^2)/4) times the displaced input phase.

    Along the protocol's path the Bogoliubov arguments have moduli
    k1 |x + ip|/sqrt2 and k2 |x + ip|/sqrt2 with
    k1 = cosh(r) g~ - sinh(r) e^{-tau/2}, k2 = cosh(r) e^{-tau/2} - sinh(r) g~
    (phi = pi), so A = g~^2 + k1^2 + k2^2 + 2 Gamma.
    """
    ch, sh = np.cosh(pt.r), np.sinh(pt.r)
    eps = np.exp(-pt.tau / 2)
    gt = pt.g_eff
    k1 = ch * gt - sh * eps
    k2 = ch * eps - sh * gt
    return 1.0 + gt * gt + k1 * k1 + k2 * k2 + 2.0 * pt.gamma_cov


def twin_beam_fidelity(pt, beta):
    """Gaussian fidelity of the twin-beam protocol (phi = pi):
    2/(1 + A) exp(-2 (1 - g~)^2 |beta|^2 / (1 + A))."""
    s = _twin_noise(pt)
    return 2.0 / s * np.exp(-2.0 * (1.0 - pt.g_eff) ** 2
                            * np.abs(beta) ** 2 / s)


def twin_beam_average(pt, sigma):
    """Exact prior average of twin_beam_fidelity:
    2/(1 + A + 2 (1 - g~)^2 sigma)."""
    return 2.0 / (_twin_noise(pt) + 2.0 * (1.0 - pt.g_eff) ** 2 * sigma)


def twin_beam_best_gain(r, tau, r2, sigma):
    """Bare gain g maximizing twin_beam_average at phi = pi.

    1 + A + 2 (1 - g T)^2 sigma is a quadratic in g with leading
    coefficient T^2 (1 + cosh 2r + 2 sigma) + 2 R^2 and linear
    coefficient -2 T (sinh(2r) e^{-tau/2} + 2 sigma); n_th only shifts
    the constant term.
    """
    T = math.sqrt(1.0 - r2)
    eps = math.exp(-tau / 2)
    a = T * T * (1.0 + math.cosh(2 * r) + 2.0 * sigma) + 2.0 * r2
    b = T * (math.sinh(2 * r) * eps + 2.0 * sigma)
    return b / a


def _core(pt):
    """(norm^2, kind, [(coefficient, mode-1 ket, mode-2 ket), ...]) of
    the core the squeezer acts on; coefficients are (B,) arrays."""
    c, s = np.cos(pt.delta), np.sin(pt.delta)
    e_th = np.exp(1j * pt.theta)
    one = np.ones(pt.size)
    if pt.family == "twin-beam":
        return one, "fock", [(one, 0, 0)]
    if pt.family == "squeezed-bell":
        return one, "fock", [(c, 0, 0), (e_th * s, 1, 1)]
    if pt.family == "buridan":
        return one, "fock", [(c, 0, 1), (e_th * s, 1, 0)]
    if pt.family == "photon-subtracted":
        # S+ a1 S = a1 ch - e^{i phi} sh a2+, so a1 a2 S|00> equals
        # S (a1 ch - e^{i phi} sh a2+)(a2 ch - e^{i phi} sh a1+)|00>
        #   = S (-e^{i phi} sh ch |00> + e^{2i phi} sh^2 |11>)
        ch, sh = np.cosh(pt.r), np.sinh(pt.r)
        n = np.hypot(ch, sh)
        return one, "fock", [(ch / n, 0, 0),
                             (-np.exp(1j * pt.phi) * sh / n, 1, 1)]
    g = pt.gamma
    overlap = (e_th * s * c * np.exp(-np.abs(g) ** 2)).real
    return 1.0 / (1.0 + 2.0 * overlap), "coh", [(c, 0j, 0j),
                                               (e_th * s, g, g)]


def _fock_poly(m, n, xi, xi2):
    """<m| D(xi) |n> e^{|xi|^2/2} for m, n in {0, 1}; xi2 = |xi|^2."""
    if m == n == 0:
        return 1.0
    if m == 1 and n == 0:
        return xi
    if m == 0 and n == 1:
        return -np.conj(xi)
    return 1.0 - xi2


def _coherent_exponent(a, b, xi, xi2):
    """log(<a| D(xi) |b>) + |xi|^2/2, from
    D(xi)|b> = e^{(xi conj b - conj(xi) b)/2} |xi + b> and
    <a|c> = e^{-|a|^2/2 - |c|^2/2 + conj(a) c}."""
    return ((xi * np.conj(b) - np.conj(xi) * b) / 2
            - np.abs(a) ** 2 / 2 - np.abs(b) ** 2 / 2
            - (np.conj(xi) * b).real + np.conj(a) * (xi + b))


def _resource_scaled(pt, xi1, xi2):
    """chi_res at the Bogoliubov arguments, times e^{(|xi1|^2 + |xi2|^2)/2};
    per-point arrays carry a leading batch axis."""
    norm_sq, kind, terms = _core(pt)
    col = (slice(None),) + (None,) * (xi1.ndim - 1)
    m1, m2 = (xi1 * np.conj(xi1)).real, (xi2 * np.conj(xi2)).real
    total = 0.0
    for ci, ai, bi in terms:
        for cj, aj, bj in terms:
            coeff = (np.conj(ci) * cj)[col]
            if kind == "fock":
                val = _fock_poly(ai, aj, xi1, m1) * _fock_poly(bi, bj, xi2, m2)
            else:
                a, b, c, d = (k[col] if np.ndim(k) else k
                              for k in (ai, aj, bi, bj))
                val = np.exp(_coherent_exponent(a, b, xi1, m1)
                             + _coherent_exponent(c, d, xi2, m2))
            total = total + coeff * val
    return norm_sq[col] * total


def _path_coefficients(pt):
    """k1, k2 with xi1 = -k1 conj(z)/sqrt2, xi2 = -k2 z/sqrt2 (z = x + ip).

    At (-x, -p) chi_out evaluates chi_res at a1 = -g~ conj(z)/sqrt2 and
    a2 = -e^{-tau/2} z/sqrt2, so
    xi1 = cosh(r) a1 + e^{i phi} sinh(r) conj(a2) and
    xi2 = cosh(r) a2 + e^{i phi} sinh(r) conj(a1) are multiples of conj(z)
    and z: the displacement Gaussians e^{-|xi|^2/2} are isotropic.
    """
    gt = pt.g_eff
    eps = np.exp(-pt.tau / 2)
    ch, sh = np.cosh(pt.r), np.sinh(pt.r)
    ph = np.exp(1j * pt.phi)
    return ch * gt + ph * sh * eps, ch * eps + ph * sh * gt


def envelope_rate(pt, sigma):
    """Exact Gaussian rate c of the integrand exp(-c (x^2 + p^2)) times a
    polynomial (Fock cores) or shifted exponentials (cat cores)."""
    k1, k2 = _path_coefficients(pt)
    gt = pt.g_eff
    c = ((1.0 + gt * gt + np.abs(k1) ** 2 + np.abs(k2) ** 2) / 4
         + pt.gamma_cov / 2)
    if sigma is not None:
        c = c + sigma * (1.0 - gt) ** 2 / 2
    return c


def _rule(pt, beta, sigma, n):
    """The n x n Gauss-Hermite value for every point of the batch."""
    t, w = np.polynomial.hermite.hermgauss(n)
    T, Pt = np.meshgrid(t, t, indexing="ij")
    z = (T + 1j * Pt)[None]
    col = (slice(None), None, None)
    c = envelope_rate(pt, sigma)
    scale = (1.0 / np.sqrt(c))[col]
    k1, k2 = _path_coefficients(pt)
    xi1 = -k1[col] * np.conj(z) * scale / SQRT2
    xi2 = -k2[col] * z * scale / SQRT2
    h = _resource_scaled(pt, xi1, xi2)
    if sigma is None:
        # the input phase chi_in(x, p) chi_in(-g~x, -g~p) leaves
        # e^{i sqrt2 (1 - g~)(p Re beta - x Im beta)}
        k = (SQRT2 * (1.0 - pt.g_eff))[col] * scale
        b = np.asarray(beta, dtype=complex)[col]
        h = h * np.exp(1j * k * (Pt[None] * b.real - T[None] * b.imag))
    vals = np.einsum("i,bij,j->b", w, h, w).real
    return vals / (c * 2 * math.pi)


def overlap_fidelity(pt, beta=0j, sigma=None):
    """Fidelity of every point at beta, or its average over the Gaussian
    prior of variance sigma, on the doubling Gauss-Hermite rule.

    Returns a (B,) array.
    """
    beta = np.broadcast_to(np.asarray(beta, dtype=complex), (pt.size,))
    vals = np.full(pt.size, math.nan)
    todo = np.arange(pt.size)
    prev = None
    for n in GH_LADDER:
        chunk = max(1, BATCH_POINTS // (n * n))
        cur = np.concatenate([
            _rule(pt.take(todo[i:i + chunk]), beta[todo[i:i + chunk]],
                  sigma, n)
            for i in range(0, todo.size, chunk)])
        if prev is not None:
            done = np.abs(cur - prev) <= GH_TOL
            vals[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
            if not todo.size:
                return vals
        prev = cur
    first = {k: getattr(pt, k)[todo[0]] for k in Points.FIELDS}
    raise ConvergenceError(f"reference rule did not converge for {todo.size} "
                         f"{pt.family} points, e.g. {first}")
