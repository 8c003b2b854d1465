"""Characteristic functions of coherent inputs and entangled resources.

Conventions used throughout the package: a phase-space point (x, p) maps
to the complex amplitude alpha = (x + i p)/sqrt(2); the characteristic
function is chi(alpha) = Tr[rho D(alpha)] with D(alpha) =
exp(alpha a+ - conj(alpha) a). The two-mode squeezer is
S12(zeta) = exp(-zeta a1+ a2+ + conj(zeta) a1 a2), zeta = r e^{i phi}.

Every resource family is a squeezer applied to a two-term core
superposition, so its chi is a sum of at most four displacement matrix
elements evaluated at Bogoliubov-transformed arguments. CORE_PARAMS
names the core parameters of each stored family; a photon-subtracted
resource is stored as the squeezed-Bell state it equals.
"""

import cmath
import math
from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import NumericalError, ParameterError

MAX_FOCK_ORDER = 64
# smallest squeezed-cat squared norm accepted before the state is
# treated as degenerate (cos d |00> + sin d |gg> with nearly zero norm)
NORM_SQ_FLOOR = 1e-12

# the core parameters each stored family takes
CORE_PARAMS = {
    "twin-beam": (),
    "squeezed-bell": ("delta", "theta"),
    "squeezed-cat": ("delta", "theta", "gamma_mod", "gamma_phase"),
    "buridan": ("delta", "theta"),
}
# the names ResourceSpec.of, the CLI and the optimizers accept
FAMILIES = (*CORE_PARAMS, "photon-subtracted")

SQRT2 = math.sqrt(2.0)


def _num(x):
    """x, or where 0-d a Python number: it overflows with no warning."""
    return x if getattr(x, "ndim", 0) else np.asarray(x).item()


def _require(*rules, error=ParameterError):
    """Check a point or a column of points by rules (ok, message,
    *values) in the order a point checks them, ok a bool or one per row:
    the first bad row's first broken rule raises its message with the
    values at that row, as that row alone would, its row attribute set."""
    rows = [math.inf if ok is True
            else (math.inf if ok.all() else int(np.argmin(ok)))
            if isinstance(ok, np.ndarray) else math.inf if ok else 0
            for ok in next(zip(*rules))]
    row = min(rows)
    if row < math.inf:
        _, message, *values = rules[rows.index(row)]
        exc = error(message.format(*(
            v[row].item() if np.ndim(v) else v for v in values)))
        exc.row = row
        raise exc


def _finite(name, *values):
    """The rules that values, numbers or columns, are finite."""
    return [(np.isfinite(v) if isinstance(v, np.ndarray)
             else cmath.isfinite(v), "{} must be finite, got {!r}", name, v)
            for v in values]


def _exp(x, _math_exp=np.frompyfunc(math.exp, 1, 1)):
    """e^x, each value rounded as math.exp rounds it (numpy's may not)."""
    return _num(np.asarray(_math_exp(x), dtype=float))


def _shape(*inputs):
    """The shape of inputs' rows: () for points, (n,) for columns."""
    shapes = {np.shape(v) for x in inputs for v in (
        vars(x).values() if is_dataclass(x) else (x,))
        if isinstance(v, (list, tuple, np.ndarray))} - {()}
    if len(shapes) > 1 or (0,) in shapes:
        raise ParameterError(f"columns of shapes {sorted(shapes)} are "
                             "empty or do not match")
    return shapes.pop() if shapes else ()


def _rows(x, n):
    """The n points of x, a point or a column of n rows, row by row; a
    column was checked as a whole, so its rows are not checked again."""
    if not is_dataclass(x):
        return np.broadcast_to(x, n).tolist()
    if not any(isinstance(v, np.ndarray) for v in vars(x).values()):
        return [x] * n
    rows = [object.__new__(type(x)) for _ in range(n)]
    for row, *values in zip(rows, *(np.broadcast_to(v, n).tolist()
                                    for v in vars(x).values())):
        row.__dict__.update(zip(vars(x), values))
    return rows


def photon_subtraction_angle(r):
    """Bell angle delta = arctan(tanh r) of a1 a2 S(zeta)|00>, at a
    number or an array."""
    return np.arctan(np.tanh(r))


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, p) in single-mode phase space."""

    x: float
    p: float

    def __post_init__(self):
        _require(*_finite("phase-space point", self.x, self.p))

    @property
    def alpha(self):
        return complex(self.x, self.p) / SQRT2


@dataclass(frozen=True)
class TwoModePhasePoint:
    m1: PhasePoint
    m2: PhasePoint


@dataclass(frozen=True)
class CoherentInput:
    """Input coherent state |beta>."""

    beta: complex

    def __post_init__(self):
        _require(*_finite("coherent amplitude", self.beta))


@dataclass(frozen=True)
class ResourceSpec:
    """Tagged choice of entangled-resource family.

    Build it with `of` or the named classmethods; `family` is one of
    CORE_PARAMS and selects the core superposition, whose parameters
    are the fields it names. gamma = gamma_mod * exp(i gamma_phase) is
    the cat amplitude. A column holds an array of one value per row in
    r, delta or gamma_mod; the phases are one per spec.
    """

    family: str
    r: float
    phi: float
    delta: float = 0.0
    theta: float = 0.0
    gamma_mod: float = 0.0
    gamma_phase: float = 0.0

    def __post_init__(self):
        if self.family not in CORE_PARAMS:
            raise ParameterError(f"not a stored family: {self.family!r}")
        r, gm = self.r, self.gamma_mod
        rules = [*_finite("resource parameters", r, self.phi, self.delta,
                          self.theta, gm, self.gamma_phase),
                 (r >= 0, "squeezing r must be >= 0, got {}", r),
                 (gm >= 0, "gamma_mod must be >= 0, got {}", gm)]
        if self.family == "squeezed-cat":
            norm = self.norm_sq
            rules.append((norm >= NORM_SQ_FLOOR, "squeezed-cat core "
                          "superposition is degenerate (squared norm "
                          "{:.3e})", norm))
        _require(*rules)

    @classmethod
    def of(cls, family, r, phi=math.pi, **core):
        """The spec of any name in FAMILIES from the core parameters its
        family takes; photon-subtracted becomes its squeezed-Bell state,
        delta = arctan(tanh r) and theta = phi + pi."""
        for name in core:
            if name not in CORE_PARAMS.get(family, ()):
                raise ParameterError(
                    f"{name} does not apply to resource {family!r}")
        if family != "photon-subtracted":
            return cls(family, r, phi, **core)
        _require(*_finite("resource parameters", phi))
        return cls("squeezed-bell", r, phi, _num(photon_subtraction_angle(r)),
                   math.remainder(phi + math.pi, 2 * math.pi))

    @classmethod
    def twin_beam(cls, r, phi=math.pi):
        return cls("twin-beam", r, phi)

    @classmethod
    def squeezed_bell(cls, r, phi=math.pi, delta=0.0, theta=0.0):
        return cls("squeezed-bell", r, phi, delta, theta)

    @classmethod
    def squeezed_cat(cls, r, phi=math.pi, delta=0.0, theta=0.0,
                     gamma_mod=0.0, gamma_phase=0.0):
        return cls("squeezed-cat", r, phi, delta, theta,
                   gamma_mod, gamma_phase)

    @classmethod
    def buridan_donkey(cls, r, phi=math.pi, delta=0.0, theta=0.0):
        return cls("buridan", r, phi, delta, theta)

    @classmethod
    def photon_subtracted(cls, r, phi=math.pi):
        return cls.of("photon-subtracted", r, phi)

    @property
    def zeta(self):
        return self.r * cmath.exp(1j * self.phi)

    @property
    def gamma(self):
        return self.gamma_mod * cmath.exp(1j * self.gamma_phase)

    @property
    def norm_sq(self):
        """Squared norm of the un-normalized core superposition."""
        if self.family != "squeezed-cat":
            return 1.0
        # sin 2 delta as 2 sin cos: 2 delta overflows past 9e307; a huge
        # gamma_mod is a factor of 0, a parameter not finite gives NaN
        with np.errstate(over="ignore", invalid="ignore"):
            return 1.0 + (_exp(-self.gamma_mod * self.gamma_mod) * 2
                          * np.sin(self.delta) * np.cos(self.delta)
                          * np.cos(self.theta))


def laguerre(n, k, x):
    """Associated Laguerre polynomial L_n^(k)(x) by the three-term
    recurrence in the degree.

    :param n: degree, integer in [0, 64]
    :param k: superscript, integer >= -n
    :param x: real argument (scalar or array)
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ParameterError(f"laguerre degree must be an integer, got {n!r}")
    if not 0 <= n <= MAX_FOCK_ORDER:
        raise ParameterError(f"laguerre degree out of range: {n}")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ParameterError(f"laguerre superscript must be an integer, got {k!r}")
    if k < -n:
        raise ParameterError(f"laguerre superscript {k} below -n = {-n}")
    x = np.asarray(x)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + k - x
    for m in range(2, n + 1):
        prev, cur = cur, ((2 * m - 1 + k - x) * cur - (m - 1 + k) * prev) / m
    return cur if cur.ndim else float(cur)


def fock_displacement_element(m, n, alpha):
    """Matrix element <m| D(alpha) |n>.

    For m >= n this is sqrt(n!/m!) alpha^(m-n) e^{-|alpha|^2/2}
    L_n^(m-n)(|alpha|^2); the m < n case follows from
    <m|D(alpha)|n> = conj(<n|D(-alpha)|m>).
    """
    for label, idx in (("m", m), ("n", n)):
        if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
            raise ParameterError(f"Fock index {label} must be an integer")
        if not 0 <= idx <= MAX_FOCK_ORDER:
            raise ParameterError(f"Fock index {label} out of range: {idx}")
    if m < n:
        return np.conj(fock_displacement_element(n, m, -np.asarray(alpha)))
    alpha = np.asarray(alpha, dtype=complex)
    ratio = math.sqrt(math.factorial(n) / math.factorial(m))
    # 0 where the Gaussian underflows, also past |alpha|^2's overflow
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = (alpha * alpha.conj()).real
        gauss = np.exp(-a2 / 2)
        val = np.where(gauss == 0, 0j, ratio * alpha ** (m - n) * gauss
                       * laguerre(n, m - n, a2))
    return val if val.ndim else complex(val)


def coherent_displacement_overlap(g1, xi, g2):
    """Overlap <g1| D(xi) |g2> of coherent states around a displacement.

    Follows from D(xi)|g2> = e^{(xi conj(g2) - conj(xi) g2)/2} |xi + g2>
    and the coherent-coherent overlap, as exp(-|g1 - g2 - xi|^2/2 +
    i Im(xi conj(g1 + g2) + conj(g1) g2)): no |g|^2 is formed, and
    Im(conj(g1) g2) is 0 at g1 = g2 with no product. Where the phase
    overflows the value is NaN, which no quadrature converges on, unless
    the modulus underflows: then it is 0.
    """
    xi = np.asarray(xi, dtype=complex)
    d = (g1 - g2) - xi
    with np.errstate(over="ignore", invalid="ignore"):
        cross = 0.0 if g1 == g2 else (np.conj(g1) * g2).imag
        val = _exp_or_zero(-(d.real * d.real + d.imag * d.imag) / 2,
                           (xi * np.conj(g1 + g2)).imag + cross)
    return val if val.ndim else complex(val)


def _exp_or_zero(re, im):
    """e^{re + i im}, and 0 where e^{re} underflows, also where im is not
    finite (overflowed)."""
    return np.where(np.exp(re) == 0, 0j, np.exp(re + 1j * im))


def _cosh_sinh(r):
    """cosh r and sinh r; NumericalError past r ~ 710, where they
    overflow a double."""
    try:
        return math.cosh(r), math.sinh(r)
    except OverflowError:
        raise NumericalError(f"cosh r overflows at r = {r}") from None


def bogoliubov_args(zeta, alpha1, alpha2):
    """Displacement arguments after conjugation by the squeezer.

    S+(zeta) D1(a1) D2(a2) S(zeta) = D1(xi1) D2(xi2) with
    xi_i = cosh(r) (a_i + e^{i phi} tanh(r) conj(a_j)), i != j: a sum of
    size |a| times cosh r, which overflows to inf, never to inf - inf.
    """
    r = abs(zeta)
    ch, _ = _cosh_sinh(r)
    t = math.tanh(r) * cmath.exp(1j * cmath.phase(zeta))
    a1, a2 = (np.asarray(a, dtype=complex) for a in (alpha1, alpha2))
    with np.errstate(over="ignore"):
        return ch * (a1 + t * np.conj(a2)), ch * (a2 + t * np.conj(a1))


def _core_terms(spec):
    """Coefficients and kets of the un-squeezed core superposition.

    Returns (normalization, [(coeff, kind, k1, k2), ...]) with kind
    "fock" (k = photon number) or "coh" (k = coherent amplitude).
    """
    c, s = math.cos(spec.delta), math.sin(spec.delta)
    e_th = cmath.exp(1j * spec.theta)
    if spec.family == "twin-beam":
        return 1.0, [(1.0, "fock", 0, 0)]
    if spec.family == "squeezed-bell":
        return 1.0, [(c, "fock", 0, 0), (e_th * s, "fock", 1, 1)]
    if spec.family == "buridan":
        return 1.0, [(c, "fock", 0, 1), (e_th * s, "fock", 1, 0)]
    g = spec.gamma
    return float(spec.norm_sq) ** -0.5, [(c, "coh", 0.0, 0.0),
                                  (e_th * s, "coh", g, g)]


def _mode_element(kind, bra, ket, xi):
    if kind == "fock":
        return fock_displacement_element(bra, ket, xi)
    return coherent_displacement_overlap(bra, xi, ket)


def _chi_resource_arrays(spec, alpha1, alpha2):
    """chi_res on arrays of complex two-mode arguments."""
    return _chi_core_arrays(spec, *bogoliubov_args(spec.zeta, alpha1, alpha2))


def _chi_core_arrays(spec, xi1, xi2):
    """The core superposition's chi at the Bogoliubov-transformed
    arguments (xi1, xi2): chi_res at the arguments they come from."""
    norm, terms = _core_terms(spec)
    # every family's core terms share one ket kind
    kind = terms[0][1]
    total = 0.0
    for ci, _, a_i, b_i in terms:
        for cj, _, a_j, b_j in terms:
            total = total + (np.conj(ci) * cj
                             * _mode_element(kind, a_i, a_j, xi1)
                             * _mode_element(kind, b_i, b_j, xi2))
    return norm * norm * total


def _chi_input_arrays(beta, x, p):
    """Coherent-input chi on quadrature arrays; 0 where its Gaussian
    underflows, also past the overflow of a square or the phase."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _exp_or_zero(-(x * x + p * p) / 4,
                            SQRT2 * (p * beta.real - x * beta.imag))


def chi_input_coherent(inp, pt):
    """Characteristic function of the input coherent state at pt."""
    val = _chi_input_arrays(inp.beta, np.asarray(pt.x, dtype=float),
                            np.asarray(pt.p, dtype=float))
    return complex(val)


def chi_resource(spec, pt):
    """Characteristic function of the entangled resource at a two-mode
    phase-space point."""
    val = _chi_resource_arrays(spec, np.asarray(pt.m1.alpha),
                               np.asarray(pt.m2.alpha))
    return complex(val)
