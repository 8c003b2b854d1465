"""Fidelity maximization over resource parameters and gain.

At fixed r, noise, gain and cat amplitude gamma, every family's fidelity
is a ratio of quadratic forms in (cos delta, sin delta)
(fidelity.FidelityForm), so the best Bell angle delta is the top
eigenvalue of a 2x2 pair and takes no search. What is left is searched
deterministically: the cat's gamma on a grid refined by golden section,
the averaged gain on a grid refined by golden section, and the averaged
cat's (gain, gamma) on a grid refined by bounded Nelder-Mead. The
subcase points (delta = 0, the photon-subtraction angle, gamma = 0 and
the unity-gain rule g = 1/T) stay in as a floor, so the
subcase-domination inequalities hold exactly rather than to rounding.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import expm_multiply

from .errors import ParameterError
from .fidelity import (FidelityReport, _fidelity_form, average_fidelity,
                       fidelity_closed)
from .phase_space import ResourceSpec, _core_terms
from .protocol import GainSetting, gamma_cov

GAMMA_POINTS = 201
AVG_GAIN_POINTS = 101
AVG_GAMMA_POINTS = 51
GAMMA_MAX = 5.0
PARAM_XTOL = 1e-8

AFFINITY_CUTOFF = 40
AFFINITY_RMAX = 5.0
TAIL_WEIGHT_WARN = 1e-8

_OPTIMIZABLE = ("twin-beam", "squeezed-bell", "squeezed-cat", "buridan",
                "photon-subtracted")


@dataclass(frozen=True)
class OptimizationResult:
    """The best fidelity, the parameters reaching it (also as the spec
    and gain to evaluate them with) and how they were found."""

    best_value: float
    delta_opt: float | None = None
    gamma_opt: float | None = None
    g_opt: float | None = None
    evaluations: int = 0
    method: str = ""
    spec: ResourceSpec | None = None
    gain: GainSetting | None = None


def golden_section_max(fun, lo, hi, tol=PARAM_XTOL, max_iter=200):
    """Maximize a unimodal function on [lo, hi].

    Returns (x_opt, f_opt, evaluations). Plain golden-section search;
    deterministic evaluation count for reproducible optimizer metadata.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = fun(c), fun(d)
    nfev = 2
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = fun(d)
        nfev += 1
    x = c if fc > fd else d
    fx = max(fc, fd)
    return x, fx, nfev


def _pss_delta(r):
    return math.atan(math.tanh(r))


def _spec(family, r, delta, gamma):
    if family == "twin-beam":
        return ResourceSpec.twin_beam(r)
    if family == "photon-subtracted":
        return ResourceSpec.photon_subtracted(r)
    if family == "squeezed-bell":
        return ResourceSpec.squeezed_bell(r, delta=delta)
    if family == "buridan":
        return ResourceSpec.buridan_donkey(r, delta=delta)
    return ResourceSpec.squeezed_cat(r, delta=delta, gamma_mod=gamma)


def _bracket(grid, i):
    return grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]


def _best_delta(family, r, form):
    """(delta, value) maximizing the form: the top eigenvector, unless a
    subcase point is at least as high (delta = 0 and, for squeezed-Bell,
    the photon-subtraction angle)."""
    if family == "twin-beam":
        return None, float(form.a)
    if family == "photon-subtracted":
        return _pss_delta(r), float(form.value(_pss_delta(r)))
    floor = (0.0, _pss_delta(r)) if family == "squeezed-bell" else (0.0,)
    best = (None, -math.inf)
    for d in floor + (float(form.top()[1]),):
        v = float(form.value(d))
        if v > best[1]:
            best = (d, v)
    return best


def optimize_beta_independent(family, r, noise):
    """Maximize the beta-independent fidelity (gain rule g = 1/T) over
    the family's free resource parameters."""
    if family not in _OPTIMIZABLE:
        raise ParameterError(f"unknown resource family {family!r}")
    gain = GainSetting.unity_over_t()
    gam = gamma_cov(noise, gain)

    def form(gamma=0.0):
        return _fidelity_form(family, r, gamma, 1.0, gam, noise.tau, 0j)

    if family != "squeezed-cat":
        delta, value = _best_delta(family, r, form())
        method = ("eigen" if family in ("squeezed-bell", "buridan")
                  else "closed")
        return OptimizationResult(value, delta_opt=delta, evaluations=1,
                                  method=method,
                                  spec=_spec(family, r, delta, None),
                                  gain=gain)

    # the best delta at each gamma is the eigenvalue
    grid = np.linspace(0.0, GAMMA_MAX, GAMMA_POINTS)
    i = int(np.argmax(form(grid).top()[0]))
    gamma, _, nfev = golden_section_max(
        lambda g: float(form(g).top()[0]), *_bracket(grid, i))
    delta, value = _best_delta(family, r, form(gamma))
    # delta = 0 is the twin beam at every gamma
    gamma = float(gamma) if delta else 0.0
    return OptimizationResult(value, delta_opt=delta, gamma_opt=gamma,
                              evaluations=GAMMA_POINTS + nfev + 1,
                              method="eigen+golden",
                              spec=_spec(family, r, delta, gamma), gain=gain)


def optimize_gain_average(family, r, noise, prior):
    """Maximize the prior-averaged fidelity over gain and the family's
    free resource parameters; g runs over [2/(T N), 2/T] with N =
    AVG_GAIN_POINTS."""
    if family not in _OPTIMIZABLE:
        raise ParameterError(f"unknown resource family {family!r}")
    T = noise.transmissivity
    g_top = 2.0 / T
    g_unity = 1.0 / T
    g_grid = np.linspace(g_top / AVG_GAIN_POINTS, g_top, AVG_GAIN_POINTS)

    def gain_at(g):
        # the unity rule keeps g~ = 1 exactly
        return (GainSetting.unity_over_t() if g == g_unity
                else GainSetting.fixed(g))

    def form(g, gamma=0.0):
        gain = gain_at(g)
        return _fidelity_form(family, r, gamma, gain.effective(noise),
                              gamma_cov(noise, gain), noise.tau, prior)

    # the unity-gain rule is always a candidate: at g~ = 1 the average
    # equals the beta-independent value, so the optimum never falls below
    # the beta-independent one
    if family == "squeezed-cat":
        base = optimize_beta_independent(family, r, noise)
        gammas = np.linspace(0.0, GAMMA_MAX, AVG_GAMMA_POINTS)
        vals = np.array([form(g, gammas).top()[0] for g in g_grid])
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        start = (float(g_grid[i]), float(gammas[j]))
        res = minimize(lambda x: -float(form(x[0], x[1]).top()[0]),
                       np.array(start), method="Nelder-Mead",
                       bounds=[(g_grid[0], g_top), (0.0, GAMMA_MAX)],
                       options={"xatol": PARAM_XTOL, "fatol": 1e-14})
        nfev = base.evaluations + vals.size + res.nfev + 1
        cands = [(float(vals[i, j]), start),
                 (float(form(g_unity, base.gamma_opt).top()[0]),
                  (g_unity, base.gamma_opt)),
                 (float(-res.fun), (float(res.x[0]), float(res.x[1])))]
        method = "eigen+nelder-mead"
    else:
        def objective(g):
            return _best_delta(family, r, form(g))[1]

        vals = [objective(g) for g in g_grid]
        i = int(np.argmax(vals))
        x, fx, n = golden_section_max(objective, *_bracket(g_grid, i))
        nfev = len(vals) + n + 1
        cands = [(vals[i], (float(g_grid[i]), None)),
                 (objective(g_unity), (g_unity, None)),
                 (fx, (float(x), None))]
        method = ("golden" if family in ("twin-beam", "photon-subtracted")
                  else "eigen+golden")
    # first of the highest candidates
    g_opt, gamma = max(cands, key=lambda c: c[0])[1]
    delta = _best_delta(family, r, form(g_opt, gamma or 0.0))[0]
    if gamma is not None and not delta:
        gamma = 0.0
    spec = _spec(family, r, delta, gamma)
    gain = gain_at(g_opt)
    return OptimizationResult(
        average_fidelity(spec, noise, gain, prior).value, delta_opt=delta,
        gamma_opt=gamma, g_opt=g_opt, evaluations=nfev, method=method,
        spec=spec, gain=gain)


def one_shot_fidelity(family, r, noise, prior, beta):
    """Fidelity at a specific beta using parameters that maximize the
    prior-averaged fidelity."""
    beta = complex(beta)
    if abs(beta) ** 2 > 700 * prior.sigma:
        raise ParameterError(
            f"|beta|^2 = {abs(beta) ** 2:.3g} lies outside the numerical "
            f"support of the sigma = {prior.sigma} prior")
    opt = optimize_gain_average(family, r, noise, prior)
    rep = fidelity_closed(opt.spec, noise, opt.gain, beta)
    return FidelityReport(rep.value, rep.method, opt.spec, noise, opt.gain,
                          beta=beta, sigma=prior.sigma)


def r_max(tau):
    """Squeezing that maximizes the twin-beam fidelity at g~ = 1 for a
    given channel time; None when tau = 0 (no finite maximum)."""
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if tau == 0:
        return None
    # (1/4) log((cosh(tau/2) + 1)/(cosh(tau/2) - 1)), without the
    # cancellation in cosh(tau/2) - 1 at small tau
    return -0.5 * math.log(math.tanh(tau / 4))


def _fock_core_vector(spec, dim):
    """Core superposition as a two-mode Fock-basis vector."""
    norm, terms = _core_terms(spec)
    vec = np.zeros(dim * dim, dtype=complex)
    ns = np.arange(dim)
    for coeff, kind, k1, k2 in terms:
        if kind == "fock":
            vec[k1 * dim + k2] += coeff
        else:
            logfact = np.cumsum(np.log(np.maximum(ns, 1)))
            def coh(gval):
                if gval == 0:
                    col = np.zeros(dim, dtype=complex)
                    col[0] = 1.0
                    return col
                amp = np.exp(-abs(gval) ** 2 / 2
                             + ns * np.log(complex(gval)) - logfact / 2)
                return amp
            vec += coeff * np.kron(coh(k1), coh(k2))
    return norm * vec


def affinity(spec):
    """Largest squared overlap with a two-mode squeezed vacuum,
    sup over its squeezing, in a truncated Fock basis."""
    dim = AFFINITY_CUTOFF + 1
    a = diags(np.sqrt(np.arange(1, dim)), 1, format="csc")
    eye = identity(dim, format="csc")
    a1 = kron(a, eye, format="csc")
    a2 = kron(eye, a, format="csc")
    zeta = spec.zeta
    gen = (-zeta * (a1.conj().T @ a2.conj().T)
           + np.conj(zeta) * (a1 @ a2))
    psi = expm_multiply(gen, _fock_core_vector(spec, dim))
    grid = np.abs(psi.reshape(dim, dim)) ** 2
    tail = (abs(1.0 - grid.sum())
            + grid[-1, :].sum() + grid[:, -1].sum())
    if tail > TAIL_WEIGHT_WARN:
        warnings.warn(
            f"Fock cutoff {AFFINITY_CUTOFF} leaves tail weight "
            f"{tail:.2e}; affinity may be inaccurate", stacklevel=2)
    diag = psi.reshape(dim, dim).diagonal()
    ns = np.arange(dim)

    def overlap_sq(rp):
        amps = np.tanh(rp) ** ns / np.cosh(rp)
        return abs(np.sum(amps * diag)) ** 2

    _, best, _ = golden_section_max(overlap_sq, 0.0, AFFINITY_RMAX)
    # golden section never lands exactly on the edge; r' = 0 matters
    # for separable cores
    return float(max(best, overlap_sq(0.0)))
