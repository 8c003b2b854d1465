"""Fidelity maximization over resource parameters and gain, and the
affinity of a resource to the two-mode squeezed vacuum.

At fixed r, noise, gain and cat amplitude gamma, every family's fidelity
is a ratio of quadratic forms in (cos delta, sin delta)
(fidelity.FidelityForm), so the best Bell angle delta is the top
eigenvalue of a 2x2 pair and takes no search. Both optimizers are one
core, _optimize, at beta = 0 on the unity gain or averaged over the prior
with the gain free. Every 1-D search left is one grid refined by golden
section (_grid_then_golden): the cat's gamma, the averaged gain and the
affinity's r'. The averaged cat's (gain, gamma) grid is refined by a
3 x 3 stencil search. The subcase points (delta = 0, the
photon-subtraction angle, gamma = 0 and the unity-gain rule g = 1/T)
stay in as a floor, so the subcase-domination inequalities hold exactly
rather than to rounding. Each optimum's spec comes from ResourceSpec.of,
so a photon-subtracted one is stored as its squeezed-Bell state.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fidelity import (FidelityReport, _fidelity_form, average_fidelity,
                       fidelity_closed)
from .phase_space import (CORE_PARAMS, FAMILIES, ResourceSpec, _core_terms,
                          photon_subtraction_angle)
from .protocol import GainSetting, NoiseParams, gamma_cov

GAMMA_POINTS = 201
AVG_GAIN_POINTS = 101
AVG_GAMMA_POINTS = 51
GAMMA_MAX = 5.0
PARAM_XTOL = 1e-8

AFFINITY_RMAX = 5.0
AFFINITY_POINTS = 201


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
    return (c, fc, nfev) if fc > fd else (d, fd, nfev)


def _grid_then_golden(fun, grid, broadcast=False):
    """Maximize fun over the span of a grid: the best grid point,
    refined by golden section between its neighbours. fun takes the
    whole grid in one call when broadcast. Returns (x, f(x), evaluations)
    of the higher of the two points, the grid point on a tie."""
    vals = fun(grid) if broadcast else [fun(x) for x in grid]
    i = int(np.argmax(vals))
    x, fx, n = golden_section_max(lambda x: float(fun(x)),
                                  grid[max(i - 1, 0)],
                                  grid[min(i + 1, len(grid) - 1)])
    if fx > vals[i]:
        return float(x), fx, len(grid) + n
    return float(grid[i]), float(vals[i]), len(grid) + n


def _stencil_max(row, start, value, steps, box):
    """Maximize f(x, y) on a box from a start of known value: move to the
    best point of a 3 x 3 stencil of half-widths steps, halve them when
    the centre wins, stop below PARAM_XTOL. row(x, ys) gives f along an
    array of y. Points lie on the lattice start + (i hx, j hy), so one
    met again is the same floats and is not recomputed. Returns (point,
    value, evaluations)."""
    (x0, y0), (hx, hy), ((xlo, xhi), (ylo, yhi)) = start, steps, box
    seen, point, i, j = {start: value}, start, 0, 0
    while max(hx, hy) >= PARAM_XTOL:
        ys = [min(max(y0 + (j + d) * hy, ylo), yhi) for d in (-1, 0, 1)]
        best = (value, i, j, point)
        for di in (-1, 0, 1):
            x = min(max(x0 + (i + di) * hx, xlo), xhi)
            new = [y for y in dict.fromkeys(ys) if (x, y) not in seen]
            if new:
                seen.update(zip([(x, y) for y in new],
                                row(x, np.array(new)).tolist()))
            for dj, y in zip((-1, 0, 1), ys):
                if seen[x, y] > best[0]:
                    best = (seen[x, y], i + di, j + dj, (x, y))
        if best[0] > value:
            value, i, j, point = best
        else:
            i, j, hx, hy = 2 * i, 2 * j, hx / 2, hy / 2
    return point, value, len(seen) - 1


def _best_delta(family, r, form):
    """(delta, value) maximizing the form: the top eigenvector, unless a
    subcase point is at least as high (delta = 0 and, for squeezed-Bell,
    the photon-subtraction angle)."""
    if family == "twin-beam":
        return None, float(form.a)
    pss = photon_subtraction_angle(r)
    if family == "photon-subtracted":
        return pss, float(form.value(pss))
    floor = (0.0, pss) if family == "squeezed-bell" else (0.0,)
    best = (None, -math.inf)
    for d in floor + (float(form.top()[1]),):
        v = float(form.value(d))
        if v > best[1]:
            best = (d, v)
    return best


def _optimize(family, r, noise, prior=None):
    """The optimum over the family's free parameters: at beta = 0 on the
    unity gain, or averaged over the prior with g free on [2/(T N), 2/T],
    N = AVG_GAIN_POINTS. The objective at each searched point takes the
    best delta. The unity gain with the beta-independent optimum is an
    averaged candidate, so the averaged optimum never falls below it. The
    route names what was searched: eigen where delta is free, then
    golden or stencil, or closed where nothing was."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown resource family {family!r}")
    cat, free = family == "squeezed-cat", CORE_PARAMS.get(family, ())
    g_top = 2.0 / noise.transmissivity
    g_unity = 1.0 / noise.transmissivity

    def gain_at(g):
        # the unity rule (None) keeps g~ = 1 exactly
        return GainSetting(None if g == g_unity else float(g))

    def form(g, gamma=None):
        gain = gain_at(g)
        return _fidelity_form(family, r, 0.0 if gamma is None else gamma,
                              gain.effective(noise), gamma_cov(noise, gain),
                              noise.tau, 0j if prior is None else prior)

    def score(g, gamma=None):
        # the cat's eigenvalue broadcasts over gamma
        f = form(g, gamma)
        return f.top()[0] if cat else _best_delta(family, r, f)[1]

    point, searched, nfev = (g_unity, None), [], 1
    if prior is None and cat:
        gamma, _, n = _grid_then_golden(
            lambda c: score(g_unity, c),
            np.linspace(0.0, GAMMA_MAX, GAMMA_POINTS), broadcast=True)
        point, searched, nfev = (g_unity, gamma), ["golden"], nfev + n
    elif prior is not None:
        base = _optimize(family, r, noise)
        g_grid = np.linspace(g_top / AVG_GAIN_POINTS, g_top,
                             AVG_GAIN_POINTS)
        if cat:
            gammas = np.linspace(0.0, GAMMA_MAX, AVG_GAMMA_POINTS)
            vals = np.array([score(g, gammas) for g in g_grid])
            i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
            found, value, n = _stencil_max(
                score, (float(g_grid[i]), float(gammas[j])),
                float(vals[i, j]),
                ((g_grid[1] - g_grid[0]) / 2, (gammas[1] - gammas[0]) / 2),
                ((g_grid[0], g_top), (0.0, GAMMA_MAX)))
            n += vals.size
            searched = ["stencil"]
        else:
            g, value, n = _grid_then_golden(score, g_grid)
            found, searched = (g, None), ["golden"]
        unity = (g_unity, base.gamma_opt)
        # first of the highest candidates
        point = max([(value, found), (float(score(*unity)), unity)],
                    key=lambda c: c[0])[1]
        # the searches, the unity candidate and the public average
        nfev += base.evaluations + n + 2
    g_opt, gamma = point
    delta, value = _best_delta(family, r, form(g_opt, gamma))
    if gamma is not None:
        # delta = 0 is the twin beam at every gamma
        gamma = float(gamma) if delta else 0.0
    spec = ResourceSpec.of(family, r, **{k: v for k, v in (
        ("delta", delta), ("gamma_mod", gamma)) if k in free})
    gain = gain_at(g_opt)
    if prior is not None:
        value = average_fidelity(spec, noise, gain, prior).value
    route = (["eigen"] if "delta" in free else []) + searched
    return OptimizationResult(
        value, delta_opt=delta, gamma_opt=gamma,
        g_opt=None if prior is None else g_opt, evaluations=nfev,
        method="+".join(route) or "closed", spec=spec, gain=gain)


def optimize_beta_independent(family, r, noise):
    """Maximize the beta-independent fidelity (gain rule g = 1/T) over
    the family's free resource parameters."""
    return _optimize(family, r, noise)


def optimize_gain_average(family, r, noise, prior):
    """Maximize the prior-averaged fidelity over gain and the family's
    free resource parameters; g runs over [2/(T N), 2/T] with N =
    AVG_GAIN_POINTS."""
    return _optimize(family, r, noise, prior)


def fidelity_at_optimum(opt, noise, prior, beta):
    """Fidelity at input amplitude beta with the parameters of an
    averaged optimum opt, taken at this noise and prior. beta must lie in
    the prior's numerical support, |beta|^2 <= 700 sigma."""
    beta = complex(beta)
    if abs(beta) ** 2 > 700 * prior.sigma:
        raise ParameterError(
            f"|beta|^2 = {abs(beta) ** 2:.3g} lies outside the numerical "
            f"support of the sigma = {prior.sigma} prior")
    rep = fidelity_closed(opt.spec, noise, opt.gain, beta)
    return FidelityReport(rep.value, rep.method, opt.spec, noise, opt.gain,
                          beta=beta, sigma=prior.sigma)


def one_shot_fidelity(family, r, noise, prior, beta):
    """Fidelity at a specific beta using parameters that maximize the
    prior-averaged fidelity."""
    return fidelity_at_optimum(optimize_gain_average(family, r, noise, prior),
                               noise, prior, beta)


def r_max(tau):
    """Squeezing that maximizes the twin-beam fidelity at g~ = 1 for a
    given channel time; None when tau = 0 (no finite maximum)."""
    NoiseParams(tau=tau)  # tau must be finite and >= 0
    if tau == 0:
        return None
    # (1/4) log((cosh(tau/2) + 1)/(cosh(tau/2) - 1)), without the
    # cancellation in cosh(tau/2) - 1 at small tau
    return -0.5 * math.log(math.tanh(tau / 4))


def affinity(spec):
    """Largest squared overlap with a two-mode squeezed vacuum, sup over
    its squeezing: max over r' within AFFINITY_RMAX of r (and >= 0) of
    |<00| S(r' e^{i pi})+ S(zeta) |core>|^2, on a grid of AFFINITY_POINTS
    refined by golden section around the best point.

    By the SU(1,1) disentangling identity the overlap is N <00|
    e^{kappa a1 a2} |core> / A, A = cosh r cosh r' + e^{i phi} sinh r
    sinh r', kappa A = sinh r' cosh r + e^{-i phi} sinh r cosh r'. With
    e^{i phi} = -e^{i eps}, A = cosh(r - r') - (e^{i eps} - 1) sinh r
    sinh r': at eps = 0 this is S(r - r') on the core, and otherwise A
    and kappa A are taken times e^{-r-r'}, so no r overflows. The bra
    takes |n, n> to kappa^n and |n, m != n> to 0.
    """
    r = spec.r
    eps = math.remainder(spec.phi - math.pi, 2 * math.pi)
    c1 = complex(-2 * math.sin(eps / 2) ** 2, math.sin(eps))  # e^{i eps} - 1
    q = math.exp(-2 * r)
    norm, terms = _core_terms(spec)

    def overlap_sq(rp):
        if eps == 0:
            scale, A, B = 1.0, np.cosh(r - rp), np.sinh(rp - r)
        else:
            qp = np.exp(-2 * rp)
            scale = np.exp(-r - rp)
            A = (q + qp) / 2 - c1 * (1 - q) * (1 - qp) / 4
            B = (q - qp) / 2 - c1.conjugate() * (1 - q) * (1 + qp) / 4
        kappa = B / A
        total = 0.0
        for coeff, kind, k1, k2 in terms:
            if kind == "coh":
                total = total + coeff * _coherent_overlap(kappa, k1, k2)
            elif k1 == k2:
                total = total + coeff * kappa ** k1
        return np.abs(norm * scale * total / A) ** 2

    grid = np.linspace(max(0.0, r - AFFINITY_RMAX), r + AFFINITY_RMAX,
                       AFFINITY_POINTS)
    _, best, _ = _grid_then_golden(overlap_sq, grid, broadcast=True)
    # rounding can lift an overlap of exactly 1 just past it
    return min(best, 1.0)


def _coherent_overlap(kappa, k1, k2):
    """<00| e^{kappa a1 a2} |k1, k2> as e^{-m w - (|k1| - |k2|)^2/2},
    m = |k1||k2|, w = 1 - kappa e^{i(arg k1 + arg k2)}. As |A|^2 - |kappa
    A|^2 = 1 (see affinity), Re w >= 1/(2|A|^2) > 0, clipped there
    against rounding; where m overflows, the term's share of the overlap,
    at most e^{-m/(2|A|^2)}/|A|, is below 1e-150 and is taken as 0."""
    m = abs(k1) * abs(k2)
    if m == math.inf:
        return 0.0
    w = 1 - kappa * cmath.exp(1j * (cmath.phase(k1) + cmath.phase(k2)))
    return np.exp(-m * (np.maximum(w.real, 0.0) + 1j * w.imag)
                  - (abs(k1) - abs(k2)) ** 2 / 2)
