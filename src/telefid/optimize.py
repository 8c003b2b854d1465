"""Fidelity maximization over resource parameters and gain, and the
affinity of a resource to the two-mode squeezed vacuum.

At fixed r, noise, gain and cat amplitude gamma, every family's fidelity
is a ratio of quadratic forms in (cos delta, sin delta)
(fidelity.FidelityForm), so the best Bell angle delta is the top
eigenvalue of a 2x2 pair and takes no search. Both optimizers are one
core, _optimize, at beta = 0 on the unity gain or averaged over the prior
with the gain free; the search reads the prior average exactly as the
beta = 0 form at the noise Gamma + (g~ - 1)^2 sigma. Every search left
is one grid in one broadcast form call, refined by _zoom_max: a mesh of
ZOOM_POINTS per axis around the best point, one form call per step,
zooming in by the mesh spacing. It refines the cat's gamma, the averaged
gain (_grid_then_zoom, a gain grid taking its best delta row by row),
the averaged cat's (gain, gamma) and the affinity's r'. The averaged
cat's peak in the gain is about e^{-2r} wide at g~ = e^{-tau/2}, so its
gain is searched on an axis stretched around that ridge, which is one
more row of its grid. The subcase points (delta = 0,
the photon-subtraction angle, gamma = 0 and the unity-gain rule g = 1/T)
stay in as a floor, so the subcase-domination inequalities hold exactly
rather than to rounding. Each optimum's spec comes from ResourceSpec.of,
so a photon-subtracted one is stored as its squeezed-Bell state.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fidelity import (FidelityReport, _fidelity_form, _shifted_noise,
                       average_fidelity, fidelity_closed)
from .phase_space import (CORE_PARAMS, FAMILIES, ResourceSpec, _core_terms,
                          photon_subtraction_angle)
from .protocol import GainSetting, NoiseParams, gamma_cov

GAMMA_POINTS = 201
AVG_GAIN_POINTS = 101
AVG_GAMMA_POINTS = 51
GAMMA_MAX = 5.0
PARAM_XTOL = 1e-8
# mesh points per axis of each zoom step
ZOOM_POINTS = 17

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


def golden_section_max(fun, lo, hi):
    """Maximize a unimodal function on [lo, hi] to PARAM_XTOL.

    Returns (x_opt, f_opt, evaluations). Plain golden-section search;
    deterministic evaluation count for reproducible optimizer metadata.
    """
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd, nfev = fun(c), fun(d), 2
    for _ in range(200):
        if b - a < PARAM_XTOL:
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


def _zoom_max(fun, start, value, steps, box):
    """Maximize f on a box from a start of known value. Each step takes
    a mesh of ZOOM_POINTS per axis, spanning +-steps around the best
    point and clipped to the box, in one call fun(*np.ix_(*axes)): a
    row in 1-D, a column of x against a row of y in 2-D. It moves to the
    highest mesh point only if that is strictly higher, then shrinks the
    steps to the mesh spacing, until they are below PARAM_XTOL. Returns
    (point, value, evaluations)."""
    point, nfev = tuple(start), 0
    mesh = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    while max(steps) >= PARAM_XTOL:
        axes = [np.clip(x + h * mesh, lo, hi)
                for x, h, (lo, hi) in zip(point, steps, box)]
        vals = np.reshape(fun(*np.ix_(*axes)), [ZOOM_POINTS] * len(axes))
        k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[k] > value:
            value = float(vals[k])
            point = tuple(float(a[i]) for a, i in zip(axes, k))
        steps = [2 * h / (ZOOM_POINTS - 1) for h in steps]
        nfev += vals.size
    return point, value, nfev


def _grid_then_zoom(fun, *grids):
    """Maximize fun over the span of a grid, one sorted axis per grid:
    the best grid point, refined by _zoom_max within its neighbours. fun
    takes the grid in one call, as _zoom_max's meshes, and a last axis of
    smooth branches is refined branch by branch. Returns (point, value,
    evaluations) of the highest, the first on a tie."""
    shape = [len(g) for g in grids]
    vals = np.reshape(fun(*np.ix_(*grids)), shape + [-1])
    steps = [np.max(np.diff(g)) for g in grids]
    best, nfev = [], math.prod(shape)
    for j in range(vals.shape[-1]):
        k = np.unravel_index(int(np.argmax(vals[..., j])), shape)
        point, fx, n = _zoom_max(
            lambda *xs: np.reshape(fun(*xs), [ZOOM_POINTS] * len(xs)
                                   + [-1])[..., j],
            [float(g[i]) for g, i in zip(grids, k)], float(vals[k][j]),
            steps, [(g[0], g[-1]) for g in grids])
        best.append((fx, point))
        nfev += n
    fx, point = max(best, key=lambda c: c[0])
    return point, fx, nfev


def _best_delta(family, r, form):
    """(delta, value) maximizing the form, row by row for a column form:
    the first of the highest of the subcase points (delta = 0 and, for
    squeezed-Bell, the photon-subtraction angle) and the top
    eigenvector."""
    if family == "twin-beam":
        return None, form.a
    pss = photon_subtraction_angle(r)
    if family == "photon-subtracted":
        return pss, form.value(pss)
    floor = (0.0, pss) if family == "squeezed-bell" else (0.0,)
    deltas = floor + (form.top()[1],)
    vals = [form.value(d) for d in deltas]
    i = np.argmax(vals, axis=0)
    if np.ndim(i):
        return np.choose(i, deltas), np.choose(i, vals)
    return float(deltas[i]), float(vals[i])


def _optimize(family, r, noise, prior=None):
    """The optimum over the family's free parameters: at beta = 0 on the
    unity gain, or averaged over the prior with g free on [2/(T N), 2/T],
    N = AVG_GAIN_POINTS. The objective at each searched point takes the
    best delta. The unity gain with the beta-independent optimum is an
    averaged candidate, so the averaged optimum never falls below it. The
    route names what was searched: eigen where delta is free, then zoom,
    or closed where nothing was."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown resource family {family!r}")
    cat, free = family == "squeezed-cat", CORE_PARAMS.get(family, ())
    T = noise.transmissivity
    g_top, g_unity = 2.0 / T, 1.0 / T
    sigma = 0.0 if prior is None else prior.sigma

    def gain_at(g):
        # the unity rule (None) keeps g~ = 1 exactly
        return GainSetting(None if g == g_unity else float(g))

    def form(g, gamma=None):
        # g is one gain, or an array of them taken as a column
        if np.ndim(g):
            g = np.reshape(g, (-1, 1))
            gt = np.where(g == g_unity, 1.0, g * T)
        else:
            gt = gain_at(g).effective(noise)
        return _fidelity_form(family, r, 0.0 if gamma is None else gamma, gt,
                              _shifted_noise(gt, gamma_cov(noise, g), sigma),
                              noise.tau, 0j)

    def score(g, gamma=None):
        # the cat's eigenvalue or the best delta, over gains (and gamma)
        f = form(g, gamma)
        if family == "buridan":
            # F = a + e sin^2 delta at beta = 0 (b = 0): max(a, a + e)
            # kinks where e changes sign, so each side is its own branch
            return np.hstack((f.a, f.a + f.e))
        return f.top()[0] if cat else _best_delta(family, r, f)[1]

    point, searched, nfev = (g_unity, None), [], 1
    if prior is None and cat:
        (gamma,), _, n = _grid_then_zoom(
            lambda c: score(g_unity, c),
            np.linspace(0.0, GAMMA_MAX, GAMMA_POINTS))
        point, searched, nfev = (g_unity, gamma), ["zoom"], nfev + n
    elif prior is not None:
        base = _optimize(family, r, noise)
        g_grid = np.linspace(g_top / AVG_GAIN_POINTS, g_top,
                             AVG_GAIN_POINTS)
        searched = ["zoom"]
        if cat:
            # the gain peak at g~ = eps is about e^{-2r} wide: search the
            # gain as w, g~ = eps + c sinh w, c = e^{-2r} (no finer than
            # eps's rounding, nor 0), with the ridge w = 0 as one more row
            eps = math.exp(-noise.tau / 2)
            c = max(math.exp(-2 * r), 1e-16 * eps, 1e-300)

            def gain(w):
                return (eps + c * np.sinh(w)) / T

            ws = np.linspace(*np.arcsinh((g_grid[[0, -1]] * T - eps) / c),
                             AVG_GAIN_POINTS)
            ws = np.sort(np.append(ws, 0.0)) if ws[0] <= 0 <= ws[-1] else ws
            (w, gamma), value, n = _grid_then_zoom(
                lambda w, gamma: score(gain(w), gamma), ws,
                np.linspace(0.0, GAMMA_MAX, AVG_GAMMA_POINTS))
            found = (float(gain(w)), gamma)
        else:
            (g,), value, n = _grid_then_zoom(score, g_grid)
            found = (g, None)
        unity = (g_unity, base.gamma_opt)
        # first of the highest candidates
        point = max([(value, found), (np.max(score(*unity)), unity)],
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
    size = math.hypot(beta.real, beta.imag)  # abs(beta) ** 2 overflows
    if size > math.sqrt(700 * prior.sigma):
        raise ParameterError(
            f"|beta| = {size:.3g} lies outside the numerical support, "
            f"|beta|^2 <= 700 sigma, of the sigma = {prior.sigma} prior")
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
    refined by _zoom_max around the best point.

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
    _, best, _ = _grid_then_zoom(overlap_sq, grid)
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
