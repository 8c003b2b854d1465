"""Fidelity maximization over resource parameters and gain, and the
affinity of a resource to the two-mode squeezed vacuum.

Every family's fidelity is a ratio of quadratic forms in (cos delta,
sin delta), fidelity.FidelityForm, so the best Bell angle delta is the
top eigenvalue of a 2x2 pair and takes no search. Both optimizers are
one core, _optimize, at beta = 0 on the unity gain or averaged over the
prior with the gain free, the average read exactly as the beta = 0 form
at the noise Gamma + (g~ - 1)^2 sigma. It takes a point (r, noise) or a
column of them, searched in lockstep: _grid_then_zoom maximizes one
objective over the searched axes (the averaged gain as w, stretched
around its ridge at g~ = e^{-tau/2}, then the cat's gamma), as it does
the affinity's overlap in r', on a grid refined by _zoom_max's meshes.
Each grid and mesh is one kernel call with a row per point, so each row
ends where the point alone would, to the bit, and a column's optima are
one OptimizationResult with a value per row. The subcase points
(delta = 0, the photon-subtraction angle, gamma = 0 and the unity gain
g = 1/T) stay in as a floor, so the subcase-domination inequalities
hold exactly rather than to rounding. Each optimum's spec comes from
ResourceSpec.of: a photon-subtracted one is its squeezed-Bell state.
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fidelity import (FidelityReport, _fidelity_form, _shifted_noise,
                       average_fidelity, fidelity_closed)
from .phase_space import (CORE_PARAMS, FAMILIES, ResourceSpec, _core_terms,
                          _require, _rows, _shape, photon_subtraction_angle)
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
    and gain to evaluate them with) and how they were found: of a point,
    numbers; of a column, arrays of one per row, None where a field does
    not apply, one method and the call's total evaluations."""

    best_value: float
    delta_opt: float | None = None
    gamma_opt: float | None = None
    g_opt: float | None = None
    evaluations: int = 0
    method: str = ""
    spec: ResourceSpec | None = None
    gain: GainSetting | None = None


def _mesh(rows, axes):
    """Row indices rows and per-row axes, each (rows, points) with one
    row or a row per point, meshed as np.ix_ would each row's: the indices
    on axis 0 and axis i's points on axis i + 1."""
    return [np.reshape(rows, (-1,) + (1,) * len(axes))] + [
        np.reshape(a, (len(a),) + tuple(
            a.shape[1] if j == i else 1 for j in range(len(axes))))
        for i, a in enumerate(axes)]


def _zoom_max(fun, start, value, steps, box):
    """Maximize f on a box from starts of known value: start and steps
    (rows, d), value (rows,), box d (lo, hi) bounds, numbers or a row
    each. Each step takes a mesh of ZOOM_POINTS per axis, spanning +-steps
    around each row's best point and clipped to the box, in one call
    fun(i, *axes) of _mesh, the row index first. A row moves to its
    highest mesh point only if that is strictly higher, then shrinks its
    steps to the mesh spacing; once they are below PARAM_XTOL it stops,
    as it would alone. Returns (point, value, evaluations), a row each."""
    point, value = np.array(start, dtype=float), np.array(value, dtype=float)
    n, d = point.shape
    steps = np.array(np.broadcast_to(steps, (n, d)), dtype=float)
    lo, hi = (np.stack([np.broadcast_to(b[j], n) for b in box], axis=1)
              [..., None] for j in (0, 1))
    nfev, rows = np.zeros(n, dtype=int), np.arange(n)
    mesh = np.linspace(-1.0, 1.0, ZOOM_POINTS)
    while True:
        live = np.max(steps, axis=1) >= PARAM_XTOL
        if not live.any():
            return point, value, nfev
        axes = np.clip(point[..., None] + steps[..., None] * mesh, lo, hi)
        vals = np.reshape(fun(*_mesh(rows, list(axes.swapaxes(0, 1)))),
                          (n, -1))
        k = np.argmax(vals, axis=1)
        up = live & (vals[rows, k] > value)
        value = np.where(up, vals[rows, k], value)
        at = np.stack(np.unravel_index(k, (ZOOM_POINTS,) * d), axis=1)
        point = np.where(up[:, None], axes[rows[:, None], np.arange(d), at],
                         point)
        steps = np.where(live[:, None], 2 * steps / (ZOOM_POINTS - 1), steps)
        nfev += live * vals.shape[1]


def _grid_then_zoom(fun, *grids):
    """Maximize fun over the span of a grid: each row's best grid point,
    refined by _zoom_max within its neighbours. Each grid is one sorted
    axis per row, (rows, points), or of one row, 1-D. fun takes the row
    index first, then the meshed grid, as _zoom_max's does: all rows in
    one call on a grid of one axis, one row a call on more (the averaged
    cat's 102 x 51), each reduced to its best points as it comes, to hold
    peak memory. A last axis of smooth branches is refined branch by
    branch. Returns (point, value, evaluations), a row each, of the
    highest branch, the first on a tie."""
    grids = [np.atleast_2d(g) for g in grids]
    n, shape = len(grids[0]), tuple(g.shape[1] for g in grids)
    rows, picks = np.arange(n), []
    for at in np.split(rows, n if len(grids) > 1 else 1):
        flat = np.reshape(fun(*_mesh(at, [g[at] for g in grids])),
                          (len(at), math.prod(shape), -1))
        k = np.argmax(flat, axis=1)
        picks.append((k, np.take_along_axis(flat, k[:, None], axis=1)[:, 0]))
    k, best = (np.concatenate(x) for x in zip(*picks))
    steps = np.stack([np.max(np.diff(g, axis=1), axis=1) for g in grids],
                     axis=1)
    found, nfev = [], math.prod(shape)
    for j in range(k.shape[1]):
        start = np.stack([g[rows, i] for g, i in zip(
            grids, np.unravel_index(k[:, j], shape))], axis=1)
        point, fx, m = _zoom_max(
            lambda *xs: np.reshape(fun(*xs), (n,) + (ZOOM_POINTS,) * len(shape)
                                   + (-1,))[..., j],
            start, best[:, j], steps, [(g[:, 0], g[:, -1]) for g in grids])
        found.append((fx, point))
        nfev = nfev + m
    value, point = found[0]
    for fx, other in found[1:]:
        up = fx > value
        value, point = np.where(up, fx, value), np.where(up[:, None], other,
                                                         point)
    return point, value, nfev


def _best_delta(family, r, form):
    """(delta, value) maximizing the form, row by row for an array form:
    the first of the highest of the subcase points (delta = 0 and, for
    squeezed-Bell, the photon-subtraction angle) and the top
    eigenvector."""
    if family == "twin-beam":
        return None, form.a
    pss = photon_subtraction_angle(r)
    if family == "photon-subtracted":
        return pss, form.value(pss)
    floor = (0.0, pss) if family == "squeezed-bell" else (0.0,)
    lam = form.top()
    deltas = floor + (np.arctan2(form.b - lam * form.n, -form.e / 2) / 2,)
    vals = [form.value(d) for d in deltas]
    i = np.argmax(vals, axis=0)
    return np.choose(i, deltas), np.choose(i, vals)


def _optimize(family, r, noise, prior=None):
    """The optimum over the family's free parameters at a point (r and
    noise points) or at each of a column of them (r a sequence or noise
    a column, of one length), in one OptimizationResult: at beta = 0 on
    the unity gain, or averaged over the prior with g free on
    [2/(T N), 2/T], N = AVG_GAIN_POINTS. The objective at each searched
    point takes the best delta. The unity gain with the beta-independent
    optimum is an averaged candidate, so the averaged optimum never falls
    below it. The route names what was searched: eigen where delta is
    free, then zoom, or closed where nothing was. A NumericalError of any
    row is the column's."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown resource family {family!r}")
    shape = _shape(r, noise)
    n = shape[0] if shape else 1
    rs, rows = np.broadcast_to(np.asarray(r, dtype=float), n), np.arange(n)
    cat, free = family == "squeezed-cat", CORE_PARAMS.get(family, ())
    # a row each: Gamma = thermal + g^2 R^2 at bare gain g
    T, tau, thermal, r2 = (np.broadcast_to(x, n) for x in (
        noise.transmissivity, noise.tau, gamma_cov(noise, 0.0), noise.r2))
    g_top, g_unity = 2.0 / T, 1.0 / T
    sigma = 0.0 if prior is None else prior.sigma
    # the gain peak at g~ = eps is about e^{-2r} wide: search the gain as
    # w, g~ = eps + c sinh w, c = e^{-2r} (no finer than eps's rounding,
    # nor 0), uniform in w with the ridge w = 0, or the end nearest it, as
    # one more grid point
    eps = np.exp(-tau / 2)
    c = np.maximum(np.maximum(np.exp(-2 * rs), 1e-16 * eps), 1e-300)

    def form(i, g, gamma):
        # at rows i and bare gains g; the unity rule keeps g~ = 1
        gt = np.where(g == g_unity[i], 1.0, g * T[i])
        return _fidelity_form(family, rs[i], gamma, gt, _shifted_noise(
            gt, thermal[i] + g * g * r2[i], sigma), tau[i], 0j)

    def score(i, g, gamma):
        # the cat's eigenvalue or the best delta
        f = form(i, g, gamma)
        if family == "buridan":
            # F = a + e sin^2 delta at beta = 0 (b = 0): max(a, a + e)
            # kinks where e changes sign, so each side is its own branch
            return np.stack((f.a, f.a + f.e), axis=-1)
        return f.a + f.top() if cat else _best_delta(family, rs[i], f)[1]

    def gain(i, w):
        return (eps[i] + c[i] * np.sinh(w)) / T[i]

    def objective(i, *x):
        # the searched axes: the stretched gain w if averaged, then gamma
        return score(i, g_unity[i] if prior is None else gain(i, x[0]),
                     x[-1] if cat else 0.0)

    axes = []
    if prior is not None:
        lo, hi = np.arcsinh((np.stack((g_top / AVG_GAIN_POINTS, g_top)) * T
                             - eps) / c)
        axes.append(np.sort(np.append(
            np.linspace(lo, hi, AVG_GAIN_POINTS, axis=1),
            np.clip(0.0, lo, hi)[:, None], axis=1), axis=1))
    if cat:
        axes.append(np.tile(np.linspace(0.0, GAMMA_MAX, (
            GAMMA_POINTS if prior is None else AVG_GAMMA_POINTS)), (n, 1)))
    g_opt, gamma, nfev = g_unity, None, np.ones(n, dtype=int)
    if axes:
        point, value, m = _grid_then_zoom(objective, *axes)
        gamma, nfev = point[:, -1] if cat else None, nfev + m
    if prior is not None:
        base = _optimize(family, rs, noise)
        unity = base.gamma_opt if cat else 0.0
        # the first of the highest candidates
        take = np.max(np.reshape(score(rows, g_unity, unity), (n, -1)),
                      axis=1) > value
        g_opt = np.where(take, g_unity, gain(rows, point[:, 0]))
        gamma = np.where(take, unity, gamma) if cat else None
        # the unity candidate and the public average, and the base's
        nfev = np.sum(nfev + 2) + base.evaluations
    delta, best = _best_delta(family, rs, form(
        rows, g_opt, 0.0 if gamma is None else gamma))
    route = "+".join((["eigen"] if "delta" in free else [])
                     + (["zoom"] if axes else []))
    # delta = 0 is the twin beam at every gamma
    gm = None if gamma is None else np.where(delta != 0, gamma, 0.0)
    spec = ResourceSpec.of(family, rs, **{k: v for k, v in (
        ("delta", delta), ("gamma_mod", gm)) if k in free})
    unity = g_opt == g_unity
    gain = GainSetting(np.where(unity, np.nan, g_opt))
    if prior is not None:  # the value is the public average, one call
        best = average_fidelity(spec, noise, gain, prior).value
    fields = [x if x is None or shape else x.item()  # a point's numbers
              for x in (best, delta, gm, prior and g_opt)]
    if not shape:
        spec, gain = _rows(spec, 1)[0], GainSetting(None if unity[0]
                                                    else g_opt.item())
    return OptimizationResult(*fields, int(np.sum(nfev)), route or "closed",
                              spec, gain)


def optimize_beta_independent(family, r, noise):
    """Maximize the beta-independent fidelity (gain rule g = 1/T) over
    the family's free resource parameters, at a point or, with r or
    noise a sequence, at each of a column of points in one result."""
    return _optimize(family, r, noise)


def optimize_gain_average(family, r, noise, prior):
    """Maximize the prior-averaged fidelity over gain and the family's
    free resource parameters; g runs over [2/(T N), 2/T] with N =
    AVG_GAIN_POINTS. At a point or, with r or noise a sequence, at each
    of a column of points in one result."""
    return _optimize(family, r, noise, prior)


def fidelity_at_optimum(opt, noise, prior, beta):
    """Fidelity at input amplitude beta with the parameters of an
    averaged optimum opt, taken at this noise and prior: at a point, or
    of a column result, with noise and beta points or columns of its
    length, a column in one kernel call, as fidelity_closed. Each beta
    must lie in the prior's support, |beta|^2 <= 700 sigma; a column
    names its first row outside it."""
    size = np.abs(np.asarray(beta, dtype=complex))  # |beta|^2 overflows
    _require((~(size > math.sqrt(700 * prior.sigma)),
              "|beta| = {:.3g} lies outside the numerical support, |beta|^2 "
              f"<= 700 sigma, of the sigma = {prior.sigma} prior", size))
    rep = fidelity_closed(opt.spec, noise, opt.gain, beta)
    return FidelityReport(rep.value, rep.method, rep.beta, prior.sigma)


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
    # atanh(e^{-tau/2}) with no cancellation at either end; below twice
    # the smallest normal tau/2 loses bits, and (1/2) log(4/tau) holds
    if tau < 2 * sys.float_info.min:
        return 0.5 * (math.log(4.0) - math.log(tau))
    return 0.5 * math.log1p(2 * math.exp(-tau / 2) / -math.expm1(-tau / 2))


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

    def overlap_sq(_, rp):
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
    _, (best,), _ = _grid_then_zoom(overlap_sq, grid)
    # rounding can lift an overlap of exactly 1 just past it
    return min(float(best), 1.0)


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
