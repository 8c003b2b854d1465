"""Resource and gain optimization, squeezing sweet spot, affinity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.optimize import minimize_scalar

import oracles
import telefid.optimize as optimize
from telefid import (FAMILIES, AlphabetPrior, CoherentInput, GainSetting,
                     NoiseParams, NumericalError, ParameterError,
                     ResourceSpec, average_fidelity, classical_benchmark,
                     fidelity_closed, fidelity_quadrature, gamma_cov)
from telefid.fidelity import _fidelity_form
from telefid.optimize import (AFFINITY_RMAX, PARAM_XTOL, ZOOM_POINTS,
                              _grid_then_zoom, _zoom_max, affinity,
                              fidelity_at_optimum, one_shot_fidelity,
                              optimize_beta_independent,
                              optimize_gain_average, r_max)
from telefid.phase_space import _rows, photon_subtraction_angle

NONIDEAL = NoiseParams(tau=0.3, r2=0.05)


@pytest.fixture
def form_calls(monkeypatch):
    """The optimizer's _fidelity_form calls, recorded as it makes them."""
    calls = []
    real = optimize._fidelity_form

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimize, "_fidelity_form", counted)
    return calls


class TestZoom:

    @staticmethod
    def quadratic(_, x, ys):
        return 1 - (x - 0.31) ** 2 - 2 * (ys + 0.17) ** 2 + 0.5 * x * ys

    def test_grid_then_zoom_refines(self):
        grid = np.linspace(0.0, 2.0, 21)
        (x,), fx, nfev = _grid_then_zoom(lambda _, x: 2 - (x - 0.73) ** 2,
                                         grid)
        assert x == pytest.approx(0.73, abs=1e-7)
        assert fx == pytest.approx(2.0, abs=1e-15)
        assert nfev > len(grid)

    def test_grid_then_zoom_keeps_a_higher_grid_point(self):
        """A spike the zoom's meshes never meet again stays the answer."""
        grid = np.linspace(0.0, 1.0, 11)

        def spike(_, x):
            return np.where(x == grid[4], 1.0, x / 2)

        (x,), fx, _ = _grid_then_zoom(spike, grid)
        assert (x, fx) == (grid[4], 1.0)

    def test_grid_then_zoom_refines_each_branch(self):
        """The higher of two branches: the grid favours the first (0.9999
        at 0.3 against 0.955 at 0.8), while the second peaks higher
        between grid points, where a zoom from 0.3 never goes."""
        grid = np.linspace(0.0, 1.0, 11)

        def branches(_, x):
            return np.stack((1 - (x - 0.31) ** 2,
                             1 + 1e-7 - 50 * (x - 0.77) ** 2), axis=-1)

        (x,), fx, nfev = _grid_then_zoom(branches, grid)
        assert x == pytest.approx(0.77, abs=1e-7)
        assert fx == pytest.approx(1 + 1e-7, abs=1e-12)
        # each branch takes its own zoom, eight meshes from a 0.1 step
        assert nfev == len(grid) + 2 * 8 * ZOOM_POINTS

    def test_interior_maximum(self):
        # grad = 0 at x = 0.31 + y / 4, y = x / 8 - 0.17, within the steps
        # of the start
        x_opt = (0.31 - 0.17 / 4) / (1 - 1 / 32)
        y_opt = x_opt / 8 - 0.17
        ((x, y),), (fx,), (nfev,) = _zoom_max(
            self.quadratic, [(0.25, -0.1)], [self.quadratic(0, 0.25, -0.1)],
            [(0.05, 0.1)], ((-1.0, 1.0), (-1.0, 1.0)))
        assert x == pytest.approx(x_opt, abs=1e-7)
        assert y == pytest.approx(y_opt, abs=1e-7)
        assert fx == self.quadratic(0, x, np.array([y]))[0]
        assert nfev == 8 * ZOOM_POINTS ** 2

    def test_stays_in_the_box(self):
        # the maximum on x <= 0.1, y >= 0 is the corner (0.1, 0)
        ((x, y),), (fx,), _ = _zoom_max(
            self.quadratic, [(0.0, 0.05)], [self.quadratic(0, 0.0, 0.05)],
            [(0.1, 0.1)], ((-1.0, 0.1), (0.0, 1.0)))
        assert (x, y) == (0.1, 0.0)
        assert fx == self.quadratic(0, 0.1, np.array([0.0]))[0]

    def test_narrow_ridge_costs_a_bounded_search(self):
        """The meshes cannot follow the ridge x = 0.3 y, which is narrow
        across their axes; the stencil search this replaced crawled along
        it for 1.2 million evaluations before a run limit was added. The
        zoom's cost is set by its steps alone: one mesh per factor
        (ZOOM_POINTS - 1)/2 down to PARAM_XTOL, never below the start."""
        def ridge(_, x, ys):
            return ys - 1e6 * (x - 0.3 * ys) ** 2

        ((x, y),), (fx,), (nfev,) = _zoom_max(
            ridge, [(0.0, 0.0)], [0.0], [(0.05, 0.05)],
            ((-1.0, 1.0), (0.0, 1.0)))
        meshes = math.ceil(math.log(0.05 / PARAM_XTOL)
                           / math.log((ZOOM_POINTS - 1) / 2))
        assert fx >= 0.0 and -1.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        assert nfev == meshes * ZOOM_POINTS ** 2


class TestSqueezingSweetSpot:
    """With channel loss, more squeezing is not always better."""

    CASES = [(0.1, 1.844544, 0.913106434),
             (0.2, 1.498283, 0.846547053),
             (0.3, 1.296070, 0.794166511)]

    @pytest.mark.parametrize("tau,r_star,f_star", CASES)
    def test_location(self, tau, r_star, f_star):
        assert r_max(tau) == pytest.approx(r_star, abs=1e-5)

    @pytest.mark.parametrize("tau,r_star,f_star", CASES)
    def test_is_the_argmax(self, tau, r_star, f_star):
        noise = NoiseParams(tau=tau)
        gain = GainSetting.unity_over_t()

        def f(r):
            return fidelity_closed(ResourceSpec.twin_beam(r), noise,
                                   gain).value

        res = minimize_scalar(lambda r: -f(r), bounds=(0.0, 3.0),
                              method="bounded", options={"xatol": 1e-8})
        assert res.x == pytest.approx(r_max(tau), abs=1e-3)
        assert -res.fun == pytest.approx(f_star, abs=1e-6)

    @pytest.mark.parametrize("tau,r_star,f_star", CASES)
    def test_optimized_families_share_the_maximum(self, tau, r_star, f_star):
        """At the sweet spot the optimal Bell and cat parameters vanish,
        so all three families top out at the same fidelity."""
        noise = NoiseParams(tau=tau)
        rs = r_max(tau)
        twb = optimize_beta_independent("twin-beam", rs, noise).best_value
        sb = optimize_beta_independent("squeezed-bell", rs, noise).best_value
        sc = optimize_beta_independent("squeezed-cat", rs, noise).best_value
        assert twb == pytest.approx(f_star, abs=1e-6)
        assert sb == pytest.approx(f_star, abs=1e-6)
        assert sc == pytest.approx(f_star, abs=1e-6)

    def test_tiny_tau(self):
        """cosh(tau/2) - 1 rounds to 0 here; the closed expression
        -log(tanh(tau/4))/2 does not."""
        assert r_max(1e-300) == pytest.approx(-0.5 * math.log(2.5e-301),
                                              rel=1e-15)

    @given(st.floats(-300, math.log10(1400)).map(lambda e: 10 ** e))
    @example(20.0)
    @example(75.0)
    @example(200.0)
    @example(1400.0)
    @example(1e-300)
    @settings(max_examples=300, deadline=None)
    def test_matches_mpmath(self, tau):
        """r_max = (1/2) log coth(tau/4) to 1e-15 relative. The log of
        tanh lost digits from tau ~ 20 (7% at 75) and read -0.0 from 80,
        where the value is e^{-tau/2} to first order."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):
            ref = float(mpmath.log(mpmath.coth(mpmath.mpf(tau) / 4)) / 2)
        assert r_max(tau) == pytest.approx(ref, rel=1e-15, abs=0)

    def test_smallest_subnormal_tau(self):
        """tau / 2 underflows to 0 at tau = 5e-324, and the log of
        tanh(tau/4) = 0 raised ValueError; the value is (1/2) log(4/tau)
        there."""
        tau = 5e-324
        assert r_max(tau) == pytest.approx(
            0.5 * (math.log(4) - math.log(tau)), rel=1e-15)

    def test_validation(self):
        assert r_max(0.0) is None
        with pytest.raises(ParameterError):
            r_max(-0.1)


class TestBetaIndependentOptimization:

    NOISES = [NoiseParams(), NoiseParams(tau=0.1, n_th=0.1, r2=0.05),
              NONIDEAL]

    def test_cat_optimum_can_lie_off_the_closed_form_phases(self):
        """The closed forms, and so the optimizer, hold theta = 0 and
        gamma real; a complex gamma with theta != 0 beats this cat's
        real-gamma optimum 0.7177569 by 1.47e-4."""
        noise = NoiseParams(tau=0.36106, n_th=0.078615, r2=0.052422)
        opt = optimize_beta_independent("squeezed-cat", 1.4093, noise)
        spec = ResourceSpec.squeezed_cat(1.4093, delta=0.11, theta=2.021,
                                         gamma_mod=0.712, gamma_phase=-2.491)
        off = fidelity_quadrature(CoherentInput(0j), spec, noise, opt.gain)
        assert opt.best_value == pytest.approx(0.7177569, abs=1e-7)
        assert off.value - opt.best_value > 1.4e-4

    @pytest.mark.parametrize("r", [0.3, 0.8, 1.3])
    @pytest.mark.parametrize("noise", NOISES, ids=["ideal", "mild", "lossy"])
    def test_dominations_hold_exactly(self, r, noise):
        """The optimized families beat their subcases on every tested
        point, with no tolerance: the subcase parameters sit in the
        candidate list of the optimizer."""
        twb = optimize_beta_independent("twin-beam", r, noise).best_value
        pss = optimize_beta_independent("photon-subtracted", r,
                                        noise).best_value
        sb = optimize_beta_independent("squeezed-bell", r, noise).best_value
        sc = optimize_beta_independent("squeezed-cat", r, noise).best_value
        assert sb >= twb
        assert sb >= pss
        assert sc >= twb

    def test_subcase_reductions(self):
        """delta = 0 and gamma = 0 collapse the larger families onto the
        twin beam."""
        noise = NONIDEAL
        gain = GainSetting.unity_over_t()
        for r in (0.4, 0.9):
            twb = fidelity_closed(ResourceSpec.twin_beam(r), noise,
                                  gain).value
            sb0 = fidelity_closed(ResourceSpec.squeezed_bell(r, delta=0.0),
                                  noise, gain).value
            sc0 = fidelity_closed(
                ResourceSpec.squeezed_cat(r, delta=0.0, gamma_mod=0.7),
                noise, gain).value
            scg = fidelity_closed(
                ResourceSpec.squeezed_cat(r, delta=0.3, gamma_mod=0.0),
                noise, gain).value
            assert sb0 == twb
            assert sc0 == pytest.approx(twb, abs=1e-12)
            assert scg == pytest.approx(twb, abs=1e-12)

    def test_optimum_beats_probe_grid(self):
        noise = NONIDEAL
        r = 0.8
        opt = optimize_beta_independent("squeezed-bell", r, noise)
        gain = GainSetting.unity_over_t()
        for d in np.linspace(-1.5, 1.5, 23):
            probe = fidelity_closed(ResourceSpec.squeezed_bell(r, delta=d),
                                    noise, gain).value
            assert opt.best_value >= probe - 1e-12

    def test_cat_optimum_metadata(self):
        opt = optimize_beta_independent("squeezed-cat", 1.0, NONIDEAL)
        assert opt.method == "eigen+zoom"
        assert opt.best_value == pytest.approx(0.752540968191, abs=1e-9)
        assert opt.delta_opt == pytest.approx(0.244730616209, abs=1e-5)
        assert opt.gamma_opt == pytest.approx(0.834822832584, abs=1e-5)

    def test_cat_optimum_beats_dense_scan(self):
        """At r = 1.3 the cat's best point sits on a shallow ridge at
        delta ~ -0.002, 4.5e-7 above the twin beam; a (delta, gamma) scan
        refined twice must not find a higher value."""
        r = 1.3
        gain = GainSetting.unity_over_t()

        def scan(deltas, gammas):
            return max((fidelity_closed(
                ResourceSpec.squeezed_cat(r, delta=d, gamma_mod=g),
                NONIDEAL, gain).value, d, g)
                for d in deltas for g in gammas)

        best, d0, g0 = scan(np.linspace(-0.5, 0.5, 201),
                            np.linspace(0.1, 2.0, 20))
        for dd, dg in ((0.005, 0.1), (0.0005, 0.01)):
            best, d0, g0 = scan(np.linspace(d0 - dd, d0 + dd, 21),
                                np.linspace(g0 - dg, g0 + dg, 21))
        opt = optimize_beta_independent("squeezed-cat", r, NONIDEAL)
        assert opt.best_value >= best - 1e-12
        at_opt = fidelity_closed(
            ResourceSpec.squeezed_cat(r, delta=opt.delta_opt,
                                      gamma_mod=opt.gamma_opt),
            NONIDEAL, gain).value
        assert at_opt == pytest.approx(opt.best_value, abs=1e-15)

    def test_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            optimize_beta_independent("ghz", 0.5, NoiseParams())


class TestPhotonSubtractionCrossover:
    """Below a crossover squeezing the optimal Bell angle is larger than
    the photon-subtraction angle, above it smaller; at the crossover the
    two resources coincide."""

    def _crossing(self, noise):
        def h(r):
            opt = optimize_beta_independent("squeezed-bell", r, noise)
            return opt.delta_opt - photon_subtraction_angle(r)

        a, b = 0.3, 0.8
        ha = h(a)
        assert ha > 0 > h(b)
        for _ in range(30):
            m = 0.5 * (a + b)
            if (h(m) > 0) == (ha > 0):
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    def test_ideal_channel(self):
        assert self._crossing(NoiseParams()) == pytest.approx(
            math.log(3) / 2, abs=1e-3)

    def test_lossy_channel(self):
        assert self._crossing(NONIDEAL) == pytest.approx(0.488693, abs=2e-3)


class TestAveragedOptimization:

    def test_factorized_objective_matches_tensor_average(self):
        """The closed-path average, taken as 1-D node sums, must equal
        the 60 x 60 tensor Gauss-Hermite rule over point fidelities."""
        rng = np.random.default_rng(31)
        noise = NoiseParams(tau=0.2, n_th=0.1, r2=0.05)
        sigma = 8.0
        prior = AlphabetPrior(sigma)
        t, w = np.polynomial.hermite.hermgauss(60)
        w = w / w.sum()
        for family in ("twin-beam", "squeezed-bell", "buridan",
                       "squeezed-cat", "photon-subtracted"):
            for _ in range(3):
                g = rng.uniform(0.7, 1.4)
                d = rng.uniform(-1.2, 1.2)
                gm = rng.uniform(0.1, 1.5)
                spec = {"twin-beam": ResourceSpec.twin_beam(0.9),
                        "squeezed-bell": ResourceSpec.squeezed_bell(
                            0.9, delta=d),
                        "buridan": ResourceSpec.buridan_donkey(0.9, delta=d),
                        "squeezed-cat": ResourceSpec.squeezed_cat(
                            0.9, delta=d, gamma_mod=gm),
                        "photon-subtracted": ResourceSpec.photon_subtracted(
                            0.9)}[family]
                gain = GainSetting.fixed(g)
                ours = average_fidelity(spec, noise, gain, prior).value
                # the 3600 nodes' point fidelities in one column call
                vals = fidelity_closed(spec, noise, gain, np.array([
                    math.sqrt(sigma) * complex(t[i], t[j])
                    for i in range(60) for j in range(60)])).value
                ref = sum(w[k // 60] * w[k % 60] * val
                          for k, val in enumerate(vals.tolist()))
                assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell",
                                        "squeezed-cat", "buridan",
                                        "photon-subtracted"])
    @pytest.mark.parametrize("sigma", [10.0, 100.0])
    def test_never_below_unity_gain_baseline(self, family, sigma):
        """g = 1/T with the beta-independent optimum is in the candidate
        list, so the averaged optimum cannot fall below it (1e-12 covers
        the recompute through the public average)."""
        base = optimize_beta_independent(family, 0.8, NONIDEAL)
        opt = optimize_gain_average(family, 0.8, NONIDEAL,
                                    AlphabetPrior(sigma))
        assert opt.best_value >= base.best_value - 1e-12

    def test_gain_approaches_unity_for_wide_priors(self):
        noise = NONIDEAL
        T = noise.transmissivity
        devs = []
        for sigma in (10.0, 100.0, 1000.0):
            opt = optimize_gain_average("twin-beam", 0.8, noise,
                                        AlphabetPrior(sigma))
            devs.append(abs(opt.g_opt * T - 1.0))
        assert devs[0] > devs[1] > devs[2]

    def test_squeezed_bell_regression(self):
        opt = optimize_gain_average("squeezed-bell", 0.8, NONIDEAL,
                                    AlphabetPrior(10.0))
        assert opt.best_value == pytest.approx(0.793071310803, abs=1e-9)
        assert opt.g_opt == pytest.approx(0.951308935551, abs=1e-6)
        assert opt.delta_opt == pytest.approx(0.404832762182, abs=1e-5)
        assert opt.method == "eigen+zoom"

    def test_wide_prior_bell_optimum_beats_dense_scan(self):
        """At sigma = 100 and r = 1.325 the best Bell angle is small but
        not 0 (delta ~ 0.007); a (g, delta) scan refined twice must not
        beat the optimizer."""
        r = 1.325
        prior = AlphabetPrior(100.0)

        def scan(gains, deltas):
            return max((average_fidelity(
                ResourceSpec.squeezed_bell(r, delta=d), NONIDEAL,
                GainSetting.fixed(g), prior).value, g, d)
                for g in gains for d in deltas)

        best, g0, d0 = scan(np.linspace(0.95, 1.1, 31),
                            np.linspace(-0.1, 0.1, 41))
        for dg, dd in ((0.005, 0.005), (0.0005, 0.0005)):
            best, g0, d0 = scan(np.linspace(g0 - dg, g0 + dg, 21),
                                np.linspace(d0 - dd, d0 + dd, 21))
        opt = optimize_gain_average("squeezed-bell", r, NONIDEAL, prior)
        assert opt.best_value >= best - 1e-12

    @pytest.mark.parametrize("sigma,r", [(100.0, 1.325), (10.0, 1.775)])
    def test_averaged_cat_optimum_beats_dense_scan(self, sigma, r):
        """The averaged cat's (g, gamma) zoom search and delta
        eigenvalue must not be beaten by a (g, gamma, delta) scan of the
        public average, refined twice."""
        prior = AlphabetPrior(sigma)

        def scan(gains, gammas, deltas):
            points = [(g, c, d) for g in gains for c in gammas
                      for d in deltas]
            g, c, d = map(np.array, zip(*points))
            vals = average_fidelity(
                ResourceSpec.squeezed_cat(r, delta=d, gamma_mod=c), NONIDEAL,
                GainSetting(g), prior).value
            return max((val, *point)
                       for val, point in zip(vals.tolist(), points))

        best, g0, c0, d0 = scan(np.linspace(0.9, 1.1, 21),
                                np.linspace(0.2, 1.6, 15),
                                np.linspace(-0.2, 0.2, 21))
        for dg, dc, dd in ((0.01, 0.1, 0.02), (0.002, 0.02, 0.004)):
            best, g0, c0, d0 = scan(np.linspace(g0 - dg, g0 + dg, 11),
                                    np.linspace(c0 - dc, c0 + dc, 11),
                                    np.linspace(d0 - dd, d0 + dd, 11))
        opt = optimize_gain_average("squeezed-cat", r, NONIDEAL, prior)
        assert opt.method == "eigen+zoom"
        assert opt.best_value >= best - 1e-12

    def test_beats_classical_benchmark(self):
        prior = AlphabetPrior(10.0)
        opt = optimize_gain_average("squeezed-bell", 1.0, NONIDEAL, prior)
        assert opt.best_value > classical_benchmark(prior)

    def test_averaged_cat_search_cost(self, form_calls):
        """The averaged cat's search reads the beta = 0 form at the
        shifted noise: one form call covers the 102 x 51 (gain, gamma)
        grid and one each zoom mesh, 21 calls with the beta-independent
        search it starts from. With the prior's 60-node form, one call
        per gain row and per stencil row, this point took 235, and the
        3 x 3 stencil walk 80."""
        opt = optimize_gain_average(
            "squeezed-cat", 0.8, NoiseParams(tau=0.3, n_th=0.1, r2=0.05),
            AlphabetPrior(10.0))
        assert len(form_calls) <= 25
        # evaluations count the form points, the grid among them
        assert opt.evaluations >= 101 * 51

    @pytest.mark.parametrize("r", [2.0, 4.0, 6.5, 10.0])
    def test_averaged_cat_on_the_gain_ridge(self, r, form_calls):
        """At large r the averaged cat's gain peak at g~ = eps = e^{-tau/2}
        is about e^{-2r} wide, far below the gain grid's spacing. The
        search must not fall below a dense scan of 2,001 gains across
        that ridge, g~ - eps in e^{-2r} [-1, 1], plus 2,001 uniform gains,
        times 501 gamma, read as the exact average; the 3 x 3 stencil walk
        fell 1.5e-7 and 7.4e-9 short of it at r = 4 and 6.5."""
        x = 0.713
        noise, prior = NoiseParams(tau=x, n_th=x, r2=x), AlphabetPrior(6.5)
        opt = optimize_gain_average("squeezed-cat", r, noise, prior)
        assert len(form_calls) <= 25
        T, eps = noise.transmissivity, math.exp(-x / 2)
        dense = 0.0
        for gt in (eps + math.exp(-2 * r) * np.linspace(-1.0, 1.0, 2001),
                   np.linspace(2 / 101, 2.0, 2001)):
            form = _fidelity_form(
                "squeezed-cat", r, np.linspace(0.0, 5.0, 501), gt[:, None],
                gamma_cov(noise, gt[:, None] / T), x, 0j, prior.sigma)
            dense = max(dense, float(np.max(form.a + form.top())))
        assert opt.best_value >= dense - 1e-10

    @pytest.mark.parametrize("r,noise,sigma", [
        (1.9, NoiseParams(tau=0.1), 10.0),
        (1.9, NoiseParams(tau=1.0, r2=0.1), 1.0),
    ])
    def test_averaged_buridan_takes_the_higher_branch(self, r, noise,
                                                      sigma):
        """At beta = 0 Buridan's F(delta) = a + e sin^2 delta peaks at
        delta = 0 or pi/2, so the averaged objective max(a, a + e) has a
        kink in the gain. Golden section from the grid's best point stayed
        on the branch the grid favoured and ended 3e-4 and 4.3e-4 below a
        dense scan of both branches here."""
        opt = optimize_gain_average("buridan", r, noise, AlphabetPrior(sigma))
        g_top = 2 / noise.transmissivity
        g, d = map(np.array, zip(*[
            (g, d) for g in np.linspace(g_top / 101, g_top, 4001)
            for d in (0.0, math.pi / 2)]))
        dense = max(average_fidelity(
            ResourceSpec.buridan_donkey(r, delta=d), noise, GainSetting(g),
            AlphabetPrior(sigma)).value)
        assert opt.best_value >= dense - 1e-9

    @pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell",
                                        "buridan", "photon-subtracted"])
    def test_averaged_bell_search_cost(self, family, form_calls):
        """The Bell-type gain grid, 101 points uniform in the stretched
        gain w plus the ridge, is one form call, and each zoom mesh one
        more: eight meshes of ZOOM_POINTS from the grid's spacing in w
        down to PARAM_XTOL, 12 calls in all, where one call per grid
        point took 138 and golden section 38. The evaluations are the
        102 grid points, the meshes' 136, the beta-independent optimum,
        the unity candidate, the public average and the form at the
        optimum. Buridan's two branches share the grid call and take a
        zoom each, 8 more calls and 136 more evaluations."""
        opt = optimize_gain_average(
            family, 0.8, NoiseParams(tau=0.3, n_th=0.1, r2=0.05),
            AlphabetPrior(10.0))
        extra = 8 if family == "buridan" else 0
        assert len(form_calls) <= 12 + extra
        assert opt.evaluations == 242 + 17 * extra

    @pytest.mark.parametrize("family", ["squeezed-bell", "buridan"])
    @pytest.mark.parametrize("r", [6.0, 7.0, 8.0])
    def test_averaged_bell_on_the_gain_ridge(self, family, r):
        """Like the cat's, the Bell-type averaged gain peaks a few e^{-2r}
        from g~ = eps = e^{-tau/2}, far below a uniform gain grid's
        spacing. The searched objective, the beta = 0 form at the noise
        Gamma + (g~ - 1)^2 sigma with the best delta, must reach a dense
        scan of 20,001 gains with g~ - eps in e^{-2r} [-10, 10] plus
        2,001 uniform gains, less 1e-13. The search on a gain grid
        uniform in g fell 1.4e-13 short at r = 8 (Buridan). best_value
        is the public average, still on the 60-node rule, so the
        objective is formed here."""
        x = 0.3
        noise, prior = NoiseParams(tau=x, n_th=x, r2=x), AlphabetPrior(10.0)
        T, eps = noise.transmissivity, math.exp(-x / 2)

        def objective(gt):
            gt = np.reshape(gt, (-1, 1))
            form = _fidelity_form(family, r, 0.0, gt, gamma_cov(noise, gt / T)
                                  + (gt - 1) * (gt - 1) * prior.sigma, x, 0j)
            return optimize._best_delta(family, r, form)[1]

        opt = optimize_gain_average(family, r, noise, prior)
        dense = max(float(np.max(objective(gt))) for gt in (
            eps + math.exp(-2 * r) * np.linspace(-10.0, 10.0, 20001),
            np.linspace(2 / 101, 2.0, 2001)))
        found = float(objective(opt.gain.effective(noise))[0, 0])
        assert found >= dense - 1e-13


@pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell", "buridan",
                                    "photon-subtracted"])
def test_column_best_delta_is_the_rows_best_delta(family):
    """The Bell-type gain grid takes the best delta of a column form: row
    by row it must be the scalar choice, to the bit, so that the grid's
    best point is the same. 101 gains with the unity gain among them, at
    the prior-shifted noise Gamma + (g~ - 1)^2 sigma."""
    r, noise, sigma = 0.8, NoiseParams(tau=0.3, n_th=0.1, r2=0.05), 10.0
    gains = [GainSetting.fixed(g) for g in np.linspace(0.02, 2.0, 100)]
    gains.insert(50, GainSetting.unity_over_t())
    rows = [(gain.effective(noise), gamma_cov(noise, gain)
             + (gain.effective(noise) - 1) ** 2 * sigma) for gain in gains]
    gt, gam = np.array(rows).T[..., None]
    col_delta, vals = optimize._best_delta(family, r, _fidelity_form(
        family, r, 0.0, gt, gam, noise.tau, 0j))
    assert vals.shape == gt.shape
    for k, (g, c) in enumerate(rows):
        delta, val = optimize._best_delta(family, r, _fidelity_form(
            family, r, 0.0, g, c, noise.tau, 0j))
        assert vals[k, 0] == val
        if delta is None:
            assert col_delta is None
        else:
            assert np.broadcast_to(col_delta, gt.shape)[k, 0] == delta


PRESET_AXIS = [float(x) for x in np.linspace(0.0, 2.0, 81)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sigma", [None, 10.0])
@pytest.mark.parametrize("axis", ["r", "tau"])
def test_column_is_each_points_own_optimization(family, sigma, axis):
    """A column call searches its points in lockstep and returns one
    result, and each row must be the point's own optimization, to the
    bit: best value, parameters, route, spec and gain (repr shows every
    float exactly; a column marks a unity-gain row NaN). The columns are
    preset 3-II's 81 r at tau = 0.3 and preset 6-I's 81 tau at r = 0.8,
    R^2 = 0.05; the column's evaluations are the points' total."""
    if axis == "r":
        rs, noises = PRESET_AXIS, [NoiseParams(tau=0.3)] * 81
        column = rs, noises[0]
    else:
        rs = [0.8] * 81
        noises = [NoiseParams(tau=t, r2=0.05) for t in PRESET_AXIS]
        column = 0.8, NoiseParams(tau=np.array(PRESET_AXIS), r2=0.05)
    prior = None if sigma is None else AlphabetPrior(sigma)

    def run(r, noise):
        return (optimize_beta_independent(family, r, noise) if prior is None
                else optimize_gain_average(family, r, noise, prior))

    opt = run(*column)
    points = [run(r, noise) for r, noise in zip(rs, noises)]
    assert type(opt.evaluations) is int
    assert opt.evaluations == sum(point.evaluations for point in points)
    assert all(x is None or isinstance(x, np.ndarray) and x.shape == (81,)
               for x in (opt.best_value, opt.delta_opt, opt.gamma_opt,
                         opt.g_opt))
    specs, gains = _rows(opt.spec, 81), _rows(opt.gain, 81)
    for i, point in enumerate(points):
        for name in ("best_value", "delta_opt", "gamma_opt", "g_opt"):
            value = getattr(opt, name)
            assert repr(value if value is None else float(value[i])) == \
                repr(getattr(point, name)), name
        assert opt.method == point.method
        assert repr(specs[i]) == repr(point.spec)
        assert repr(GainSetting(None if math.isnan(gains[i].g)
                                else gains[i].g)) == repr(point.gain)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sigma", [None, 10.0])
def test_column_form_calls(family, sigma, form_calls):
    """81 points in one column take the form calls of one point, except
    the averaged cat's (gain, gamma) grid, one call per row: 10 for the
    beta-independent cat, 12 for an averaged Bell-type family (20 for
    Buridan's two branches) and 81 + 20 for the averaged cat. No call
    holds more than 25,000 points, the averaged cat's 81 x 17 x 17 zoom
    mesh being the largest, so the column costs little peak memory."""
    noise = NoiseParams(tau=0.3)
    if sigma is None:
        optimize_beta_independent(family, PRESET_AXIS, noise)
        bound = 10 if family == "squeezed-cat" else 1
    else:
        optimize_gain_average(family, PRESET_AXIS, noise,
                              AlphabetPrior(sigma))
        bound = {"squeezed-cat": 81 + 20, "buridan": 20}.get(family, 12)
    assert len(form_calls) <= bound
    assert max(np.broadcast(*(x for x in args if isinstance(x, np.ndarray)))
               .size for args in form_calls) <= 25000


def test_zero_d_arrays_are_points():
    opt = optimize_beta_independent("squeezed-cat", np.array(0.8), NONIDEAL)
    assert opt == optimize_beta_independent("squeezed-cat", 0.8, NONIDEAL)
    prior = AlphabetPrior(10.0)
    avg = optimize_gain_average("twin-beam", 0.8, NONIDEAL, prior)
    assert (fidelity_at_optimum(avg, NONIDEAL, prior, np.array(1.5 - 1j))
            == fidelity_at_optimum(avg, NONIDEAL, prior, 1.5 - 1j))


def test_column_rejects_mismatched_lengths():
    with pytest.raises(ParameterError, match="do not match"):
        optimize_beta_independent("twin-beam", [0.1, 0.2],
                                  NoiseParams(tau=np.array([0.1, 0.2, 0.3])))


class TestOneShot:

    def test_wide_prior_levels_the_alphabet(self):
        """At sigma = 100 the optimal gain is so close to unity that the
        one-shot fidelity barely depends on the input amplitude."""
        prior = AlphabetPrior(100.0)
        vals = [one_shot_fidelity("squeezed-bell", 0.8, NONIDEAL, prior,
                                  beta).value
                for beta in (3.0, 5.0, 10.0)]
        assert max(vals) - min(vals) < 0.02
        assert all(v > classical_benchmark(prior) for v in vals)

    def test_report_carries_context(self):
        prior = AlphabetPrior(10.0)
        rep = one_shot_fidelity("twin-beam", 0.8, NONIDEAL, prior, 1 + 1j)
        assert rep.sigma == 10.0
        assert rep.beta == 1 + 1j
        assert 0 < rep.value <= 1

    def test_rejects_beta_outside_prior_support(self):
        with pytest.raises(ParameterError):
            one_shot_fidelity("twin-beam", 0.8, NONIDEAL,
                              AlphabetPrior(0.1), 30.0)

    def test_is_the_value_at_the_optimum(self):
        prior = AlphabetPrior(10.0)
        opt = optimize_gain_average("squeezed-cat", 0.8, NONIDEAL, prior)
        rep = fidelity_at_optimum(opt, NONIDEAL, prior, 2 - 1j)
        assert rep.value == fidelity_closed(opt.spec, NONIDEAL, opt.gain,
                                            2 - 1j).value
        assert rep.value == one_shot_fidelity("squeezed-cat", 0.8, NONIDEAL,
                                              prior, 2 - 1j).value
        with pytest.raises(ParameterError, match="numerical support"):
            fidelity_at_optimum(opt, NONIDEAL, prior, 84)

    @pytest.mark.parametrize("family", ["squeezed-cat", "squeezed-bell",
                                        "twin-beam"])
    def test_column_rows_are_points(self, family):
        """An averaged column result at a column of amplitudes gives each
        row its point call's value, to the bit."""
        prior = AlphabetPrior(10.0)
        rs = np.array([0.0, 0.3, 0.8, 1.4, 2.0])
        betas = np.array([0j, 1.5, -2 + 1j, 0.5j, 3 - 3j])
        opt = optimize_gain_average(family, rs, NONIDEAL, prior)
        rep = fidelity_at_optimum(opt, NONIDEAL, prior, betas)
        for r, beta, value in zip(rs, betas, rep.value):
            point = fidelity_at_optimum(optimize_gain_average(
                family, r, NONIDEAL, prior), NONIDEAL, prior, beta)
            assert float(value).hex() == point.value.hex()

    def test_column_names_its_row_outside_the_support(self):
        """Of two rows outside the support, the first raises, with the
        message its point call raises."""
        prior = AlphabetPrior(10.0)
        rs = np.array([0.0, 0.3, 0.8, 1.4, 2.0])
        opt = optimize_gain_average("squeezed-bell", rs, NONIDEAL, prior)
        with pytest.raises(ParameterError) as point:
            fidelity_at_optimum(optimize_gain_average(
                "squeezed-bell", 0.8, NONIDEAL, prior), NONIDEAL, prior, 84j)
        with pytest.raises(ParameterError) as column:
            fidelity_at_optimum(opt, NONIDEAL, prior,
                                np.array([1.0, 2 - 1j, 84j, 0j, -90.0]))
        assert column.value.row == 2
        assert str(column.value) == str(point.value)


class TestAffinity:
    """Distance of each core from the plain two-mode squeezed vacuum."""

    def test_twin_beam_is_gaussian(self):
        assert affinity(ResourceSpec.twin_beam(0.9)) >= 1 - 1e-9

    def test_cat_collapses_for_small_gamma(self):
        spec = ResourceSpec.squeezed_cat(0.8, delta=0.3, gamma_mod=1e-6)
        assert affinity(spec) >= 1 - 1e-9

    def test_squeezed_fock_pair(self):
        # core |11>: the best squeezed-vacuum overlap is exactly 1/4
        spec = ResourceSpec.squeezed_bell(0.8, delta=math.pi / 2)
        assert affinity(spec) == pytest.approx(0.25, abs=1e-5)

    def test_known_values(self):
        assert affinity(ResourceSpec.photon_subtracted(0.9)) \
            == pytest.approx(0.921834, abs=1e-5)
        spec = ResourceSpec.squeezed_cat(0.8, delta=0.3, gamma_mod=0.9)
        assert affinity(spec) == pytest.approx(0.953765, abs=1e-5)

    @staticmethod
    def bell_exact(delta):
        """At phi = pi the overlap is that of S(r' - r) on the vacuum:
        the max over u = tanh(r - r') of (cos d - u sin d)^2 (1 - u^2),
        at a real root of its derivative."""
        c, s = math.cos(delta), math.sin(delta)
        quartic = Polynomial([c, -s]) ** 2 * Polynomial([1, 0, -1])
        roots = quartic.deriv().roots()
        return max(quartic(u.real) for u in roots
                   if abs(u.imag) < 1e-12 and abs(u.real) < 1)

    @pytest.mark.parametrize("r", [2.0, 3.0])
    def test_exact_at_large_squeezing(self, r):
        """A truncated Fock space gave 0.595 at r = 2 and 0.064 at r = 3."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = affinity(ResourceSpec.squeezed_bell(r, delta=0.5))
        assert val == pytest.approx(self.bell_exact(0.5), abs=1e-9)
        assert val == pytest.approx(0.9609615481, abs=1e-9)

    def test_bimodal_overlap(self):
        """At r = 1.5, delta = -1.1 the overlap has a second, lower
        maximum in r'; the search must land on the higher one."""
        val = affinity(ResourceSpec.squeezed_bell(1.5, delta=-1.1))
        assert val == pytest.approx(self.bell_exact(-1.1), abs=1e-9)
        assert val == pytest.approx(0.62533, abs=1e-5)

    @pytest.mark.parametrize("r", [8.0, 50.0])
    def test_twin_beam_at_any_squeezing(self, r):
        """r' used to stop at 5, which gave 0.0099 at r = 8."""
        assert affinity(ResourceSpec.twin_beam(r)) >= 1 - 1e-12

    def test_huge_cat_amplitude(self):
        """|gamma|^2 overflows a double: the cat term leaves the overlap,
        which is that of cos(d) |00>."""
        for gamma_mod in (1e155, 1e300):
            spec = ResourceSpec.squeezed_cat(0.5, delta=0.3,
                                             gamma_mod=gamma_mod)
            assert affinity(spec) == pytest.approx(math.cos(0.3) ** 2,
                                                   abs=1e-12)

    @staticmethod
    def fock_affinity(spec, core):
        """The squeezed core in the oracles' Fock space, overlapped with
        S(r' e^{i pi})|00> on a dense r' scan refined around its best
        point."""
        dim = oracles.DIM
        diag = oracles.squeeze_two_mode(spec.zeta, core).reshape(
            dim, dim).diagonal()
        ns = np.arange(dim)

        def overlap_sq(rp):
            return abs(np.sum(np.tanh(rp) ** ns / np.cosh(rp) * diag)) ** 2

        grid = np.linspace(max(0.0, spec.r - AFFINITY_RMAX),
                           spec.r + AFFINITY_RMAX, 5001)
        vals = [overlap_sq(x) for x in grid]
        i = int(np.argmax(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(lambda x: -overlap_sq(x), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-10})
        return max(vals[i], -res.fun)

    @pytest.mark.parametrize("spec,core", [
        (ResourceSpec.squeezed_bell(0.5, delta=0.4),
         oracles.bell_core(0.4, 0.0)),
        (ResourceSpec.squeezed_bell(0.4, phi=2.0, delta=0.7, theta=1.1),
         oracles.bell_core(0.7, 1.1)),
        (ResourceSpec.twin_beam(0.5, phi=2.5), oracles.bell_core(0.0, 0.0)),
        (ResourceSpec.photon_subtracted(0.3, phi=2.2),
         oracles.bell_core(math.atan(math.tanh(0.3)), 2.2 + math.pi)),
        (ResourceSpec.buridan_donkey(0.5, phi=1.0, delta=0.4, theta=0.6),
         oracles.donkey_core(0.4, 0.6)),
        (ResourceSpec.squeezed_cat(0.5, delta=0.3, gamma_mod=0.9),
         oracles.cat_core(0.3, 0.0, 0.9)),
        (ResourceSpec.squeezed_cat(0.4, phi=1.0, delta=0.5, theta=0.3,
                                   gamma_mod=1.2, gamma_phase=0.7),
         oracles.cat_core(0.5, 0.3, 1.2 * np.exp(0.7j))),
    ], ids=["bell", "bell-phases", "twin-off-phase", "subtracted-off-phase",
            "buridan", "cat", "cat-complex"])
    def test_matches_fock_oracle(self, spec, core):
        assert affinity(spec) == pytest.approx(self.fock_affinity(spec, core),
                                               abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["twin-beam", "squeezed-bell", "squeezed-cat",
                            "buridan", "photon-subtracted"]),
    r=st.floats(0.0, 1000.0),
    phi=st.floats(allow_nan=False, allow_infinity=False),
    delta=st.floats(-math.pi, math.pi),
    theta=st.floats(-math.pi, math.pi),
    gamma_mod=st.floats(0.0, 1e300),
    gamma_phase=st.floats(-math.pi, math.pi),
)
def test_affinity_in_range(family, r, phi, delta, theta, gamma_mod,
                           gamma_phase):
    """Over the constructors' domain, at any finite phi however far from
    pi, the affinity is a squared overlap in [0, 1]: no overflow, even
    where cosh r or |gamma|^2 leave the double range. By hand, phi = 0.5
    gave 0.018 at r = 3 and 0.0 at r = 400."""
    try:
        spec = {"twin-beam": lambda: ResourceSpec.twin_beam(r, phi),
                "squeezed-bell": lambda: ResourceSpec.squeezed_bell(
                    r, phi, delta, theta),
                "squeezed-cat": lambda: ResourceSpec.squeezed_cat(
                    r, phi, delta, theta, gamma_mod, gamma_phase),
                "buridan": lambda: ResourceSpec.buridan_donkey(
                    r, phi, delta, theta),
                "photon-subtracted": lambda: ResourceSpec.photon_subtracted(
                    r, phi)}[family]()
    except ParameterError:
        return  # a degenerate cat core
    assert 0.0 <= affinity(spec) <= 1.0


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 1000.0),
    tau=st.floats(0.0, 50.0),
    n_th=st.floats(0.0, 10.0),
    r2=st.floats(0.0, 0.99),
    sigma=st.none() | st.floats(1e-3, 1e6),
)
def test_optimizers_over_the_domain(family, r, tau, n_th, r2, sigma):
    """Over every input the constructors accept, both optimizers return a
    best value in [0, 1], or raise NumericalError. Past r ~ 354, Delta
    overflows under the cat's gamma grid, on the point and prior paths."""
    noise = NoiseParams(tau=tau, n_th=n_th, r2=r2)
    try:
        opt = (optimize_beta_independent(family, r, noise) if sigma is None
               else optimize_gain_average(family, r, noise,
                                          AlphabetPrior(sigma)))
    except NumericalError:
        return
    assert 0.0 <= opt.best_value <= 1.0 + 1e-9
