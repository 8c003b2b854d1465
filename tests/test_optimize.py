"""Resource and gain optimization, squeezing sweet spot, affinity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.optimize import minimize_scalar

import oracles
from telefid import (AlphabetPrior, GainSetting, NoiseParams, ParameterError,
                     ResourceSpec, average_fidelity, classical_benchmark,
                     fidelity_closed)
from telefid.optimize import (AFFINITY_RMAX, _grid_then_golden,
                              _stencil_max, affinity, fidelity_at_optimum,
                              golden_section_max, one_shot_fidelity,
                              optimize_beta_independent,
                              optimize_gain_average, r_max)
from telefid.phase_space import photon_subtraction_angle

NONIDEAL = NoiseParams(tau=0.3, r2=0.05)


class TestGoldenSection:

    def test_parabola(self):
        x, fx, nfev = golden_section_max(lambda x: 2 - (x - 0.7) ** 2,
                                         -1.0, 2.0)
        assert x == pytest.approx(0.7, abs=1e-8)
        assert fx == pytest.approx(2.0, abs=1e-12)
        assert nfev > 2

    def test_edge_maximum(self):
        x, fx, _ = golden_section_max(lambda x: x, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-7)

    def test_grid_then_golden_refines(self):
        grid = np.linspace(0.0, 2.0, 21)
        x, fx, nfev = _grid_then_golden(lambda x: 2 - (x - 0.73) ** 2,
                                        grid, broadcast=True)
        assert x == pytest.approx(0.73, abs=1e-7)
        assert fx == pytest.approx(2.0, abs=1e-15)
        assert nfev > len(grid)

    def test_grid_then_golden_keeps_a_higher_grid_point(self):
        """A spike the golden section cannot see stays the answer."""
        grid = np.linspace(0.0, 1.0, 11)

        def spike(x):
            return 1.0 if x == grid[4] else x / 2

        x, fx, _ = _grid_then_golden(spike, grid)
        assert (x, fx) == (grid[4], 1.0)


class TestStencil:

    @staticmethod
    def quadratic(x, ys):
        return 1 - (x - 0.31) ** 2 - 2 * (ys + 0.17) ** 2 + 0.5 * x * ys

    def test_interior_maximum(self):
        # grad = 0 at x = 0.31 + y / 4, y = x / 8 - 0.17
        x_opt = (0.31 - 0.17 / 4) / (1 - 1 / 32)
        y_opt = x_opt / 8 - 0.17
        (x, y), fx, nfev = _stencil_max(
            self.quadratic, (0.0, 0.0), float(self.quadratic(0.0, 0.0)),
            (0.05, 0.1), ((-1.0, 1.0), (-1.0, 1.0)))
        assert x == pytest.approx(x_opt, abs=1e-7)
        assert y == pytest.approx(y_opt, abs=1e-7)
        assert fx == self.quadratic(x, np.array([y]))[0]
        assert 0 < nfev < 500

    def test_stays_in_the_box(self):
        # the maximum on x <= 0.1, y >= 0 is the corner (0.1, 0)
        (x, y), fx, _ = _stencil_max(
            self.quadratic, (0.0, 0.5), float(self.quadratic(0.0, 0.5)),
            (0.05, 0.05), ((-1.0, 0.1), (0.0, 1.0)))
        assert (x, y) == (0.1, 0.0)
        assert fx == self.quadratic(0.1, np.array([0.0]))[0]


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

        x, fx, _ = golden_section_max(f, 0.0, 3.0)
        assert x == pytest.approx(r_max(tau), abs=1e-3)
        assert fx == pytest.approx(f_star, abs=1e-6)

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

    def test_validation(self):
        assert r_max(0.0) is None
        with pytest.raises(ParameterError):
            r_max(-0.1)


class TestBetaIndependentOptimization:

    NOISES = [NoiseParams(), NoiseParams(tau=0.1, n_th=0.1, r2=0.05),
              NONIDEAL]

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
        assert opt.method == "eigen+golden"
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
                ref = sum(w[i] * w[j] * fidelity_closed(
                    spec, noise, gain,
                    math.sqrt(sigma) * complex(t[i], t[j])).value
                          for i in range(60) for j in range(60))
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
        assert opt.method == "eigen+golden"

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
        """The averaged cat's (g, gamma) stencil search and delta
        eigenvalue must not be beaten by a (g, gamma, delta) scan of the
        public average, refined twice."""
        prior = AlphabetPrior(sigma)

        def scan(gains, gammas, deltas):
            return max((average_fidelity(
                ResourceSpec.squeezed_cat(r, delta=d, gamma_mod=c),
                NONIDEAL, GainSetting.fixed(g), prior).value, g, c, d)
                for g in gains for c in gammas for d in deltas)

        best, g0, c0, d0 = scan(np.linspace(0.9, 1.1, 21),
                                np.linspace(0.2, 1.6, 15),
                                np.linspace(-0.2, 0.2, 21))
        for dg, dc, dd in ((0.01, 0.1, 0.02), (0.002, 0.02, 0.004)):
            best, g0, c0, d0 = scan(np.linspace(g0 - dg, g0 + dg, 11),
                                    np.linspace(c0 - dc, c0 + dc, 11),
                                    np.linspace(d0 - dd, d0 + dd, 11))
        opt = optimize_gain_average("squeezed-cat", r, NONIDEAL, prior)
        assert opt.method == "eigen+stencil"
        assert opt.best_value >= best - 1e-12

    def test_beats_classical_benchmark(self):
        prior = AlphabetPrior(10.0)
        opt = optimize_gain_average("squeezed-bell", 1.0, NONIDEAL, prior)
        assert opt.best_value > classical_benchmark(prior)


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
    phi=st.floats(-math.pi, 3 * math.pi),
    delta=st.floats(-math.pi, math.pi),
    theta=st.floats(-math.pi, math.pi),
    gamma_mod=st.floats(0.0, 1e300),
    gamma_phase=st.floats(-math.pi, math.pi),
)
def test_affinity_in_range(family, r, phi, delta, theta, gamma_mod,
                           gamma_phase):
    """Over the constructors' domain the affinity is a squared overlap in
    [0, 1]: no overflow, even where cosh r or |gamma|^2 leave the double
    range."""
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
