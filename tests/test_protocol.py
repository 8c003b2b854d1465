"""Protocol output chi, Bell conditioning, channel map, Gaussian pipeline."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from telefid import (FAMILIES, CoherentInput, GainSetting, NoiseParams,
                     NumericalError, ParameterError, PhasePoint,
                     QuadratureError, ResourceSpec, TwoModePhasePoint,
                     chi_resource, fidelity_closed, fidelity_gaussian_oracle,
                     protocol)
from telefid.phase_space import CORE_PARAMS, _chi_input_arrays
from telefid.protocol import (BellOutcome, chi_bell_conditioned, chi_out,
                              chi_out_ideal, chi_out_via_measurement_average,
                              displace_chi, gamma_cov, gaussian_pipeline,
                              outcome_distribution, propagate_lossy)


class TestNoiseParams:

    def test_defaults_are_ideal(self):
        noise = NoiseParams()
        assert noise.tau == 0 and noise.n_th == 0 and noise.r2 == 0
        assert noise.transmissivity == 1.0

    def test_transmissivity(self):
        assert NoiseParams(r2=0.19).transmissivity == pytest.approx(
            math.sqrt(0.81))
        assert NoiseParams(r2=0.25).reflectivity == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(tau=-0.1), dict(n_th=-1e-9), dict(r2=-0.01), dict(r2=1.0),
        dict(r2=1.5), dict(tau=float("nan")),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ParameterError):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize("columns,row,message", [
        # the earliest bad row wins over an earlier rule at a later row
        (dict(tau=[0.1, 0.2, -1.0], n_th=[0.0, -1.0, 0.0]), 1,
         "n_th must be >= 0, got -1.0"),
        # within a row, the rules in a point's order: tau before R^2
        (dict(tau=[0.1, -1.0], r2=[0.0, 2.0]), 1,
         "tau must be >= 0, got -1.0"),
        # and finiteness first
        (dict(tau=[0.1, 0.2, math.nan], r2=[0.0, 0.5, 2.0]), 2,
         "noise parameters must be finite, got nan"),
        (dict(tau=[-0.5, 0.2], r2=[0.0, 1.0]), 0,
         "tau must be >= 0, got -0.5"),
    ])
    def test_column_names_its_first_bad_row(self, columns, row, message):
        """A column raises what its first bad row alone raises."""
        with pytest.raises(ParameterError) as alone:
            NoiseParams(**{k: v[row] for k, v in columns.items()})
        with pytest.raises(ParameterError) as column:
            NoiseParams(**{k: np.array(v) for k, v in columns.items()})
        assert str(alone.value) == message
        assert (str(column.value), column.value.row) == (message, row)


class TestGainSetting:

    def test_fixed(self):
        gain = GainSetting.fixed(1.1)
        noise = NoiseParams(r2=0.19)
        assert gain.gain(noise) == 1.1
        assert gain.effective(noise) == pytest.approx(1.1 * math.sqrt(0.81))

    def test_unity_over_t_is_exact(self):
        gain = GainSetting.unity_over_t()
        noise = NoiseParams(r2=0.13)
        # the whole point of the rule: g~ is 1.0 with no rounding
        assert gain.effective(noise) == 1.0
        assert gain.gain(noise) == pytest.approx(1 / math.sqrt(0.87))

    def test_rejects(self):
        with pytest.raises(ParameterError):
            GainSetting.fixed(0.0)
        with pytest.raises(ParameterError):
            GainSetting.fixed(-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                GainSetting(bad)

    def test_none_is_the_unity_rule(self):
        assert GainSetting() == GainSetting.unity_over_t()
        assert GainSetting(None).effective(NoiseParams(r2=0.3)) == 1.0
        assert GainSetting(1.1) == GainSetting.fixed(1.1)


def test_gamma_cov():
    noise = NoiseParams(tau=0.2)
    assert gamma_cov(noise, GainSetting.fixed(1.0)) == pytest.approx(
        0.09063462346100909, abs=1e-15)
    noise = NoiseParams(tau=0.3, n_th=0.4, r2=0.1)
    g = 1.2
    expect = (1 - math.exp(-0.3)) * 0.9 + g * g * 0.1
    assert gamma_cov(noise, GainSetting.fixed(g)) == pytest.approx(
        expect, abs=1e-15)


def test_gamma_cov_at_bare_gains():
    """An array of bare gains gives, bit for bit, each GainSetting's
    Gamma, the unity rule's 1/T among them."""
    noise = NoiseParams(tau=0.3, n_th=0.4, r2=0.1)
    gains = [GainSetting.fixed(g) for g in np.linspace(0.1, 2.0, 20)]
    gains.append(GainSetting())
    bare = np.array([gain.gain(noise) for gain in gains])
    assert gamma_cov(noise, bare).tolist() == [gamma_cov(noise, gain)
                                               for gain in gains]


class TestChiOut:

    def test_ideal_limit(self):
        """At tau = R^2 = n_th = 0 and g = 1 the nonideal chi collapses
        to the ideal factorization."""
        inp = CoherentInput(0.7 - 0.4j)
        spec = ResourceSpec.squeezed_bell(0.9, delta=0.3)
        noise = NoiseParams()
        gain = GainSetting.fixed(1.0)
        for pt in (PhasePoint(0.3, -0.8), PhasePoint(-1.1, 0.2)):
            lhs = chi_out(inp, spec, noise, gain, pt)
            rhs = chi_out_ideal(inp, spec, pt)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_ideal_twin_beam_closed_form(self):
        """Ideal teleportation through a twin beam only multiplies the
        input chi by exp(-e^{-2r}(x^2+p^2)/2)."""
        beta = 0.5 + 0.25j
        inp = CoherentInput(beta)
        r = 0.8
        spec = ResourceSpec.twin_beam(r)
        for pt in (PhasePoint(0.4, 0.9), PhasePoint(-0.6, 1.3)):
            x, p = pt.x, pt.p
            chi_in = complex(_chi_input_arrays(beta, np.asarray(x),
                                               np.asarray(p)))
            expect = chi_in * math.exp(
                -math.exp(-2 * r) * (x * x + p * p) / 2)
            assert chi_out_ideal(inp, spec, pt) == pytest.approx(
                expect, abs=1e-14)

    def test_noiseless_chi_where_the_squares_overflow(self):
        """Without noise, Gamma = 0, the noise factor is 1 also where
        x^2 + p^2 overflows; it was e^{0 * inf}, so chi_out was NaN where
        the input's Gaussian makes it 0."""
        inp, spec = CoherentInput(0.3 + 0.1j), ResourceSpec.twin_beam(0.7)
        pt = PhasePoint(1e200, 0.0)
        with np.errstate(all="ignore"):
            assert chi_out(inp, spec, NoiseParams(), GainSetting.fixed(1.0),
                           pt) == 0
            assert chi_out_ideal(inp, spec, pt) == 0

    @pytest.mark.parametrize("spec", [
        ResourceSpec.twin_beam(0.5),
        ResourceSpec.squeezed_cat(0.5, delta=0.3, gamma_mod=1.0)])
    @pytest.mark.parametrize("x", [1e200, 1.7e308])
    def test_past_the_squares_overflow_is_0_without_warnings(self, spec,
                                                             x):
        """Both public functions give the limit 0 where x^2 overflows,
        and no RuntimeWarning on the way (an error under this suite's
        settings)."""
        inp, pt = CoherentInput(0.3), PhasePoint(x, 0.0)
        noise = NoiseParams(tau=0.3, n_th=0.1, r2=0.05)
        assert chi_out_ideal(inp, spec, pt) == 0
        assert chi_out(inp, spec, noise, GainSetting(), pt) == 0

    @given(st.sampled_from(FAMILIES), st.floats(0, 700),
           st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_finite_up_to_r_700(self, family, r, xs):
        """chi_resource and chi_out of every family, at r <= 700 and
        |alpha|, |beta| up to about 1e300, are finite with |chi| <= 1,
        with no RuntimeWarning (an error under this suite's settings).
        Squeezed-Bell and Buridan were NaN from r ~ 355: |xi|^2 overflowed
        and the Fock element took 0 * inf; a cancelling cosh r and sinh r
        term gave NaN for every family."""
        core = {"delta": 0.4, "gamma_mod": 0.9} if family == "squeezed-cat" \
            else {"delta": 0.4} if "delta" in CORE_PARAMS.get(family, ()) \
            else {}
        spec = ResourceSpec.of(family, r, **core)
        pt = TwoModePhasePoint(PhasePoint(*xs[:2]), PhasePoint(*xs[2:4]))
        inp, noise = CoherentInput(complex(*xs[4:])), NoiseParams(tau=0.3,
                                                                   r2=0.05)
        for val in (chi_resource(spec, pt),
                    chi_out(inp, spec, noise, GainSetting(), pt.m1)):
            assert cmath.isfinite(val) and abs(val) <= 1 + 1e-12

    def test_origin_is_one(self):
        inp = CoherentInput(1.5 + 1j)
        spec = ResourceSpec.squeezed_cat(0.6, delta=0.4, gamma_mod=0.7)
        noise = NoiseParams(tau=0.3, n_th=0.2, r2=0.1)
        val = chi_out(inp, spec, noise, GainSetting.fixed(1.05),
                      PhasePoint(0.0, 0.0))
        assert val == pytest.approx(1.0, abs=1e-15)


class TestLossyChannel:

    def test_zero_time_is_identity(self):
        def chi0(x, p):
            return math.exp(-(x * x + p * p) / 4) * (1 + 0.3 * x)

        pt = PhasePoint(0.7, -0.2)
        assert propagate_lossy(chi0, 0.0, 0.5, pt) == chi0(pt.x, pt.p)

    def test_closed_form(self):
        beta = 0.8 - 0.3j

        def chi0(x, p):
            return complex(_chi_input_arrays(beta, np.asarray(x),
                                             np.asarray(p)))

        tau, n_th = 0.4, 0.25
        pt = PhasePoint(1.1, 0.6)
        et = math.exp(-tau / 2)
        expect = chi0(et * pt.x, et * pt.p) * math.exp(
            -(1 - math.exp(-tau)) * (0.5 + n_th)
            * (pt.x ** 2 + pt.p ** 2) / 2)
        assert propagate_lossy(chi0, tau, n_th, pt) == pytest.approx(
            expect, abs=1e-15)

    def test_rejects(self):
        with pytest.raises(ParameterError):
            propagate_lossy(lambda x, p: 1.0, -0.1, 0.0, PhasePoint(0, 0))
        with pytest.raises(ParameterError):
            propagate_lossy(lambda x, p: 1.0, 0.1, -0.2, PhasePoint(0, 0))

    def test_diffusion_equation_residual(self):
        """The channel map solves
        d chi/d tau = -(1/2)[(1/2+n_th)(x^2+p^2) chi + x dx chi + p dp chi],
        checked with central differences on a non-Gaussian initial chi."""
        n_th = 0.2
        h = 1e-4

        def chi0(x, p):
            s = (x * x + p * p) / 2
            fock1 = (1 - s) * math.exp(-s / 2)
            coh = complex(_chi_input_arrays(0.6 - 0.2j, np.asarray(x),
                                            np.asarray(p)))
            return 0.5 * fock1 + 0.5 * coh

        def chi_t(tau, x, p):
            return propagate_lossy(chi0, tau, n_th, PhasePoint(x, p))

        worst = 0.0
        for tau in (0.05, 0.15, 0.3):
            for x in np.linspace(-2.5, 2.5, 8):
                for p in np.linspace(-2.5, 2.5, 8):
                    d_tau = (chi_t(tau + h, x, p)
                             - chi_t(tau - h, x, p)) / (2 * h)
                    d_x = (chi_t(tau, x + h, p)
                           - chi_t(tau, x - h, p)) / (2 * h)
                    d_p = (chi_t(tau, x, p + h)
                           - chi_t(tau, x, p - h)) / (2 * h)
                    chi = chi_t(tau, x, p)
                    res = d_tau + 0.5 * ((0.5 + n_th) * (x * x + p * p) * chi
                                         + x * d_x + p * d_p)
                    worst = max(worst, abs(res))
        assert worst < 1e-6


def test_displace_chi_matches_displaced_coherent():
    beta = 0.4 + 0.9j
    lam = -0.3 + 0.5j

    def chi_beta(x, p):
        return complex(_chi_input_arrays(beta, np.asarray(x), np.asarray(p)))

    def chi_shifted(x, p):
        return complex(_chi_input_arrays(beta + lam, np.asarray(x),
                                         np.asarray(p)))

    for pt in (PhasePoint(0.2, 0.7), PhasePoint(-1.4, 0.3),
               PhasePoint(0.9, -1.1)):
        assert displace_chi(chi_beta, lam, pt) == pytest.approx(
            chi_shifted(pt.x, pt.p), abs=1e-14)


class TestBellConditioning:
    """The quadrature route against an all-analytic Gaussian oracle."""

    def test_outcome_density(self):
        rng = np.random.default_rng(7)
        noise = NoiseParams(tau=0.2, n_th=0.1, r2=0.08)
        for _ in range(6):
            r = rng.uniform(0.2, 1.1)
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            out = BellOutcome(rng.uniform(-2, 2), rng.uniform(-2, 2))
            ours = outcome_distribution(CoherentInput(beta),
                                        ResourceSpec.twin_beam(r), noise, out)
            ref = oracles.bell_outcome_density(beta, r, noise.transmissivity,
                                               noise.r2, out.x_tilde,
                                               out.p_tilde)
            assert ours == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("r", [3.0, 5.0, 8.0])
    def test_outcome_density_at_large_squeezing(self, r):
        """Nodes sized by the input and detector noise alone, without
        the resource's envelope, gave 0 at the origin for r = 8, where
        the density is 2/(pi (1 + cosh 2r)) = 1.43e-7. Outcomes spread
        as cosh r."""
        noise = NoiseParams(tau=0.2, r2=0.08)
        for u, v in ((0.0, 0.0), (0.7, -0.4)):
            out = BellOutcome(u * math.cosh(r), v * math.cosh(r))
            ours = outcome_distribution(CoherentInput(0.3 - 0.2j),
                                        ResourceSpec.twin_beam(r), noise, out)
            ref = oracles.bell_outcome_density(0.3 - 0.2j, r,
                                               noise.transmissivity,
                                               noise.r2, out.x_tilde,
                                               out.p_tilde)
            assert ours == pytest.approx(ref, rel=1e-8)

    def test_outcome_density_past_cosh_overflow_raises(self):
        """cosh r overflowed a double with an OverflowError."""
        with pytest.raises(NumericalError):
            outcome_distribution(CoherentInput(0j),
                                 ResourceSpec.twin_beam(800.0),
                                 NoiseParams(), BellOutcome(0.0, 0.0))

    def test_conditional_chi(self):
        rng = np.random.default_rng(11)
        noise = NoiseParams(r2=0.05)
        for _ in range(4):
            r = rng.uniform(0.3, 1.0)
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            out = BellOutcome(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            pt = PhasePoint(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            ours = chi_bell_conditioned(CoherentInput(beta),
                                        ResourceSpec.twin_beam(r), noise,
                                        out, pt)
            ref = oracles.bell_conditional_chi(beta, r, noise.transmissivity,
                                               noise.r2, out.x_tilde,
                                               out.p_tilde, pt.x, pt.p)
            assert ours == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("r", [2.5, 3.0])
    def test_conditional_chi_at_large_squeezing(self, r):
        """Away from pt = 0 the resource's Gaussian in the unmeasured
        quadratures peaks at a1 = -tanh(2r) e^{i phi} conj(a2), some
        twelve envelope widths off the origin at r = 2.5, |pt| = 2.8;
        nodes centred on the origin missed it and converged on 0."""
        rng = np.random.default_rng(13)
        noise = NoiseParams(r2=0.05)
        spec = ResourceSpec.twin_beam(r)
        for _ in range(3):
            beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            out = BellOutcome(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            pt = PhasePoint(*(rng.uniform(2.0, 3.0) / math.sqrt(2)
                              * np.array([1.0, rng.choice([-1.0, 1.0])])))
            ours = chi_bell_conditioned(CoherentInput(beta), spec, noise,
                                        out, pt)
            ref = oracles.bell_conditional_chi(beta, r, noise.transmissivity,
                                               noise.r2, out.x_tilde,
                                               out.p_tilde, pt.x, pt.p)
            assert abs(ref) > 1e-3
            assert ours == pytest.approx(ref, abs=1e-8)
        beta, out = 0.0, BellOutcome(0.0, 0.0)
        pt = PhasePoint(2.83, 0.0)
        ours = chi_bell_conditioned(CoherentInput(beta), spec, noise, out, pt)
        ref = oracles.bell_conditional_chi(beta, r, noise.transmissivity,
                                           noise.r2, 0.0, 0.0, pt.x, pt.p)
        assert ours == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("phi", [0.0, 1.0, -2.0])
    def test_conditional_chi_at_any_squeezing_phase(self, phi):
        """The squeezing phase rotates mode 2 alone: chi at phase phi and
        a2 is chi at phase pi and a2 e^{-i(phi - pi)}, which moves the
        peak the nodes must be centred on."""
        r, beta = 2.5, 0.3 - 0.5j
        noise = NoiseParams(r2=0.05)
        out = BellOutcome(0.4, -0.7)
        xp = complex(3.5, 0.5)  # x + i p = sqrt2 a2
        rot = xp * cmath.exp(-1j * (phi - math.pi))
        ours = chi_bell_conditioned(CoherentInput(beta),
                                    ResourceSpec.twin_beam(r, phi=phi),
                                    noise, out, PhasePoint(xp.real, xp.imag))
        ref = oracles.bell_conditional_chi(beta, r, noise.transmissivity,
                                           noise.r2, out.x_tilde,
                                           out.p_tilde, rot.real, rot.imag)
        assert abs(ref) > 1e-3
        assert ours == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("r", [12.0, 20.0, 30.0, 60.0, 200.0])
    def test_conditional_chi_where_the_bogoliubov_terms_cancel(self, r):
        """Near the envelope's peak both Bogoliubov arguments are sums of
        terms of size e^{r} that cancel. Formed that way, chi was 1.8e-9
        off at r = 20, 4.7e-5 off at r = 30 and 0j from r = 60. The float
        Gaussian oracle loses the same digits, so the reference is its
        integral in mpmath."""
        noise = NoiseParams(r2=0.05)
        ours = chi_bell_conditioned(CoherentInput(0.3 + 0j),
                                    ResourceSpec.twin_beam(r), noise,
                                    BellOutcome(0.1, 0.2),
                                    PhasePoint(1.0, 0.5))
        ref = oracles.bell_conditional_chi_mp(0.3 + 0j, r,
                                              noise.transmissivity,
                                              noise.r2, 0.1, 0.2, 1.0, 0.5)
        assert abs(ours - ref) <= 1e-12

    def test_conditional_chi_is_normalized(self):
        """chi of the conditioned state equals 1 at the origin, also for
        a non-Gaussian resource."""
        inp = CoherentInput(0.5 + 0.2j)
        spec = ResourceSpec.squeezed_bell(0.7, delta=0.4, theta=0.0)
        noise = NoiseParams(r2=0.1)
        out = BellOutcome(0.6, -0.9)
        val = chi_bell_conditioned(inp, spec, noise, out,
                                   PhasePoint(0.0, 0.0))
        assert val == pytest.approx(1.0, abs=1e-10)

    @staticmethod
    def density_of_raw(monkeypatch, raw):
        monkeypatch.setattr(protocol, "_bell_raw", lambda *args: raw + 0j)
        return outcome_distribution(CoherentInput(0j),
                                    ResourceSpec.twin_beam(0.5),
                                    NoiseParams(), BellOutcome(0.0, 0.0))

    def test_negative_density_past_tolerance_raises(self, monkeypatch):
        """The quadrature's tolerance over (2pi)^2 is about 2.5e-12."""
        with pytest.raises(QuadratureError):
            self.density_of_raw(monkeypatch, -1e-6)

    def test_negative_density_within_tolerance_is_zero(self, monkeypatch):
        assert self.density_of_raw(monkeypatch, -1e-15) == 0.0


class TestMeasurementAverage:
    """Averaging the conditioned chain over outcomes restores chi_out."""

    def test_matches_chi_out(self):
        inp = CoherentInput(0.6 - 0.3j)
        noise = NoiseParams(tau=0.2, r2=0.05)
        gain = GainSetting.fixed(1.0)
        spec = ResourceSpec.twin_beam(0.8)
        for pt in (PhasePoint(0.5, 0.4), PhasePoint(-0.9, 0.7)):
            slow = chi_out_via_measurement_average(inp, spec, noise, gain, pt)
            fast = chi_out(inp, spec, noise, gain, pt)
            assert slow == pytest.approx(fast, abs=1e-5)

    def test_cat_and_buridan_match_chi_out(self):
        """These families used to raise ParameterError: the oracle's
        outcome window rested on the twin beam's outcome variance."""
        inp = CoherentInput(0j)
        noise = NoiseParams(r2=0.05)
        gain = GainSetting.fixed(1.0)
        pt = PhasePoint(0.1, 0.1)
        for spec in (ResourceSpec.squeezed_cat(0.5, delta=0.3, gamma_mod=0.5),
                     ResourceSpec.buridan_donkey(0.5, delta=0.3)):
            slow = chi_out_via_measurement_average(inp, spec, noise, gain, pt)
            fast = chi_out(inp, spec, noise, gain, pt)
            assert slow == pytest.approx(fast, abs=1e-12)

    def test_cat_past_the_nodes_raises(self):
        """The nodes grow with a cat's outcome box, up to |gamma| ~ 12."""
        spec = ResourceSpec.squeezed_cat(2.0, delta=0.4, gamma_mod=13.0)
        with pytest.raises(QuadratureError):
            chi_out_via_measurement_average(CoherentInput(0j), spec,
                                            NoiseParams(),
                                            GainSetting.fixed(1.0),
                                            PhasePoint(0.3, 0.2))

    def test_cat_at_the_largest_amplitude_raises(self):
        """The outcome shift |xi1(gamma, -gamma)| overflowed in numpy,
        with warnings, before the QuadratureError."""
        spec = ResourceSpec.squeezed_cat(2.0, delta=0.3, gamma_mod=1.7e308)
        with pytest.raises(QuadratureError):
            chi_out_via_measurement_average(CoherentInput(0j), spec,
                                            NoiseParams(),
                                            GainSetting.fixed(1.0),
                                            PhasePoint(0.3, 0.2))

    def test_twin_beam_at_large_squeezing(self):
        """The inner box used to be sized without the resource's
        envelope, and the outcome window by a loose variance bound, so
        the oracle left chi_out from r ~ 1.75: here it gave 0.311 at the
        origin at r = 2, where chi_out is 1, and |chi| = 3.57 at r = 2.5,
        pt = (-1, -1.1)."""
        inp = CoherentInput(0.7 - 0.4j)
        noise = NoiseParams(tau=0.2, r2=0.05)
        gain = GainSetting.fixed(1.0)
        for r, pt in ((2.0, PhasePoint(0.0, 0.0)),
                      (2.5, PhasePoint(-1.0, -1.1))):
            spec = ResourceSpec.twin_beam(r)
            slow = chi_out_via_measurement_average(inp, spec, noise, gain, pt)
            fast = chi_out(inp, spec, noise, gain, pt)
            assert slow == pytest.approx(fast, abs=1e-12)
        assert abs(fast) > 0.1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_chi_out_at_large_squeezing(self, family):
        """Every family at r in {1.75, 2, 2.5, 3}, any phases, complex
        cat amplitudes |gamma| <= 5, |Re beta|, |Im beta| <= 2, g in
        [0.5, 1.5], tau <= 1, n_th <= 0.5, R^2 <= 0.2 and |x|, |p| <=
        1.5."""
        rng = np.random.default_rng(FAMILIES.index(family) + 21)
        for r in (1.75, 2.0, 2.5, 3.0):
            core = {name: rng.uniform(-math.pi, math.pi)
                    for name in CORE_PARAMS.get(family, ())}
            if "gamma_mod" in core:
                core["gamma_mod"] = rng.uniform(0.0, 5.0)
            spec = ResourceSpec.of(family, r, rng.uniform(-math.pi, math.pi),
                                   **core)
            inp = CoherentInput(complex(*rng.uniform(-2.0, 2.0, 2)))
            noise = NoiseParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5),
                                rng.uniform(0.0, 0.2))
            gain = GainSetting.fixed(rng.uniform(0.5, 1.5))
            pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
            slow = chi_out_via_measurement_average(inp, spec, noise, gain, pt)
            fast = chi_out(inp, spec, noise, gain, pt)
            assert slow == pytest.approx(fast, abs=1e-12)


class TestGaussianPipeline:
    """Covariance algebra against the closed-form twin-beam fidelity."""

    def test_cosh_overflow_is_a_numerical_error(self):
        """cosh 2r overflows from r ~ 355: a NumericalError, as every
        other function of r raises, where it was a bare OverflowError."""
        inp, noise = CoherentInput(0.5), NoiseParams(tau=0.3, r2=0.05)
        for run in (gaussian_pipeline, fidelity_gaussian_oracle):
            with pytest.raises(NumericalError):
                run(inp, 400.0, noise, GainSetting())

    def test_ideal_anchor(self):
        out = gaussian_pipeline(CoherentInput(0j), 0.8, NoiseParams(),
                                GainSetting.fixed(1.0))
        assert out.fidelity(CoherentInput(0j)) == pytest.approx(
            1 / (1 + math.exp(-1.6)), abs=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            r = rng.uniform(0.1, 1.4)
            noise = NoiseParams(tau=rng.uniform(0, 0.5),
                                n_th=rng.uniform(0, 0.4),
                                r2=rng.uniform(0, 0.2))
            gain = GainSetting.fixed(rng.uniform(0.7, 1.4))
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            inp = CoherentInput(beta)
            ours = gaussian_pipeline(inp, r, noise, gain).fidelity(inp)
            ref = fidelity_closed(ResourceSpec.twin_beam(r), noise, gain,
                                  beta=beta).value
            assert ours == pytest.approx(ref, abs=1e-10)
