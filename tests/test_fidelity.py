"""Closed-form, quadrature and averaged teleportation fidelities."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telefid import (AlphabetPrior, CoherentInput, GainSetting, NoiseParams,
                     ParameterError, PhaseSpecializationError, ResourceSpec,
                     average_fidelity, classical_benchmark, fidelity_closed,
                     fidelity_gaussian_oracle, fidelity_quadrature, gamma_cov)

IDEAL = NoiseParams()
UNITY = GainSetting.fixed(1.0)


def delta_scale_ref(r, gt, tau, gam):
    """The published denominator, written out independently."""
    ep = math.exp(tau / 2)
    return (math.exp(-2 * r - tau) * (1 + ep * gt) ** 2
            + math.exp(2 * r - tau) * (1 - ep * gt) ** 2
            + 2 * (1 + gt * gt + 2 * gam))


class TestAlphabetPrior:

    def test_rejects_nonpositive_sigma(self):
        for sigma in (0.0, -1.0, float("nan")):
            with pytest.raises(ParameterError):
                AlphabetPrior(sigma)

    def test_classical_benchmark(self):
        assert classical_benchmark(AlphabetPrior(10.0)) == 11.0 / 21.0
        assert classical_benchmark(AlphabetPrior(100.0)) == 101.0 / 201.0
        assert abs(classical_benchmark(AlphabetPrior(10.0)) - 0.523) < 1e-3
        assert abs(classical_benchmark(AlphabetPrior(100.0)) - 0.502) < 1e-3


class TestIdealTwinBeam:

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_known_curve(self, r):
        rep = fidelity_closed(ResourceSpec.twin_beam(r), IDEAL, UNITY)
        assert rep.value == pytest.approx(1 / (1 + math.exp(-2 * r)),
                                          abs=1e-12)

    def test_no_squeezing_is_half(self):
        rep = fidelity_closed(ResourceSpec.twin_beam(0.0), IDEAL, UNITY)
        assert rep.value == 0.5


class TestClosedVersusQuadrature:

    @pytest.mark.parametrize("spec", [
        ResourceSpec.twin_beam(0.9),
        ResourceSpec.squeezed_bell(0.9, delta=0.5),
        ResourceSpec.squeezed_cat(0.7, delta=0.4, gamma_mod=0.8),
        ResourceSpec.squeezed_cat(0.7, delta=0.4, gamma_mod=0.8,
                                  gamma_phase=math.pi),
        ResourceSpec.buridan_donkey(0.9, delta=0.5),
        ResourceSpec.photon_subtracted(0.9),
    ], ids=["twin-beam", "squeezed-bell", "squeezed-cat", "squeezed-cat-neg",
            "buridan", "photon-subtracted"])
    def test_agree_nonideal(self, spec):
        noise = NoiseParams(tau=0.25, n_th=0.15, r2=0.07)
        gain = GainSetting.fixed(1.05)
        rng = np.random.default_rng(sum(map(ord, spec.family)))
        for _ in range(3):
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            closed = fidelity_closed(spec, noise, gain, beta=beta)
            quad = fidelity_quadrature(CoherentInput(beta), spec, noise, gain)
            assert closed.value == pytest.approx(quad.value, abs=1e-8)
            assert closed.method == "closed"
            assert quad.method == "quadrature"


class TestPhaseSpecialization:

    @pytest.mark.parametrize("spec", [
        ResourceSpec.twin_beam(0.8, phi=math.pi / 2),
        ResourceSpec.squeezed_bell(0.8, delta=0.4, theta=0.1),
        ResourceSpec.squeezed_cat(0.8, delta=0.4, gamma_mod=0.6,
                                  gamma_phase=0.3),
    ])
    def test_rejected_phases(self, spec):
        with pytest.raises(PhaseSpecializationError):
            fidelity_closed(spec, IDEAL, UNITY)

    def test_quadrature_takes_any_phase(self):
        spec = ResourceSpec.squeezed_bell(0.8, delta=0.4, theta=0.1)
        rep = fidelity_quadrature(CoherentInput(0.3 + 0.1j), spec, IDEAL,
                                  UNITY)
        assert 0 < rep.value <= 1


class TestGainUnity:

    def test_beta_independence_is_exact(self):
        """At g~ = 1 every beta term carries a (g~ - 1) factor, so the
        closed values agree bit for bit, not just to tolerance."""
        noise = NoiseParams(tau=0.2, n_th=0.1, r2=0.09)
        gain = GainSetting.unity_over_t()
        specs = [ResourceSpec.twin_beam(0.8),
                 ResourceSpec.squeezed_bell(0.8, delta=0.55),
                 ResourceSpec.squeezed_cat(0.8, delta=0.3, gamma_mod=0.9),
                 ResourceSpec.buridan_donkey(0.8, delta=0.55),
                 ResourceSpec.photon_subtracted(0.8)]
        for spec in specs:
            base = fidelity_closed(spec, noise, gain).value
            for beta in (1.0 + 0j, -2.0 + 1.5j, 0.3 - 2.7j, 3.0 + 3.0j):
                assert fidelity_closed(spec, noise, gain, beta=beta).value \
                    == base


class TestAveraged:

    @pytest.mark.parametrize("sigma,gt", [
        (10.0, 0.9), (10.0, 1.2), (100.0, 0.95), (100.0, 1.1),
    ])
    def test_twin_beam_average_analytic(self, sigma, gt):
        """The Gaussian prior integrates the twin-beam form exactly:
        (4/D) / (1 + 4 sigma (g~-1)^2 / D)."""
        r = 0.8
        noise = NoiseParams(tau=0.2, n_th=0.1, r2=0.04)
        gain = GainSetting.fixed(gt / noise.transmissivity)
        g = gain.gain(noise)
        gam = (1 - math.exp(-noise.tau)) * (0.5 + noise.n_th) + g * g * noise.r2
        D = delta_scale_ref(r, gain.effective(noise), noise.tau, gam)
        expect = (4 / D) / (1 + 4 * sigma * (gt - 1) ** 2 / D)
        rep = average_fidelity(ResourceSpec.twin_beam(r), noise, gain,
                               AlphabetPrior(sigma))
        assert rep.value == pytest.approx(expect, abs=1e-10)
        assert rep.method == "closed"
        assert rep.sigma == sigma

    def test_narrow_prior_recovers_origin(self):
        spec = ResourceSpec.squeezed_bell(0.9, delta=0.5)
        noise = NoiseParams(tau=0.1, r2=0.05)
        gain = GainSetting.fixed(1.1)
        avg = average_fidelity(spec, noise, gain, AlphabetPrior(1e-12))
        at_origin = fidelity_closed(spec, noise, gain).value
        assert avg.value == pytest.approx(at_origin, abs=1e-9)

    def test_quadrature_fallback_wiring(self):
        """With the closed forms ruled out by the resource phases, the
        average is one quadrature with the prior folded in; it equals an
        8 x 8 Gauss-Hermite rule in beta over quadrature fidelities."""
        t, w = np.polynomial.hermite.hermgauss(8)
        w = w / w.sum()
        spec = ResourceSpec.squeezed_bell(0.7, delta=0.4, theta=0.2)
        noise = NoiseParams(tau=0.1, r2=0.05)
        gain = GainSetting.fixed(0.8)
        prior = AlphabetPrior(0.5)
        rep = average_fidelity(spec, noise, gain, prior)
        assert rep.method == "quadrature"
        scale = math.sqrt(prior.sigma)
        manual = sum(
            w[i] * w[j] * fidelity_quadrature(
                CoherentInput(scale * complex(t[i], t[j])),
                spec, noise, gain).value
            for i in range(8) for j in range(8))
        assert rep.value == pytest.approx(manual, abs=1e-12)

    def test_off_phase_average_at_wide_prior(self):
        """phi -> 2 pi - phi conjugates the resource, so the twin-beam
        average is stationary at phi = pi: 1e-7 off it, the quadrature
        average must equal the exact (4/D) / (1 + 4 q/D), q = (g~-1)^2
        sigma, at a prior where 4 q/D is about 80."""
        r, sigma = 0.8, 1e4
        noise = NoiseParams(tau=0.3, r2=0.05)
        gain = GainSetting.fixed(0.9 / noise.transmissivity)
        gt = gain.effective(noise)
        gam = (1 - math.exp(-noise.tau)) / 2 + gain.gain(noise) ** 2 * 0.05
        D = delta_scale_ref(r, gt, noise.tau, gam)
        expect = 4 / (D + 4 * (gt - 1) ** 2 * sigma)
        rep = average_fidelity(ResourceSpec.twin_beam(r, phi=math.pi + 1e-7),
                               noise, gain, AlphabetPrior(sigma))
        assert rep.method == "quadrature"
        assert rep.value == pytest.approx(expect, abs=1e-13)
        assert rep.value == pytest.approx(0.00987794723, abs=1e-11)


class TestLargeSqueezing:
    """The squeezed-Bell and Buridan forms at r = 300, where e^{4r} and
    Delta^4 overflow a double, against the published form written out
    in 50-digit arithmetic."""

    @staticmethod
    def reference(family, r, delta, gt, tau, gam, beta):
        mp = mpmath.mp
        with mpmath.workdps(50):
            r, delta, gt, tau, gam = map(mp.mpf, (r, delta, gt, tau, gam))
            beta = mp.mpc(beta)
            ep = mp.exp(tau / 2)
            D = (mp.exp(-2 * r - tau) * (1 + ep * gt) ** 2
                 + mp.exp(2 * r - tau) * (1 - ep * gt) ** 2
                 + 2 * (1 + gt ** 2 + 2 * gam))
            lo = (1 + ep * gt) ** 2
            hi = mp.exp(4 * r) * (1 - ep * gt) ** 2
            ap, am = lo + hi, lo - hi
            u = (gt - 1) ** 2 * abs(beta) ** 2
            e0 = mp.exp(-4 * u / D)
            e1, e2, eb = u * e0, u * u * e0, 2 * mp.re(beta ** 2) * e0
            k, kb = 4 / D, mp.exp(-2 * r - tau) / D ** 2
            if family == "buridan":
                c2 = (2 * kb * mp.exp(2 * r) * (mp.exp(tau) * gt ** 2 - 1)
                      * (D * e0 - 4 * e1))
                a = k * (e0 + kb * ap * (4 * e1 - D * e0) + c2)
                b = -2 * k * kb * (gt - 1) ** 2 * eb * am
                e = -2 * k * c2
            else:
                cross = 2 * kb * (4 * e1 - D * e0)
                pair = (2 * mp.exp(-4 * r - 2 * tau) / D ** 4 * am ** 2
                        * (D ** 2 * e0 - 8 * D * e1 + 8 * e2))
                a, b, e = k * e0, -k * cross * am / 2, k * (pair + cross * ap)
            c, s = mp.cos(delta), mp.sin(delta)
            return a + 2 * b * s * c + e * s * s

    @pytest.mark.parametrize("family,tau,r2,g,beta", [
        ("squeezed-bell", 0.3, 0.05, 1.3, 0.5 + 0.2j),
        ("squeezed-bell", 0.0, 0.0, 1.0, 0j),
        ("buridan", 0.0, 0.05, None, 2.0 - 1.0j),
        ("buridan", 0.0, 0.0, 1.0, 0j),
    ])
    def test_matches_50_digit_reference(self, family, tau, r2, g, beta):
        r, delta = 300.0, 0.4
        noise = NoiseParams(tau=tau, r2=r2)
        gain = (GainSetting.unity_over_t() if g is None
                else GainSetting.fixed(g))
        spec = (ResourceSpec.squeezed_bell(r, delta=delta)
                if family == "squeezed-bell"
                else ResourceSpec.buridan_donkey(r, delta=delta))
        got = fidelity_closed(spec, noise, gain, beta).value
        want = self.reference(family, r, delta, gain.effective(noise), tau,
                              gamma_cov(noise, gain), beta)
        assert want > 0
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell",
                                        "buridan", "photon-subtracted"])
    @pytest.mark.parametrize("r", [352.7, 400.0, 1000.0])
    @pytest.mark.parametrize("tau,r2,g,beta", [
        (0.0, 0.0, 1.3, 0j),
        (0.0, 0.0, 107.0, 0j),
        (0.3, 0.05, 1.3, 0.5 + 0.2j),
        (0.0, 0.05, None, 2.0 - 1.0j),
    ])
    def test_past_delta_overflow(self, family, r, tau, r2, g, beta):
        """Delta overflows a double past r ~ 354 (and at r = 352.7 once
        g = 107); the fidelity is then a value that underflows to 0, or
        0.95 under the unity rule, where Delta stays O(1)."""
        noise = NoiseParams(tau=tau, r2=r2)
        gain = GainSetting(g)
        core = {"delta": 0.4} if family in ("squeezed-bell", "buridan") \
            else {}
        got = fidelity_closed(ResourceSpec.of(family, r, **core), noise,
                              gain, beta).value
        with mpmath.workdps(50):
            delta = {"twin-beam": 0, "photon-subtracted":
                     mpmath.atan(mpmath.tanh(r))}.get(family, 0.4)
        want = float(self.reference(
            "buridan" if family == "buridan" else "squeezed-bell", r,
            delta, gain.effective(noise), tau, gamma_cov(noise, gain),
            beta))
        assert got >= 0
        # below the smallest normal double the expected value is 0
        assert abs(got - want) <= 1e-12 * abs(want) + sys.float_info.min

    def test_cancelling_terms_round_to_zero(self):
        """Terms of 3.3e-12 cancel to 6.09e-33 here; the closed form used
        to return -8.08e-28, which the command line reported as bad
        input."""
        r, tau, r2, g = (14.691094222497222, 1.4037846139907855,
                         0.5313155841032986, 0.0575320288032457)
        beta = complex(-4.144360080992896, -0.7018987842160088)
        noise, gain = NoiseParams(tau=tau, r2=r2), GainSetting.fixed(g)
        got = fidelity_closed(ResourceSpec.photon_subtracted(r), noise,
                              gain, beta).value
        with mpmath.workdps(50):
            delta = mpmath.atan(mpmath.tanh(r))
        want = self.reference("squeezed-bell", r, delta,
                              gain.effective(noise), tau,
                              gamma_cov(noise, gain), beta)
        assert float(want) == pytest.approx(6.09e-33, rel=1e-3)
        assert 0 <= got and abs(got - float(want)) <= 1e-26


class TestCatLimits:
    """The squeezed-cat form where Delta or |gamma|^2 leaves the double
    range."""

    @pytest.mark.parametrize("r", [360.0, 400.0, 710.0, 1000.0])
    @pytest.mark.parametrize("sigma", [None, 10.0])
    def test_past_delta_overflow(self, r, sigma):
        """Delta overflows from r ~ 354 and e^r from r ~ 709; the
        fidelity, O(4/Delta), is 0. This used to be NaN, then an
        overflow."""
        spec = ResourceSpec.squeezed_cat(r, delta=0.4, gamma_mod=1.0)
        gain = GainSetting.fixed(1.3)
        rep = (fidelity_closed(spec, IDEAL, gain) if sigma is None
               else average_fidelity(spec, IDEAL, gain, AlphabetPrior(sigma)))
        assert rep.value == 0.0

    @pytest.mark.parametrize("gamma_mod", [1e155, 1e200, 1e300])
    @pytest.mark.parametrize("sigma", [None, 10.0])
    def test_huge_amplitude(self, gamma_mod, sigma):
        """|gamma gamma> leaves every overlap, so the fidelity is cos^2
        delta times the twin beam's, which the ordinary arithmetic
        already reaches at gamma = 50."""
        noise, gain = NoiseParams(tau=0.3, r2=0.05), GainSetting.fixed(1.3)

        def value(spec):
            if sigma is None:
                return fidelity_closed(spec, noise, gain, 0.5 - 0.3j).value
            return average_fidelity(spec, noise, gain,
                                    AlphabetPrior(sigma)).value

        twin = value(ResourceSpec.twin_beam(0.5))
        got = value(ResourceSpec.squeezed_cat(0.5, delta=0.4,
                                              gamma_mod=gamma_mod))
        assert got == pytest.approx(math.cos(0.4) ** 2 * twin, rel=1e-12)
        assert got == pytest.approx(value(ResourceSpec.squeezed_cat(
            0.5, delta=0.4, gamma_mod=50.0)), rel=1e-12)

    @pytest.mark.parametrize("gamma_mod", [50.0, 1e200])
    def test_huge_amplitude_at_balanced_gain(self, gamma_mod):
        """At g~ = e^{-tau/2} the cat term vanishes (u = 0) and the
        fidelity is the twin beam's at any amplitude."""
        gain = GainSetting.fixed(1.0)
        twin = fidelity_closed(ResourceSpec.twin_beam(0.5), IDEAL, gain)
        got = fidelity_closed(ResourceSpec.squeezed_cat(
            0.5, delta=0.4, gamma_mod=gamma_mod), IDEAL, gain)
        assert got.value == pytest.approx(twin.value, rel=1e-12)


def test_gaussian_oracle_report():
    noise = NoiseParams(tau=0.15, n_th=0.05, r2=0.06)
    gain = GainSetting.fixed(0.95)
    inp = CoherentInput(1.2 - 0.4j)
    rep = fidelity_gaussian_oracle(inp, 0.85, noise, gain)
    assert rep.method == "gaussian-oracle"
    ref = fidelity_closed(ResourceSpec.twin_beam(0.85), noise, gain,
                          beta=inp.beta)
    assert rep.value == pytest.approx(ref.value, abs=1e-10)


def test_loss_degrades_fidelity():
    spec = ResourceSpec.twin_beam(1.0)
    gain = GainSetting.fixed(1.0)
    vals = [fidelity_closed(spec, NoiseParams(tau=tau), gain).value
            for tau in (0.0, 0.1, 0.3, 0.6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["twin-beam", "squeezed-bell", "squeezed-cat",
                            "buridan"]),
    r=st.floats(0.0, 1.8),
    delta=st.floats(0.0, math.pi / 2),
    gamma=st.floats(0.0, 1.2),
    tau=st.floats(0.0, 0.8),
    n_th=st.floats(0.0, 0.6),
    r2=st.floats(0.0, 0.3),
    g=st.floats(0.5, 1.6),
    b_re=st.floats(-3.0, 3.0),
    b_im=st.floats(-3.0, 3.0),
)
def test_closed_fidelity_in_range(family, r, delta, gamma, tau, n_th, r2, g,
                                  b_re, b_im):
    if family == "twin-beam":
        spec = ResourceSpec.twin_beam(r)
    elif family == "squeezed-bell":
        spec = ResourceSpec.squeezed_bell(r, delta=delta)
    elif family == "squeezed-cat":
        spec = ResourceSpec.squeezed_cat(r, delta=delta, gamma_mod=gamma)
    else:
        spec = ResourceSpec.buridan_donkey(r, delta=delta)
    val = fidelity_closed(spec, NoiseParams(tau=tau, n_th=n_th, r2=r2),
                          GainSetting.fixed(g),
                          beta=complex(b_re, b_im)).value
    assert 0.0 < val <= 1.0 + 1e-12
