"""Closed-form, quadrature and averaged teleportation fidelities."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telefid.fidelity as fidelity_module
from telefid import (FAMILIES, AlphabetPrior, CoherentInput, GainSetting,
                     NoiseParams, NumericalError, ParameterError,
                     PhaseSpecializationError, QuadratureError,
                     ResourceSpec, average_fidelity,
                     classical_benchmark, fidelity_closed,
                     fidelity_gaussian_oracle, fidelity_quadrature,
                     gamma_cov)
from telefid.fidelity import _delta_terms
from telefid.phase_space import CORE_PARAMS
from telefid.quadrature import CONV_ABS_TOL

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

    @pytest.mark.parametrize("sigma", [1e308, 1.7e308])
    def test_classical_benchmark_at_huge_sigma(self, sigma):
        """2 sigma + 1 overflowed from sigma ~ 9e307, and the benchmark
        read 0; its limit is 1/2."""
        assert classical_benchmark(AlphabetPrior(sigma)) == 0.5


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

    @pytest.mark.parametrize("r", [3.5, 4.0, 5.0, 6.0, 8.0])
    def test_agree_at_large_squeezing(self, r):
        """Nodes sized from the input, gain and noise alone, without the
        resource's envelope, exhausted the ladder or settled on a wrong
        value past r ~ 3.5 (24 and 44 of these 120 points). On the
        integrand's exact envelope the quadrature meets every family's
        closed form."""
        specs = [ResourceSpec.twin_beam(r),
                 ResourceSpec.squeezed_bell(r, delta=0.5),
                 ResourceSpec.squeezed_cat(r, delta=0.4, gamma_mod=1.3),
                 ResourceSpec.squeezed_cat(r, delta=-0.7, gamma_mod=3.0,
                                           gamma_phase=math.pi),
                 ResourceSpec.buridan_donkey(r, delta=0.5),
                 ResourceSpec.photon_subtracted(r)]
        cases = [(NoiseParams(tau=0.75, n_th=0.2, r2=0.1),
                  GainSetting.fixed(2.8), 3 + 1j),
                 (IDEAL, GainSetting.fixed(1.2), 0j),
                 (NoiseParams(tau=0.3, n_th=0.1, r2=0.05),
                  GainSetting.fixed(0.85), 0.7 - 0.4j),
                 (NoiseParams(tau=0.3, n_th=0.1, r2=0.05),
                  GainSetting.unity_over_t(), 1.5 + 2j)]
        for spec in specs:
            for noise, gain, beta in cases:
                closed = fidelity_closed(spec, noise, gain, beta=beta)
                quad = fidelity_quadrature(CoherentInput(beta), spec, noise,
                                           gain)
                assert quad.value == pytest.approx(closed.value, abs=1e-10)

    def test_overlap_rounding_below_zero(self, monkeypatch):
        """A converged overlap below 0 by less than the quadrature's
        tolerance over 2pi is a fidelity that rounds to 0; further below,
        QuadratureError. The block's one call returns a value per row."""
        spec = ResourceSpec.squeezed_bell(0.8, delta=0.4, theta=1.0)
        for raw, want in ((-0.9 * CONV_ABS_TOL, 0.0),
                          (-1.1 * CONV_ABS_TOL, None)):
            monkeypatch.setattr(
                fidelity_module, "integrate_adaptive",
                lambda f, rate, raw=raw: np.full(len(rate), complex(raw)))
            if want is None:
                with pytest.raises(QuadratureError):
                    fidelity_quadrature(CoherentInput(0j), spec, IDEAL,
                                        UNITY)
            else:
                assert fidelity_quadrature(CoherentInput(0j), spec, IDEAL,
                                           UNITY).value == want


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

    def test_average_is_the_origin_value_at_shifted_noise(self):
        """Under the prior, beta enters the overlap only as a plane wave,
        which averages to the envelope of Gamma + (g~ - 1)^2 sigma. So the
        average is the beta = 0 fidelity with n_th raised by
        (g~ - 1)^2 sigma/(1 - e^{-tau}). At sigma <= 2 the 60-node rule is
        exact, so the two routes agree to rounding."""
        rng = np.random.default_rng(11)
        for k in range(100):
            family = FAMILIES[k % len(FAMILIES)]
            r, tau = rng.uniform(0.0, 2.0), rng.uniform(0.01, 1.0)
            noise = NoiseParams(tau=tau, n_th=rng.uniform(0.0, 1.0),
                                r2=rng.uniform(0.0, 0.5))
            core = {}
            if family in ("squeezed-bell", "buridan", "squeezed-cat"):
                core["delta"] = rng.uniform(-1.5, 1.5)
            if family == "squeezed-cat":
                core.update(gamma_mod=rng.uniform(0.0, 5.0),
                            gamma_phase=math.pi * rng.integers(2))
            spec = ResourceSpec.of(family, r, **core)
            gain = GainSetting.fixed(rng.uniform(0.1, 2.0)
                                     / noise.transmissivity)
            prior = AlphabetPrior(rng.uniform(1e-3, 2.0))
            shift = ((gain.effective(noise) - 1) ** 2 * prior.sigma
                     / -math.expm1(-tau))
            shifted = NoiseParams(tau=tau, n_th=noise.n_th + shift,
                                  r2=noise.r2)
            avg = average_fidelity(spec, noise, gain, prior).value
            at_origin = fidelity_closed(spec, shifted, gain).value
            assert avg == pytest.approx(at_origin, abs=1e-13)

    def test_cat_average_matches_the_overlap_at_any_prior(self):
        """The cat's closed average is its beta = 0 form at the noise
        Gamma + (g~ - 1)^2 sigma: it matches the overlap quadrature taken
        at that noise at any sigma. The 60-node rule it
        replaced was off once lambda = 4 (g~ - 1)^2 sigma/Delta passed
        about 10: by 7.1e-3 (0.00279 against 0.00988) at the first point
        here, where lambda is about 80."""
        rng = np.random.default_rng(29)
        cases = [(ResourceSpec.squeezed_cat(0.8, delta=0.4, gamma_mod=1.0),
                  NoiseParams(tau=0.3, r2=0.05), 0.9, 1e4)]
        for sigma in (1.0, 100.0, 1e4, 1e6):
            for _ in range(6):
                spec = ResourceSpec.squeezed_cat(
                    rng.uniform(0.0, 2.0), delta=rng.uniform(-math.pi, math.pi),
                    gamma_mod=rng.uniform(0.0, 5.0),
                    gamma_phase=math.pi * rng.integers(2))
                noise = NoiseParams(rng.uniform(0.0, 1.0),
                                    rng.uniform(0.0, 0.5),
                                    rng.uniform(0.0, 0.2))
                cases.append((spec, noise, rng.uniform(0.3, 1.5), sigma))
        for spec, noise, gt, sigma in cases:
            gain = GainSetting.fixed(gt / noise.transmissivity)
            ref = fidelity_module._overlap(0j, spec, noise, gain, sigma)
            rep = average_fidelity(spec, noise, gain, AlphabetPrior(sigma))
            assert rep.method == "closed"
            assert abs(rep.value - ref) <= 1e-10

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


class TestColumns:
    """fidelity_closed, fidelity_quadrature and average_fidelity take a
    column of points, inputs whose fields hold an array of one value per
    row, in one call; each row must be the point's own, to the bit."""

    SPECS = [ResourceSpec.squeezed_cat(r, delta=d, gamma_mod=g)
             for r, d, g in ((0.0, 0.3, 0.5), (0.8, -1.2, 1e200),
                             (2.5, 0.7, 4.0), (1.1, 1.5, 0.0))]
    NOISES = [IDEAL, NoiseParams(tau=0.3, n_th=0.1, r2=0.05),
              NoiseParams(tau=2.0), NoiseParams(r2=0.5)]
    GAINS = [UNITY, GainSetting.fixed(1.7), GainSetting.unity_over_t(),
             GainSetting.fixed(0.2)]
    BETAS = [0j, 0.7 - 0.4j, 300.0, -2.0 + 1e300j]
    # the points above as columns; NaN marks a gain on the unity rule
    SPEC = ResourceSpec.squeezed_cat(np.array([0.0, 0.8, 2.5, 1.1]),
                                     delta=np.array([0.3, -1.2, 0.7, 1.5]),
                                     gamma_mod=np.array([0.5, 1e200, 4.0,
                                                         0.0]))
    NOISE = NoiseParams(tau=np.array([0.0, 0.3, 2.0, 0.0]),
                        n_th=np.array([0.0, 0.1, 0.0, 0.0]),
                        r2=np.array([0.0, 0.05, 0.0, 0.5]))
    GAIN = GainSetting(np.array([1.0, 1.7, math.nan, 0.2]))

    def test_closed_rows_are_points(self):
        rep = fidelity_closed(self.SPEC, self.NOISE, self.GAIN,
                              np.array(self.BETAS))
        assert rep.method == "closed" and rep.value.shape == (4,)
        for val, beta, *point in zip(rep.value.tolist(), rep.beta,
                                     self.SPECS, self.NOISES, self.GAINS,
                                     self.BETAS):
            assert (val, beta) == (fidelity_closed(*point).value, point[-1])

    def test_average_rows_are_points(self):
        """A column off the closed phases takes a quadrature per row."""
        priors = [AlphabetPrior(s) for s in (0.1, 10.0, 1e4, 3.0)]
        rep = average_fidelity(self.SPEC, self.NOISE, self.GAIN,
                               AlphabetPrior(np.array([0.1, 10.0, 1e4,
                                                       3.0])))
        assert rep.method == "closed"
        assert rep.value.tolist() == [average_fidelity(*point).value for
                                      point in zip(self.SPECS, self.NOISES,
                                                   self.GAINS, priors)]
        spec = ResourceSpec.squeezed_cat(np.array([0.5, 0.7]), delta=0.3,
                                         theta=0.4, gamma_mod=0.5)
        rep = average_fidelity(spec, self.NOISES[1], UNITY,
                               AlphabetPrior(3.0))
        assert rep.method == "quadrature"
        assert rep.value.tolist() == [average_fidelity(
            ResourceSpec.squeezed_cat(r, delta=0.3, theta=0.4,
                                      gamma_mod=0.5), self.NOISES[1], UNITY,
            AlphabetPrior(3.0)).value for r in (0.5, 0.7)]

    def test_quadrature_rows_are_points(self):
        """fidelity_quadrature and the off-phase average take a column in
        one call, its rows integrated in lockstep: each row is its point's
        value to the bit, a NaN gain row is on the unity rule, and a row whose
        envelope rate overflows (r = 800) has fidelity 0."""
        rs, taus = [0.0, 0.8, 800.0, 1.1], [0.0, 0.3, 2.0, 0.1]
        gains, betas = [1.0, 1.7, 0.2, math.nan], [0j, 0.7 - 0.4j, 3.0, 1j]
        spec = ResourceSpec.squeezed_bell(np.array(rs), phi=3.0,
                                          delta=0.4, theta=0.2)
        noise = NoiseParams(tau=np.array(taus), r2=0.05)
        gain = GainSetting(np.array(gains))
        rep = fidelity_quadrature(CoherentInput(np.array(betas)), spec,
                                  noise, gain)
        avg = average_fidelity(spec, noise, gain, AlphabetPrior(3.0))
        assert rep.method == avg.method == "quadrature"
        assert rep.value.shape == avg.value.shape == (4,)
        for k, (r, tau, g, beta) in enumerate(zip(rs, taus, gains, betas)):
            point = (ResourceSpec.squeezed_bell(r, phi=3.0, delta=0.4,
                                                theta=0.2),
                     NoiseParams(tau=tau, r2=0.05),
                     GainSetting(None if math.isnan(g) else g))
            one = fidelity_quadrature(CoherentInput(beta), *point).value
            assert type(one) is float
            assert float(rep.value[k]).hex() == one.hex()
            assert float(avg.value[k]).hex() == average_fidelity(
                *point, AlphabetPrior(3.0)).value.hex()
        assert rep.value[2] == avg.value[2] == 0.0

    @pytest.mark.parametrize("family, field, values", [
        ("twin-beam", "r", [0.0, 0.6, 800.0, 1.4, 0.9]),
        ("squeezed-bell", "delta", [0.0, 0.4, 1.2, 2.5, 3.0]),
        ("buridan", "r", [0.2, 0.7, 1.3, 800.0, 0.05]),
        ("squeezed-cat", "gamma_mod", [0.0, 0.3, 0.9, 1.6, 2.0]),
        ("squeezed-cat", "r", [0.1, 1.4, 0.5, 800.0, 0.9]),
    ])
    def test_quadrature_spec_columns_are_points(self, family, field,
                                                values):
        """An r, delta or gamma_mod column on the quadrature route, with an
        amplitude column, each row its point's value to the bit in one
        lockstep call; a row whose envelope rate overflows (r = 800) is
        0, and the cat's amplitude is complex."""
        core = {"delta": 0.7, "theta": 0.4, "gamma_mod": 1.1,
                "gamma_phase": 0.6}
        core = {k: v for k, v in core.items() if k in CORE_PARAMS[family]}
        point = {"r": 0.8, **core}
        betas = [0.5j, 1.0 - 0.3j, 0j, -0.8, 0.2 + 0.9j]
        noise, gain = NoiseParams(tau=0.2, r2=0.05), GainSetting(1.2)

        def fid(beta, **value):
            spec = ResourceSpec.of(family, phi=2.5, **{**point, **value})
            return fidelity_quadrature(CoherentInput(beta), spec, noise,
                                       gain).value

        col = fid(np.array(betas), **{field: np.array(values)})
        assert [v.hex() for v in col.tolist()] == [
            fid(b, **{field: v}).hex() for b, v in zip(betas, values)]
        assert 800.0 not in values or col[values.index(800.0)] == 0.0

    def test_unity_rule_rows_off_the_closed_phases(self):
        """A NaN gain row off the closed phases is on the unity rule, as
        GainSetting() alone: each row of the average and of the
        quadrature is its point's value, to the bit. Split into point
        settings, the NaN row had no Gaussian envelope and raised
        QuadratureError."""
        spec = ResourceSpec.twin_beam(0.5, phi=3.0)
        noise = NoiseParams(tau=0.3, r2=0.05)
        gain = GainSetting(np.array([math.nan, 1.1]))
        points = [GainSetting(), GainSetting(1.1)]
        avg = average_fidelity(spec, noise, gain, AlphabetPrior(1.0))
        assert [v.hex() for v in avg.value.tolist()] == [
            average_fidelity(spec, noise, g, AlphabetPrior(1.0)).value.hex()
            for g in points]
        betas = [0.7 - 0.4j, 1.5j]
        rep = fidelity_quadrature(CoherentInput(np.array(betas)), spec,
                                  noise, gain)
        assert [v.hex() for v in rep.value.tolist()] == [
            fidelity_quadrature(CoherentInput(b), spec, noise, g).value.hex()
            for b, g in zip(betas, points)]

    def test_one_item_repeats(self):
        rep = fidelity_closed(self.SPECS[1], IDEAL, UNITY,
                              np.array(self.BETAS))
        assert rep.value.tolist() == [
            fidelity_closed(self.SPECS[1], IDEAL, UNITY, b).value
            for b in self.BETAS]

    def test_zero_d_arrays_are_points(self):
        rep = fidelity_closed(self.SPECS[1], IDEAL, UNITY, np.array(0.5))
        assert rep == fidelity_closed(self.SPECS[1], IDEAL, UNITY, 0.5)

    def test_bad_columns(self):
        with pytest.raises(ParameterError, match="empty"):
            fidelity_closed(ResourceSpec.twin_beam(np.array([])), IDEAL,
                            UNITY)
        with pytest.raises(ParameterError, match="do not match"):
            fidelity_closed(self.SPEC, NoiseParams(tau=np.ones(2)), UNITY)
        # a column's rows are checked as points: row 1 is bad
        with pytest.raises(ParameterError, match="got -1.0") as exc:
            ResourceSpec.twin_beam(np.array([1.0, -1.0]))
        assert exc.value.row == 1


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

    @pytest.mark.parametrize("family,r,tau,g,beta", [
        ("photon-subtracted", 250.0, 10.0, 180.0, 3e88j),
        ("twin-beam", 600.0, 0.0, 700.0, 2e171 + 0j),
    ])
    def test_huge_amplitude_at_large_squeezing(self, family, r, tau, g,
                                               beta):
        """With u = (g~ - 1)^2 |beta|^2 below Delta ~ e^{2r}, u^2 used to
        overflow (inf, exit 4); with both past a double, 4u/Delta was
        inf/inf (NaN, exit 4). The photon-subtracted terms cancel below
        the rounding of the twin-beam value, about 4/Delta, which bounds
        the error; the twin-beam value, 5.8e-527, is 0."""
        noise, gain = NoiseParams(tau=tau), GainSetting.fixed(g)
        gam = gamma_cov(noise, gain)
        got = fidelity_closed(ResourceSpec.of(family, r), noise, gain,
                              beta).value
        with mpmath.workdps(50):
            delta = (mpmath.atan(mpmath.tanh(r))
                     if family == "photon-subtracted" else 0)
        want = self.reference("squeezed-bell", r, delta, g, tau, gam, beta)
        twin = self.reference("squeezed-bell", r, 0, g, tau, gam, beta)
        assert abs(got - float(want)) <= 1e-14 * float(twin)

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

    HUGE = [(gamma_mod, sigma, g) for g in (1.3, 3.0)
            for sigma in (None, 10.0)
            for gamma_mod in (1e154, 1e155, 1e200, 1e300)]

    @pytest.mark.parametrize("gamma_mod,sigma,g", HUGE, ids=[
        f"{sigma}-{gamma_mod}" + ("" if g == 1.3 else f"-gain-{g}")
        for gamma_mod, sigma, g in HUGE])
    def test_huge_amplitude(self, gamma_mod, sigma, g):
        """|gamma gamma> leaves every overlap, so the fidelity is cos^2
        delta times the twin beam's, which the ordinary arithmetic
        already reaches at gamma = 50. At gamma = 1e154 gamma^2 is finite
        but gamma^2 Delta is not; at gain 3 that used to be NaN."""
        noise, gain = NoiseParams(tau=0.3, r2=0.05), GainSetting.fixed(g)

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
        """At g~ = e^{-tau/2} the cat term vanishes (U = 0) and the
        fidelity is the twin beam's at any amplitude."""
        gain = GainSetting.fixed(1.0)
        twin = fidelity_closed(ResourceSpec.twin_beam(0.5), IDEAL, gain)
        got = fidelity_closed(ResourceSpec.squeezed_cat(
            0.5, delta=0.4, gamma_mod=gamma_mod), IDEAL, gain)
        assert got.value == pytest.approx(twin.value, rel=1e-12)

    # (r, phi, delta, theta, gamma phase, tau, n_th, R^2, g~, beta, value)
    # off the closed phases; values from adaptive Gauss-Legendre on a
    # 12-sigma box
    AMPLITUDE_20 = [
        (2.375169639405065, 0.2660918236918595, 0.06355220647566595,
         3.7781087076200155, 4.413278330639383, 0.33590931498582155,
         0.1639543050654031, 0.0008568031217230266, 0.1669497323294025,
         3.2946773555222655 + 1.701919603266818j, 0.024130582839682994),
        (0.5062030289237449, 2.0940092072918954, -1.288586224511488,
         0.19389809319385695, 5.824012948677243, 0.4352086295786912,
         0.10244223032010186, 0.14169036026983353, 0.11794614842893769,
         2.400077867164235 - 0.6041998201705385j, 0.0011582498719522765),
        (1.557842561988094, 0.6131757990690033, 0.5082220211017607,
         6.046016042252245, 6.162398003446838, 0.8892412174344906,
         0.4033054271299177, 0.035590662239494524, 1.9432963120330289,
         1.5312540218267763 - 1.6502548852733268j, 0.0177643969617292),
    ]

    @pytest.mark.parametrize("case", AMPLITUDE_20, ids=range(3))
    def test_quadrature_at_amplitude_20(self, case):
        """A Gauss-Hermite rule needs about omega^2/(2c) nodes for a
        plane wave of frequency omega, so some cats at gamma = 20 exhaust
        the 1024-node rung; these three stop on 256 and 512 nodes. They
        pin the boundary, so a smaller ladder or a coarser rate fails."""
        r, phi, delta, theta, gph, tau, n_th, r2, gt, beta, want = case
        spec = ResourceSpec.squeezed_cat(r, phi=phi, delta=delta,
                                         theta=theta, gamma_mod=20.0,
                                         gamma_phase=gph)
        noise = NoiseParams(tau=tau, n_th=n_th, r2=r2)
        gain = GainSetting.fixed(gt / noise.transmissivity)
        got = fidelity_quadrature(CoherentInput(beta), spec, noise, gain)
        assert got.value == pytest.approx(want, abs=1e-10)


class TestDeltaTerms:
    """Delta and its terms over Delta against 50-digit arithmetic, with
    eps = e^{-tau/2} rounded as the program rounds it, so that g~ - eps
    is exact near the ridge g~ = eps. The factor e^{r} |g~ - eps| is the
    exponential of x = r + log |g~ - eps|, whose rounding is a relative
    error of |x| ulp, so the bound grows with |x|."""

    @staticmethod
    def reference(r, gt, tau, gam):
        eps = float(np.exp(-tau / 2))
        with mpmath.workdps(50):
            r, gt, gam, eps = map(mpmath.mpf, (r, gt, gam, eps))
            d0 = (mpmath.exp(-r) * (gt + eps)) ** 2
            d1 = (mpmath.exp(r) * (gt - eps)) ** 2
            z = 2 * (1 + gt * gt + 2 * gam)
            D = d0 + d1 + z
            return D, (d0 / D, d1 / D, z / D)

    def check(self, r, gt, tau, gam):
        D, terms = _delta_terms(r, gt, -np.exp(-tau / 2), gam)
        want, want_terms = self.reference(r, gt, tau, gam)
        if want > sys.float_info.max:
            assert (D, terms) == (math.inf, (0.0, 0.0, 1.0))
            return
        gap = abs(gt - float(np.exp(-tau / 2)))
        x = r + math.log(gap) if gap else 0.0
        tol = sys.float_info.epsilon * (4 + 2 * abs(x))
        assert abs(D - want) <= tol * want
        assert all(abs(t - w) <= tol for t, w in zip(terms, want_terms))
        assert sum(terms) == pytest.approx(1.0, abs=4e-16)

    def test_normal_range(self):
        """r <= 5, tau <= 3, Gamma <= 2, and g~ in [0.01, 2.5] or on the
        ridge to within 1e-6."""
        rng = np.random.default_rng(14)
        for _ in range(2000):
            r, gam = rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0)
            tau = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 3.0)
            gt = (rng.uniform(0.01, 2.5) if rng.random() < 0.5 else
                  math.exp(-tau / 2) * (1 + rng.uniform(-1e-6, 1e-6)))
            self.check(r, gt, tau, gam)

    @pytest.mark.parametrize("r,gt,tau,gam", [
        # r past 354: Delta is finite only near the ridge
        (360.0, 1.3, 0.0, 0.2), (360.0, 1.0, 0.0, 0.2),
        (370.0, 1.0 + 2 ** -52, 0.0, 0.2), (1e308, 1.0, 0.0, 0.2),
        (500.0, math.exp(-300.0) * (1 + 2 ** -50), 600.0, 0.5),
        (650.0, math.exp(-300.0) * (1 + 2 ** -50), 600.0, 0.5),
        # tau past 710: eps underflows
        (1.0, 1.3, 720.0, 0.5), (1.0, 1.3, 1500.0, 0.5),
        (1.0, 1.3, 1e308, 0.5),
        # g~ past 1e154: g~^2 overflows
        (0.0, 5e153, 0.0, 0.0), (1.0, 1e155, 0.0, 0.0),
        (1.0, 1e160, 0.3, 0.0), (1.0, sys.float_info.max, 0.3, 0.0),
        # Gamma past 1e300
        (1.0, 1.3, 0.3, 1e301), (1.0, 1.3, 0.3, 1e308),
        (1.0, 1.3, 0.3, math.inf),
    ])
    def test_past_the_double_range(self, r, gt, tau, gam):
        self.check(r, gt, tau, gam)


class TestOverflowingInputs:
    """Delta's terms past a double: a long channel, a huge gain, a huge
    thermal noise, or a prior too wide for the Gauss-Hermite rule."""

    @pytest.mark.parametrize("tau", [720.0, 1500.0, 1e308])
    @pytest.mark.parametrize("spec", [
        ResourceSpec.twin_beam(1.0),
        ResourceSpec.squeezed_bell(1.0, delta=0.3)],
        ids=["twin-beam", "squeezed-bell"])
    def test_long_channel_is_the_fully_lossy_limit(self, spec, tau):
        """(1 +- e^{tau/2} g~)^2 overflowed past tau ~ 710 and e^{tau/2}
        past tau ~ 1420 (exit 4). e^{-tau} is below rounding long before,
        so the value is the tau = 705 one, which the direct arithmetic
        reaches; the quadrature, another route, agrees."""
        gain = GainSetting.fixed(1.0)
        want = fidelity_closed(spec, NoiseParams(tau=705.0), gain).value
        got = fidelity_closed(spec, NoiseParams(tau=tau), gain).value
        assert got == pytest.approx(want, abs=1e-12)
        quad = fidelity_quadrature(CoherentInput(0j), spec,
                                   NoiseParams(tau=tau), gain).value
        assert got == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("noise,g", [
        (IDEAL, 1e160), (NoiseParams(r2=0.05), 1e154),
        (NoiseParams(tau=1.0, n_th=1e308), 1.0),
        (NoiseParams(r2=0.05), 1e200)],
        ids=["gain-1e160", "gain-1e154-r2", "nth-1e308", "infinite-gamma"])
    def test_huge_gain_or_noise(self, family, noise, g):
        """g~^2 overflowed a float power, or z = 2 (1 + g~^2 + 2 Gamma)
        overflowed and log(inf) - inf was NaN (exit 4). Delta is far past
        a double, so the fidelity is 0 to within 1e-300."""
        core = ({"delta": 0.3} if "delta" in CORE_PARAMS.get(family, ())
                else {})
        if family == "squeezed-cat":
            core["gamma_mod"] = 1.0
        got = fidelity_closed(ResourceSpec.of(family, 1.0, **core), noise,
                              GainSetting.fixed(g), 0.5 - 0.3j).value
        assert 0.0 <= got <= 1e-300

    @pytest.mark.parametrize("spec,sigma", [
        (ResourceSpec.twin_beam(1.0), 1e160),
        (ResourceSpec.squeezed_bell(1.0, delta=0.3), 1e300)],
        ids=["twin-1e160", "bell-1e300"])
    def test_huge_prior_variance(self, spec, sigma):
        """Every Gauss-Hermite weight e^{-4 q t^2} underflows, and q^2
        times their sum was inf * 0 (NaN, exit 4). The exact twin-beam
        average, 4/(Delta + 4q) with q = (g~ - 1)^2 sigma, bounds it."""
        gain = GainSetting.fixed(1.1)
        q = (1.1 - 1) ** 2 * sigma
        D = delta_scale_ref(1.0, 1.1, 0.0, gamma_cov(IDEAL, gain))
        got = average_fidelity(spec, IDEAL, gain, AlphabetPrior(sigma)).value
        assert abs(got - 4 / (D + 4 * q)) <= 1e-12

@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 1000.0),
    delta=st.floats(-math.pi, math.pi),
    gamma=st.floats(0.0, 10.0),
    g=st.floats(5e-324, sys.float_info.max),
    tau=st.floats(0.0, sys.float_info.max),
    n_th=st.floats(0.0, sys.float_info.max),
    r2=st.floats(0.0, 0.99),
    beta=st.complex_numbers(max_magnitude=10.0),
)
def test_closed_fidelity_over_any_channel(family, r, delta, gamma, g, tau,
                                          n_th, r2, beta):
    """Every finite tau, gain and noise gives a closed fidelity in
    [0, 1], with no NumericalError: Delta's terms never overflow."""
    core = {k: v for k, v in (("delta", delta), ("gamma_mod", gamma))
            if k in CORE_PARAMS.get(family, ())}
    try:
        spec = ResourceSpec.of(family, r, **core)
    except ParameterError:
        return  # a degenerate cat core
    val = fidelity_closed(spec, NoiseParams(tau=tau, n_th=n_th, r2=r2),
                          GainSetting.fixed(g), beta).value
    assert 0.0 <= val <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 3.0),
    phi=st.floats(-math.pi, 3 * math.pi),
    delta=st.floats(-math.pi, math.pi),
    theta=st.floats(-math.pi, math.pi),
    gamma=st.floats(0.0, 5.0),
    tau=st.floats(0.0, 1.0),
    n_th=st.floats(0.0, 1.0),
    r2=st.floats(0.0, 0.5),
    g=st.floats(1e-3, 2.0),
    beta=st.complex_numbers(max_magnitude=1e3),
)
def test_quadrature_fidelity_at_large_amplitudes(family, r, phi, delta, theta,
                                                 gamma, tau, n_th, r2, g,
                                                 beta):
    """fidelity_quadrature called directly, at any phase and |beta| up to
    1e3: a finite value in [0, 1], or a QuadratureError or
    NumericalError. By hand, beta = 200 gave 6e-16 and beta = 1e200
    raised QuadratureError."""
    core = {k: v for k, v in (("delta", delta), ("theta", theta),
                              ("gamma_mod", gamma))
            if k in CORE_PARAMS.get(family, ())}
    try:
        spec = ResourceSpec.of(family, r, phi, **core)
    except ParameterError:
        return  # a degenerate cat core
    try:
        val = fidelity_quadrature(
            CoherentInput(beta), spec, NoiseParams(tau=tau, n_th=n_th, r2=r2),
            GainSetting.fixed(g)).value
    except (QuadratureError, NumericalError):
        return
    assert 0.0 <= val <= 1.0


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
