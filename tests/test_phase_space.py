"""Characteristic functions and Fock-basis helpers against independent
truncated-Fock oracles."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from telefid import (CoherentInput, ParameterError, PhasePoint, ResourceSpec,
                     TwoModePhasePoint, bogoliubov_args, chi_input_coherent,
                     chi_resource, coherent_displacement_overlap,
                     fock_displacement_element, laguerre)

finite = st.floats(allow_nan=False, allow_infinity=False)


def laguerre_series(n, k, x):
    # direct series in exact rational arithmetic; comb(n+k, n-i)
    # vanishes when n-i > n+k
    xf = Fraction(x)
    total = Fraction(0)
    for i in range(n + 1):
        total += (Fraction((-1) ** i * math.comb(n + k, n - i),
                           math.factorial(i)) * xf ** i)
    return float(total)


class TestLaguerre:
    def test_low_orders(self):
        assert laguerre(0, 3, 1.7) == 1.0
        assert laguerre(1, 2, 0.5) == pytest.approx(2.5, abs=1e-15)
        assert laguerre(2, 1, 0.0) == pytest.approx(3.0, abs=1e-15)

    def test_against_series(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(0, 20))
            k = int(rng.integers(max(-n, -3), 11))
            x = float(rng.uniform(-4, 8))
            ref = laguerre_series(n, k, x)
            assert laguerre(n, k, x) == pytest.approx(
                ref, rel=1e-10, abs=1e-10)

    def test_lowest_superscript(self):
        # k = -n leaves a single series term, (-x)^n / n!; deep negative
        # k is exact only while the recurrence intermediates stay small
        for n in (1, 2, 4, 6):
            x = 1.3
            assert laguerre(n, -n, x) == pytest.approx(
                (-x) ** n / math.factorial(n), rel=1e-10)

    def test_vectorized_argument(self):
        x = np.linspace(0, 5, 7)
        vals = laguerre(3, 2, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(laguerre_series(3, 2, 0.0))

    @given(st.integers(1, 30), st.integers(-4, 8),
           st.floats(-5, 10, allow_nan=False))
    def test_contiguous_identity(self, n, k, x):
        # L_n^(k) = L_n^(k+1) - L_{n-1}^(k+1)
        k = max(k, -n)
        lhs = laguerre(n, k, x)
        rhs = laguerre(n, k + 1, x) - laguerre(n - 1, k + 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ParameterError):
            laguerre(2, -3, 1.0)
        with pytest.raises(ParameterError):
            laguerre(65, 0, 1.0)


class TestFockDisplacement:
    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(5)
        dmat = {}
        for _ in range(60):
            m = int(rng.integers(0, 13))
            n = int(rng.integers(0, 13))
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if alpha not in dmat:
                dmat[alpha] = oracles.displacement(alpha)
            assert fock_displacement_element(m, n, alpha) == pytest.approx(
                complex(dmat[alpha][m, n]), abs=1e-10)

    def test_vacuum_column(self):
        alpha = 0.7 - 0.2j
        assert fock_displacement_element(0, 0, alpha) == pytest.approx(
            math.exp(-abs(alpha) ** 2 / 2))

    def test_adjoint_symmetry(self):
        alpha = 0.4 + 0.9j
        lhs = fock_displacement_element(2, 5, alpha)
        rhs = np.conj(fock_displacement_element(5, 2, -alpha))
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_past_the_square_overflow_is_0(self):
        """Where |alpha|^2 overflows, e^{-|alpha|^2/2} L_n(|alpha|^2) took
        0 * inf, a NaN; the Gaussian wins, and the element is 0."""
        for m, n in ((1, 1), (0, 1), (2, 0), (3, 3)):
            for alpha in (1e160, 1e300 - 1e300j, 40.0):
                assert fock_displacement_element(m, n, alpha) == 0

    def test_column_norm(self):
        # D is unitary; truncation tail is negligible for small alpha
        alpha = 0.8 + 0.3j
        col = sum(abs(fock_displacement_element(m, 2, alpha)) ** 2
                  for m in range(40))
        assert col == pytest.approx(1.0, abs=1e-10)


class TestCoherentOverlap:
    def test_against_matrix_route(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g1, g2, xi = (complex(rng.uniform(-0.9, 0.9),
                                  rng.uniform(-0.9, 0.9)) for _ in range(3))
            ref = complex(np.conj(oracles.coherent(g1))
                          @ oracles.displacement(xi) @ oracles.coherent(g2))
            assert coherent_displacement_overlap(g1, xi, g2) == \
                pytest.approx(ref, abs=1e-10)

    def test_zero_displacement(self):
        g = 0.3 + 0.5j
        assert coherent_displacement_overlap(g, 0j, g) == pytest.approx(1.0)

    def test_amplitudes_past_the_square_overflow(self):
        """|g|^2 overflows a double past 1.3e154, and forming it was an
        OverflowError. mpmath takes the textbook exponent (xi conj(g2) -
        conj(xi) g2)/2 - |g1|^2/2 - |xi + g2|^2/2 + conj(g1)(xi + g2) at
        400 digits, past its cancellation of terms of size 1e310. Where
        |xi g| is large the phase has no digits left in a double, so
        there only the modulus is held."""
        mpmath = pytest.importorskip("mpmath")
        g = 1e155 * cmath.exp(0.3j)
        for g1, xi, g2, phase_too in ((g, 4e-156 - 7e-156j, g, True),
                                      (g, 0.2 + 0.1j, g, False),
                                      (0j, 0.2 + 0.1j, g, True),
                                      (g, 0.2 + 0.1j, 0j, True)):
            with mpmath.workdps(400):
                a, b, x = (mpmath.mpc(z) for z in (g1, g2, xi))
                ref = complex(mpmath.exp(
                    (x * mpmath.conj(b) - mpmath.conj(x) * b) / 2
                    - abs(a) ** 2 / 2 - abs(x + b) ** 2 / 2
                    + mpmath.conj(a) * (x + b)))
            ours = coherent_displacement_overlap(g1, xi, g2)
            assert abs(ours) == pytest.approx(abs(ref), rel=1e-14)
            if phase_too:
                assert ours == pytest.approx(ref, rel=1e-14, abs=1e-300)

    def test_phase_overflow_is_nan_without_warning(self):
        """Past |xi| |g| ~ 1.8e308 the phase has no double; the value is
        NaN, which no quadrature converges on, and numpy does not warn."""
        val = coherent_displacement_overlap(1.7e308, 0.5, 1.7e308)
        assert cmath.isnan(val)


class TestBogoliubov:
    def test_identity_at_zero_squeezing(self):
        a1, a2 = 0.3 + 0.1j, -0.2 + 0.7j
        xi1, xi2 = bogoliubov_args(0j, a1, a2)
        assert complex(xi1) == a1
        assert complex(xi2) == a2

    @given(st.floats(0, 2, allow_nan=False),
           st.floats(0, 2 * math.pi, allow_nan=False),
           st.floats(-2, 2), st.floats(-2, 2),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60)
    def test_preserves_modulus_difference(self, r, phi, x1, y1, x2, y2):
        # |xi1|^2 - |xi2|^2 is a Bogoliubov invariant
        a1, a2 = complex(x1, y1), complex(x2, y2)
        xi1, xi2 = bogoliubov_args(r * np.exp(1j * phi), a1, a2)
        lhs = abs(xi1) ** 2 - abs(xi2) ** 2
        rhs = abs(a1) ** 2 - abs(a2) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestChiInput:
    def test_formula(self):
        beta = 0.8 - 0.3j
        pt = PhasePoint(0.7, -1.1)
        expected = np.exp(-(0.7 ** 2 + 1.1 ** 2) / 4
                          + 1j * math.sqrt(2)
                          * (-1.1 * beta.real - 0.7 * beta.imag))
        assert chi_input_coherent(CoherentInput(beta), pt) == pytest.approx(
            complex(expected), abs=1e-15)

    def test_huge_amplitude_and_point_give_0(self):
        """Past the overflow of x^2 and of the phase the Gaussian
        underflows: the value is 0, where exp(-inf + i inf) was NaN."""
        for beta, pt in ((1e300, PhasePoint(1e300, 1e300)),
                         (1e300j, PhasePoint(1e100, -1e100)),
                         (0.5, PhasePoint(1e200, 0.0))):
            assert chi_input_coherent(CoherentInput(beta), pt) == 0

    def test_matches_fock_oracle(self):
        beta = 0.5 + 0.4j
        psi = oracles.coherent(beta)
        for x, p in [(0.3, -0.6), (1.2, 0.8)]:
            alpha = complex(x, p) / math.sqrt(2)
            assert chi_input_coherent(
                CoherentInput(beta), PhasePoint(x, p)) == pytest.approx(
                    oracles.chi_single_mode(psi, alpha), abs=1e-10)


def oracle_state(spec):
    """Resource state vector via the independent Fock machinery."""
    if spec.family == "squeezed-bell":
        core = oracles.bell_core(spec.delta, spec.theta)
    elif spec.family == "squeezed-cat":
        core = oracles.cat_core(spec.delta, spec.theta, spec.gamma)
    elif spec.family == "buridan":
        core = oracles.donkey_core(spec.delta, spec.theta)
    else:
        core = oracles.bell_core(0.0, 0.0)
    return oracles.squeeze_two_mode(spec.zeta, core)


# truncation at the 40-photon cutoff stays below 2e-15 on these ranges
FOCK_SAFE = dict(r_max=0.7, gamma_max=0.8, comp_max=1.0)


def random_spec(rng, family):
    r = float(rng.uniform(0.05, FOCK_SAFE["r_max"]))
    phi = float(rng.uniform(0, 2 * math.pi))
    delta = float(rng.uniform(-math.pi / 2, math.pi / 2))
    theta = float(rng.uniform(0, 2 * math.pi))
    if family == "twin-beam":
        return ResourceSpec.twin_beam(r, phi=phi)
    if family == "photon-subtracted":
        return ResourceSpec.photon_subtracted(r, phi=phi)
    if family == "squeezed-bell":
        return ResourceSpec.squeezed_bell(r, phi=phi, delta=delta,
                                          theta=theta)
    if family == "buridan":
        return ResourceSpec.buridan_donkey(r, phi=phi, delta=delta,
                                           theta=theta)
    spec = ResourceSpec(family="squeezed-cat", r=r, phi=phi, delta=delta,
                        theta=theta,
                        gamma_mod=float(rng.uniform(0.1,
                                                    FOCK_SAFE["gamma_max"])),
                        gamma_phase=float(rng.uniform(0, 2 * math.pi)))
    return spec


def random_alpha(rng):
    m = FOCK_SAFE["comp_max"]
    return complex(rng.uniform(-m, m), rng.uniform(-m, m))


class TestChiResource:
    @pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell",
                                        "squeezed-cat", "buridan"])
    def test_matches_fock_oracle(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(25):
            spec = random_spec(rng, family)
            if spec.family == "squeezed-cat" and spec.norm_sq < 1e-3:
                continue
            psi = oracle_state(spec)
            a1, a2 = random_alpha(rng), random_alpha(rng)
            got = chi_resource(spec, TwoModePhasePoint(
                PhasePoint(math.sqrt(2) * a1.real, math.sqrt(2) * a1.imag),
                PhasePoint(math.sqrt(2) * a2.real, math.sqrt(2) * a2.imag)))
            assert got == pytest.approx(
                oracles.chi_two_mode(psi, a1, a2), abs=1e-8)

    def test_photon_subtracted_matches_subtracted_twin_beam(self):
        # the closed form goes through the squeezed-Bell reduction; the
        # oracle subtracts a photon from each squeezed mode directly
        rng = np.random.default_rng(77)
        for _ in range(10):
            r = float(rng.uniform(0.2, 0.7))
            phi = float(rng.uniform(0, 2 * math.pi))
            spec = ResourceSpec.photon_subtracted(r, phi=phi)
            tmsv = oracles.squeeze_two_mode(spec.zeta,
                                            oracles.bell_core(0.0, 0.0))
            psi = oracles.photon_subtract_both(tmsv)
            a1, a2 = random_alpha(rng), random_alpha(rng)
            got = chi_resource(spec, TwoModePhasePoint(
                PhasePoint(math.sqrt(2) * a1.real, math.sqrt(2) * a1.imag),
                PhasePoint(math.sqrt(2) * a2.real, math.sqrt(2) * a2.imag)))
            assert got == pytest.approx(
                oracles.chi_two_mode(psi, a1, a2), abs=1e-8)

    @pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell",
                                        "squeezed-cat", "buridan",
                                        "photon-subtracted"])
    def test_normalization_and_hermiticity(self, family):
        rng = np.random.default_rng(13)
        origin = TwoModePhasePoint(PhasePoint(0, 0), PhasePoint(0, 0))
        for _ in range(10):
            spec = random_spec(rng, family)
            assert chi_resource(spec, origin) == pytest.approx(1.0,
                                                               abs=1e-12)
            pt = TwoModePhasePoint(PhasePoint(0.9, -0.4),
                                   PhasePoint(-0.2, 1.1))
            neg = TwoModePhasePoint(PhasePoint(-0.9, 0.4),
                                    PhasePoint(0.2, -1.1))
            assert chi_resource(spec, neg) == pytest.approx(
                np.conj(chi_resource(spec, pt)), abs=1e-12)
            assert abs(chi_resource(spec, pt)) <= 1 + 1e-12

    def test_bell_delta_zero_reduces_to_twin_beam(self):
        pt = TwoModePhasePoint(PhasePoint(0.5, 0.3), PhasePoint(-0.8, 0.2))
        for r in (0.3, 1.1):
            sb = ResourceSpec.squeezed_bell(r, delta=0.0)
            tb = ResourceSpec.twin_beam(r)
            assert chi_resource(sb, pt) == pytest.approx(
                chi_resource(tb, pt), abs=1e-12)

    def test_cat_gamma_zero_reduces_to_twin_beam(self):
        # the core collapses onto the vacuum up to a global phase
        pt = TwoModePhasePoint(PhasePoint(0.5, 0.3), PhasePoint(-0.8, 0.2))
        sc = ResourceSpec.squeezed_cat(0.6, delta=0.4, theta=1.0,
                                       gamma_mod=0.0)
        tb = ResourceSpec.twin_beam(0.6)
        assert chi_resource(sc, pt) == pytest.approx(
            chi_resource(tb, pt), abs=1e-12)


class TestResourceSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            ResourceSpec.twin_beam(-0.1)
        with pytest.raises(ParameterError):
            ResourceSpec(family="unheard-of", r=0.5, phi=math.pi)
        with pytest.raises(ParameterError):
            ResourceSpec.squeezed_cat(0.5, delta=0.2, gamma_mod=-1.0)

    def test_rejects_vanishing_cat_norm(self):
        # cos d |00> + sin d |g,g> with sin 2d = -1 and gamma -> 0
        with pytest.raises(ParameterError):
            ResourceSpec.squeezed_cat(0.5, delta=-math.pi / 4,
                                      gamma_mod=1e-9)

    def test_cat_norm_past_the_double_angle_overflow(self):
        """2 delta overflows a double past 9e307, and sin 2 delta was a
        ValueError; mpmath holds the squared norm."""
        mpmath = pytest.importorskip("mpmath")
        spec = ResourceSpec.squeezed_cat(1.0, delta=1e308, theta=0.4,
                                         gamma_mod=0.5)
        ref = 1 + (mpmath.exp(-0.25) * mpmath.sin(2 * mpmath.mpf(1e308))
                   * mpmath.cos(0.4))
        assert spec.norm_sq == pytest.approx(float(ref), rel=1e-14)

    def test_photon_subtracted_resolution(self):
        """Photon subtraction is stored as its squeezed-Bell state."""
        spec = ResourceSpec.photon_subtracted(0.8)
        assert spec.family == "squeezed-bell"
        assert spec.delta == pytest.approx(math.atan(math.tanh(0.8)))
        assert spec.theta == pytest.approx(0.0)
        assert spec.r == 0.8
        assert spec == ResourceSpec.of("photon-subtracted", 0.8)
        off = ResourceSpec.photon_subtracted(0.8, phi=2.2)
        assert off.theta == pytest.approx(2.2 - math.pi)
        with pytest.raises(ParameterError):
            ResourceSpec("photon-subtracted", 0.8, math.pi)
        with pytest.raises(ParameterError):
            ResourceSpec.photon_subtracted(0.8, phi=math.inf)

    def test_of_matches_the_named_constructors(self):
        assert ResourceSpec.of("twin-beam", 0.5) == ResourceSpec.twin_beam(0.5)
        assert (ResourceSpec.of("squeezed-bell", 0.5, phi=2.0, delta=0.3,
                                theta=0.1)
                == ResourceSpec.squeezed_bell(0.5, 2.0, 0.3, 0.1))
        assert (ResourceSpec.of("buridan", 0.5, delta=0.3)
                == ResourceSpec.buridan_donkey(0.5, delta=0.3))
        assert (ResourceSpec.of("squeezed-cat", 0.5, delta=0.3,
                                gamma_mod=0.7, gamma_phase=0.2)
                == ResourceSpec.squeezed_cat(0.5, delta=0.3, gamma_mod=0.7,
                                             gamma_phase=0.2))

    @pytest.mark.parametrize("family,core", [
        ("twin-beam", {"delta": 0.3}),
        ("photon-subtracted", {"theta": 0.1}),
        ("squeezed-bell", {"gamma_mod": 0.5}),
        ("buridan", {"gamma_phase": 0.5}),
        ("squeezed-cat", {"r2": 0.1}),
    ])
    def test_of_rejects_foreign_parameters(self, family, core):
        with pytest.raises(ParameterError, match="does not apply"):
            ResourceSpec.of(family, 0.5, **core)

    def test_of_rejects_unknown_family(self):
        with pytest.raises(ParameterError):
            ResourceSpec.of("laser", 0.5)

    def test_phase_point_alpha(self):
        pt = PhasePoint(1.0, -1.0)
        assert pt.alpha == pytest.approx((1 - 1j) / math.sqrt(2))

    def test_coherent_input_requires_finite(self):
        with pytest.raises(ParameterError):
            CoherentInput(complex(math.nan, 0.0))
