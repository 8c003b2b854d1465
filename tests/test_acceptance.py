"""End-to-end acceptance checks.

Each test exercises one shipping requirement at its stated tolerance
and prints a single PASS/FAIL line (visible with -s or -rA) so the
whole gate can be audited at a glance. Budgets are wall-clock seconds.
"""

import io
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import telefid.cli_sweep as cli
from telefid import (AlphabetPrior, CoherentInput, GainSetting, NoiseParams,
                     PhasePoint, ResourceSpec, classical_benchmark,
                     fidelity_closed, fidelity_gaussian_oracle,
                     fidelity_quadrature)
from telefid.optimize import (one_shot_fidelity, optimize_beta_independent,
                              r_max)
from telefid.phase_space import _chi_input_arrays
from telefid.protocol import (chi_out, chi_out_via_measurement_average,
                              propagate_lossy)

FAMILIES = ("twin-beam", "squeezed-bell", "squeezed-cat", "buridan",
            "photon-subtracted")


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_spec(rng, family):
    """A random resource on the closed-form domain, in the optimizer's
    box and past it in r: r <= 8, cat amplitude <= 5 at any r."""
    r = rng.uniform(0.05, 8.0)
    if family == "twin-beam":
        return ResourceSpec.twin_beam(r)
    if family == "photon-subtracted":
        return ResourceSpec.photon_subtracted(r)
    delta = rng.uniform(-math.pi / 2, math.pi / 2)
    if family == "squeezed-bell":
        return ResourceSpec.squeezed_bell(r, delta=delta)
    if family == "buridan":
        return ResourceSpec.buridan_donkey(r, delta=delta)
    while True:
        spec = ResourceSpec.squeezed_cat(
            r, delta=delta, gamma_mod=rng.uniform(0.0, 5.0),
            gamma_phase=math.pi * rng.integers(0, 2))
        if spec.norm_sq >= 1e-6:
            return spec
        delta = rng.uniform(-math.pi / 2, math.pi / 2)


def _random_noise_gain(rng, tau_max=0.5, gt_range=(0.5, 1.5)):
    noise = NoiseParams(tau=rng.uniform(0.0, tau_max),
                        n_th=rng.uniform(0.0, 0.5),
                        r2=rng.uniform(0.0, 0.2))
    gt = rng.uniform(*gt_range)
    return noise, GainSetting.fixed(gt / noise.transmissivity)


def _random_beta(rng, radius=3.0):
    ang = rng.uniform(0.0, 2 * math.pi)
    rad = radius * math.sqrt(rng.uniform(0.0, 1.0))
    return complex(rad * math.cos(ang), rad * math.sin(ang))


def test_01_closed_forms_match_quadrature():
    """200 random points per family, |closed - quadrature| <= 1e-8, over
    r <= 8, cat amplitude <= 5, |beta| <= 5, g~ in [0.1, 2], tau <= 1,
    n_th <= 0.5 and R^2 <= 0.2."""
    budget = 120.0
    start = time.perf_counter()
    worst = 0.0
    for k, family in enumerate(FAMILIES):
        rng = np.random.default_rng(1000 + k)
        for _ in range(200):
            spec = _random_spec(rng, family)
            noise, gain = _random_noise_gain(rng, 1.0, (0.1, 2.0))
            beta = _random_beta(rng, 5.0)
            closed = fidelity_closed(spec, noise, gain, beta=beta).value
            quad = fidelity_quadrature(CoherentInput(beta), spec, noise,
                                       gain).value
            worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - start
    _report("closed forms match quadrature",
            worst <= 1e-8 and elapsed <= budget,
            f"max dev {worst:.3g} over 1000 points, {elapsed:.1f}s")


def test_02_ideal_twin_beam_curve():
    """Ideal-channel benchmark curve 1/(1 + e^{-2r}) to 1e-12."""
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 1.5):
        val = fidelity_closed(ResourceSpec.twin_beam(r), NoiseParams(),
                              GainSetting.fixed(1.0)).value
        worst = max(worst, abs(val - 1 / (1 + math.exp(-2 * r))))
    half = fidelity_closed(ResourceSpec.twin_beam(0.0), NoiseParams(),
                           GainSetting.fixed(1.0)).value
    _report("ideal twin-beam fidelity curve",
            worst <= 1e-12 and half == 0.5,
            f"max dev {worst:.3g}, r = 0 gives {half}")


def test_03_gaussian_pipeline_agrees():
    """Covariance-algebra route equals the closed form at 1e-10."""
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.05, 1.5)
        noise, gain = _random_noise_gain(rng)
        beta = _random_beta(rng)
        ours = fidelity_gaussian_oracle(CoherentInput(beta), r, noise,
                                        gain).value
        ref = fidelity_closed(ResourceSpec.twin_beam(r), noise, gain,
                              beta=beta).value
        worst = max(worst, abs(ours - ref))
    _report("independent Gaussian pipeline agrees",
            worst <= 1e-10, f"max dev {worst:.3g} over 100 points")


def test_04_measurement_average_rebuilds_output():
    """Explicit Bell-outcome average equals chi_out at 1e-5."""
    budget = 600.0
    start = time.perf_counter()
    noise = NoiseParams(tau=0.2, r2=0.05)
    gain = GainSetting.fixed(1.0)
    inp = CoherentInput(0.7 - 0.4j)
    pts = [PhasePoint(0.0, 0.0), PhasePoint(0.8, 0.3),
           PhasePoint(-0.5, 0.9), PhasePoint(1.2, -0.7),
           PhasePoint(-1.0, -1.1)]
    worst = 0.0
    for spec in (ResourceSpec.twin_beam(0.8),
                 ResourceSpec.squeezed_bell(0.8, delta=0.5)):
        for pt in pts:
            slow = chi_out_via_measurement_average(inp, spec, noise, gain,
                                                   pt)
            fast = chi_out(inp, spec, noise, gain, pt)
            worst = max(worst, abs(slow - fast))
    elapsed = time.perf_counter() - start
    _report("measurement average rebuilds chi_out",
            worst <= 1e-5 and elapsed <= budget,
            f"max dev {worst:.3g} over 10 points, {elapsed:.1f}s")


def test_05_unity_gain_removes_input_dependence():
    """At g = 1/T the fidelity deviates from its beta = 0 value by
    at most 1e-12 for every family."""
    noise = NoiseParams(tau=0.25, n_th=0.3, r2=0.15)
    gain = GainSetting.unity_over_t()
    specs = [ResourceSpec.twin_beam(0.9),
             ResourceSpec.squeezed_bell(0.9, delta=0.6),
             ResourceSpec.squeezed_cat(0.7, delta=0.35, gamma_mod=0.9),
             ResourceSpec.buridan_donkey(0.9, delta=0.6),
             ResourceSpec.photon_subtracted(0.9)]
    worst = 0.0
    for spec in specs:
        base = fidelity_closed(spec, noise, gain).value
        for beta in (1.0 + 0j, -2.0 + 0.5j, 3.0j, -3.0 + 0j, 2.0 + 2.0j):
            val = fidelity_closed(spec, noise, gain, beta=beta).value
            worst = max(worst, abs(val - base))
    _report("unity gain removes input dependence",
            worst <= 1e-12, f"max |F(beta) - F(0)| = {worst:.3g}")


def test_06_optimal_squeezing_with_loss():
    """Finite optimal squeezing under loss: numeric argmax matches the
    closed expression to 1e-3 and the three optimized families share
    the maximum to 1e-6."""
    worst_arg, worst_gap = 0.0, 0.0
    for tau in (0.1, 0.2, 0.3):
        noise = NoiseParams(tau=tau)
        gain = GainSetting.unity_over_t()

        def f(r, noise=noise, gain=gain):
            return fidelity_closed(ResourceSpec.twin_beam(r), noise,
                                   gain).value

        x = minimize_scalar(lambda r, f=f: -f(r), bounds=(0.05, 3.0),
                            method="bounded", options={"xatol": 1e-8}).x
        rs = r_max(tau)
        worst_arg = max(worst_arg, abs(x - rs))
        twb = optimize_beta_independent("twin-beam", rs, noise).best_value
        sb = optimize_beta_independent("squeezed-bell", rs,
                                       noise).best_value
        sc = optimize_beta_independent("squeezed-cat", rs,
                                       noise).best_value
        worst_gap = max(worst_gap, abs(sb - twb), abs(sc - twb))
    value_03 = abs(r_max(0.3) - 1.296)
    _report("optimal squeezing under loss",
            worst_arg <= 1e-3 and worst_gap <= 1e-6 and value_03 <= 1e-3,
            f"argmax dev {worst_arg:.2g}, family gap {worst_gap:.2g}, "
            f"r_max(0.3) = {r_max(0.3):.6f}")


def test_07_optimized_families_dominate_subcases():
    """F_opt(squeezed-bell) >= F(twin-beam), F(photon-subtracted) and
    F_opt(squeezed-cat) >= F(twin-beam) with no tolerance on every
    tested grid point; delta = 0 / gamma = 0 reduce to the twin beam
    within 1e-12."""
    noises = [NoiseParams(), NoiseParams(tau=0.1, n_th=0.1, r2=0.05),
              NoiseParams(tau=0.3, n_th=0.3, r2=0.15)]
    gain = GainSetting.unity_over_t()
    failures = 0
    checked = 0
    worst_red = 0.0
    for r in (0.1, 0.4, 0.7, 1.0, 1.3):
        for noise in noises:
            twb = optimize_beta_independent("twin-beam", r,
                                            noise).best_value
            pss = optimize_beta_independent("photon-subtracted", r,
                                            noise).best_value
            sb = optimize_beta_independent("squeezed-bell", r,
                                           noise).best_value
            sc = optimize_beta_independent("squeezed-cat", r,
                                           noise).best_value
            checked += 1
            if not (sb >= twb and sb >= pss and sc >= twb):
                failures += 1
            red_sb = fidelity_closed(
                ResourceSpec.squeezed_bell(r, delta=0.0), noise, gain).value
            red_sc = fidelity_closed(
                ResourceSpec.squeezed_cat(r, delta=0.4, gamma_mod=0.0),
                noise, gain).value
            twb_plain = fidelity_closed(ResourceSpec.twin_beam(r), noise,
                                        gain).value
            worst_red = max(worst_red, abs(red_sb - twb_plain),
                            abs(red_sc - twb_plain))
    _report("optimized families dominate subcases",
            failures == 0 and worst_red <= 1e-12,
            f"{checked} grid points, {failures} violations, "
            f"reduction dev {worst_red:.3g}")


def test_08_classical_benchmark_values():
    b10 = classical_benchmark(AlphabetPrior(10.0))
    b100 = classical_benchmark(AlphabetPrior(100.0))
    ok = (b10 == 11.0 / 21.0 and b100 == 101.0 / 201.0
          and abs(b10 - 0.523) < 1e-3 and abs(b100 - 0.502) < 1e-3)
    _report("classical benchmark values", ok,
            f"sigma=10: {b10:.6f}, sigma=100: {b100:.6f}")


def test_09_lossy_optima_stay_below_strong_transfer():
    """With tau = 0.3 and R^2 = 0.05 no resource reaches fidelity 0.8
    at any squeezing, even after optimization."""
    fids = cli.run_figure_preset("4")["fidelity"]
    top = max(fids)
    _report("lossy optima stay below 0.8", top < 0.8,
            f"max over {len(fids)} optimized points = {top:.6f}")


def test_10_one_shot_beats_thresholds():
    """The prior-matched squeezed-bell one-shot fidelity at beta = 1,
    sigma = 10 clears 0.8 somewhere on r in [0.8, 1.2] and clears the
    classical benchmark already at r = 0.1."""
    noise = NoiseParams(tau=0.3, r2=0.05)
    prior = AlphabetPrior(10.0)
    best = max(one_shot_fidelity("squeezed-bell", r, noise, prior,
                                 1.0).value
               for r in (0.8, 0.9, 1.0, 1.1, 1.2))
    low = one_shot_fidelity("squeezed-bell", 0.1, noise, prior, 1.0).value
    _report("one-shot fidelity clears thresholds",
            best > 0.8 and low > 0.523,
            f"max on [0.8, 1.2] = {best:.6f}, r = 0.1 gives {low:.6f}")


def test_11_channel_map_solves_diffusion_equation():
    """Residual of d chi/d tau + (1/2)[(1/2 + n_th)(x^2+p^2) chi
    + x dx chi + p dp chi] below 1e-6 on a 20 x 20 x 5 grid."""
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
    axis = np.linspace(-2.5, 2.5, 20)
    for tau in (0.05, 0.1, 0.2, 0.35, 0.5):
        for x in axis:
            for p in axis:
                d_tau = (chi_t(tau + h, x, p)
                         - chi_t(tau - h, x, p)) / (2 * h)
                d_x = (chi_t(tau, x + h, p) - chi_t(tau, x - h, p)) / (2 * h)
                d_p = (chi_t(tau, x, p + h) - chi_t(tau, x, p - h)) / (2 * h)
                chi = chi_t(tau, x, p)
                res = d_tau + 0.5 * ((0.5 + n_th) * (x * x + p * p) * chi
                                     + x * d_x + p * d_p)
                worst = max(worst, abs(res))
    _report("channel map solves its diffusion equation",
            worst <= 1e-6, f"max residual {worst:.3g} on 20x20x5 grid")


def test_12_figure_presets_deterministic_within_budget():
    """All seven presets rerun byte-identically, each inside 5 s."""

    def render(tag):
        buf = io.StringIO()
        cli._write_table(buf, cli.run_figure_preset(tag))
        return buf.getvalue()

    budget = 5.0
    ok = True
    details = []
    for tag in cli.FIGURE_TAGS:
        start = time.perf_counter()
        first = render(tag)
        elapsed = time.perf_counter() - start
        stable = render(tag) == first
        ok = ok and stable and elapsed <= budget
        details.append(f"{tag} {elapsed:.2f}s{'' if stable else ' DRIFT'}")
    _report("figure presets deterministic within budget", ok,
            ", ".join(details))
