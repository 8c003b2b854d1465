"""The benchmark's reference computations and checks.

Each reference agrees with the program where both are known to be good,
and the closed-sweep check flags the program's known Gauss-Hermite
error. Run with the package on the path:

    PYTHONPATH=src python -m pytest -q bench
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads as wl
from telefid import (AlphabetPrior, CoherentInput, GainSetting, NoiseParams,
                     ResourceSpec, average_fidelity, fidelity_closed,
                     fidelity_quadrature, optimize_gain_average)
from telefid.cli_sweep import main

NOISE = dict(tau=0.3, nth=0.0, r2=0.05)


def _noise():
    return NoiseParams(tau=NOISE["tau"], n_th=NOISE["nth"], r2=NOISE["r2"])


@pytest.mark.parametrize("r, g, beta", [(0.8, 1.0, 0j), (0.3, 0.7, 2 - 1j),
                                        (1.5, 1.4, 3.0)])
def test_twin_beam_gaussian_matches_closed_form(r, g, beta):
    pts = ref.Points("twin-beam", r=r, gain=g, **NOISE)
    want = fidelity_closed(ResourceSpec.twin_beam(r), _noise(),
                           GainSetting.fixed(g), beta).value
    assert abs(ref.twin_beam_fidelity(pts, beta)[0] - want) < 1e-14


def test_twin_beam_average_and_best_gain_match_the_program():
    sigma = 1.0
    pts = ref.Points("twin-beam", r=0.8, gain=1.1, **NOISE)
    want = average_fidelity(ResourceSpec.twin_beam(0.8), _noise(),
                            GainSetting.fixed(1.1), AlphabetPrior(sigma))
    assert abs(ref.twin_beam_average(pts, sigma)[0] - want.value) < 1e-14
    opt = optimize_gain_average("twin-beam", 0.8, _noise(),
                                AlphabetPrior(sigma))
    best = ref.twin_beam_best_gain(0.8, NOISE["tau"], NOISE["r2"], sigma)
    assert abs(opt.g_opt - best) < 1e-7


@pytest.mark.parametrize("family, spec", [
    ("squeezed-bell", ResourceSpec.squeezed_bell(0.8, delta=0.4)),
    ("buridan", ResourceSpec.buridan_donkey(1.2, delta=-0.5)),
    ("squeezed-cat", ResourceSpec.squeezed_cat(0.6, delta=0.3,
                                               gamma_mod=1.7)),
    ("photon-subtracted", ResourceSpec.photon_subtracted(0.9)),
])
def test_overlap_rule_matches_closed_forms(family, spec):
    pts = ref.Points(family, r=spec.r, delta=spec.delta,
                     gamma=spec.gamma_mod, gain=0.9, **NOISE)
    for beta in (0j, 1.5 - 2j):
        want = fidelity_closed(spec, _noise(), GainSetting.fixed(0.9),
                               beta).value
        assert abs(ref.overlap_fidelity(pts, beta)[0] - want) < 1e-13


def test_overlap_rule_matches_quadrature_off_the_closed_form_phases():
    spec = ResourceSpec.squeezed_bell(0.7, phi=2.5, delta=0.6, theta=1.1)
    pts = ref.Points("squeezed-bell", r=0.7, phi=2.5, delta=0.6, theta=1.1,
                     gain=1.05, **NOISE)
    beta = 0.8 + 0.4j
    want = fidelity_quadrature(CoherentInput(beta), spec, _noise(),
                               GainSetting.fixed(1.05)).value
    assert abs(ref.overlap_fidelity(pts, beta)[0] - want) < 1e-12


def test_prior_average_matches_the_program_at_small_lambda():
    spec = ResourceSpec.squeezed_cat(0.8, delta=0.4, gamma_mod=1.0)
    pts = ref.Points("squeezed-cat", r=0.8, delta=0.4, gamma=1.0, gain=0.95,
                     **NOISE)
    want = average_fidelity(spec, _noise(), GainSetting.fixed(0.95),
                            AlphabetPrior(1.0)).value
    assert abs(ref.overlap_fidelity(pts, sigma=1.0)[0] - want) < 1e-13
    # the rule over beta agrees with the exact twin-beam average
    twin = ref.Points("twin-beam", r=0.8, gain=0.95, **NOISE)
    exact = ref.twin_beam_average(twin, 10.0)[0]
    assert abs(ref.overlap_fidelity(twin, sigma=10.0)[0] - exact) < 1e-14


def _run(op, tmp_path):
    path = str(tmp_path / "op.csv")
    assert main(op.argv + ["--output", path]) == 0
    with open(path, encoding="utf-8") as fh:
        return wl.parse_csv(fh.read())


def test_closed_sweep_check_flags_the_gauss_hermite_error(tmp_path):
    import telefid

    r, tau, r2 = 0.8, 0.3, 0.05
    T = math.sqrt(1 - r2)
    pts = ref.Points("twin-beam", r=r, tau=tau, r2=r2, gain=0.6 / T)
    delta = 2 * ref._twin_noise(pts)[0]
    sigma = 25 * delta / (4 * 0.4 ** 2)  # lambda = 25 at g~ = 0.6
    bad = wl.sweep_op("twin-beam", "gain", 0.6 / T, 0.7 / T, 3,
                      sigma=sigma, r=r, tau=tau, r2=r2)
    problems = wl.check_sweep(bad, _run(bad, tmp_path), telefid)
    assert problems and "row 0" in problems[0]
    good = wl.sweep_op("twin-beam", "gain", 0.6 / T, 0.7 / T, 3,
                       sigma=1.0, r=r, tau=tau, r2=r2)
    assert wl.check_sweep(good, _run(good, tmp_path), telefid) == []


def test_rounds_repeat_per_seed_and_failing_sweeps_do_not_depend_on_it():
    def argvs(make, seed):
        return [op.argv for op in make(np.random.default_rng(seed))]

    for make, _ in wl.WORKLOADS.values():
        assert argvs(make, 7) == argvs(make, 7)
    faulty = [[op.argv for op in wl.closed_round(np.random.default_rng(s))
               if "known_fault" in op.meta] for s in (1, 2)]
    assert faulty[0] == faulty[1] and len(faulty[0]) == 2


def test_tracer_reports_missing_functions_as_absent(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "SITES", tracing.SITES + (
        ("telefid.optimize", "removed", "optimize.removed"),
        ("telefid.removed_module", "f", "removed_module.f")))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["telefid.optimize.removed",
                                 "telefid.removed_module.f"]
    finally:
        tracer.uninstall()
    no_calls = {name: {} for name in wl.WORKLOADS}
    assert tracing.layer_metrics(no_calls, {"closed-sweep": 1}) == {}
