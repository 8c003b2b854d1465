"""Command-line front end: point evaluations, optimizations, parameter
sweeps, figure presets, CSV emission.

Output rows use one frozen schema regardless of subcommand; columns
that do not apply to a given row are left empty. Points are evaluated
in input order, so identical invocations produce identical bytes.
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .fidelity import (AlphabetPrior, FidelityReport, average_fidelity,
                       fidelity_closed, fidelity_quadrature)
from .optimize import (fidelity_at_optimum, optimize_beta_independent,
                       optimize_gain_average)
from .phase_space import FAMILIES, CoherentInput, ResourceSpec
from .protocol import GainSetting, NoiseParams

CSV_HEADER = ("resource", "r", "tau", "nth", "r2", "gain", "delta_opt",
              "gamma_opt", "sigma", "beta_re", "beta_im", "method",
              "fidelity")
SWEEP_AXES = ("r", "tau", "nth", "r2", "gain", "sigma", "beta_re",
              "beta_im", "delta", "gamma")
FIGURE_TAGS = ("3-I", "3-II", "4", "5-I", "5-II", "6-I", "6-II")

AXIS_STEPS = 81
AXIS_STOP = 2.0
FIG_TAU = 0.3
FIG_R2 = 0.05

FIG3_RESOURCES = ("squeezed-bell", "squeezed-cat", "twin-beam", "buridan")
FIG4_RESOURCES = FIG3_RESOURCES + ("photon-subtracted",)
FIG56_RESOURCES = ("squeezed-bell", "squeezed-cat", "twin-beam")

FIDELITY_SLACK = 1e-9
# a sweep holds all its rows in memory before it writes them, and
# evaluates them SWEEP_BLOCK at a time
MAX_STEPS = 10 ** 6
SWEEP_BLOCK = 2048


@dataclass(frozen=True)
class ResultRow:
    resource: str
    r: float | None = None
    tau: float | None = None
    nth: float | None = None
    r2: float | None = None
    gain: float | None = None
    delta_opt: float | None = None
    gamma_opt: float | None = None
    sigma: float | None = None
    beta_re: float | None = None
    beta_im: float | None = None
    method: str = ""
    fidelity: float = 0.0

    def __post_init__(self):
        # a computed value, so out of range (or NaN) is a numerical fault
        if not 0.0 <= self.fidelity <= 1.0 + FIDELITY_SLACK:
            raise NumericalError(
                f"fidelity {self.fidelity} outside [0, 1]")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ParameterError(f"unknown sweep axis {self.axis!r}")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ParameterError(f"need 2-{MAX_STEPS} steps, got {self.steps}")
        # a finite span needs finite ends
        if not (self.start < self.stop
                and math.isfinite(self.stop - self.start)):
            raise ParameterError(f"sweep range [{self.start}, {self.stop}] "
                                 "must be non-empty with a finite span")

    @property
    def values(self):
        return np.linspace(self.start, self.stop, self.steps)


def parse_cli(argv):
    """Parse argv (without the program name) into a command namespace.

    Usage problems exit with code 2 through argparse.
    """
    parser = argparse.ArgumentParser(
        prog="telefid",
        description="Teleportation fidelity of coherent states over "
                    "lossy channels with Gaussian and non-Gaussian "
                    "entangled resources.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--resource", choices=FAMILIES, required=True)
        sp.add_argument("--r", type=float)
        sp.add_argument("--tau", type=float, default=0.0)
        sp.add_argument("--nth", type=float, default=0.0)
        sp.add_argument("--r2", type=float, default=0.0)
        sp.add_argument("--beta-re", type=float, dest="beta_re")
        sp.add_argument("--beta-im", type=float, dest="beta_im")
        sp.add_argument("--sigma", type=float)
        sp.add_argument("--output")

    def add_point(sp):
        # the core parameters and gain, which optimize searches over,
        # and the evaluation method
        sp.add_argument("--delta", type=float)
        sp.add_argument("--theta", type=float)
        sp.add_argument("--phi", type=float)
        sp.add_argument("--gamma-mod", type=float, dest="gamma_mod")
        sp.add_argument("--gain", type=float)
        sp.add_argument("--method", choices=("closed", "quadrature"),
                        default="closed")

    sp = sub.add_parser("fidelity", help="evaluate one fidelity")
    add_common(sp)
    add_point(sp)

    sp = sub.add_parser("optimize",
                        help="maximize fidelity over free parameters; "
                             "--sigma switches to the prior-averaged "
                             "objective, adding --beta-re/--beta-im "
                             "reports the one-shot value there")
    add_common(sp)

    sp = sub.add_parser("sweep", help="vary one parameter, emit CSV")
    add_common(sp)
    add_point(sp)
    sp.add_argument("--vary", choices=SWEEP_AXES, required=True)
    sp.add_argument("--from", type=float, dest="start", required=True)
    sp.add_argument("--to", type=float, dest="stop", required=True)
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("figure", help="reproduce a figure's curves")
    sp.add_argument("--figure", choices=FIGURE_TAGS, required=True)
    sp.add_argument("--output")

    ns = parser.parse_args(argv)
    if ns.command in ("fidelity", "optimize") and ns.r is None:
        parser.error("--r is required")
    if (ns.command == "optimize" and ns.sigma is None
            and (ns.beta_re is not None or ns.beta_im is not None)):
        parser.error("--beta-re/--beta-im give the one-shot value at the "
                     "prior-averaged optimum; add --sigma")
    if ns.command == "sweep":
        if ns.vary != "r" and ns.r is None:
            parser.error("--r is required unless --vary r")
        if ns.vary in ("beta_re", "beta_im") and ns.sigma is not None:
            parser.error("--vary over beta needs point evaluations, "
                         "drop --sigma")
    if ns.command in ("fidelity", "sweep"):
        averaged = ns.sigma is not None or getattr(ns, "vary", "") == "sigma"
        point_only = (ns.method == "quadrature" or ns.beta_re is not None
                      or ns.beta_im is not None)
        if averaged and point_only:
            parser.error("--sigma averages over the prior; drop the "
                         "point-only --method quadrature, --beta-re and "
                         "--beta-im")
    return ns


def _point_inputs(ns, over):
    """The checked (spec, noise, gain, beta or AlphabetPrior) of one
    evaluation, the flags overridden by over, built noise first."""
    def pick(name, default=None):
        flag = over[name] if name in over else getattr(ns, name)
        return default if flag is None else flag

    noise = NoiseParams(pick("tau", 0.0), pick("nth", 0.0), pick("r2", 0.0))
    gain = GainSetting(pick("gain"))
    # the flags that were given; ResourceSpec.of rejects a foreign one
    core = {"phi": ns.phi, "theta": ns.theta, "delta": pick("delta"),
            "gamma_mod": over.get("gamma", ns.gamma_mod)}
    spec = ResourceSpec.of(ns.resource, pick("r"), **{
        k: v for k, v in core.items() if v is not None})
    sigma = pick("sigma")
    return spec, noise, gain, (
        complex(pick("beta_re", 0.0), pick("beta_im", 0.0)) if sigma is None
        else AlphabetPrior(sigma))


def _report_row(resource, rep, **cells):
    """The row of a FidelityReport, plus cells."""
    beta, noise = rep.beta, rep.noise
    return ResultRow(resource=resource, r=rep.spec.r, tau=noise.tau,
                     nth=noise.n_th, r2=noise.r2, gain=rep.gain.gain(noise),
                     sigma=rep.sigma,
                     beta_re=None if beta is None else beta.real,
                     beta_im=None if beta is None else beta.imag,
                     method=rep.method, fidelity=rep.value, **cells)


def _evaluate(ns, points):
    """Rows of _point_inputs points, the closed ones in one kernel call."""
    specs, noises, gains, ats = map(list, zip(*points))
    if isinstance(ats[0], AlphabetPrior):
        reps = average_fidelity(specs, noises, gains, ats)
    elif ns.method == "quadrature":
        reps = map(fidelity_quadrature, map(CoherentInput, ats), specs,
                   noises, gains)
    else:
        reps = fidelity_closed(specs, noises, gains, ats)
    return [_report_row(ns.resource, rep) for rep in reps]


def _opt_row(family, noise, opt, prior=None, rep=None):
    """Row for an optimum, or for rep, the fidelity at an input amplitude
    with the optimal parameters of an averaged one."""
    rep = rep or FidelityReport(opt.best_value, opt.method, opt.spec, noise,
                                opt.gain, sigma=prior and prior.sigma)
    return _report_row(family, rep, delta_opt=opt.delta_opt,
                       gamma_opt=opt.gamma_opt)


def _optimize_row(ns):
    noise = NoiseParams(tau=ns.tau, n_th=ns.nth, r2=ns.r2)
    if ns.sigma is None:
        return _opt_row(ns.resource, noise, optimize_beta_independent(
            ns.resource, ns.r, noise))
    prior = AlphabetPrior(ns.sigma)
    opt = optimize_gain_average(ns.resource, ns.r, noise, prior)
    rep = None
    if ns.beta_re is not None or ns.beta_im is not None:
        rep = fidelity_at_optimum(opt, noise, prior, complex(
            ns.beta_re or 0.0, ns.beta_im or 0.0))
    return _opt_row(ns.resource, noise, opt, prior, rep)


def run_figure_preset(tag):
    """Rows for one preset: beta-independent optimal fidelities
    (presets 3 and 4) or one-shot fidelities at prior-averaged optimal
    parameters (presets 5 and 6), swept over r or tau on [0, 2]."""
    if tag not in FIGURE_TAGS:
        raise ParameterError(f"unknown figure tag {tag!r}")
    axis = [float(x) for x in np.linspace(0.0, AXIS_STOP, AXIS_STEPS)]

    if tag in ("3-I", "3-II", "4"):
        if tag == "3-I":
            resources = FIG3_RESOURCES
            noises = [NoiseParams(tau=0.0, n_th=0.0, r2=r2)
                      for r2 in (0.0, 0.05, 0.1, 0.15)]
        elif tag == "3-II":
            resources = FIG3_RESOURCES
            noises = [NoiseParams(tau=tau, n_th=0.0, r2=0.0)
                      for tau in (0.0, 0.1, 0.2, 0.3)]
        else:
            resources = FIG4_RESOURCES
            noises = [NoiseParams(tau=FIG_TAU, n_th=0.0, r2=FIG_R2)]
        # one lockstep optimization per (family, noise) over the r axis
        return [_opt_row(res, noise, opt)
                for res in resources for noise in noises
                for opt in optimize_beta_independent(res, axis, noise)]

    if tag.endswith("-I"):
        sigma, betas = 10.0, (1.0, 2.0, 3.0)
    else:
        sigma, betas = 100.0, (3.0, 5.0, 10.0)
    prior = AlphabetPrior(sigma)
    if tag.startswith("5"):
        rs = axis
        noises = [NoiseParams(tau=FIG_TAU, n_th=0.0, r2=FIG_R2)] * len(axis)
    else:
        rs = [0.8] * len(axis)
        noises = [NoiseParams(tau=t, n_th=0.0, r2=FIG_R2) for t in axis]
    rows = []
    for res in FIG56_RESOURCES:
        # one lockstep optimization, and one kernel call for every beta
        opts = optimize_gain_average(res, rs, noises, prior) * len(betas)
        reps = fidelity_at_optimum(opts, noises * len(betas), prior, [
            complex(b) for b in betas for _ in rs])
        rows += [_opt_row(res, rep.noise, opt, prior, rep)
                 for opt, rep in zip(opts, reps)]
    return rows


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.12g" % value


def _write_rows(handle, rows):
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, name))
                         for name in CSV_HEADER])


def emit_csv(rows, path=None):
    """Write rows under the frozen header; path None writes stdout."""
    if path is None:
        _write_rows(sys.stdout, rows)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_rows(handle, rows)


def _run_sweep(ns):
    """A sweep's rows: each row's inputs built and checked in order and
    evaluated in blocks of SWEEP_BLOCK rows, the closed ones of a block in
    one kernel call."""
    sweep = SweepSpec(axis=ns.vary, start=ns.start, stop=ns.stop,
                      steps=ns.steps)
    values, rows = sweep.values, []
    for at in range(0, len(values), SWEEP_BLOCK):
        points = []
        try:
            for value in values[at:at + SWEEP_BLOCK].tolist():
                points.append(_point_inputs(ns, {sweep.axis: value}))
        except ParameterError:
            if points:  # a fault of a row before the bad one comes first
                _evaluate(ns, points)
            raise
        rows += _evaluate(ns, points)
    return rows


def _dispatch(ns):
    if ns.command == "fidelity":
        rows = _evaluate(ns, [_point_inputs(ns, {})])
        if not ns.output:
            print(_format_cell(rows[0].fidelity))
            return 0
    elif ns.command == "optimize":
        rows = [_optimize_row(ns)]
    else:
        rows = (_run_sweep(ns) if ns.command == "sweep"
                else run_figure_preset(ns.figure))
    emit_csv(rows, ns.output or None)
    return 0


def main(argv=None):
    try:
        ns = parse_cli(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(ns)
    except ParameterError as exc:
        print(f"telefid: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"telefid: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"telefid: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
