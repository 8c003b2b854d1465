"""Command-line front end: point evaluations, optimizations, parameter
sweeps, figure presets, CSV emission.

Output rows use one frozen schema regardless of subcommand; columns
that do not apply to a given row are left empty. Points are evaluated
in input order, so identical invocations produce identical bytes.
"""

import argparse
import csv
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .fidelity import (AlphabetPrior, average_fidelity, fidelity_closed,
                       fidelity_quadrature)
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
        if self.steps < 2:
            raise ParameterError(f"need at least 2 steps, got {self.steps}")
        if not self.start < self.stop:
            raise ParameterError(
                f"empty sweep range [{self.start}, {self.stop}]")

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
        sp.add_argument("--delta", type=float)
        sp.add_argument("--theta", type=float)
        sp.add_argument("--phi", type=float)
        sp.add_argument("--gamma-mod", type=float, dest="gamma_mod")
        sp.add_argument("--tau", type=float, default=0.0)
        sp.add_argument("--nth", type=float, default=0.0)
        sp.add_argument("--r2", type=float, default=0.0)
        sp.add_argument("--gain", type=float)
        sp.add_argument("--beta-re", type=float, dest="beta_re")
        sp.add_argument("--beta-im", type=float, dest="beta_im")
        sp.add_argument("--sigma", type=float)
        sp.add_argument("--output")

    sp = sub.add_parser("fidelity", help="evaluate one fidelity")
    add_common(sp)
    sp.add_argument("--method", choices=("closed", "quadrature"),
                    default="closed")

    sp = sub.add_parser("optimize",
                        help="maximize fidelity over free parameters; "
                             "--sigma switches to the prior-averaged "
                             "objective, adding --beta-re/--beta-im "
                             "reports the one-shot value there")
    add_common(sp)

    sp = sub.add_parser("sweep", help="vary one parameter, emit CSV")
    add_common(sp)
    sp.add_argument("--method", choices=("closed", "quadrature"),
                    default="closed")
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


def _point_row(ns, axis=None, value=None):
    """One fidelity evaluation with an optional axis override."""
    over = {} if axis is None else {axis: value}

    def pick(name, default):
        if name in over:
            return over[name]
        flag = getattr(ns, name)
        return default if flag is None else flag

    r = pick("r", None)
    tau, nth, r2 = pick("tau", 0.0), pick("nth", 0.0), pick("r2", 0.0)
    noise = NoiseParams(tau=tau, n_th=nth, r2=r2)
    gain = GainSetting(pick("gain", None))
    # the flags that were given; ResourceSpec.of rejects a foreign one
    core = {"phi": ns.phi, "theta": ns.theta, "delta": pick("delta", None),
            "gamma_mod": over.get("gamma", ns.gamma_mod)}
    spec = ResourceSpec.of(ns.resource, r, **{
        k: v for k, v in core.items() if v is not None})
    sigma = pick("sigma", None)
    if sigma is not None:
        rep = average_fidelity(spec, noise, gain, AlphabetPrior(sigma))
        return ResultRow(resource=ns.resource, r=r, tau=tau, nth=nth,
                         r2=r2, gain=gain.gain(noise), sigma=sigma,
                         method=rep.method, fidelity=rep.value)
    beta_re, beta_im = pick("beta_re", 0.0), pick("beta_im", 0.0)
    beta = complex(beta_re, beta_im)
    if getattr(ns, "method", "closed") == "quadrature":
        rep = fidelity_quadrature(CoherentInput(beta), spec, noise, gain)
    else:
        rep = fidelity_closed(spec, noise, gain, beta)
    return ResultRow(resource=ns.resource, r=r, tau=tau, nth=nth, r2=r2,
                     gain=gain.gain(noise), beta_re=beta_re,
                     beta_im=beta_im, method=rep.method,
                     fidelity=rep.value)


def _opt_row(family, r, noise, opt, prior=None, beta=None):
    """Row for an optimum, or for the fidelity at input amplitude beta
    with the optimal parameters of an averaged one."""
    fidelity, method = opt.best_value, opt.method
    if beta is not None:
        rep = fidelity_at_optimum(opt, noise, prior, beta)
        fidelity, method = rep.value, rep.method
    return ResultRow(resource=family, r=r, tau=noise.tau, nth=noise.n_th,
                     r2=noise.r2, gain=opt.gain.gain(noise),
                     delta_opt=opt.delta_opt, gamma_opt=opt.gamma_opt,
                     sigma=None if prior is None else prior.sigma,
                     beta_re=None if beta is None else beta.real,
                     beta_im=None if beta is None else beta.imag,
                     method=method, fidelity=fidelity)


def _optimize_row(ns):
    noise = NoiseParams(tau=ns.tau, n_th=ns.nth, r2=ns.r2)
    family, r = ns.resource, ns.r
    if ns.sigma is None:
        opt = optimize_beta_independent(family, r, noise)
        return _opt_row(family, r, noise, opt)
    prior = AlphabetPrior(ns.sigma)
    opt = optimize_gain_average(family, r, noise, prior)
    beta = None
    if ns.beta_re is not None or ns.beta_im is not None:
        beta = complex(ns.beta_re or 0.0, ns.beta_im or 0.0)
    return _opt_row(family, r, noise, opt, prior, beta)


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
        return [_opt_row(res, r, noise,
                         optimize_beta_independent(res, r, noise))
                for res in resources for noise in noises for r in axis]

    if tag.endswith("-I"):
        sigma, betas = 10.0, (1.0, 2.0, 3.0)
    else:
        sigma, betas = 100.0, (3.0, 5.0, 10.0)
    prior = AlphabetPrior(sigma)
    if tag.startswith("5"):
        points = [(r, NoiseParams(tau=FIG_TAU, n_th=0.0, r2=FIG_R2))
                  for r in axis]
    else:
        points = [(0.8, NoiseParams(tau=t, n_th=0.0, r2=FIG_R2))
                  for t in axis]
    rows = []
    for res in FIG56_RESOURCES:
        opts = [optimize_gain_average(res, r, noise, prior)
                for r, noise in points]
        # one optimization per axis point is reused for every beta
        rows += [_opt_row(res, r, noise, opt, prior, complex(beta, 0.0))
                 for beta in betas for (r, noise), opt in zip(points, opts)]
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
    sweep = SweepSpec(axis=ns.vary, start=ns.start, stop=ns.stop,
                      steps=ns.steps)
    return [_point_row(ns, sweep.axis, float(v)) for v in sweep.values]


def _dispatch(ns):
    if ns.command == "fidelity":
        row = _point_row(ns)
        if ns.output:
            emit_csv([row], ns.output)
        else:
            print(_format_cell(row.fidelity))
    elif ns.command == "optimize":
        row = _optimize_row(ns)
        emit_csv([row], ns.output or None)
    elif ns.command == "sweep":
        emit_csv(_run_sweep(ns), ns.output or None)
    else:
        emit_csv(run_figure_preset(ns.figure), ns.output or None)
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
