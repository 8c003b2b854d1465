"""Command-line front end: point evaluations, optimizations, parameter
sweeps, figure presets, CSV emission.

Every subcommand outputs one table of columns keyed by the frozen
CSV_HEADER, each one value for every row or a list of one per row, and
empty where it does not apply. A sweep reuses the inputs its axis does
not enter, so their columns are constants, formatted once. Points are
evaluated in input order: identical invocations give identical bytes.
"""

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import attrgetter

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
# an evaluation's inputs (at: amplitude or prior); the one each axis enters
INPUTS = ("spec", "noise", "gain", "at")
AXIS_INPUT = {"r": "spec", "tau": "noise", "nth": "noise", "r2": "noise",
              "gain": "gain", "sigma": "at", "beta_re": "at",
              "beta_im": "at", "delta": "spec", "gamma": "spec"}
SWEEP_AXES = tuple(AXIS_INPUT)
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


@lru_cache(maxsize=1)
def _parser():
    """The argument parser, built once per process on first use."""
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
    return parser


def parse_cli(argv):
    """Parse argv (without the program name) into a command namespace;
    usage problems exit with code 2 through argparse."""
    parser = _parser()
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


def _input(ns, over, name):
    """The checked input name, one of INPUTS, of one evaluation, the
    flags overridden by over."""
    def pick(flag, default=None):
        value = over.get(flag, getattr(ns, flag))
        return default if value is None else value

    if name == "noise":
        return NoiseParams(pick("tau"), pick("nth"), pick("r2"))
    if name == "gain":
        return GainSetting(pick("gain"))
    if name == "spec":
        # the flags that were given; ResourceSpec.of rejects a foreign one
        core = {"phi": ns.phi, "theta": ns.theta, "delta": pick("delta"),
                "gamma_mod": over.get("gamma", ns.gamma_mod)}
        return ResourceSpec.of(ns.resource, pick("r"), **{
            k: v for k, v in core.items() if v is not None})
    sigma = pick("sigma")
    return (complex(pick("beta_re", 0.0), pick("beta_im", 0.0))
            if sigma is None else AlphabetPrior(sigma))


def _point_inputs(ns, over):
    """The checked (spec, noise, gain, beta or AlphabetPrior) of one
    evaluation, the flags overridden by over, built noise first."""
    noise, gain = _input(ns, over, "noise"), _input(ns, over, "gain")
    return _input(ns, over, "spec"), noise, gain, _input(ns, over, "at")


def _check_fidelity(values):
    """The fidelities values as a list, each checked as it comes: they are
    computed, so one out of range (or NaN) is a numerical fault."""
    column = []
    for value in values:
        if not 0.0 <= value <= 1.0 + FIDELITY_SLACK:
            raise NumericalError(f"fidelity {value} outside [0, 1]")
        column.append(value)
    return column


def _evaluate(ns, inputs):
    """(method, checked fidelity column) of rows at inputs (spec, noise,
    gain, at), each a column; the closed rows in one kernel call."""
    n = max(len(x) if isinstance(x, list) else 1 for x in inputs)
    specs, noises, gains, ats = (x if isinstance(x, list) else [x] * n
                                 for x in inputs)
    if isinstance(ats[0], AlphabetPrior):
        reps = average_fidelity(specs, noises, gains, ats)
    elif ns.method == "quadrature":  # each row checked before the next
        return "quadrature", _check_fidelity(rep.value for rep in map(
            fidelity_quadrature, map(CoherentInput, ats), specs, noises,
            gains))
    else:
        reps = fidelity_closed(specs, noises, gains, ats)
    return reps[0].method, _check_fidelity(rep.value for rep in reps)


def _cells(cell, *args):
    """The column of cell(*args), args each a column."""
    if not any(isinstance(a, list) for a in args):
        return cell(*args)
    return list(map(cell, *(a if isinstance(a, list) else repeat(a)
                            for a in args)))


def _table(resource, method, fidelity, spec, noise, gain, beta, prior,
           **cells):
    """The table of the rows of the list fidelity; the other arguments
    are columns. A beta that is not an amplitude (None or a prior) and a
    prior that is not an AlphabetPrior leave their cells empty."""
    return {"resource": resource, "r": _cells(attrgetter("r"), spec),
            "tau": _cells(attrgetter("tau"), noise),
            "nth": _cells(attrgetter("n_th"), noise),
            "r2": _cells(attrgetter("r2"), noise),
            "gain": _cells(GainSetting.gain, gain, noise),
            "sigma": _cells(lambda p: getattr(p, "sigma", None), prior),
            "beta_re": _cells(lambda b: getattr(b, "real", None), beta),
            "beta_im": _cells(lambda b: getattr(b, "imag", None), beta),
            "method": method, "fidelity": fidelity, **cells}


def _opt_table(family, noise, opts, prior=None, reps=None):
    """The table of the optima opts of family at noise and prior, or with
    reports reps, of the fidelities at input amplitudes with the optima's
    parameters."""
    spec, gain, delta_opt, gamma_opt = map(list, zip(*map(attrgetter(
        "spec", "gain", "delta_opt", "gamma_opt"), opts)))
    method, value = map(list, zip(*map(attrgetter(
        "method", "value" if reps else "best_value"), reps or opts)))
    beta = reps and [rep.beta for rep in reps]
    return _table(family, method, _check_fidelity(value), spec, noise, gain,
                  beta, prior, delta_opt=delta_opt, gamma_opt=gamma_opt)


def _concat(tables):
    """The table of the rows of tables, in order."""
    return {name: [cell for t in tables for cell in (
        t[name] if isinstance(t.get(name), list)
        else repeat(t.get(name), len(t["fidelity"])))] for name in CSV_HEADER}


def _optimize_table(ns):
    noise = NoiseParams(tau=ns.tau, n_th=ns.nth, r2=ns.r2)
    if ns.sigma is None:
        return _opt_table(ns.resource, noise, [optimize_beta_independent(
            ns.resource, ns.r, noise)])
    prior = AlphabetPrior(ns.sigma)
    opt = optimize_gain_average(ns.resource, ns.r, noise, prior)
    rep = None
    if ns.beta_re is not None or ns.beta_im is not None:
        rep = fidelity_at_optimum(opt, noise, prior, complex(
            ns.beta_re or 0.0, ns.beta_im or 0.0))
    return _opt_table(ns.resource, noise, [opt], prior, rep and [rep])


def run_figure_preset(tag):
    """The table of one preset: beta-independent optimal fidelities
    (presets 3 and 4) or one-shot fidelities at prior-averaged optimal
    parameters (presets 5 and 6), swept over r or tau on [0, 2]."""
    if tag not in FIGURE_TAGS:
        raise ParameterError(f"unknown figure tag {tag!r}")
    axis = [float(x) for x in np.linspace(0.0, AXIS_STOP, AXIS_STEPS)]

    if tag in ("3-I", "3-II", "4"):
        resources = FIG4_RESOURCES if tag == "4" else FIG3_RESOURCES
        noises = {"3-I": [NoiseParams(r2=x) for x in (0.0, 0.05, 0.1, 0.15)],
                  "3-II": [NoiseParams(tau=x) for x in (0.0, 0.1, 0.2, 0.3)],
                  "4": [NoiseParams(tau=FIG_TAU, r2=FIG_R2)]}[tag]
        # one lockstep optimization per (family, noise) over the r axis
        return _concat([_opt_table(res, noise, optimize_beta_independent(
            res, axis, noise)) for res in resources for noise in noises])

    sigma, betas = ((10.0, (1.0, 2.0, 3.0)) if tag.endswith("-I")
                    else (100.0, (3.0, 5.0, 10.0)))
    prior = AlphabetPrior(sigma)
    if tag.startswith("5"):  # over r
        rs, noises = axis, [NoiseParams(FIG_TAU, r2=FIG_R2)] * len(axis)
    else:  # over tau
        rs = [0.8] * len(axis)
        noises = [NoiseParams(t, r2=FIG_R2) for t in axis]
    tables = []
    for res in FIG56_RESOURCES:
        # one lockstep optimization, and one kernel call for every beta
        opts = optimize_gain_average(res, rs, noises, prior) * len(betas)
        reps = fidelity_at_optimum(opts, noises * len(betas), prior, [
            complex(b) for b in betas for _ in rs])
        tables.append(_opt_table(res, noises * len(betas), opts, prior, reps))
    return _concat(tables)


def _format_cell(value):
    return ("" if value is None else value if isinstance(value, str)
            else "%.12g" % value)


def _write_table(handle, table):
    """The table under the frozen header, each constant column formatted
    once, as many rows as fidelities; a column the table lacks is empty."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(zip(*(
        map(_format_cell, column) if isinstance(column, list)
        else repeat(_format_cell(column))
        for column in map(table.get, CSV_HEADER))))


def emit_csv(table, path=None):
    """Write a table under the frozen header; path None writes stdout."""
    if path is None:
        return _write_table(sys.stdout, table)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_table(handle, table)


def _run_points(ns, axis, values):
    """The table of ns with the flag axis at each of values: the first
    point's inputs built in full, then only each later point's input the
    axis enters, in order; evaluated SWEEP_BLOCK points at a time."""
    name = AXIS_INPUT[axis]
    inputs = list(_point_inputs(ns, {axis: values[0]}))
    k, swept, fidelity = INPUTS.index(name), [], []
    for at in range(0, len(values), SWEEP_BLOCK):
        inputs[k] = block = []
        try:
            for value in values[at:at + SWEEP_BLOCK]:
                block.append(_input(ns, {axis: value}, name))
        except ParameterError:
            if block:  # a fault of a row before the bad one comes first
                _evaluate(ns, inputs)
            raise
        method, column = _evaluate(ns, inputs)
        swept += block
        fidelity += column
    inputs[k] = swept  # at, the last, is the amplitude or the prior
    return _table(ns.resource, method, fidelity, *inputs, inputs[3])


def _run_sweep(ns):
    sweep = SweepSpec(axis=ns.vary, start=ns.start, stop=ns.stop,
                      steps=ns.steps)
    return _run_points(ns, sweep.axis, sweep.values.tolist())


def _dispatch(ns):
    if ns.command == "fidelity":
        table = _run_points(ns, "r", [ns.r])  # a sweep of one point
        if not ns.output:
            print(_format_cell(table["fidelity"][0]))
            return 0
    elif ns.command == "optimize":
        table = _optimize_table(ns)
    else:
        table = (_run_sweep(ns) if ns.command == "sweep"
                 else run_figure_preset(ns.figure))
    emit_csv(table, ns.output or None)
    return 0


def main(argv=None):
    try:
        ns = parse_cli(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(ns)
    except (ParameterError, OSError, NumericalError) as exc:
        print(f"telefid: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ParameterError)
                else 3 if isinstance(exc, OSError) else 4)


if __name__ == "__main__":
    sys.exit(main())
