"""Command-line front end: point evaluations, optimizations, parameter
sweeps, figure presets, CSV emission.

Every subcommand outputs one table of columns keyed by the frozen
CSV_HEADER, each one value for every row or an array of one per row,
and empty where it does not apply. A sweep carries its axis as one float
array from its values to the written cells, the input it enters a
column checked in one pass and evaluated in one call per block.
Identical invocations give identical bytes.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, ParameterError
from .fidelity import (AlphabetPrior, average_fidelity, fidelity_closed,
                       fidelity_quadrature)
from .optimize import (fidelity_at_optimum, optimize_beta_independent,
                       optimize_gain_average)
from .phase_space import FAMILIES, CoherentInput, ResourceSpec, _require
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


def _point_inputs(ns, over):
    """The checked (spec, noise, gain, beta or AlphabetPrior) of ns, the
    flags overridden by over (an array makes its input a column)."""
    def pick(flag, default=None):
        value = over.get(flag, getattr(ns, flag))
        return default if value is None else value

    noise = NoiseParams(pick("tau"), pick("nth"), pick("r2"))
    gain = GainSetting(pick("gain"))
    # the flags that were given; ResourceSpec.of rejects a foreign one
    core = {"phi": ns.phi, "theta": ns.theta, "delta": pick("delta"),
            "gamma_mod": over.get("gamma", ns.gamma_mod)}
    spec = ResourceSpec.of(ns.resource, pick("r"), **{
        k: v for k, v in core.items() if v is not None})
    if pick("sigma") is not None:
        return spec, noise, gain, AlphabetPrior(pick("sigma"))
    re, im = pick("beta_re", 0.0), pick("beta_im", 0.0)
    beta = np.empty(np.broadcast(re, im).shape, dtype=complex)
    beta.real, beta.imag = re, im
    return spec, noise, gain, beta if beta.ndim else complex(beta)


def _check_fidelity(values):
    """The computed fidelities values, a number or an array, as an array:
    one out of range (or NaN) is a numerical fault, the first one named."""
    values = np.atleast_1d(values)
    _require(((values >= 0.0) & (values <= 1.0 + FIDELITY_SLACK),
              "fidelity {} outside [0, 1]", values), error=NumericalError)
    return values


def _evaluate(ns, inputs):
    """(method, checked fidelity array) at inputs (spec, noise, gain,
    at), a point or a column, in one call on every route."""
    if isinstance(inputs[3], AlphabetPrior):
        rep = average_fidelity(*inputs)
    elif ns.method == "quadrature":
        rep = fidelity_quadrature(CoherentInput(inputs[3]), *inputs[:3])
    else:
        rep = fidelity_closed(*inputs)
    return rep.method, _check_fidelity(rep.value)


def _table(resource, method, fidelity, spec, noise, gain, beta=None,
           sigma=None, **cells):
    """The table of the rows of the array fidelity; the other arguments
    are points or columns, beta and sigma None where they do not apply."""
    return {"resource": resource, "r": spec.r, "tau": noise.tau,
            "nth": noise.n_th, "r2": noise.r2, "gain": gain.gain(noise),
            "sigma": sigma, "beta_re": None if beta is None else np.real(beta),
            "beta_im": None if beta is None else np.imag(beta),
            "method": method, "fidelity": fidelity, **cells}


def _opt_table(family, noise, opt, prior=None, rep=None):
    """The table of the optimization result opt of family at noise and
    prior, a point or a column, or of rep, the fidelities at input
    amplitudes with its parameters."""
    return _table(family, (rep or opt).method,
                  _check_fidelity(rep.value if rep else opt.best_value),
                  opt.spec, noise, opt.gain, rep and rep.beta,
                  prior and prior.sigma, delta_opt=opt.delta_opt,
                  gamma_opt=opt.gamma_opt)


def _concat(tables):
    """The table of the rows of tables, in order."""
    return {name: np.concatenate([np.broadcast_to(np.asarray(t.get(name)), len(
        t["fidelity"])) for t in tables]) for name in CSV_HEADER}


def _optimize_table(ns):
    """The table of one optimization, at a point."""
    noise = NoiseParams(tau=ns.tau, n_th=ns.nth, r2=ns.r2)
    if ns.sigma is None:
        return _opt_table(ns.resource, noise, optimize_beta_independent(
            ns.resource, ns.r, noise))
    prior = AlphabetPrior(ns.sigma)
    opt = optimize_gain_average(ns.resource, ns.r, noise, prior)
    return _opt_table(ns.resource, noise, opt, prior, fidelity_at_optimum(
        opt, noise, prior, complex(ns.beta_re or 0.0, ns.beta_im or 0.0))
        if ns.beta_re is not None or ns.beta_im is not None else None)


def run_figure_preset(tag):
    """The table of one preset: beta-independent optimal fidelities
    (presets 3 and 4) or one-shot fidelities at prior-averaged optimal
    parameters (presets 5 and 6), swept over r or tau on [0, 2]."""
    if tag not in FIGURE_TAGS:
        raise ParameterError(f"unknown figure tag {tag!r}")
    axis = np.linspace(0.0, AXIS_STOP, AXIS_STEPS)

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
    rs, noise = ((axis, NoiseParams(FIG_TAU, r2=FIG_R2)) if tag[0] == "5"
                 else (0.8, NoiseParams(axis, r2=FIG_R2)))  # over r or tau
    tables = []
    for res in FIG56_RESOURCES:
        # one lockstep optimization, and one kernel call per beta
        opt = optimize_gain_average(res, rs, noise, prior)
        tables += [_opt_table(res, noise, opt, prior, fidelity_at_optimum(
            opt, noise, prior, complex(b))) for b in betas]
    return _concat(tables)


def _format_cell(value):
    return ("" if value is None else value if isinstance(value, str)
            else "%.12g" % value)


def _write_table(handle, table):
    """The table under the frozen header, as many rows as fidelities, in
    one row format that holds each constant cell and formats float
    columns in C; a column the table lacks is empty. No cell (a name, a
    route or a number) holds a delimiter or a quote to be quoted."""
    fields, columns = [], []
    for column in map(table.get, CSV_HEADER):
        if not np.ndim(column):
            fields.append(_format_cell(column).replace("%", "%%"))
            continue
        column = np.asarray(column)
        floats = column.dtype.kind == "f"
        fields.append("%.12g" if floats else "%s")
        columns.append(column.tolist() if floats
                       else map(_format_cell, column.tolist()))
    handle.write(",".join(CSV_HEADER) + "\n")
    handle.write("".join(map((",".join(fields) + "\n").__mod__,
                             zip(*columns))))


def emit_csv(table, path=None):
    """Write a table under the frozen header; path None writes stdout."""
    if path is None:
        return _write_table(sys.stdout, table)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_table(handle, table)


def _run_points(ns, axis, values):
    """The table of ns with the flag axis at each of values, a float
    array, evaluated SWEEP_BLOCK rows a call (one block's inputs are the
    table's); rows before a bad row are evaluated first, as row by row."""
    fidelity = []
    for start in range(0, len(values), SWEEP_BLOCK):
        block = values[start:start + SWEEP_BLOCK]
        try:
            inputs = _point_inputs(ns, {axis: block})
        except ParameterError as exc:
            if getattr(exc, "row", 0):
                _evaluate(ns, _point_inputs(ns, {axis: block[:exc.row]}))
            raise
        method, column = _evaluate(ns, inputs)
        fidelity.append(column)
    *inputs, at = _point_inputs(ns, {axis: values}) if start else inputs
    return _table(ns.resource, method, np.concatenate(fidelity), *inputs,
                  **({"sigma": at.sigma} if isinstance(at, AlphabetPrior)
                     else {"beta": at}))


def _run_sweep(ns):
    sweep = SweepSpec(axis=ns.vary, start=ns.start, stop=ns.stop,
                      steps=ns.steps)
    return _run_points(ns, sweep.axis, sweep.values)


def _dispatch(ns):
    if ns.command == "fidelity":
        table = _run_points(ns, "r", np.array([ns.r]))  # a sweep of one point
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
