"""The benchmark's workloads: operations drawn from a seed, and the
checks that decide whether an operation's CSV is correct.

An operation is one `telefid figure` or `telefid sweep` invocation,
run in-process through `telefid.cli_sweep.main(argv)`. Each workload
is a round of operations; a run repeats whole rounds, so every run
attempts the same operations in the same proportions.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

CSV_HEADER = ["resource", "r", "tau", "nth", "r2", "gain", "delta_opt",
              "gamma_opt", "sigma", "beta_re", "beta_im", "method",
              "fidelity"]
FAMILIES = ("twin-beam", "squeezed-bell", "squeezed-cat", "buridan",
            "photon-subtracted")
FIGURE_TAGS = ("3-I", "3-II", "4", "5-I", "5-II", "6-I", "6-II")

# closed forms and prior averages against the reference: far above the
# 12-digit CSV rounding, far below the 1e-3 Gauss-Hermite error
CLOSED_TOL = 1e-10
# the program's quadrature against the reference: its node doubling stops
# at |I_n - I_n/2| < 1e-10 and converges geometrically
QUAD_REF_TOL = 1e-10
# the program's quadrature against its closed forms (the package's gate)
QUAD_TOL = 1e-8
# two evaluations that differ only by conjugated inputs
CONJ_TOL = 1e-10
# an optimum read back from 12-digit cells
OPT_TOL = 1e-11
# twin-beam averaged-optimal gain against the exact quadratic optimum
GAIN_TOL = 1e-7
FIDELITY_CEIL = 1.0 + 1e-12

CLOSED_POINT_STEPS = 1000
CLOSED_PRIOR_STEPS = 400
# rows per quadrature sweep, by family and node count, chosen so that
# every sweep takes about the same time (0.35 s on the reference
# machine): the median operation then sits inside one cluster of times
QUAD_STEPS = {
    256: {"twin-beam": 15, "squeezed-bell": 9, "squeezed-cat": 5,
          "buridan": 9, "photon-subtracted": 9},
    512: {"twin-beam": 3, "squeezed-bell": 2, "squeezed-cat": 2,
          "buridan": 2, "photon-subtracted": 2},
}
# the gain sweeps that fail today: the program's 60-node Gauss-Hermite
# prior average misses the exact one once 4 (g~ - 1)^2 sigma / Delta > 10
FAILING_PRIOR = dict(r=0.8, tau=0.3, r2=0.05)
FAILING_SIGMAS = (100.0, 1e4)

PROBE_DELTAS = (-1.2, -0.6, 0.3, 0.7, 1.4)
PROBE_GAMMAS = (0.5, 2.0)
QUAD_SAMPLE_AXIS = 1.0


@dataclass
class Op:
    """One CLI invocation and what its checks need to know."""

    label: str
    argv: list
    rows: int
    meta: dict = field(default_factory=dict)


def figure_op(tag):
    return Op(f"figure {tag}", ["figure", "--figure", tag],
              rows={"3-I": 1296, "3-II": 1296, "4": 405}.get(tag, 729),
              meta={"kind": "figure", "tag": tag})


def sweep_op(family, axis, start, stop, steps, method="closed", **flags):
    """A sweep over one axis; flags are CLI options by their dest names."""
    argv = ["sweep", "--resource", family, "--method", method,
            "--vary", axis, f"--from={float(start)!r}",
            f"--to={float(stop)!r}", "--steps", str(steps)]
    for name, value in flags.items():
        argv.append(f"--{name.replace('_', '-')}={float(value)!r}")
    label = f"sweep {family} {axis} {method}"
    if "sigma" in flags:
        label += f" sigma={flags['sigma']:g}"
    return Op(label, argv, steps,
              meta={"kind": "sweep", "family": family, "axis": axis,
                    "values": np.linspace(start, stop, steps),
                    "method": method, "flags": flags})


def _core_flags(family, rng, specialized, gamma_max):
    """delta/theta/phi/gamma flags for a family, at the closed-form
    phases (phi = pi, theta = 0, real gamma) or away from them."""
    flags = {}
    if family in ("squeezed-bell", "buridan", "squeezed-cat"):
        flags["delta"] = float(rng.uniform(-1.2, 1.2))
        if not specialized:
            flags["theta"] = float(rng.choice([-1, 1])
                                   * rng.uniform(0.3, 2.8))
    if family == "squeezed-cat":
        flags["gamma_mod"] = float(rng.uniform(0.5, gamma_max))
    if not specialized:
        flags["phi"] = math.pi + float(rng.choice([-1, 1])
                                       * rng.uniform(0.3, 1.5))
    return flags


def figures_round(rng):
    """All seven presets, in a seed-drawn order."""
    return [figure_op(FIGURE_TAGS[i]) for i in rng.permutation(7)]


def figures_warmup():
    return figure_op("4")


def width_ratio(family, values, axis, **flags):
    """Per row of a sweep: sqrt(c / c_in), where exp(-c (x^2 + p^2)) is
    the overlap integrand's Gaussian envelope and c_in the part set by
    the input state, gain and noise alone. It measures how much finer
    than the input state the resource makes the integrand, which sets
    the node count a quadrature needs."""
    fields = {k: flags[k] for k in ("r", "tau", "nth", "r2", "gain", "phi")
              if k in flags}
    fields[axis] = values
    pts = ref.Points(family, **fields)
    c_in = (1 + pts.g_eff ** 2) / 4 + pts.gamma_cov / 2
    return np.sqrt(ref.envelope_rate(pts, None) / c_in)


# width-ratio bands in which the program's quadrature converges on one
# node count for every draw (256 and 512 per axis): a seed then changes
# the inputs but not the work
QUAD_BANDS = {256: (1.1, 1.6), 512: (2.3, 3.4)}
CAT_BANDS = {256: (1.1, 1.35), 512: (1.95, 2.25)}
MAX_DRAWS = 10000


def _banded_sweep(rng, family, axis, rung, draw):
    """A quadrature sweep whose every row lies in the rung's band;
    `draw` returns (start, stop, flags) from the generator."""
    lo, hi = (CAT_BANDS if family == "squeezed-cat" else QUAD_BANDS)[rung]
    steps = QUAD_STEPS[rung][family]
    for _ in range(MAX_DRAWS):
        start, stop, flags = draw()
        ratio = width_ratio(family, np.linspace(start, stop, steps), axis,
                            **flags)
        if np.all((ratio >= lo) & (ratio <= hi)):
            return sweep_op(family, axis, start, stop, steps,
                            method="quadrature", **flags)
    raise RuntimeError(f"no {family} {axis} sweep in band {lo}-{hi}")


def quadrature_round(rng):
    """Per family: a beta sweep at the closed-form phases and a tau sweep
    away from them, converging on 256 nodes per axis, and a gain sweep at
    r near 2.5, converging on 512."""
    ops = []
    for family in FAMILIES:
        def beta_sweep():
            r2 = float(rng.uniform(0.0, 0.1))
            b = float(rng.uniform(3.0, 5.0))
            return -b, b, dict(
                r=float(rng.uniform(0.3, 1.5)),
                tau=float(rng.uniform(0, 0.4)), r2=r2,
                gain=float(rng.uniform(0.7, 1.3) / math.sqrt(1 - r2)),
                beta_im=float(rng.uniform(-2, 2)),
                **_core_flags(family, rng, True, 2.0))

        def tau_sweep():
            r2 = float(rng.uniform(0.0, 0.1))
            return 0.0, float(rng.uniform(0.3, 0.5)), dict(
                r=float(rng.uniform(0.3, 1.5)),
                nth=float(rng.uniform(0, 0.1)), r2=r2,
                gain=float(rng.uniform(0.7, 1.3) / math.sqrt(1 - r2)),
                beta_re=float(rng.uniform(-2, 2)),
                beta_im=float(rng.uniform(-2, 2)),
                **_core_flags(family, rng, False, 2.0))

        def gain_sweep():
            r2 = float(rng.uniform(0.0, 0.1))
            g0 = float(rng.uniform(0.4, 1.6) / math.sqrt(1 - r2))
            return g0, 1.1 * g0, dict(
                r=float(rng.uniform(2.3, 2.5) if family != "squeezed-cat"
                        else rng.uniform(1.5, 2.5)),
                tau=float(rng.uniform(0, 0.4)), r2=r2,
                beta_re=float(rng.uniform(-2, 2)),
                beta_im=float(rng.uniform(-2, 2)),
                **_core_flags(family, rng, True, 2.0))

        ops.append(_banded_sweep(rng, family, "beta_re", 256, beta_sweep))
        ops.append(_banded_sweep(rng, family, "tau", 256, tau_sweep))
        ops.append(_banded_sweep(rng, family, "gain", 512, gain_sweep))
    return ops


def quadrature_warmup():
    return sweep_op("twin-beam", "beta_re", 0.0, 1.0, 2,
                    method="quadrature", r=0.5)


def closed_round(rng):
    """Point sweeps of every family, prior-averaged gain sweeps at
    sigma = 1 and 10, and the two gain sweeps that fail today."""
    def noise():
        return dict(tau=float(rng.uniform(0, 0.5)),
                    r2=float(rng.uniform(0, 0.1)))

    P = CLOSED_POINT_STEPS
    ops = [
        sweep_op("twin-beam", "beta_re", -5.0, 5.0, P,
                 r=float(rng.uniform(0.2, 2.0)),
                 gain=float(rng.uniform(0.5, 1.5)),
                 beta_im=float(rng.uniform(-3, 3)), **noise()),
        sweep_op("squeezed-bell", "beta_im", -5.0, 5.0, P,
                 r=float(rng.uniform(0.2, 2.0)),
                 delta=float(rng.uniform(-1.5, 1.5)),
                 gain=float(rng.uniform(0.5, 1.5)),
                 beta_re=float(rng.uniform(-3, 3)), **noise()),
        sweep_op("buridan", "beta_re", -5.0, 5.0, P,
                 r=float(rng.uniform(0.2, 2.0)),
                 delta=float(rng.uniform(-1.5, 1.5)),
                 gain=float(rng.uniform(0.5, 1.5)),
                 beta_im=float(rng.uniform(-3, 3)), **noise()),
        sweep_op("squeezed-cat", "tau", 0.0, 1.0, P,
                 r=float(rng.uniform(0.2, 2.0)),
                 delta=float(rng.uniform(-0.7, 1.5)),
                 gamma_mod=float(rng.uniform(0.2, 2.0)),
                 gain=float(rng.uniform(0.5, 1.5)),
                 beta_re=float(rng.uniform(-2, 2)),
                 r2=float(rng.uniform(0, 0.1))),
        sweep_op("photon-subtracted", "r", 0.0, 2.5, P,
                 beta_re=float(rng.uniform(-2, 2)), **noise()),
    ]
    # sigma <= 10 with |g~ - 1| <= 0.5/sqrt(sigma) keeps
    # 4 (g~ - 1)^2 sigma / Delta <= 0.4, where the rule is exact
    for family, sigma in (("twin-beam", 1.0), ("squeezed-bell", 10.0),
                          ("squeezed-cat", 1.0), ("buridan", 10.0)):
        nz = noise()
        T = math.sqrt(1 - nz["r2"])
        h = 0.5 / math.sqrt(sigma)
        flags = dict(r=float(rng.uniform(0.2, 2.0)), sigma=sigma, **nz)
        if family != "twin-beam":
            flags["delta"] = float(rng.uniform(-0.7, 1.5))
        if family == "squeezed-cat":
            flags["gamma_mod"] = float(rng.uniform(0.2, 2.0))
        ops.append(sweep_op(family, "gain", (1 - h) / T, (1 + h) / T,
                            CLOSED_PRIOR_STEPS, **flags))
    T = math.sqrt(1 - FAILING_PRIOR["r2"])
    for sigma in FAILING_SIGMAS:
        op = sweep_op("twin-beam", "gain", 0.5 / T, 1.5 / T,
                      CLOSED_PRIOR_STEPS, sigma=sigma, **FAILING_PRIOR)
        op.meta["known_fault"] = "60-node Gauss-Hermite prior average"
        ops.append(op)
    return ops


def closed_warmup():
    return sweep_op("squeezed-bell", "beta_re", 0.0, 1.0, 50, r=0.5,
                    delta=0.3)


WORKLOADS = {
    "figures": (figures_round, figures_warmup),
    "quadrature-sweep": (quadrature_round, quadrature_warmup),
    "closed-sweep": (closed_round, closed_warmup),
}


# ---------------------------------------------------------------- checks

def parse_csv(text):
    """Rows of a CSV as dicts of floats (None for empty cells)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for cells in reader:
        row = {}
        for name, cell in zip(CSV_HEADER, cells):
            if name in ("resource", "method"):
                row[name] = cell
            else:
                row[name] = float(cell) if cell else None
        rows.append(row)
    return rows


def _column(rows, name):
    return np.array([math.nan if r[name] is None else r[name] for r in rows])


def _close(a, b, rtol=1e-11):
    return np.allclose(a, b, rtol=rtol, atol=1e-12)


def _reference(family, fields, beta, sigma):
    """Reference values: Gaussian closed forms for the twin beam at
    phi = pi, the overlap rule otherwise."""
    pts = ref.Points(family, **fields)
    if family == "twin-beam" and all(_is_specialized(p, 0.0)
                                     for p in pts.phi):
        if sigma is None:
            return ref.twin_beam_fidelity(pts, beta)
        return ref.twin_beam_average(pts, sigma)
    return ref.overlap_fidelity(pts, beta, sigma)


def check_sweep(op, rows, telefid):
    """Problems with one sweep's rows (empty when all are correct)."""
    m = op.meta
    flags, axis, values = m["flags"], m["axis"], m["values"]
    if len(rows) != op.rows:
        return [f"{len(rows)} rows, expected {op.rows}"]
    problems = []
    n = len(rows)

    def param(name, default):
        if axis == name:
            return values
        return np.full(n, flags.get(name, default), dtype=float)

    r2 = param("r2", 0.0)
    T = np.sqrt(1 - r2)
    gain = param("gain", math.nan)
    sigma = flags.get("sigma")
    fields = dict(r=param("r", math.nan), tau=param("tau", 0.0),
                  nth=param("nth", 0.0), r2=r2, gain=gain,
                  delta=param("delta", 0.0), theta=param("theta", 0.0),
                  phi=param("phi", math.pi),
                  gamma=param("gamma", flags.get("gamma_mod", 0.0)))
    beta = (param("beta_re", 0.0) + 1j * param("beta_im", 0.0))
    echo = {"r": fields["r"], "tau": fields["tau"], "nth": fields["nth"],
            "r2": r2, "gain": np.where(np.isnan(gain), 1 / T, gain)}
    if sigma is None:
        echo.update(beta_re=beta.real, beta_im=beta.imag)
    else:
        echo["sigma"] = np.full(n, sigma)
    for name, want in echo.items():
        if not _close(_column(rows, name), want):
            problems.append(f"column {name} does not echo the inputs")
    if any(r["resource"] != m["family"] for r in rows):
        problems.append("resource column does not echo the family")
    expected_method = "closed" if sigma is not None else m["method"]
    if any(r["method"] != expected_method for r in rows):
        problems.append(f"method column is not {expected_method!r}")
    fid = _column(rows, "fidelity")
    if not np.all((fid >= 0) & (fid <= FIDELITY_CEIL)):
        problems.append("fidelity outside [0, 1]")
    want = _reference(m["family"], fields, beta, sigma)
    tol = QUAD_REF_TOL if m["method"] == "quadrature" else CLOSED_TOL
    err = np.abs(fid - want)
    if not np.all(err <= tol):
        i = int(np.argmax(err))
        problems.append(f"row {i}: fidelity {fid[i]:.12g} vs reference "
                        f"{want[i]:.12g} (|diff| {err[i]:.2e} > {tol:g})")
    if m["method"] == "quadrature":
        problems += _check_quadrature_rows(op, fields, beta, fid, telefid)
    return problems


def _spec(telefid, family, r, delta=0.0, theta=0.0, phi=math.pi, gamma=0.0):
    RS = telefid.ResourceSpec
    if family == "twin-beam":
        return RS.twin_beam(r, phi=phi)
    if family == "photon-subtracted":
        return RS.photon_subtracted(r, phi=phi)
    if family == "squeezed-bell":
        return RS.squeezed_bell(r, phi=phi, delta=delta, theta=theta)
    if family == "buridan":
        return RS.buridan_donkey(r, phi=phi, delta=delta, theta=theta)
    return RS.squeezed_cat(r, phi=phi, delta=delta, theta=theta,
                           gamma_mod=gamma)


def _is_specialized(phi, theta):
    return (abs(math.remainder(phi - math.pi, 2 * math.pi)) < 1e-12
            and abs(math.remainder(theta, 2 * math.pi)) < 1e-12)


def _check_quadrature_rows(op, fields, beta, fid, telefid):
    """Closed form against quadrature at the closed-form phases; the
    conjugation symmetry theta, phi, beta -> -theta, -phi, conj(beta)
    elsewhere (the CLI has no flag for a complex cat amplitude)."""
    problems = []
    family = op.meta["family"]
    for i in range(len(fid)):
        kw = dict(delta=fields["delta"][i], theta=fields["theta"][i],
                  phi=fields["phi"][i], gamma=fields["gamma"][i].real)
        noise = telefid.NoiseParams(tau=fields["tau"][i],
                                    n_th=fields["nth"][i], r2=fields["r2"][i])
        g = fields["gain"][i]
        gain = (telefid.GainSetting.unity_over_t() if math.isnan(g)
                else telefid.GainSetting.fixed(g))
        if _is_specialized(kw["phi"], kw["theta"]):
            other = telefid.fidelity_closed(
                _spec(telefid, family, fields["r"][i], **kw), noise, gain,
                complex(beta[i])).value
            what, tol = "closed form", QUAD_TOL
        else:
            kw["theta"], kw["phi"] = -kw["theta"], -kw["phi"]
            other = telefid.fidelity_quadrature(
                telefid.CoherentInput(complex(beta[i]).conjugate()),
                _spec(telefid, family, fields["r"][i], **kw), noise,
                gain).value
            what, tol = "conjugated quadrature", CONJ_TOL
        if abs(other - fid[i]) > tol:
            problems.append(f"row {i}: {fid[i]:.12g} vs {what} "
                            f"{other:.12g}")
    return problems


def check_figure(op, rows, telefid):
    """Problems with one figure preset's rows."""
    tag = op.meta["tag"]
    if len(rows) != op.rows:
        return [f"{len(rows)} rows, expected {op.rows}"]
    problems = []
    fid = _column(rows, "fidelity")
    if not np.all((fid >= 0) & (fid <= FIDELITY_CEIL)):
        problems.append("fidelity outside [0, 1]")
    families = [r["resource"] for r in rows]
    averaged = tag[0] in "56"
    for family in sorted(set(families)):
        idx = [i for i, f in enumerate(families) if f == family]
        sub = [rows[i] for i in idx]
        f_sub = fid[idx]
        fields = dict(r=_column(sub, "r"), tau=_column(sub, "tau"),
                      nth=_column(sub, "nth"), r2=_column(sub, "r2"))
        T = np.sqrt(1 - fields["r2"])
        gain = _column(sub, "gain")
        # the beta-independent presets use the unity rule g~ = 1
        fields["gain"] = gain if averaged else np.full(len(sub), math.nan)
        if not averaged and not _close(gain, 1 / T):
            problems.append(f"{family}: gain column is not 1/T")
        fields["delta"] = np.nan_to_num(_column(sub, "delta_opt"))
        fields["gamma"] = np.nan_to_num(_column(sub, "gamma_opt"))
        beta = np.nan_to_num(_column(sub, "beta_re")) + 0j
        want = _reference(family, fields, beta, None)
        err = np.abs(f_sub - want)
        if not np.all(err <= CLOSED_TOL):
            i = int(np.argmax(err))
            problems.append(f"{family} row {idx[i]}: {f_sub[i]:.12g} vs "
                            f"reference {want[i]:.12g}")
        if averaged and family == "twin-beam":
            sig = sub[0]["sigma"]
            best = np.array([ref.twin_beam_best_gain(
                r["r"], r["tau"], r["r2"], sig) for r in sub])
            if not np.all(np.abs(gain - best) <= GAIN_TOL):
                i = int(np.argmax(np.abs(gain - best)))
                problems.append(f"twin-beam row {idx[i]}: gain {gain[i]:.12g}"
                                f" vs exact optimum {best[i]:.12g}")
        if not averaged:
            problems += _check_probe(telefid, family, sub, f_sub)
    if not averaged:
        problems += _check_dominance(rows, fid)
    problems += _check_quadrature_sample(telefid, tag, rows, fid)
    return problems


def _noise_key(row):
    return (row["r"], row["tau"], row["nth"], row["r2"])


def _check_dominance(rows, fid):
    """Squeezed-Bell >= twin beam and photon-subtracted, squeezed cat >=
    twin beam, at each (r, noise): both contain those as subcases."""
    best = {}
    for row, f in zip(rows, fid):
        best[(row["resource"], _noise_key(row))] = f
    problems = []
    for (family, key), f in best.items():
        if family not in ("twin-beam", "photon-subtracted"):
            continue
        for above in (("squeezed-bell", "squeezed-cat")
                      if family == "twin-beam" else ("squeezed-bell",)):
            g = best.get((above, key))
            if g is not None and g < f - OPT_TOL:
                problems.append(f"{above} {g:.12g} below {family} "
                                f"{f:.12g} at {key}")
    return problems


def _check_probe(telefid, family, sub, f_sub):
    """Each beta-independent optimum is at least the closed form at every
    probe (delta, gamma)."""
    if family not in ("squeezed-bell", "buridan", "squeezed-cat"):
        return []
    gain = telefid.GainSetting.unity_over_t()
    gammas = PROBE_GAMMAS if family == "squeezed-cat" else (0.0,)
    problems = []
    for row, f in zip(sub, f_sub):
        noise = telefid.NoiseParams(tau=row["tau"], n_th=row["nth"],
                                    r2=row["r2"])
        probe = max(
            telefid.fidelity_closed(_spec(telefid, family, row["r"], d,
                                          gamma=g), noise, gain).value
            for d in PROBE_DELTAS for g in gammas)
        if f < probe - OPT_TOL:
            problems.append(f"{family} optimum {f:.12g} below probe "
                            f"{probe:.12g} at r = {row['r']}")
    return problems


def _check_quadrature_sample(telefid, tag, rows, fid):
    """Rerun the reported parameters of one row per family, at the axis
    point 1.0 (r, or tau for preset 6), through the program's
    quadrature."""
    axis = "tau" if tag.startswith("6") else "r"
    problems, seen = [], set()
    for i, row in enumerate(rows):
        if row[axis] != QUAD_SAMPLE_AXIS or row["resource"] in seen:
            continue
        seen.add(row["resource"])
        noise = telefid.NoiseParams(tau=row["tau"], n_th=row["nth"],
                                    r2=row["r2"])
        gain = (telefid.GainSetting.unity_over_t() if row["sigma"] is None
                else telefid.GainSetting.fixed(row["gain"]))
        spec = _spec(telefid, row["resource"], row["r"],
                     row["delta_opt"] or 0.0,
                     gamma=row["gamma_opt"] or 0.0)
        val = telefid.fidelity_quadrature(
            telefid.CoherentInput(complex(row["beta_re"] or 0.0)), spec,
            noise, gain).value
        if abs(val - fid[i]) > QUAD_TOL:
            problems.append(f"row {i}: {fid[i]:.12g} vs quadrature "
                            f"{val:.12g}")
    return problems
