"""Per-layer tracing from outside the program.

The tracer replaces public functions of `cli_sweep`, `optimize`,
`fidelity` and `quadrature` at the module attributes through which the
program calls them, times each call, and keeps spans on one stack so a
caller's self time excludes its wrapped children. The benchmark runs
with one worker thread, so calls never overlap and one stack suffices.
"""

import importlib
import statistics
import time
from collections import defaultdict

# (module holding the call site, attribute, traced name)
SITES = (
    ("telefid.cli_sweep", "main", "cli_sweep.main"),
    ("telefid.cli_sweep", "emit_csv", "cli_sweep.emit_csv"),
    ("telefid.cli_sweep", "optimize_beta_independent",
     "optimize.optimize_beta_independent"),
    ("telefid.cli_sweep", "optimize_gain_average",
     "optimize.optimize_gain_average"),
    ("telefid.cli_sweep", "fidelity_closed", "fidelity.fidelity_closed"),
    ("telefid.cli_sweep", "average_fidelity", "fidelity.average_fidelity"),
    ("telefid.cli_sweep", "fidelity_quadrature",
     "fidelity.fidelity_quadrature"),
    ("telefid.optimize", "fidelity_closed", "fidelity.fidelity_closed"),
    ("telefid.optimize", "average_fidelity", "fidelity.average_fidelity"),
    ("telefid.fidelity", "integrate_adaptive",
     "quadrature.integrate_adaptive"),
    ("telefid.quadrature", "tensor_grid", "quadrature.tensor_grid"),
)


class Layer:
    """Calls of one traced function."""

    def __init__(self):
        self.total = []       # seconds per call
        self.self_time = []   # seconds per call outside wrapped children
        self.evaluations = []  # OptimizationResult.evaluations per call
        self.points = []      # grid points per integration
        self.top_rung = 0     # largest nodes per axis


class Tracer:
    def __init__(self):
        self.active = False
        self.layers = defaultdict(Layer)
        self.absent = []
        self._stack = []
        self._installed = []

    def install(self):
        """Wrap every site that exists; record the ones that do not."""
        for module, attr, name in SITES:
            try:
                mod = importlib.import_module(module)
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = (self._grid_wrapper(fn) if attr == "tensor_grid"
                       else self._span_wrapper(name, fn))
            setattr(mod, attr, wrapper)
            self._installed.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def reset(self):
        self.layers = defaultdict(Layer)

    def _span_wrapper(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, []]  # child seconds, grid sizes
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            layer = self.layers[name]
            layer.total.append(dt)
            layer.self_time.append(dt - frame[0])
            nfev = getattr(out, "evaluations", None)
            if nfev is not None:
                layer.evaluations.append(nfev)
            if frame[1]:
                layer.points.append(sum(n * n for n in frame[1]))
                layer.top_rung = max(layer.top_rung, max(frame[1]))
            return out
        return traced

    def _grid_wrapper(self, fn):
        stack = self._stack

        def traced(L, n, *args, **kwargs):
            if self.active and stack:
                stack[-1][1].append(n)
            return fn(L, n, *args, **kwargs)
        return traced


def _p50(values, scale):
    return statistics.median(values) * scale if values else None


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(per_workload, rows_per_round):
    """Per-layer metrics, each taken on the workload whose end-to-end
    metric it should move. per_workload maps workload -> Tracer.layers;
    layers without calls give None (reported as absent)."""
    fig = per_workload["figures"]
    quad = per_workload["quadrature-sweep"]
    closed = per_workload["closed-sweep"]
    rows = rows_per_round["closed-sweep"]
    main = closed.get("cli_sweep.main")
    emit = closed.get("cli_sweep.emit_csv")
    bind = fig.get("optimize.optimize_beta_independent")
    gavg = fig.get("optimize.optimize_gain_average")
    fcl = closed.get("fidelity.fidelity_closed")
    favg = closed.get("fidelity.average_fidelity")
    fq = quad.get("fidelity.fidelity_quadrature")
    integ = quad.get("quadrature.integrate_adaptive")
    out = {
        "cli_sweep.self_us_per_row": (
            main and ("us", sum(main.self_time) / rows * 1e6)),
        "cli_sweep.emit_csv_us_per_row": (
            emit and ("us", sum(emit.total) / rows * 1e6)),
        "optimize.beta_independent_ms": (
            bind and ("ms", _p50(bind.total, 1e3))),
        "optimize.beta_independent_nfev": (
            bind and ("count", _mean(bind.evaluations))),
        "optimize.gain_average_ms": gavg and ("ms", _p50(gavg.total, 1e3)),
        "optimize.gain_average_nfev": (
            gavg and ("count", _mean(gavg.evaluations))),
        "fidelity.closed_us": fcl and ("us", _p50(fcl.total, 1e6)),
        "fidelity.closed_calls": fcl and ("count", len(fcl.total)),
        "fidelity.average_ms": favg and ("ms", _p50(favg.total, 1e3)),
        "fidelity.average_calls": favg and ("count", len(favg.total)),
        "fidelity.quadrature_ms": fq and ("ms", _p50(fq.self_time, 1e3)),
        "quadrature.integrate_ms": (
            integ and ("ms", _p50(integ.total, 1e3))),
        "quadrature.points": integ and ("count", _mean(integ.points)),
        "quadrature.top_rung": integ and ("count", integ.top_rung),
        "quadrature.points_per_s": (
            integ and ("1/s", sum(integ.points) / sum(integ.total))),
    }
    return {name: {"value": v[1], "unit": v[0]}
            for name, v in out.items() if v and v[1] is not None}
