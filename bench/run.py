"""Benchmark of the telefid CLI: figure presets, quadrature sweeps and
closed-path sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones of the named workload; with --trace 1 they are the
per-layer ones, from one traced round of every workload. See
bench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one thread everywhere, set before numpy loads: the CLI's pool is bound
# by the interpreter lock, and one thread keeps runs comparable
THREADS_ENV = {"TELEFID_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("figures", "quadrature-sweep", "closed-sweep")
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
OUT_DIR = ".bench_out"
SETUP_CODE = ("import time\n"
              "from telefid.cli_sweep import main\n"
              "print(time.monotonic())\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(src):
    """Median seconds from starting a fresh interpreter to the CLI being
    importable, over SETUP_STARTS starts."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


class Runner:
    """Runs operations through the CLI entry point and checks them."""

    def __init__(self, src, out_dir, seed):
        import numpy as np
        import telefid
        import telefid.cli_sweep as cli

        if not os.path.samefile(os.path.dirname(telefid.__file__),
                                os.path.join(src, "telefid")):
            raise SystemExit("bench: telefid was not imported from ./src")
        self.np = np
        self.telefid = telefid
        self.cli = cli
        self.seed = seed
        self.path = os.path.join(out_dir, "op.csv")

    def run(self, op):
        """(exit code, seconds, CSV text) of one operation."""
        argv = op.argv + ["--output", self.path]
        if os.path.exists(self.path):
            os.remove(self.path)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # the CLI promises exit codes, never a traceback
            log(traceback.format_exc())
            code = "traceback"
        dt = time.perf_counter() - t0
        if code != 0:
            return code, dt, ""
        with open(self.path, encoding="utf-8") as fh:
            return code, dt, fh.read()

    def check(self, op, code, text):
        """Problems with one operation's output."""
        import workloads as wl

        if code != 0:
            return [f"exit code {code}"]
        try:
            rows = wl.parse_csv(text)
        except ValueError as exc:
            return [str(exc)]
        if op.meta["kind"] == "figure":
            return wl.check_figure(op, rows, self.telefid)
        return wl.check_sweep(op, rows, self.telefid)

    def workload(self, name, seconds, tracer=None):
        """Warm up, then run whole rounds until `seconds` have passed
        (exactly one round when tracing). Checking is left to verify()."""
        import workloads as wl

        make_round, make_warmup = wl.WORKLOADS[name]
        ops = make_round(self.np.random.default_rng(self.seed))
        self.run(make_warmup())
        first = [None] * len(ops)
        times, rows, rounds = [], 0, 0
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                if tracer:
                    tracer.active = True
                code, dt, text = self.run(op)
                if tracer:
                    tracer.active = False
                times.append(dt)
                rows += text.count("\n") - 1 if text else 0
                if first[i] is None:
                    first[i] = (code, text)
                elif (code, text) != first[i]:
                    first[i] = (code, None)  # not reproducible: fails
            rounds += 1
            if tracer or time.perf_counter() - start >= seconds:
                break
        return {"name": name, "ops": ops, "outputs": first,
                "rounds": rounds, "times": times, "rows": rows}

    def verify(self, res):
        """(attempted, failed, correct): every operation of a round is
        checked once, since later rounds must repeat its bytes. Failures
        of operations with a known fault leave `correct` true."""
        failed, correct = 0, True
        for op, (code, text) in zip(res["ops"], res["outputs"]):
            try:
                problems = (["output differs between rounds"]
                            if text is None else self.check(op, code, text))
            except Exception:  # a check that cannot run fails the operation
                problems = [traceback.format_exc()]
            if not problems:
                continue
            failed += res["rounds"]
            if "known_fault" in op.meta:
                log(f"{res['name']}: {op.label} fails (known fault: "
                    f"{op.meta['known_fault']}): {problems[0]}")
            else:
                correct = False
                log(f"{res['name']}: {op.label} FAILS: "
                    f"{'; '.join(problems)}")
        return res["rounds"] * len(res["ops"]), failed, correct


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "telefid", "cli_sweep.py")):
        log("bench: run from the repository root; src/telefid is missing")
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    out_dir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            result = traced(args, src, out_dir)
        else:
            result = untraced(args, src, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs use it
            os.rmdir(os.path.dirname(out_dir))
    print(json.dumps(result))
    return 0


def untraced(args, src, out_dir):
    import resource

    setup_s = measure_setup(src)
    runner = Runner(src, out_dir, args.seed)
    res = runner.workload(args.workload, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, correct = runner.verify(res)
    total = sum(res["times"])
    log(f"{args.workload}: {res['rounds']} rounds, {attempted} "
        f"operations, {res['rows']} rows in {total:.2f} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (res["rows"] / total, "1/s"),
        "op_p50_ms": (statistics.median(res["times"]) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(args, src, out_dir):
    import tracing

    runner = Runner(src, out_dir, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    for site in tracer.absent:
        log(f"trace: {site} no longer exists; its metrics are absent")
    layers, rows_per_round, done = {}, {}, {}
    try:
        for name in WORKLOAD_NAMES:
            tracer.reset()
            res = runner.workload(name, args.seconds, tracer=tracer)
            layers[name] = dict(tracer.layers)
            rows_per_round[name] = res["rows"]
            total = sum(res["times"])
            log(f"trace: {name}: one round, {res['rows']} rows in "
                f"{total:.2f} s, {res['rows'] / total:.6g} rows/s traced")
            done[name] = res
    finally:
        tracer.uninstall()
    correct = True
    for name, res in done.items():
        attempted, failed, ok = runner.verify(res)
        correct = correct and ok
        if name == args.workload:
            named = (attempted, failed)
    return {"correct": correct, "attempted": named[0], "failed": named[1],
            "metrics": tracing.layer_metrics(layers, rows_per_round)}


if __name__ == "__main__":
    sys.exit(main())
