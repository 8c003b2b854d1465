"""The benchmark's traced run: its last line is one strict JSON result
carrying every per-layer metric that BENCHMARK.json declares."""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_traced_figures_run_ends_in_strict_json_with_every_layer_metric():
    """bench/tracing.py reads the optimizers' layers by wrapping the
    names the presets call through telefid.cli_sweep, and their
    evaluations off what those calls return; a preset that calls other
    names, or returns no evaluations, drops metrics from this line."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed",
         "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_no_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = result["metrics"]
    assert set(metrics) == declared
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_untraced_closed_sweep_run_fails_only_its_known_faults():
    """The untraced closed-sweep run ends in one strict JSON result whose
    failures are exactly its two known-fault sweeps of every eleven: the
    gain sweeps whose 60-node Gauss-Hermite prior average the bench's
    exact reference rejects."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-sweep",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_no_constant)
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["attempted"] % 11 == 0
    assert result["failed"] * 11 == result["attempted"] * 2
