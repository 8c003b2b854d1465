"""Argument parsing, exit codes, CSV schema and byte determinism."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telefid
import telefid.cli_sweep as cli
from telefid import FAMILIES, NumericalError, ParameterError, QuadratureError
from telefid.cli_sweep import (CSV_HEADER, ResultRow, SweepSpec, emit_csv,
                               main, parse_cli)

IDEAL_ROW = "twin-beam,1,0,0,0,1,,,,0,0,closed,0.880797077978"


class TestParseCli:

    def test_fidelity_flags(self):
        ns = parse_cli(["fidelity", "--resource", "squeezed-bell",
                        "--r", "0.8", "--delta", "0.4", "--tau", "0.3",
                        "--r2", "0.05", "--gain", "1.1",
                        "--beta-re", "1.5", "--method", "quadrature"])
        assert ns.command == "fidelity"
        assert ns.resource == "squeezed-bell"
        assert ns.r == 0.8 and ns.delta == 0.4
        assert ns.gain == 1.1 and ns.method == "quadrature"
        assert ns.beta_re == 1.5 and ns.beta_im is None

    def test_sweep_flags(self):
        ns = parse_cli(["sweep", "--resource", "twin-beam", "--vary", "r",
                        "--from", "0", "--to", "2", "--steps", "81"])
        assert ns.vary == "r" and ns.start == 0.0 and ns.stop == 2.0
        assert ns.steps == 81

    @pytest.mark.parametrize("argv", [
        ["fidelity", "--resource", "twin-beam"],           # missing --r
        ["fidelity", "--r", "1"],                          # missing resource
        ["fidelity", "--resource", "laser", "--r", "1"],   # unknown family
        ["sweep", "--resource", "twin-beam", "--vary", "r",
         "--from", "0", "--to", "2"],                      # missing steps
        ["sweep", "--resource", "twin-beam", "--vary", "beta_re",
         "--from", "0", "--to", "2", "--steps", "5",
         "--r", "1", "--sigma", "10"],                     # beta axis + prior
        ["fidelity", "--resource", "twin-beam", "--r", "one"],  # not a number
        ["figure", "--figure", "7"],                       # unknown preset
        ["sweep", "--resource", "twin-beam", "--r", "1", "--vary", "tau",
         "--from", "0", "--to", "0.3", "--steps", "2", "--sigma", "10",
         "--method", "quadrature"],                        # prior + quadrature
        ["fidelity", "--resource", "twin-beam", "--r", "1",
         "--sigma", "10", "--beta-re", "2"],               # prior + beta
        ["sweep", "--resource", "twin-beam", "--r", "1", "--vary", "sigma",
         "--from", "1", "--to", "10", "--steps", "2",
         "--beta-im", "1"],                                # prior axis + beta
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit):
            parse_cli(argv)
        assert main(argv) == 2
        capsys.readouterr()


class TestResultRow:

    def test_rejects_out_of_range_fidelity(self):
        # a computed value out of range is a numerical fault, not bad input
        for bad in (-0.5, 1.5):
            with pytest.raises(NumericalError):
                ResultRow(resource="twin-beam", fidelity=bad)

    def test_accepts_underflow_to_zero(self):
        assert ResultRow(resource="twin-beam", fidelity=0.0).fidelity == 0.0

    def test_non_finite_is_a_numerical_error(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NumericalError):
                ResultRow(resource="twin-beam", fidelity=bad)

    def test_accepts_rounding_slack(self):
        row = ResultRow(resource="twin-beam", fidelity=1.0 + 1e-10)
        assert row.fidelity > 1.0


class TestSweepSpec:

    def test_values(self):
        sweep = SweepSpec(axis="tau", start=0.0, stop=0.4, steps=5)
        assert list(sweep.values) == pytest.approx([0, 0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("kwargs", [
        dict(axis="phi", start=0.0, stop=1.0, steps=5),
        dict(axis="r", start=0.0, stop=1.0, steps=1),
        dict(axis="r", start=1.0, stop=1.0, steps=5),
        dict(axis="r", start=2.0, stop=1.0, steps=5),
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ParameterError):
            SweepSpec(**kwargs)


class TestMainExitCodes:

    def test_point_fidelity_to_stdout(self, capsys):
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--gain", "1"])
        assert code == 0
        assert capsys.readouterr().out == "0.880797077978\n"

    def test_parameter_error_exits_2(self, capsys):
        code = main(["fidelity", "--resource", "twin-beam", "--r", "-1",
                     "--gain", "1"])
        assert code == 2
        assert "telefid:" in capsys.readouterr().err

    def test_foreign_flag_exits_2(self, capsys):
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--delta", "0.3"])
        assert code == 2
        assert "does not apply" in capsys.readouterr().err

    def test_prior_sweep_takes_the_closed_method(self, capsys):
        code = main(["sweep", "--resource", "twin-beam", "--r", "1",
                     "--vary", "tau", "--from", "0", "--to", "0.3",
                     "--steps", "2", "--sigma", "10", "--method", "closed"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["method"] for row in rows] == ["closed", "closed"]

    def test_underflowing_fidelity_prints_zero(self, capsys):
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--gain", "1.3", "--beta-re", "1000"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_large_squeezing_closed_form_exits_0(self, capsys):
        """e^{4r} and Delta^4 would overflow here; the fidelity, about
        4/Delta, does not."""
        code = main(["fidelity", "--resource", "squeezed-bell", "--r", "300",
                     "--gain", "1.3"])
        assert code == 0
        assert 0 < float(capsys.readouterr().out) < 1e-250

    @pytest.mark.parametrize("gain,factor", [("1.3", math.cos(0.3) ** 2),
                                             ("1", 1.0)],
                             ids=["gain-1.3", "gain-1"])
    def test_huge_cat_amplitude_exits_0(self, gain, factor, capsys):
        """|gamma|^2 overflows a double; this used to be a traceback, then
        exit 4 on a NaN. The fidelity is cos^2 delta times the twin
        beam's, or the twin beam's at g~ = e^{-tau/2}, where the cat term
        vanishes."""
        code = main(["fidelity", "--resource", "twin-beam", "--r", "0.5",
                     "--gain", gain])
        assert code == 0
        twin = float(capsys.readouterr().out)
        code = main(["fidelity", "--resource", "squeezed-cat", "--r", "0.5",
                     "--delta", "0.3", "--gamma-mod", "1e155", "--gain",
                     gain])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert float(out.out) == pytest.approx(factor * twin, rel=1e-11)

    @pytest.mark.parametrize("r", ["360", "500", "700", "710"])
    def test_cat_past_delta_overflow_exits_0(self, r, capsys):
        """The cat form used to print NaN (exit 4) from r ~ 354 and
        overflow past r ~ 709; every family prints 0 there."""
        code = main(["fidelity", "--resource", "squeezed-cat", "--r", r,
                     "--delta", "0.4", "--gamma-mod", "1", "--gain", "1.3"])
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    def test_one_shot_outside_the_prior_support_exits_2(self, capsys):
        """|beta|^2 = 1e4 > 700 sigma; the command line used to print
        1.01363374149e-121 here, while the library raised."""
        code = main(["optimize", "--resource", "twin-beam", "--r", "1",
                     "--sigma", "1", "--beta-re", "100"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "numerical support" in out.err

    def test_squeezing_past_delta_overflow_exits_0(self, capsys):
        """Delta overflows a double past r ~ 354; the fidelity, about
        4/Delta, is 0."""
        code = main(["fidelity", "--resource", "twin-beam", "--r", "400",
                     "--gain", "1.3"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_cancelling_closed_form_exits_0(self, capsys):
        """Terms of 3.3e-12 cancel to 6e-33; the rounding once left
        -8.08e-28, reported as a parameter error."""
        code = main(["fidelity", "--resource=photon-subtracted",
                     "--r=14.691094222497222", "--tau=1.4037846139907855",
                     "--r2=0.5313155841032986", "--gain=0.0575320288032457",
                     "--beta-re=-4.144360080992896",
                     "--beta-im=-0.7018987842160088"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_unwritable_output_exits_3(self, capsys):
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--gain", "1", "--output",
                     "/no-such-directory/out.csv"])
        assert code == 3
        assert "telefid:" in capsys.readouterr().err

    def test_numerical_failure_exits_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError("node ladder exhausted")

        monkeypatch.setattr(cli, "fidelity_closed", boom)
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--gain", "1"])
        assert code == 4
        assert "node ladder" in capsys.readouterr().err


class TestCsvSchema:

    def test_frozen_header(self):
        assert CSV_HEADER == ("resource", "r", "tau", "nth", "r2", "gain",
                              "delta_opt", "gamma_opt", "sigma", "beta_re",
                              "beta_im", "method", "fidelity")

    def test_ideal_point_row_bytes(self, tmp_path):
        path = tmp_path / "point.csv"
        code = main(["fidelity", "--resource", "twin-beam", "--r", "1",
                     "--gain", "1", "--output", str(path)])
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert text == ",".join(CSV_HEADER) + "\n" + IDEAL_ROW + "\n"

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--resource", "squeezed-bell", "--r", "0.8",
                     "--delta", "0.4", "--tau", "0.2", "--vary", "r2",
                     "--from", "0", "--to", "0.2", "--steps", "5",
                     "--output", str(path)])
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 5
        assert [float(row["r2"]) for row in rows] == pytest.approx(
            [0, 0.05, 0.1, 0.15, 0.2])
        for row in rows:
            assert row["resource"] == "squeezed-bell"
            assert row["delta_opt"] == "" and row["sigma"] == ""
            assert 0 < float(row["fidelity"]) <= 1
        # fidelity decreases as the detectors lose more light
        fids = [float(row["fidelity"]) for row in rows]
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_optimize_row_fields(self, tmp_path):
        path = tmp_path / "opt.csv"
        code = main(["optimize", "--resource", "squeezed-bell", "--r", "0.8",
                     "--tau", "0.3", "--r2", "0.05", "--output", str(path)])
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            row = next(csv.DictReader(handle))
        assert float(row["gain"]) == pytest.approx(1 / math.sqrt(0.95))
        assert float(row["delta_opt"]) > 0
        assert row["gamma_opt"] == "" and row["beta_re"] == ""
        assert row["method"] == "eigen"

    def test_emit_csv_stdout(self, capsys):
        emit_csv([ResultRow(resource="twin-beam", r=1.0, fidelity=0.5)])
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_HEADER) + "\n")
        assert "twin-beam,1,,,,,,,,,,,0.5" in out

    def test_twelve_significant_digits(self):
        buffer = io.StringIO()
        cli._write_rows(buffer, [ResultRow(resource="twin-beam",
                                           fidelity=2.0 / 3.0)])
        assert "0.666666666667" in buffer.getvalue()


class TestDeterminism:

    def _sweep_bytes(self, tmp_path, name):
        path = tmp_path / name
        code = main(["sweep", "--resource", "squeezed-cat", "--r", "0.7",
                     "--delta", "0.3", "--gamma-mod", "0.6", "--tau", "0.2",
                     "--vary", "r", "--from", "0.1", "--to", "1.3",
                     "--steps", "7", "--output", str(path)])
        assert code == 0
        return path.read_bytes()

    def test_rows_keep_input_order_across_pools(self, tmp_path):
        first = self._sweep_bytes(tmp_path, "a.csv")
        second = self._sweep_bytes(tmp_path, "b.csv")
        assert first == second
        values = [row["r"] for row in
                  csv.DictReader(io.StringIO(first.decode()))]
        assert values == sorted(values, key=float)


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the only runtime dependency: importing the package and
    its command line adds no module outside the standard library, numpy
    and telefid to those the interpreter starts with."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import telefid, telefid.cli_sweep\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(telefid.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    roots = {name.split(".")[0] for name in out.split()}
    assert "telefid" in roots
    assert roots - set(sys.stdlib_module_names) <= {"numpy", "telefid"}


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 1000.0),
    delta=st.floats(-math.pi, math.pi),
    gamma=st.floats(0.0, 1e300),
    g=st.floats(1e-3, 1e3),
    beta_re=st.floats(-1e3, 1e3),
    beta_im=st.floats(-1e3, 1e3),
    tau=st.floats(0.0, 50.0),
    nth=st.floats(0.0, 10.0),
    r2=st.floats(0.0, 0.99),
    sigma=st.none() | st.floats(1e-3, 1e6),
)
def test_fidelity_command_over_the_domain(family, r, delta, gamma, g,
                                          beta_re, beta_im, tau, nth, r2,
                                          sigma):
    """At phi = pi, every input the constructors accept gives exit 0 and
    a fidelity in [0, 1], or exit 4: no traceback and no parameter error.
    Flags are passed as --flag=value, since argparse reads "-1e-05" as
    an option."""
    argv = ["fidelity", f"--resource={family}", f"--r={r!r}",
            f"--tau={tau!r}", f"--nth={nth!r}", f"--r2={r2!r}",
            f"--gain={g!r}"]
    if family in ("squeezed-bell", "buridan", "squeezed-cat"):
        argv.append(f"--delta={delta!r}")
    if family == "squeezed-cat":
        argv.append(f"--gamma-mod={gamma!r}")
    if sigma is None:
        argv += [f"--beta-re={beta_re!r}", f"--beta-im={beta_im!r}"]
    else:
        argv.append(f"--sigma={sigma!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 4), err.getvalue()
    if code == 0:
        assert 0.0 <= float(out.getvalue()) <= 1.0 + 1e-9
