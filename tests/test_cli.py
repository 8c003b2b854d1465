"""Argument parsing, exit codes, CSV schema and byte determinism."""

import ast
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import telefid
import telefid.cli_sweep as cli
import telefid.fidelity as fidelity
from telefid import (FAMILIES, AlphabetPrior, CoherentInput, FidelityReport,
                     GainSetting, NoiseParams, NumericalError, ParameterError,
                     QuadratureError, ResourceSpec, average_fidelity,
                     fidelity_closed)
from telefid.phase_space import _rows
from telefid.cli_sweep import (CSV_HEADER, SWEEP_AXES, SweepSpec, emit_csv,
                               main, parse_cli)

IDEAL_ROW = "twin-beam,1,0,0,0,1,,,,0,0,closed,0.880797077978"
USAGE_ERRORS = [
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
    ["optimize", "--resource", "twin-beam", "--r", "1",
     "--gain", "5"],                                   # optimize: gain
    ["optimize", "--resource", "squeezed-bell", "--r", "1",
     "--delta", "0.3"],                                # optimize: delta
    ["optimize", "--resource", "squeezed-bell", "--r", "1",
     "--theta", "0.3"],                                # optimize: theta
    ["optimize", "--resource", "twin-beam", "--r", "1",
     "--phi", "3"],                                    # optimize: phi
    ["optimize", "--resource", "squeezed-cat", "--r", "1",
     "--gamma-mod", "0.5"],                            # optimize: gamma
    ["optimize", "--resource", "twin-beam", "--r", "1",
     "--beta-re", "2"],                                # beta, no prior
]


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

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit):
            parse_cli(argv)
        assert main(argv) == 2
        capsys.readouterr()

    def test_shared_parser_keeps_no_state(self, capsys):
        """The parser is built once per process: after a successful sweep
        every usage error still exits 2, and an argv parses to the same
        namespace before and after other commands."""
        argvs = [["fidelity", "--resource", "squeezed-bell", "--r", "0.8",
                  "--delta", "0.4"],
                 ["sweep", "--resource", "twin-beam", "--vary", "r",
                  "--from", "0", "--to", "2", "--steps", "81"]]
        before = [parse_cli(argv) for argv in argvs]
        assert main(["sweep", "--resource", "twin-beam", "--r", "1",
                     "--vary", "tau", "--from", "0", "--to", "0.3",
                     "--steps", "3", "--sigma", "10", "--gain", "2"]) == 0
        for argv in USAGE_ERRORS:
            assert main(argv) == 2
        assert [parse_cli(argv) for argv in argvs] == before
        assert cli._parser() is cli._parser()
        capsys.readouterr()


class TestResultRow:
    """A result row's fidelity is checked over the fidelity column."""

    def test_rejects_out_of_range_fidelity(self):
        # a computed value out of range is a numerical fault, not bad input
        for bad in (-0.5, 1.5):
            with pytest.raises(NumericalError):
                cli._check_fidelity([bad])

    def test_accepts_underflow_to_zero(self):
        assert cli._check_fidelity([0.0]) == [0.0]

    def test_non_finite_is_a_numerical_error(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NumericalError):
                cli._check_fidelity([bad])

    def test_accepts_rounding_slack(self):
        column = cli._check_fidelity([1.0 + 1e-10])
        assert column[0] > 1.0


class TestSweepSpec:

    def test_values(self):
        sweep = SweepSpec(axis="tau", start=0.0, stop=0.4, steps=5)
        assert list(sweep.values) == pytest.approx([0, 0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("kwargs", [
        dict(axis="phi", start=0.0, stop=1.0, steps=5),
        dict(axis="r", start=0.0, stop=1.0, steps=1),
        dict(axis="r", start=1.0, stop=1.0, steps=5),
        dict(axis="r", start=2.0, stop=1.0, steps=5),
        # non-finite ends, or a span that overflows, gave NaN axis values
        dict(axis="r", start=0.0, stop=math.inf, steps=5),
        dict(axis="r", start=-math.inf, stop=0.0, steps=5),
        dict(axis="r", start=math.nan, stop=1.0, steps=5),
        dict(axis="beta_re", start=-1e308, stop=1e308, steps=5),
        # more rows than a sweep holds; numpy refused 1e19 and 2^63
        dict(axis="r", start=0.0, stop=1.0, steps=cli.MAX_STEPS + 1),
        dict(axis="r", start=0.0, stop=1.0, steps=2 ** 63),
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(ParameterError):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("bounds", [
        ["--steps", "10000000000000000000"], ["--steps", "9223372036854775808"],
        ["--from", "0", "--to", "inf"], ["--from=-1e308", "--to", "1e308"]],
        ids=["steps-1e19", "steps-2^63", "to-inf", "span-overflows"])
    def test_bad_sweep_bounds_exit_2(self, bounds):
        """These printed a numpy traceback (exit 1), or RuntimeWarnings
        and "closed form is nan" (exit 4)."""
        argv = ["sweep", "--resource", "twin-beam", "--r", "1", "--vary",
                "beta_re", "--from", "0", "--to", "1", "--steps", "5"]
        code, out, err = _run(argv + bounds)
        assert (code, out) == (2, "")
        assert err.startswith("telefid: ") and "Traceback" not in err


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

    @pytest.mark.parametrize("extra,value", [
        ([], "0.0912667807455"),
        # the exact average: cos^2 delta times 4/(Delta + 4q), Delta = 40
        # at r = 0 and g~ = 3, q = (g~ - 1)^2 sigma = 40; the 60-node
        # prior rule printed 0.0182533561474
        (["--sigma", "10"], "%.12g" % (math.cos(0.3) ** 2 * 4 / (40 + 160)))],
        ids=["point", "sigma-10"])
    def test_cat_amplitude_past_delta_overflow_exits_0(self, extra, value,
                                                       capsys):
        """|gamma|^2 Delta overflows while |gamma|^2 does not; this used
        to print NaN and exit 4. The value is cos^2 delta times the twin
        beam's."""
        code = main(["fidelity", "--resource", "squeezed-cat", "--r", "0",
                     "--delta", "0.3", "--gamma-mod", "1e154", "--gain",
                     "3"] + extra)
        assert code == 0
        assert capsys.readouterr() == (value + "\n", "")

    def test_cat_at_huge_prior_and_amplitude_exits_0(self, capsys):
        """The cat's 60-node prior rule met -inf + inf here, with numpy
        overflow and invalid-value warnings, and exited 4 ("closed form is
        nan"). The exact average, cos^2 delta times 4/(Delta + 4q) with q
        overflowing, is 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fidelity", "--resource", "squeezed-cat", "--r",
                         "0", "--delta", "0.4", "--gamma-mod", "1e154",
                         "--gain", "3", "--sigma", "1.7e308"])
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("gamma,beta", [
        ("1e100", ["--beta-im", "1e300"]), ("1e100", ["--beta-re", "1e300"]),
        ("5", ["--beta-re", "1.7e308"])], ids=["phase", "aU", "a"])
    def test_cat_at_huge_amplitude_exits_0(self, gamma, beta, capsys):
        """The cross term's phase b V overflows, or a U, or a itself. The
        first used to end in a traceback from math.cos(inf), the others in
        a NaN (exit 4). The fidelity underflows to 0."""
        code = main(["fidelity", "--resource", "squeezed-cat", "--r", "0.5",
                     "--delta", "0.3", "--gamma-mod", gamma, "--gain", "2"]
                    + beta)
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("argv,value", [
        (["--resource", "twin-beam", "--gain", "2", "--beta-re", "1e300"],
         "0"),
        (["--resource", "squeezed-bell", "--delta", "0.3", "--gain", "2",
          "--beta-im", "1e150"], "0"),
        (["--resource", "twin-beam", "--gain", "1", "--beta-re", "1e300"],
         "0.880797077978"),
        (["--resource", "buridan", "--delta", "0.3", "--gain", "1",
          "--beta-im", "1e300"], "0.775803492574"),
        (["--resource", "photon-subtracted", "--r2", "0.05",
          "--beta-re", "1e300"], "0.871835059865"),
    ], ids=["twin-gain-2", "bell-gain-2", "twin-unity", "buridan-unity",
            "subtracted-unity-rule"])
    def test_bell_type_at_huge_amplitude_exits_0(self, argv, value, capsys):
        """(g~ - 1)^2 |beta|^2 used to overflow a float power (exit 4), or
        to give u^2 e^{-4u/Delta} = inf * 0 (NaN, exit 4). Away from unity
        gain the fidelity is 0; at unity gain it is the beta = 0 value."""
        code = main(["fidelity", "--r", "1"] + argv)
        assert code == 0
        assert capsys.readouterr() == (value + "\n", "")

    @pytest.mark.parametrize("argv", [
        ["--resource", "photon-subtracted", "--r", "250", "--tau", "10",
         "--gain", "180", "--beta-im", "3e88"],
        ["--resource", "twin-beam", "--r", "600", "--gain", "700",
         "--beta-re", "2e171"],
    ], ids=["subtracted", "twin"])
    def test_bell_type_at_large_squeezing_and_huge_amplitude_exits_0(
            self, argv, capsys):
        """u^2 e^{-4u/Delta} overflowed (inf) where Delta ~ e^{2r} keeps
        e^{-4u/Delta} near 1, and 4u/Delta was inf/inf (NaN) where u and
        Delta both overflow: both exited 4. The fidelities are 0 to the
        rounding of 4/Delta (see test_fidelity.TestLargeSqueezing)."""
        code = main(["fidelity"] + argv)
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("r", ["360", "500", "700", "710"])
    def test_cat_past_delta_overflow_exits_0(self, r, capsys):
        """The cat form used to print NaN (exit 4) from r ~ 354 and
        overflow past r ~ 709; every family prints 0 there."""
        code = main(["fidelity", "--resource", "squeezed-cat", "--r", r,
                     "--delta", "0.4", "--gamma-mod", "1", "--gain", "1.3"])
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("argv,value", [
        (["--resource", "twin-beam", "--tau", "720"], "0.295761922808"),
        (["--resource", "twin-beam", "--tau", "1500"], "0.295761922808"),
        (["--resource", "squeezed-bell", "--delta", "0.3", "--tau", "1e308"],
         "0.192312264633"),
        (["--resource", "twin-beam", "--gain", "1e160"], "0"),
        (["--resource", "twin-beam", "--gain", "1e154", "--r2", "0.05"],
         "0"),
        (["--resource", "twin-beam", "--nth", "1e308", "--tau", "1"], "0"),
        (["--resource", "twin-beam", "--gain", "1.1", "--sigma", "1e160"],
         "0"),
        (["--resource", "squeezed-bell", "--delta", "0.3", "--gain", "1.1",
          "--sigma", "1e300"], "0"),
    ], ids=["tau-720", "tau-1500", "bell-tau-1e308", "gain-1e160",
            "gain-1e154-r2", "nth-1e308", "sigma-1e160", "bell-sigma-1e300"])
    def test_overflowing_inputs_exit_0(self, argv, value, capsys):
        """A long channel, a huge gain or noise, or a prior so wide that
        every Gauss-Hermite weight underflows: each used to exit 4. A long
        channel gives the fully lossy limit, the others 0."""
        code = main(["fidelity", "--r", "1"] + argv)
        assert code == 0
        assert capsys.readouterr() == (value + "\n", "")

    @pytest.mark.parametrize("argv", [
        ["--resource", "twin-beam", "--method", "quadrature"],
        ["--resource", "twin-beam", "--method", "quadrature", "--r2", "0.05"],
        ["--resource", "squeezed-bell", "--delta", "0.3", "--theta", "1",
         "--sigma", "10"]],
        ids=["gain-1e160", "gain-1e160-r2", "off-phase-prior"])
    def test_quadrature_at_overflowing_gain_exits_0(self, argv, capsys):
        """g~^2 and the prior's (1 - g~)^2 overflowed a float power (a
        traceback); formed as products, they make the box's envelope rate
        inf, and with R^2 > 0 the noise factor e^{-Gamma (x^2 + p^2)/2}
        was NaN at the origin (exit 4). The fidelity is 0, as on the
        closed route."""
        code = main(["fidelity", "--r", "1", "--gain", "1e160"] + argv)
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("argv", [
        ["--r", "4", "--tau", "0.75", "--nth", "0.2", "--r2", "0.1",
         "--gain", "2.8", "--beta-re", "3", "--beta-im", "1"],
        ["--r", "5", "--gain", "1.2"]], ids=["r-4", "r-5"])
    def test_quadrature_at_large_squeezing_prints_the_closed_value(
            self, argv, capsys):
        """The quadrature sized its nodes without the resource's own
        envelope: at r = 4 it printed 6.01183322631e-13 for
        0.000342221837931, and at r = 5 it exhausted the node ladder
        (exit 4)."""
        argv = ["fidelity", "--resource", "twin-beam"] + argv
        assert main(argv) == 0
        closed = capsys.readouterr()
        assert main(argv + ["--method", "quadrature"]) == 0
        assert capsys.readouterr() == closed

    def test_quadrature_rounding_below_zero_prints_0(self, capsys):
        """The converged overlap is -1.8e-16 here, within the quadrature's
        tolerance of 0."""
        code = main(["fidelity", "--resource", "squeezed-bell", "--delta",
                     "0.4", "--theta", "1", "--r", "1", "--gain", "0.8",
                     "--beta-re", "50", "--beta-im", "15", "--method",
                     "quadrature"])
        assert code == 0
        assert capsys.readouterr() == ("0\n", "")

    @pytest.mark.parametrize("phi", [repr(math.pi), "2"])
    @pytest.mark.parametrize("gain", [[], ["--gain", "1.2"]],
                             ids=["unity", "gain-1.2"])
    @pytest.mark.parametrize("r", ["800", "1000"])
    def test_quadrature_past_cosh_overflow(self, r, gain, phi, capsys):
        """cosh r overflowed in the Bogoliubov arguments, a traceback
        (exit 1). Past r ~ 30 the value at phi = fl(pi) may leave the
        closed value at pi, as e^{r} sin fl(pi) is no longer small, so
        only the range is asserted."""
        code = main(["fidelity", "--resource", "twin-beam", "--r", r,
                     "--phi", phi, "--method", "quadrature"] + gain)
        out = capsys.readouterr()
        assert code in (0, 4), out.err
        if code == 0:
            assert 0 <= float(out.out) <= 1 and out.err == ""

    def test_quadrature_with_a_finite_envelope_past_cosh_overflow_exits_4(
            self, capsys):
        """e^{r} |g~ + e^{i phi} eps| stays finite at r = 800 with tiny
        gain and eps = e^{-500}, so the overlap has a finite envelope
        while cosh r overflows: a numerical failure, not a traceback."""
        code = main(["fidelity", "--resource", "twin-beam", "--r", "800",
                     "--tau", "1000", "--gain", "1e-300", "--method",
                     "quadrature"])
        out = capsys.readouterr()
        assert code == 4 and out.out == ""
        assert "cosh r overflows" in out.err

    @pytest.mark.parametrize("argv", [
        ["--resource", "twin-beam"],
        ["--resource", "squeezed-cat", "--sigma", "10"]],
        ids=["twin-beam", "cat-sigma-10"])
    def test_optimize_over_a_long_channel_exits_0(self, argv, capsys):
        """e^{tau/2} overflowed at tau = 1500 (exit 4)."""
        code = main(["optimize", "--r", "1", "--tau", "1500"] + argv)
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        assert 0 < float(out.out.split(",")[-1]) <= 1

    def test_one_shot_outside_the_prior_support_exits_2(self, capsys):
        """|beta|^2 = 1e4 > 700 sigma; the command line used to print
        1.01363374149e-121 here, while the library raised."""
        code = main(["optimize", "--resource", "twin-beam", "--r", "1",
                     "--sigma", "1", "--beta-re", "100"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "numerical support" in out.err

    def test_one_shot_past_the_square_overflow_exits_2(self, capsys):
        """|beta|^2 overflows a double; this used to end in an
        OverflowError traceback."""
        code = main(["optimize", "--resource", "twin-beam", "--r", "0.5",
                     "--sigma", "3", "--beta-re", "1e308"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert "numerical support" in out.err

    def test_cat_at_huge_delta_exits_0(self, capsys):
        """2 delta overflows a double; the cat's squared norm took its
        sine and ended in a ValueError traceback. Squeezed-Bell at the
        same delta already printed its value."""
        for family in ("squeezed-cat", "squeezed-bell"):
            code = main(["fidelity", "--resource", family, "--r", "1",
                         "--delta", "1e308"])
            out = capsys.readouterr()
            assert code == 0 and out.err == ""
            assert 0 <= float(out.out) <= 1

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

    def test_cancelling_buridan_core_exits_0(self, capsys):
        """Buridan's delta = 0 fidelity is 0 at g~ = 0 and tau = 0, but
        its cancelling terms left -1.1e-16, reported as outside [0, 1]."""
        code = main(["fidelity", "--resource", "buridan", "--r", "0.03125",
                     "--gain", "5e-324"])
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


# a sweep range per axis: the cat's gamma crosses gamma^2 = inf at 1.3e154
# and |beta| past about 115 takes its t1 = 0 branch
SWEEP_RANGES = {"r": (0.0, 3.0), "tau": (0.0, 2.0), "nth": (0.0, 1.0),
                "r2": (0.0, 0.5), "gain": (0.05, 3.0), "sigma": (0.1, 1e4),
                "beta_re": (-400.0, 400.0), "beta_im": (-400.0, 400.0),
                "delta": (-3.0, 3.0), "gamma": (1e153, 1e155)}
SWEEP_CASES = [(family, axis, averaged) for family in FAMILIES
               for axis in SWEEP_AXES for averaged in (False, True)
               if not (averaged and axis in ("sigma", "beta_re", "beta_im"))]


def _sweep_case(family, axis, averaged):
    """The namespace of a SWEEP_CASES sweep of 101 rows, and its values;
    values None where the axis does not apply to the family."""
    start, stop = SWEEP_RANGES[axis]
    flags = {"r": 0.8, "tau": 0.3, "nth": 0.1, "r2": 0.05, "gain": 1.3}
    if family in ("squeezed-bell", "buridan", "squeezed-cat"):
        flags["delta"] = 0.4
    if family == "squeezed-cat":
        flags["gamma-mod"] = 1.1
    if averaged:
        flags["sigma"] = 10.0
    elif axis != "sigma":
        flags.update({"beta-re": 0.7, "beta-im": -0.4})
    argv = ["sweep", "--resource", family, "--vary", axis,
            f"--from={start!r}", f"--to={stop!r}", "--steps", "101"]
    ns = parse_cli(argv + [f"--{k}={v!r}" for k, v in flags.items()])
    if (axis == "delta" and "delta" not in flags
            or axis == "gamma" and family != "squeezed-cat"):
        return ns, None
    return ns, SweepSpec(axis, start, stop, 101).values.tolist()


QUADRATURE = ["--method=quadrature", "--phi=3"]
# (family, axis, flags, good value, bad value): each rule a sweep axis
# reaches, and a family or flag its axis does not apply to
FIRST_FAILURES = [
    ("twin-beam", "r", [], 0.5, -0.5),
    ("photon-subtracted", "r", [], 0.5, -0.5),
    ("buridan", "tau", ["--delta=0.4"], 0.3, -0.1),
    ("twin-beam", "nth", [], 0.1, -0.1),
    ("squeezed-bell", "r2", ["--delta=0.4"], 0.1, 1.0),
    ("twin-beam", "r2", ["--sigma=10"], 0.1, 1.5),
    ("twin-beam", "gain", [], 1.0, 0.0),
    ("squeezed-cat", "gain", ["--sigma=10"], 1.0, -1.0),
    ("twin-beam", "sigma", [], 1.0, 0.0),
    ("squeezed-cat", "delta", ["--gamma-mod=0"], 0.3, -math.pi / 4),
    ("squeezed-cat", "gamma", ["--delta=0.3"], 0.5, -0.5),
    ("twin-beam", "delta", [], 0.3, 0.4),
    ("buridan", "gamma", ["--delta=0.4"], 0.3, 0.4),
    # the quadrature route, off the closed phases
    ("squeezed-bell", "r2", ["--delta=0.4", *QUADRATURE], 0.1, 1.0),
    ("twin-beam", "r", QUADRATURE, 0.5, -0.5),
    ("squeezed-cat", "delta", ["--gamma-mod=0", *QUADRATURE], 0.3,
     -math.pi / 4),
]


def _csv(table):
    buffer = io.StringIO()
    cli._write_table(buffer, table)
    return buffer.getvalue()


class TestClosedSweepColumn:
    """A sweep evaluates its closed rows in one kernel call: each row
    must be its one-point fidelity_closed or average_fidelity, to the
    bit, and the sweep must fail as row by row would."""

    @pytest.mark.parametrize("family,axis,averaged", SWEEP_CASES)
    def test_rows_are_one_point_calls(self, family, axis, averaged):
        """Every written cell, the echoed inputs too, is the cell of the
        row's one-point inputs and evaluation."""
        ns, values = _sweep_case(family, axis, averaged)
        if values is None:
            with pytest.raises(ParameterError, match="does not apply"):
                cli._run_sweep(ns)
            return
        rows = list(csv.reader(io.StringIO(_csv(cli._run_sweep(ns)))))
        assert rows[0] == list(CSV_HEADER) and len(rows) == len(values) + 1
        for row, value in zip(rows[1:], values):
            spec, noise, gain, at = cli._point_inputs(ns, {axis: value})
            prior = isinstance(at, AlphabetPrior)
            rep = (average_fidelity(spec, noise, gain, at) if prior
                   else fidelity_closed(spec, noise, gain, at))
            cells = [spec.r, noise.tau, noise.n_th, noise.r2,
                     gain.gain(noise), None, None, at.sigma if prior
                     else None, None if prior else at.real,
                     None if prior else at.imag]
            assert row == [family, *("" if c is None else "%.12g" % c
                                     for c in cells),
                           "closed", "%.12g" % rep.value]

    def test_first_failing_row_sets_the_exit(self, tmp_path, capsys):
        """R^2 = 1, the last row, is bad input: exit 2 with its message,
        and no CSV."""
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--resource", "twin-beam", "--r", "0.8",
                     "--vary", "r2", "--from", "0", "--to", "1", "--steps",
                     "5", "--output", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "telefid: reflectivity R^2 must lie in [0, 1), got 1.0\n")
        assert not path.exists()

    @pytest.mark.parametrize("family,axis,averaged", SWEEP_CASES)
    def test_reused_inputs_are_fresh_inputs(self, family, axis, averaged,
                                            monkeypatch):
        """A sweep builds as a column only the input its axis enters: row
        i of the one kernel call's inputs equals the row's inputs built
        from scratch, and every other input is one point for all the
        rows."""
        ns, values = _sweep_case(family, axis, averaged)
        if values is None:
            with pytest.raises(ParameterError, match="does not apply"):
                cli._run_sweep(ns)
            return
        calls = []
        for name, real in (("fidelity_closed", fidelity_closed),
                           ("average_fidelity", average_fidelity)):
            monkeypatch.setattr(cli, name, lambda *a, real=real: (
                calls.append(a) or real(*a)))
        cli._run_sweep(ns)
        (inputs,) = calls
        columns = [_rows(x, len(values)) for x in inputs]
        for row, value in zip(zip(*columns), values):
            assert row == cli._point_inputs(ns, {axis: value})
        swept = {"tau": 1, "nth": 1, "r2": 1, "gain": 2, "sigma": 3,
                 "beta_re": 3, "beta_im": 3}.get(axis, 0)
        for k, x in enumerate(inputs):
            fields = ([x] if k == 3 and not isinstance(x, AlphabetPrior)
                      else vars(x).values())
            assert (k == swept) == any(np.ndim(v) for v in fields)

    def test_quadrature_rows_reuse_inputs(self, monkeypatch):
        """Off the closed phases a block is one quadrature call: row i of
        its inputs is row i's inputs as built from scratch, the unswept
        spec and gain are the point objects, and each fidelity is its
        row's one-point quadrature."""
        ns = parse_cli(["sweep", "--resource", "squeezed-bell", "--r",
                        "0.6", "--delta", "0.4", "--phi", "3", "--method",
                        "quadrature", "--vary", "r2", "--from", "0", "--to",
                        "0.2", "--steps", "3"])
        calls = []
        monkeypatch.setattr(cli, "fidelity_quadrature", lambda *a: (
            calls.append(a) or fidelity.fidelity_quadrature(*a)))
        table = cli._run_sweep(ns)
        assert table["method"] == "quadrature" and len(calls) == 1
        (inp, spec, noise, gain), = calls
        assert not any(np.ndim(v) for x in (inp, spec, gain)
                       for v in vars(x).values())
        values = SweepSpec("r2", 0.0, 0.2, 3).values.tolist()
        for row, value, got in zip(zip(*(_rows(x, 3) for x in calls[0])),
                                   values, table["fidelity"].tolist()):
            at_spec, at_noise, at_gain, at = cli._point_inputs(
                ns, {"r2": value})
            point = (CoherentInput(at), at_spec, at_noise, at_gain)
            assert row == point
            assert got == fidelity.fidelity_quadrature(*point).value

    def test_degenerate_cat_row_sets_the_exit(self, tmp_path, capsys):
        """delta = -pi/4 at gamma 0 leaves the cat's core no norm: the
        row's spec, the input a delta sweep rebuilds, exits 2 with its
        message, and no CSV."""
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--resource", "squeezed-cat", "--r", "0.8",
                     "--gamma-mod", "0", "--vary", "delta",
                     f"--from={-math.pi / 2!r}", "--to", "0", "--steps",
                     "3", "--output", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "telefid: squeezed-cat core superposition is degenerate "
            "(squared norm 0.000e+00)\n")
        assert not path.exists()

    def test_first_failing_row_is_a_numerical_fault(
            self, tmp_path, capsys, monkeypatch):
        """A kernel fault of a row before a bad input exits 4, as row by
        row: here rows 2 and 3 are NaN, g~ = 2 sqrt(1 - R^2) < 1.5, and
        row 4, R^2 = 1, is bad input."""
        real = fidelity._bell_form

        def form(family, gt, *args):
            f = real(family, gt, *args)
            return f._replace(a=np.where(gt < 1.5, math.nan, f.a))

        monkeypatch.setattr(fidelity, "_bell_form", form)
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--resource", "twin-beam", "--r", "0.8",
                     "--gain", "2", "--vary", "r2", "--from", "0", "--to",
                     "1", "--steps", "5", "--output", str(path)])
        assert code == 4
        assert capsys.readouterr().err == (
            "telefid: twin-beam closed form is nan at r = 0.8\n")
        assert not path.exists()

    def test_blocks_are_one_column(self, monkeypatch):
        """Blocks of 3 rows: the rows of the one-block sweep, and one
        kernel call per block."""
        argv = ["sweep", "--resource", "squeezed-bell", "--r", "0.8",
                "--delta", "0.4", "--sigma", "10", "--vary", "gain",
                "--from", "0.5", "--to", "1.5", "--steps", "8"]
        whole = _csv(cli._run_sweep(parse_cli(argv)))
        calls = []
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        monkeypatch.setattr(cli, "average_fidelity",
                            lambda *a: calls.append(a) or average_fidelity(*a))
        assert _csv(cli._run_sweep(parse_cli(argv))) == whole
        assert [len(a[2].g) for a in calls] == [3, 3, 2]

    def test_a_block_fault_before_a_bad_row(self, monkeypatch, capsys):
        """A NaN in the first block exits 4 though a later block holds
        bad input (R^2 = 1), as row by row."""
        real = fidelity._bell_form

        def form(family, gt, *args):
            f = real(family, gt, *args)
            return f._replace(a=np.where(gt < 1.1, math.nan, f.a))

        monkeypatch.setattr(fidelity, "_bell_form", form)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 2)
        assert main(["sweep", "--resource", "twin-beam", "--r", "0.8",
                     "--gain", "1", "--vary", "r2", "--from", "0", "--to",
                     "1", "--steps", "5"]) == 4
        assert capsys.readouterr().err == (
            "telefid: twin-beam closed form is nan at r = 0.8\n")

    @pytest.mark.parametrize("family,axis,flags,good,bad", FIRST_FAILURES)
    def test_first_bad_row_past_a_block(self, family, axis, flags, good,
                                        bad, monkeypatch, capsys):
        """Blocks of 2 rows and a bad row 5 of 7: the column's checks
        find it, the five rows before it are evaluated, and the exit and
        message are those of building row 5's inputs alone."""
        values = np.array([good] * 5 + [bad, good])
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 2)
        monkeypatch.setattr(cli.SweepSpec, "values",
                            property(lambda _: values))
        argv = ["sweep", "--resource", family, "--vary", axis, "--from",
                "0", "--to", "1", "--steps", "7", "--r=0.8", *flags]
        with pytest.raises(ParameterError) as alone:
            cli._point_inputs(parse_cli(argv), {axis: bad})
        evaluated = []

        def count(real):
            def call(*args):
                rep = real(*args)
                evaluated.append(np.size(rep.value))
                return rep
            return call

        for name in ("fidelity_closed", "average_fidelity",
                     "fidelity_quadrature"):
            monkeypatch.setattr(cli, name, count(getattr(cli, name)))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"telefid: {alone.value}\n"
        applies = "does not apply" not in str(alone.value)
        assert sum(evaluated) == (5 if applies else 0)

    def test_quadrature_fault_past_a_block(self, tmp_path, capsys,
                                           monkeypatch):
        """Blocks of 2 rows, one lockstep integration each, and a
        quadrature that fails on row 3 of 7, in the second block: exit 4
        with its message, and no CSV."""
        real, blocks = fidelity.integrate_adaptive, []

        def integrate(f, rate):
            blocks.append(len(rate))
            if len(blocks) == 2:
                raise QuadratureError("no convergence on row 3")
            return real(f, rate)

        monkeypatch.setattr(fidelity, "integrate_adaptive", integrate)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 2)
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--resource", "twin-beam", "--r", "0.8",
                     *QUADRATURE, "--vary", "tau", "--from", "0", "--to",
                     "0.6", "--steps", "7", "--output", str(path)]) == 4
        assert capsys.readouterr().err == (
            "telefid: no convergence on row 3\n")
        assert blocks == [2, 2] and not path.exists()

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_no_object_per_row(self, axis, monkeypatch):
        """A 1,000-row squeezed-cat sweep builds as many inputs and
        reports as a 10-row one."""
        counts = {}

        def count(cls, name):
            real = getattr(cls, name)

            def wrapped(self, *args, **kwargs):
                counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
                return real(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapped)

        for cls in (ResourceSpec, NoiseParams, GainSetting, AlphabetPrior):
            count(cls, "__post_init__")
        count(FidelityReport, "__init__")
        flags = ["--r=0.8", "--delta=0.4", "--gamma-mod=1.1", "--gain=1.3"]
        if axis not in ("sigma", "beta_re", "beta_im"):
            flags.append("--sigma=10")
        built = []
        for steps in ("10", "1000"):
            counts.clear()
            cli._run_sweep(parse_cli([
                "sweep", "--resource", "squeezed-cat", "--vary", axis,
                "--from", "0.1", "--to", "0.5", "--steps", steps, *flags]))
            built.append(dict(counts))
        assert built[0] == built[1]
        assert set(built[0]) >= {"ResourceSpec", "NoiseParams",
                                 "FidelityReport"}

    def test_averaged_sweep_memory_is_one_block(self):
        """8,000 averaged Bell rows: the 60-node sums of 2,048 rows at a
        time take about 4 MB beyond the rows, where one column of all
        the rows took 15 MB."""
        ns = parse_cli(["sweep", "--resource", "twin-beam", "--r", "0.8",
                        "--sigma", "10", "--vary", "gain", "--from", "0.5",
                        "--to", "1.5", "--steps", "8000"])
        tracemalloc.start()
        try:
            table = cli._run_sweep(ns)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table["fidelity"]) == 8000
        assert peak - held < 8e6


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

    @pytest.mark.parametrize("argv", [
        ["figure", "--figure", "4"],
        ["optimize", "--resource", "squeezed-cat", "--r", "0.8", "--tau",
         "0.3", "--r2", "0.05", "--sigma", "10", "--beta-re", "1"],
        ["sweep", "--resource", "buridan", "--r", "0.8", "--delta", "0.4",
         "--vary", "gain", "--from", "0.5", "--to", "1.5", "--steps", "5",
         "--sigma", "10"],
    ], ids=["figure", "optimize", "sweep"])
    def test_output_leaves_stdout_and_stderr_empty(self, argv, tmp_path,
                                                   capfd):
        """With --output the CSV goes to the file alone: a caller that
        reads stdout, as a benchmark reads its last line, sees nothing
        else."""
        path = tmp_path / "out.csv"
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8").startswith(
            ",".join(CSV_HEADER) + "\n")
        assert capfd.readouterr() == ("", "")

    def test_emit_csv_stdout(self, capsys):
        emit_csv({"resource": "twin-beam", "r": 1.0, "fidelity": [0.5]})
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_HEADER) + "\n")
        assert "twin-beam,1,,,,,,,,,,,0.5" in out

    def test_constant_column_keeps_negative_zero(self, capsys):
        """beta_im, constant, is -0 in every row; the swept beta_re
        starts at 0."""
        code = main(["sweep", "--resource", "twin-beam", "--r", "0.8",
                     "--vary", "beta_re", "--from", "0", "--to", "1",
                     "--steps", "3", "--beta-im=-0.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["beta_im"] for row in rows] == ["-0"] * 3
        assert rows[0]["beta_re"] == "0"

    def test_stdout_is_the_output_file(self, tmp_path, capsys):
        """Without --output a sweep writes its file's bytes to stdout;
        here the gain column, 1/T of the swept R^2, is a list."""
        argv = ["sweep", "--resource", "squeezed-cat", "--r", "0.7",
                "--delta", "0.3", "--gamma-mod", "0.6", "--beta-re", "0.5",
                "--vary", "r2", "--from", "0", "--to", "0.4", "--steps", "5"]
        path = tmp_path / "sweep.csv"
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main(argv + ["--output", str(path)]) == 0
        assert path.read_bytes() == out.encode()
        assert len(set(row.split(",")[5] for row in out.splitlines())) == 6

    def test_edge_cells(self):
        """Float arrays and lists format as %.12g, signed zero and
        subnormals too, and a joined list column leaves None empty."""
        floats = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e-05,
                  123456789012.5]
        cells = ["-0", "4.94065645841e-324", "1.79769313486e+308", "0.3",
                 "1e-05", "123456789012"]
        twin = {"resource": "twin-beam", "r": np.array(floats[:3]),
                "tau": floats[:3], "delta_opt": [None] * 3,
                "fidelity": np.array(floats[:3])}
        bell = {"resource": "squeezed-bell", "r": np.array(floats[3:]),
                "tau": floats[3:], "delta_opt": [0.5, -0.0, None],
                "fidelity": np.array(floats[3:])}
        joined = cli._concat([twin, bell])
        assert joined["r"].dtype == float
        assert joined["delta_opt"].dtype == object
        for table in (joined, {**joined, "r": floats}):
            rows = list(csv.reader(io.StringIO(_csv(table))))[1:]
            assert [row[1] for row in rows] == cells
            assert [row[2] for row in rows] == cells
            assert [row[12] for row in rows] == cells
            assert [row[6] for row in rows] == ["", "", "", "0.5", "-0", ""]
            assert [row[0] for row in rows] == (["twin-beam"] * 3
                                                + ["squeezed-bell"] * 3)

    def test_twelve_significant_digits(self):
        buffer = io.StringIO()
        cli._write_table(buffer, {"resource": "twin-beam",
                                  "fidelity": [2.0 / 3.0]})
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
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the command line, as the bench's setup time does, holds no
    top-level package a bare one lacks outside the standard library,
    numpy and telefid; none of the test or oracle tools (scipy, mpmath,
    hypothesis, pytest) loads, which would slow every start."""
    src = os.path.dirname(os.path.dirname(telefid.__file__))

    def roots(imports):
        code = (f"import sys\n{imports}\n"
                "print(' '.join(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        return {name.split(".")[0] for name in out.split()}

    new = roots("from telefid.cli_sweep import main") - roots("")
    assert "telefid" in new
    assert new - set(sys.stdlib_module_names) == {"numpy", "telefid"}
    assert not new & {"scipy", "mpmath", "hypothesis", "pytest"}


def test_python_m_telefid_runs_the_cli():
    """python -m telefid runs the command line, with no warning."""
    src = os.path.dirname(os.path.dirname(telefid.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "telefid", "fidelity", "--resource",
         "twin-beam", "--r", "1", "--gain", "1"], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, IDEAL_ROW.rsplit(",", 1)[1] + "\n", "")


def test_python_m_cli_sweep_runs_the_cli():
    """python -m telefid.cli_sweep prints what python -m telefid prints,
    with no runpy warning: the package imports its command line only on
    first use of one of its names."""
    src = os.path.dirname(os.path.dirname(telefid.__file__))
    done = [subprocess.run(
        [sys.executable, "-m", module, "fidelity", "--resource",
         "twin-beam", "--r", "1", "--gain", "1"], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
        for module in ("telefid.cli_sweep", "telefid")]
    assert [(d.returncode, d.stderr) for d in done] == [(0, ""), (0, "")]
    assert done[0].stdout == done[1].stdout == (
        IDEAL_ROW.rsplit(",", 1)[1] + "\n")


def test_package_imports_no_oracle():
    """No module of the package names the bench's reference values,
    workloads or tracer, or the tests' oracles, in any import statement,
    at the top or inside a function: a result that imported its oracle
    would agree with it by construction."""
    checkers = {"reference", "workloads", "tracing", "oracles"}
    pkg = os.path.dirname(telefid.__file__)
    paths = sorted(os.path.join(pkg, f) for f in os.listdir(pkg)
                   if f.endswith(".py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            names = [alias.name for alias in getattr(node, "names", ())]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            elif not isinstance(node, ast.Import):
                continue
            found += [(os.path.basename(path), name) for name in names
                      if checkers & set(name.split("."))]
    assert found == []


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _run(argv):
    """Exit code, stdout and stderr of main(argv). A traceback or a
    numpy RuntimeWarning, which pytest raises, fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 1000.0),
    delta=FINITE,
    gamma=st.floats(0.0, 1e300),
    g=st.floats(1e-3, 1e3),
    beta_re=st.floats(-1e300, 1e300),
    beta_im=st.floats(-1e300, 1e300),
    tau=st.floats(0.0, 50.0),
    nth=st.floats(0.0, 10.0),
    r2=st.floats(0.0, 0.99),
    sigma=st.none() | st.floats(1e-3, 1e6),
)
@example(family="squeezed-cat", r=1.0, delta=1e308, gamma=0.0, g=1.0,
         beta_re=0.0, beta_im=0.0, tau=0.0, nth=0.0, r2=0.0, sigma=None)
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
    code, out, err = _run(argv)
    assert code in (0, 4), err
    if code == 0:
        assert 0.0 <= float(out) <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 3.0),
    tau=st.floats(0.0, 2.0),
    sigma=st.floats(1e-3, 1e6),
    beta_re=FINITE,
    beta_im=FINITE,
)
@example(family="twin-beam", r=0.5, tau=0.0, sigma=3.0, beta_re=1e308,
         beta_im=0.0)
@example(family="twin-beam", r=0.0, tau=0.0, sigma=1.0,
         beta_re=1.2711610061536462e+308, beta_im=1.2711610061536464e+308)
def test_one_shot_command_over_any_amplitude(family, r, tau, sigma,
                                             beta_re, beta_im):
    """The one-shot value at a prior-averaged optimum exits 0 with a
    fidelity in [0, 1], or 2 outside the prior's numerical support, at
    every finite amplitude."""
    code, out, err = _run(["optimize", f"--resource={family}", f"--r={r!r}",
                           f"--tau={tau!r}", f"--sigma={sigma!r}",
                           f"--beta-re={beta_re!r}",
                           f"--beta-im={beta_im!r}"])
    assert code in (0, 2), err
    if code == 0:
        assert 0.0 <= float(out.split(",")[-1]) <= 1.0 + 1e-9
    else:
        assert "numerical support" in err


@settings(max_examples=10, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    r=st.floats(0.0, 8.0),
    phi=st.floats(-math.pi, math.pi),
    delta=st.floats(-math.pi, math.pi),
    theta=st.floats(-math.pi, math.pi),
    gamma=st.floats(0.0, sys.float_info.max),
    g=st.floats(0.1, 3.0),
    beta_re=st.floats(-3.5, 3.5),
    beta_im=st.floats(-3.5, 3.5),
    tau=st.floats(0.0, 2.0),
    r2=st.floats(0.0, 0.5),
)
@example(family="squeezed-cat", r=0.5, phi=math.pi, delta=0.3, theta=0.0,
         gamma=1e155, g=1.0, beta_re=0.0, beta_im=0.0, tau=0.0, r2=0.0)
def test_quadrature_command_over_the_domain(family, r, phi, delta, theta,
                                            gamma, g, beta_re, beta_im,
                                            tau, r2):
    """At any phases, r <= 8, |beta| <= 5 and any cat amplitude, the
    quadrature route exits 0 with a fidelity in [0, 1] or 4 when it does
    not converge."""
    argv = ["fidelity", "--method=quadrature", f"--resource={family}",
            f"--r={r!r}", f"--phi={phi!r}", f"--tau={tau!r}",
            f"--r2={r2!r}", f"--gain={g!r}", f"--beta-re={beta_re!r}",
            f"--beta-im={beta_im!r}"]
    if family in ("squeezed-bell", "buridan", "squeezed-cat"):
        argv += [f"--delta={delta!r}", f"--theta={theta!r}"]
    if family == "squeezed-cat":
        argv.append(f"--gamma-mod={gamma!r}")
    code, out, err = _run(argv)
    assert code in (0, 4), err
    if code == 0:
        assert 0.0 <= float(out) <= 1.0 + 1e-9
