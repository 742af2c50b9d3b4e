"""Command-line surface: exit codes, text output, JSON envelope, warnings."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
import typing
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import mldeg
from mldeg import catalog, cli, roots
from mldeg.catalog import CatalogRowResult, load_catalog
from mldeg.intpoly import VarContext
from mldeg.model import (
    EquilibriumConstant,
    UnsupportedReactionError,
    build_model,
    build_parameterization,
)
from mldeg.reaction import parse_reaction

from reference import model_poly, reference_args


# Every command compiles cli.py, the largest module on the engine's path:
# without a bytecode cache (PYTHONDONTWRITEBYTECODE) a cold command
# compiles it from source, certify inside its first timed job.  The pin
# bounds its syntax tree, not that compile's peak memory, which grows with
# the parser's token count (printed by CI's size step) and not with the
# node count; keep the tree no larger than it is.
CLI_AST_NODE_BUDGET = 3306


def test_cli_module_stays_within_its_ast_node_budget():
    src = Path(cli.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= CLI_AST_NODE_BUDGET


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["parse", "A + <-> B"])
        assert code == 2
        assert "parse error" in err

    def test_parse_error_on_non_ascii_digit(self, capsys):
        assert run(capsys, ["parse", "٣A <-> B"]) == (
            2, "", "parse error: unrecognized token '٣' at offset 0\n")

    def test_parse_error_on_over_long_coefficient(self, capsys):
        assert run(capsys, ["parse", "1" * 5000 + "A <-> B"]) == (
            2, "", "parse error: coefficient longer than 4300 digits at offset 0\n")

    def test_unsupported_shape(self, capsys):
        code, _, err = run(capsys, ["ml-degree", "A + B <-> 2C + D"])
        assert code == 3
        assert "unsupported reaction shape" in err
        assert "(I)" in err

    def test_curve_method_needs_three_species(self, capsys):
        code, _, err = run(
            capsys, ["ml-degree", "A + B <-> C + D", "--method", "curve"]
        )
        assert code == 3
        assert "exactly 3 species" in err

    def test_mle_zero_counts(self, capsys):
        code, _, err = run(
            capsys, ["mle", "A + B <-> 2C", "--ke", "4", "--counts", "0,1,1"]
        )
        assert code == 5
        assert "invalid input for mle" in err

    @pytest.mark.parametrize("counts", [["--counts=-1,2,3"], ["--counts", "-1,2,3"],
                                        ["--co", "-1,2,3"]])
    def test_mle_negative_count(self, capsys, counts):
        # malformed input, as for ml-degree; a zero count among positive
        # ones is what has no estimate.  The flag takes the next token, "-1,2,3" too, as its value
        code, _, err = run(capsys, ["mle", "A + B <-> 2C", "--ke", "4"] + counts)
        assert code == 2
        assert "invalid input for mle: counts must be nonnegative" in err

    def test_ml_degree_negative_count_as_separate_token(self, capsys):
        code, out, err = run(capsys, ["ml-degree", "A + B <-> 2C", "--counts", "-1,2,3"])
        assert (code, out) == (2, "")
        assert "counts must be nonnegative" in err

    def test_mle_generic_ke(self, capsys):
        code, _, err = run(capsys, ["mle", "A <-> B", "--counts", "1,1"])
        assert code == 5
        assert "numeric K_e" in err

    def test_mle_one_way_arrow(self, capsys):
        # malformed input, as for model and ml-degree: no estimate is asked for
        code, _, err = run(capsys, ["mle", "A -> B", "--ke", "2", "--counts", "1,2"])
        assert code == 2
        assert "equilibrium reaction" in err

    def test_mle_reserved_species_name(self, capsys):
        code, _, err = run(
            capsys, ["mle", "A + lam <-> C", "--ke", "2", "--counts", "1,2,3"]
        )
        assert code == 2
        assert "reserved" in err

    def test_mle_wrong_number_of_counts(self, capsys):
        code, _, err = run(
            capsys, ["mle", "A + B <-> C", "--ke", "2", "--counts", "1,2"]
        )
        assert code == 2
        assert "got 2 counts for 3 species" in err

    @pytest.mark.parametrize("extra", [[], ["--output", "json"], ["--method", "both"],
                                       ["--method", "curve"]])
    @pytest.mark.parametrize("text, counts, message", [
        ("A + B <-> C + D", "1,2", "got 2 counts for 4 species"),
        ("A + B <-> C + D", "1,2,3,4,5,6,7", "got 7 counts for 4 species"),
        ("A + B <-> 2C", "1,2", "got 2 counts for 3 species"),
        ("2A <-> 3B", "1,2,3", "got 3 counts for 2 species"),
    ])
    def test_ml_degree_wrong_number_of_counts(self, capsys, text, counts, message, extra):
        # checked for every shape, the Segre closed form included, and for
        # every method, the curve method too, which reads no counts
        code, out, err = run(capsys, ["ml-degree", text, "--counts", counts] + extra)
        assert code == 2 and out == ""
        assert message in err

    # a command line with several faults reports the first of: the
    # reaction's parse error, a bad K_e, a model fault, a bad count (which
    # model does not take)
    FAULTS = {
        "parse error": ("A + <-> B", "x", "-1,2,3", "parse error: empty term at offset 4"),
        "bad K_e": ("A + B -> C", "x", "-1,2,3", "invalid input for {}: cannot read "
                    "equilibrium constant 'x': expected a rational number or 'generic'"),
        "one-way arrow": ("A + B -> C", "2", "-1,2,3", "invalid input for {}: model requires "
                          "an equilibrium reaction (arrow <->)"),
        "reserved name": ("A + lam <-> C", "2", "1,2", "invalid input for {}: species name "
                          "'lam' is reserved for internal symbols"),
        "bad count": ("A + B <-> C", "2", "-1,2,3",
                      "invalid input for {}: counts must be nonnegative"),
    }

    @pytest.mark.parametrize("command, text, ke, counts, message", [
        pytest.param(command, *fault, id=f"{command}, {name}")
        for name, fault in FAULTS.items() for command in ("model", "ml-degree", "mle")
        if command != "model" or name != "bad count"])
    def test_fault_order(self, capsys, command, text, ke, counts, message):
        argv = [command, text, "--ke", ke] + (["--counts", counts] if command != "model" else [])
        assert run(capsys, argv) == (2, "", message.format(command) + "\n")

    @pytest.mark.parametrize("command", ["ml-degree", "mle"])
    @pytest.mark.parametrize("counts, message", [
        ("-1,2,3", "counts must be nonnegative"), ("0,0,0", "sample size must be positive"),
        ("1,2", "got 2 counts for 3 species"), ("0,0", "sample size must be positive")])
    def test_bad_counts_read_alike(self, capsys, command, counts, message):
        # both commands check counts with model.checked_counts: each fault
        # is malformed input, in the same words, the first in the order
        # nonnegative, a positive sum, one per species
        argv = [command, "A + B <-> 2C", "--ke", "4", "--counts", counts]
        assert run(capsys, argv) == (2, "", f"invalid input for {command}: {message}\n")

    def test_mle_zero_among_positive_counts_has_no_estimate(self, capsys):
        argv = ["mle", "A + B <-> 2C", "--ke", "4", "--counts", "0,1,2"]
        assert run(capsys, argv) == (
            5, "", "invalid input for mle: observation counts must be positive in numeric paths\n")

    @pytest.mark.parametrize("method", ["faithful", "curve", "both"])
    @pytest.mark.parametrize("counts, message", [
        ("-1,2,3", "counts must be nonnegative"), ("0,0,0", "sample size must be positive")])
    def test_ml_degree_bad_counts_under_every_method(self, capsys, method, counts, message):
        # checked before either route runs, the curve route too, which reads
        # no counts
        argv = ["ml-degree", "A + B <-> 2C", "--method", method, "--counts", counts]
        assert run(capsys, argv) == (2, "", f"invalid input for ml-degree: {message}\n")

    def test_mle_ke_beyond_float_range(self, capsys):
        # float(K_e) overflows; the estimate 1 / (1 + K_e) is a subnormal
        ke = 10**309
        code, out, _ = run(capsys, ["mle", "A <-> B", "--ke", "1e309", "--counts", "3,5",
                                    "--output", "json"])
        assert code == 0
        record = json.loads(out)
        expected = (Fraction(1, 1 + ke), Fraction(ke, 1 + ke))
        assert record["optimum"] == [f"{float(p):.18g}" for p in expected]
        assert record["observed_ml_count"] == 1
        assert 0 <= record["residual_max"] < 1e-14
        # the square of the coordinate 1e-200 underflows in floats
        code, out, _ = run(capsys, ["mle", "2A <-> B", "--ke", "1e400", "--counts", "3,5",
                                    "--output", "json"])
        assert code == 0
        assert 0 <= json.loads(out)["residual_max"] < 1e-14

    def test_mle_counts_beyond_float_range(self, capsys, monkeypatch):
        # the log likelihood needs the counts as floats: counts beyond them
        # fail before the estimate is searched for
        from mldeg import mle

        def unexpected(*args):
            raise AssertionError("the estimate was searched for")

        monkeypatch.setattr(mle, "_bisect_optimum", unexpected)
        counts = ",".join(str(10**400 + k) for k in (1, 2, 3))
        code, out, err = run(capsys, ["mle", "A + B <-> 2C", "--ke", "11/13", "--counts", counts])
        assert (code, out) == (5, "")
        assert err == ("numeric failure: count 1 (401 digits) is beyond the float range, "
                       "so the log likelihood has no float value\n")

    def test_mle_optimum_below_float_range(self, capsys):
        # well-formed input whose estimate has a coordinate below the
        # smallest positive float
        code, _, err = run(
            capsys, ["mle", "A + B <-> C", "--ke", "1e-400", "--counts", "3,5,7"]
        )
        assert code == 5
        assert "outside the float range" in err
        assert "invalid input" not in err

    def test_bad_counts_flag(self, capsys):
        code, _, _ = run(
            capsys, ["mle", "A <-> B", "--ke", "2", "--counts", "a,b"]
        )
        assert code == 2

    @pytest.mark.parametrize("counts", ["٣,4,5", "1_0,4,5", "3,4,٥", "", ","])
    def test_counts_flag_takes_ascii_digits_only(self, capsys, counts):
        # as the reaction grammar does; int() alone reads both.  An empty
        # flag splits into one empty part, which is no integer either
        code, out, err = run(capsys, ["mle", "A + B <-> 2C", "--ke", "4", "--counts", counts])
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: argument --counts: --counts expects comma-separated integers, got {counts!r}\n")

    def test_counts_flag_keeps_signs_and_spaces(self, capsys):
        argv = ["mle", "A + B <-> 2C", "--ke", "4", "--counts"]
        assert run(capsys, argv + [" 3, +4 ,5"]) == run(capsys, argv + ["3,4,5"])
        assert "u: 3, 4, 5\n" in run(capsys, argv + ["3,4,5"])[1]

    @pytest.mark.parametrize("ke", ["1/٣", "٣", "-٣", "1_000", "1/1_0", "1.5_0"])
    @pytest.mark.parametrize("command", ["ml-degree", "model"])
    def test_ke_flag_takes_ascii_digits_only(self, capsys, command, ke):
        # as the reaction grammar does; Fraction alone reads both
        assert run(capsys, [command, "A + B <-> 2C", "--ke", ke]) == (
            2, "", f"invalid input for {command}: cannot read equilibrium constant {ke!r}: "
            "expected a rational number or 'generic'\n")

    @pytest.mark.parametrize("ke, value", [
        ("1.5", "3/2"), ("-0.25", "-1/4"), ("2e1", "20"), (".5", "1/2"), (" 7/3 ", "7/3")])
    def test_ke_flag_keeps_decimal_forms(self, capsys, ke, value):
        code, out, _ = run(capsys, ["model", "A + B <-> 2C", "--ke", ke])
        assert code == 0
        assert f"\nK_e: {value}\n" in out

    @pytest.mark.parametrize("ke", ["1e5000", "1e10000000", "1" * 4400],
                             ids=["1e5000", "1e10000000", "4400 digits"])
    @pytest.mark.parametrize("command", ["model", "ml-degree", "mle"])
    def test_ke_past_digit_limit_named(self, capsys, command, ke):
        # refused as it is read, echoing no digit; Python refused to print
        # 1e5000, and mle found it outside the float range (exit 5)
        argv = [command, "A <-> B", "--ke", ke] + ["--counts", "3,5"] * (command == "mle")
        assert run(capsys, argv) == (
            2, "", f"invalid input for {command}: equilibrium constant has a numerator, "
            "denominator or exponent longer than 4300 digits\n")

    @pytest.mark.parametrize("ke, value", [
        ("9" * 4300, "9" * 4300), ("1e4299", "1" + "0" * 4299),
        ("-1/" + "7" * 4300, "-1/" + "7" * 4300)], ids=["4300 digits", "1e4299", "1/4300 digits"])
    def test_ke_at_digit_limit_printed(self, capsys, ke, value):
        code, out, _ = run(capsys, ["model", "A <-> B", "--ke", ke])
        assert code == 0
        assert f"\nK_e: {value}\n" in out

    def test_missing_subcommand(self, capsys):
        assert run(capsys, [])[0] == 2

    def test_flags_outside_their_command_rejected(self, capsys):
        # no command takes a tolerance; parse and catalog take no K_e
        for argv in (["parse", "A <-> B"], ["model", "A <-> B"],
                     ["ml-degree", "A <-> B"], ["catalog"],
                     ["mle", "A <-> B", "--ke", "2", "--counts", "3,5"]):
            assert run(capsys, argv + ["--tol-residual", "1e-6"])[0] == 2
            assert run(capsys, argv + ["--tol-cluster", "1e-6"])[0] == 2
        assert run(capsys, ["parse", "A <-> B", "--ke", "4"])[0] == 2
        assert run(capsys, ["catalog", "--ke", "4"])[0] == 2

    def test_catalog_mismatch_exit(self, capsys, monkeypatch):
        entry = load_catalog()[0]
        forced = CatalogRowResult(entry, {}, False, False, "forced mismatch")
        monkeypatch.setattr(catalog, "evaluate_catalog", lambda: [forced])
        code, out, _ = run(capsys, ["catalog"])
        assert code == 6
        assert "MISMATCH" in out
        assert "CONFIRMED ROW MISMATCH" in out


class TestVersion:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0
        assert out.strip() == "mldeg 0.1.0"

    def test_console_script_installed(self):
        exe = shutil.which("mldeg")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "mldeg 0.1.0"

    def test_package_import_loads_no_engine_module(self):
        src = str(Path(mldeg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, mldeg; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('mldeg.'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == ["mldeg._version"]

    def test_catalog_loads_no_estimator(self):
        # only the mle command imports mldeg.mle, so the other commands do
        # not compile it
        src = str(Path(mldeg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys\n"
            "import mldeg.cli\n"
            "code = mldeg.cli.main(['catalog'])\n"
            "print(code, 'mldeg.mle' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["0", "False"]

    # a cold interpreter without a bytecode cache compiles every module it
    # loads, so each path loads only the engine modules it runs
    LIBRARY_PATHS = {
        "count": (
            "from mldeg.critical import faithful_report\n"
            "from mldeg.model import EquilibriumConstant, build_model\n"
            "from mldeg.reaction import parse_reaction\n"
            "model = build_model(parse_reaction('A + 2B <-> C'), EquilibriumConstant.parse('7/3'))\n"
            "code = faithful_report(model).parameter_space_count\n",
            "3", {"critical", "intpoly", "model", "reaction"}),
        "estimate": (
            "from mldeg.mle import maximize_likelihood, mle_record\n"
            "from mldeg.model import EquilibriumConstant, build_model\n"
            "from mldeg.reaction import parse_reaction\n"
            "model = build_model(parse_reaction('A + 2B <-> C'), EquilibriumConstant.parse('7/3'))\n"
            "result = maximize_likelihood(model, (3, 5, 7))\n"
            "code = mle_record(model, (3, 5, 7), result)['observed_ml_count']\n",
            "3", {"intpoly", "mle", "model", "reaction"}),
        "variety": (
            "from mldeg.curve import curve_from_model\n"
            "from mldeg.model import EquilibriumConstant, build_model\n"
            "from mldeg.reaction import parse_reaction\n"
            "from mldeg.variety import count_critical_points_variety\n"
            "model = build_model(parse_reaction('A + 2B <-> C'), EquilibriumConstant.parse('7/3'))\n"
            "code = count_critical_points_variety(curve_from_model(model), (3, 5, 7))[0]\n",
            "3", {"curve", "intpoly", "model", "reaction", "roots", "variety"}),
        # the curve route at a numeric K_e finds its singular points exactly
        "curve": (
            "from mldeg.curve import curve_from_model, curve_ml_report\n"
            "from mldeg.model import EquilibriumConstant, build_model\n"
            "from mldeg.reaction import parse_reaction\n"
            "model = build_model(parse_reaction('2A + B <-> 3C'), EquilibriumConstant.parse('7/3'))\n"
            "code = curve_ml_report(curve_from_model(model)).smoothness.status\n",
            "singular", {"curve", "intpoly", "model", "reaction"}),
    }
    COMMANDS = {
        "parse": (["parse", "A + 2B <-> C"], {"cli", "reaction"}),
        "model": (["model", "A + 2B <-> C"], {"cli", "intpoly", "model", "reaction"}),
        "ml-degree faithful": (
            ["ml-degree", "A + 2B <-> C", "--method", "faithful"],
            {"cli", "critical", "intpoly", "model", "reaction"}),
        # a numeric K_e is decided with no root finding too
        "ml-degree curve": (
            ["ml-degree", "A + 2B <-> C", "--ke", "7/3", "--method", "curve"],
            {"cli", "curve", "intpoly", "model", "reaction"}),
        # counts are checked in model: the curve route loads no critical
        "ml-degree curve counts": (
            ["ml-degree", "A + 2B <-> C", "--ke", "7/3", "--method", "curve",
             "--counts", "3,5,7"],
            {"cli", "curve", "intpoly", "model", "reaction"}),
        "ml-degree both": (
            ["ml-degree", "A + 2B <-> C", "--ke", "7/3", "--method", "both"],
            {"cli", "critical", "curve", "intpoly", "model", "reaction"}),
        "mle": (
            ["mle", "A + 2B <-> C", "--ke", "7/3", "--counts", "3,5,7"],
            {"cli", "intpoly", "mle", "model", "reaction"}),
        # a generic K_e is decided with no root finding
        "ml-degree both generic": (
            ["ml-degree", "A + 2B <-> C", "--method", "both"],
            {"cli", "critical", "curve", "intpoly", "model", "reaction"}),
        # two species: the curve route declines the model itself
        "ml-degree both two species": (
            ["ml-degree", "A <-> 2B", "--method", "both"],
            {"cli", "critical", "curve", "intpoly", "model", "reaction"}),
        "catalog": (
            ["catalog"],
            {"catalog", "cli", "critical", "curve", "intpoly", "model", "reaction"}),
        "help": (["ml-degree", "--help"], {"_usage", "cli", "reaction"}),
    }

    @staticmethod
    def loaded_after(probe):
        """(code, loaded): the value probe leaves in code and the mldeg
        modules, without the package prefix, that a fresh interpreter has
        loaded after running it."""
        src = str(Path(mldeg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe += (
            "import sys\n"
            "print(code, *sorted(m[6:] for m in sys.modules if m.startswith('mldeg.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        return code, set(loaded)

    @pytest.mark.parametrize("path", LIBRARY_PATHS)
    def test_library_path_loads_only_what_it_runs(self, path):
        probe, want_code, want = self.LIBRARY_PATHS[path]
        code, loaded = self.loaded_after(probe)
        assert code == want_code
        assert "poly" not in loaded
        if path != "variety":
            assert not loaded & {"roots", "variety"}
        if path not in ("curve", "variety"):
            assert "curve" not in loaded
        assert loaded == want | {"_version"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_loads_only_what_it_runs(self, command):
        # the front end reads argv from a table: no command loads argparse,
        # or gettext and locale, whose first message lookup argparse pays
        # for; site hooks may load modules first, so the code is followed by
        # those that the command adds to sys.modules
        argv, want = self.COMMANDS[command]
        probe = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import mldeg.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = mldeg.cli.main({argv!r})\n"
            "added = {'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)\n"
            "code = ','.join([str(code), *sorted(added)])\n"
        )
        code, loaded = self.loaded_after(probe)
        assert code == "0"
        assert not loaded & {"poly", "variety"}
        assert loaded == want | {"_version"}

    def test_annotations_resolve(self):
        # every function and method of every mldeg module resolves its
        # annotations in its own namespace: cli loads only reaction, and
        # poly's MPoly names intpoly's VarContext, so an annotation naming a
        # type its module does not import would raise NameError
        checked = []
        for info in pkgutil.iter_modules(mldeg.__path__):
            module = importlib.import_module(f"mldeg.{info.name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                for member in vars(obj).values() if inspect.isclass(obj) else (obj,):
                    # a classmethod or staticmethod wraps its function
                    function = getattr(member, "__func__", member)
                    if inspect.isfunction(function):
                        typing.get_type_hints(function)
                        checked.append(f"{info.name}.{function.__qualname__}")
        assert {"cli.main", "poly.MPoly.__init__", "poly.MPoly.var",
                "curve._integer_resultant"} <= set(checked)

    def test_root_finder_loads_no_polynomial_class(self):
        # roots takes integer coefficient lists, so it loads intpoly, not poly
        code, loaded = self.loaded_after(
            "from mldeg.roots import complex_roots\n"
            "code = complex_roots([1, -2, 1])[0][1]\n"
        )
        assert code == "2"
        assert loaded == {"_version", "intpoly", "roots"}

    def test_engine_import_loads_no_class_generator(self):
        # the value classes are namedtuples: importing the engine pulls in
        # neither dataclasses nor inspect, whose class set-up a cold command
        # would pay for; site hooks may load modules first, so each import is
        # judged by what it adds to sys.modules
        src = str(Path(mldeg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import importlib, sys\n"
            "for name in ('mldeg.cli', 'mldeg.critical', 'mldeg.mle'):\n"
            "    before = set(sys.modules)\n"
            "    importlib.import_module(name)\n"
            "    print(name, *sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["mldeg.cli", "mldeg.critical", "mldeg.mle"]


class TestParseAndModel:
    def test_parse_text(self, capsys):
        code, out, _ = run(capsys, ["parse", "2A + B <-> 3C"])
        assert code == 0
        assert "reaction: 2A + B <-> 3C" in out
        assert "species: A, B, C" in out
        assert "forward order: 3" in out

    @pytest.mark.parametrize("output", ["text", "json", "tsv"])
    def test_parse_forward_order_digit_limit(self, capsys, output):
        # neither str() nor json writes an int past 4300 digits: a forward
        # order of 10**4300 is refused in every format, and 10**4300 - 1,
        # 4300 nines, is printed
        nines = "9" * 4300
        assert run(capsys, ["parse", f"{nines}A + B <-> C", "--output", output]) == (
            2, "", "invalid input for parse: forward order is longer than 4300 digits\n")
        code, out, err = run(capsys, ["parse", f"{nines}A <-> B", "--output", output])
        assert (code, err) == (0, "")
        if output == "json":
            assert json.loads(out)["forward_order"] == int(nines)
        else:
            last = {"text": f"forward order: {nines}", "tsv": f"forward_order\t{nines}"}
            assert out.endswith(f"\n{last[output]}\n")

    def test_model_text(self, capsys):
        code, out, _ = run(capsys, ["model", "A + B <-> 2C", "--ke", "4"])
        assert code == 0
        assert "F_affine: 4*x*y - z^2" in out
        assert "constraint: x + y + z - 1 = 0" in out
        assert "map: z = 2*t0*t1" in out

    def test_model_segre_closed_form(self, capsys):
        code, out, _ = run(capsys, ["model", "A + B <-> C + D"])
        assert code == 0
        assert "parameterization: closed-form entry (no monomial map)" in out

    @pytest.mark.parametrize("output", ["text", "json", "tsv"])
    @pytest.mark.parametrize("text, f_affine", [("A + B <-> 2C", "-z^2"), ("A <-> B", "-y")])
    def test_model_at_ke_zero_has_no_map(self, capsys, text, f_affine, output):
        # K_e = 0 leaves no monomial map: the model is printed with the
        # reason, as for an unsupported shape, and the command succeeds
        code, out, err = run(capsys, ["model", text, "--ke", "0", "--output", output])
        assert (code, err) == (0, "")
        note = "no monomial parameterization at K_e = 0: a coordinate vanishes identically"
        warning = "nonphysical equilibrium constant K_e = 0 (K_e <= 0); computed anyway"
        if output == "json":
            record = json.loads(out)
            assert record["F_affine"] == record["F_hom"] == f_affine
            assert record["warnings"] == [warning]
            assert (record["parameterization"], record["parameterization_note"]) == (None, note)
        elif output == "tsv":
            rows = dict(line.split("\t", 1) for line in out.splitlines())
            assert rows["F_affine"] == rows["F_hom"] == f_affine
            assert rows["warning"] == warning
            assert (rows["parameterization"], rows["parameterization_note"]) == ("None", note)
        else:
            assert out.startswith(f"warning: {warning}\n")
            assert f"\nF_affine: {f_affine}\n" in out and f"\nF_hom: {f_affine}\n" in out
            assert out.endswith(f"\nparameterization: unavailable ({note})\n")

    def test_model_chain_covers_note(self, capsys):
        code, out, _ = run(capsys, ["model", "A + B + C <-> D + E + F"])
        assert code == 0
        assert "note: parameterization does not cover the whole model" in out


class TestModelPrinter:
    """The model command's printer (cli._poly_text) prints each model
    polynomial and map image, an integer term map over a positive
    denominator, as MPoly.__str__ prints the rational polynomial, byte for
    byte, at generic, integer, rational, negative and zero K_e."""

    KES = ("generic", "4", "7/3", "-27/4", "0")
    # the reactions of the benchmark's certify workload that mldeg model runs on
    CERTIFY_MODEL = ("A + 3B <-> 2C", "2A + B <-> C", "A + B <-> 4C", "2A + 5B <-> 3C",
                     "3A + 5B <-> 2C", "2SO2 + O2 <-> 2SO3", "2H2 + O2 <-> 2H2O",
                     "A + B <-> C + D + E")

    @staticmethod
    def seeded_reactions(count):
        """count distinct reactions of 2 to 6 species, coefficients 1 to 6,
        whose F_hom has at most 300 terms (the multinomial count of the
        padding power), to keep the MPoly reference quick."""
        rng = random.Random(30)
        found = {}
        while len(found) < count:
            reactants = rng.randint(1, 5)
            products = rng.randint(1, 6 - reactants)
            coeffs = [rng.randint(1, 6) for _ in range(reactants + products)]
            shift = abs(sum(coeffs[:reactants]) - sum(coeffs[reactants:]))
            if comb(shift + len(coeffs) - 1, shift) > 300:
                continue
            sides = [f"{c if c > 1 else ''}{name}" for c, name in zip(coeffs, "ABCDEF")]
            found[" + ".join(sides[:reactants]) + " <-> " + " + ".join(sides[reactants:])] = None
        return list(found)

    def test_printer_matches_mpoly(self):
        cases = [(e.reaction_text, e.ke_spec) for e in load_catalog()]
        reactions = ([e.reaction_text for e in load_catalog()] + list(self.CERTIFY_MODEL)
                     + self.seeded_reactions(120))
        assert {len(parse_reaction(text).species) for text in reactions} == {2, 3, 4, 5, 6}
        cases += [(text, ke) for text in dict.fromkeys(reactions) for ke in self.KES]
        printed = 0
        for text, ke in cases:
            model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
            polys = [(model.ctx, p) for p in (model.F_affine, model.constraint, model.F_hom)]
            try:
                parameterization = build_parameterization(model)
            except UnsupportedReactionError:
                parameterization = None
            if parameterization is not None:
                shape, images = parameterization
                ctx = VarContext(shape.param_vars + shape.constants)
                polys += [(ctx, image) for image in images.values()]
            for ctx, poly in polys:
                assert cli._poly_text(ctx.names, poly) == str(model_poly(ctx, poly)), (text, ke)
                printed += 1
        assert printed > 2500

    @pytest.mark.parametrize("output", ["text", "json", "tsv"])
    @pytest.mark.parametrize("text, term", [("A <-> 3B", "x^2*y"), ("A + B <-> 4C", "x^2*y*z")])
    def test_coefficient_past_the_int_digit_limit(self, capsys, text, term, output):
        # F_hom = K_e x (x + y)^2 - y^3 and K_e x y (x + y + z)^2 - z^4: at
        # a K_e of 4300 nines the coefficient of the term is 2 K_e, 4301
        # digits, more than str() prints of an int
        ke = 10**4300 - 1
        code, out, err = run(capsys, ["model", text, "--ke", "9" * 4300, "--output", output])
        assert (code, err) == (0, "")
        if output == "json":
            f_hom = json.loads(out)["F_hom"]
        elif output == "tsv":
            f_hom = dict(line.split("\t", 1) for line in out.splitlines())["F_hom"]
        else:
            f_hom = re.search(r"^F_hom: (.*)$", out, re.M).group(1)
        coefficient = re.search(rf"(?:^| )(\d+)\*{re.escape(term)}(?: |$)", f_hom).group(1)
        assert len(coefficient) == 4301 and int(Decimal(coefficient)) == 2 * ke


class TestMLDegree:
    def test_faithful_text(self, capsys):
        code, out, _ = run(capsys, ["ml-degree", "A <-> B"])
        assert code == 0
        assert "parameter space count: 1" in out

    def test_both_agreement_at_tangent_ke(self, capsys):
        code, out, _ = run(
            capsys, ["ml-degree", "A + B <-> 2C", "--ke", "4", "--method", "both"]
        )
        assert code == 0
        assert (
            "comparison: agreement; variety-side quotient 1 "
            "matches curve count 1" in out
        )
        assert "degeneracy: parameter-space count drops from 4 to 2 at K_e = 4" in out

    def test_both_divergence_note_for_cubic(self, capsys):
        code, out, _ = run(capsys, ["ml-degree", "A + B <-> 3C", "--method", "both"])
        assert code == 0
        assert (
            "(divergence note: parameter-space count 9 sits over the curve "
            "count with fiber degree 3)" in out
        )

    # the comparison reads the routes' records as to_dict() gives them
    @pytest.mark.parametrize("quotient, param, fiber, curve_count, line", [
        (2, 2, 1, 2, "agreement; variety-side quotient 2 matches curve count 2"),
        (3, 3, 1, 2, "divergence; variety-side quotient 3 vs curve count 2 (divergence "
         "note: parameter-space count 3 sits over the curve count with fiber degree 1)"),
        ("7/3", 7, 3, 3, "divergence; variety-side quotient 7/3 vs curve count 3 (divergence "
         "note: parameter-space count 7 sits over the curve count with fiber degree 3)"),
        (3, 3, 1, None, "curve count unavailable; second caveat"),
    ])
    def test_comparison_line(self, quotient, param, fiber, curve_count, line):
        faithful = {"variety_count_quotient": quotient, "parameter_space_count": param,
                    "fiber_degree": fiber}
        curve = {"ml_degree_curve": curve_count, "caveats": ["first caveat", "second caveat"]}
        assert cli._comparison_line(faithful, curve) == "comparison: " + line

    def test_nonpositive_ke_warning(self, capsys):
        code, out, _ = run(capsys, ["ml-degree", "A <-> B", "--ke", "-1"])
        assert code == 0
        assert (
            "warning: nonphysical equilibrium constant K_e = -1 (K_e <= 0); "
            "computed anyway" in out
        )
        assert "parameter space count: 0" in out

    @pytest.mark.parametrize("command", ["ml-degree", "model"])
    def test_negative_fraction_ke_as_separate_token(self, capsys, command):
        # the flag takes the next token as its value, though it starts with -
        spaced = run(capsys, [command, "2A + B <-> 3C", "--ke", "-27/4"])
        joined = run(capsys, [command, "2A + B <-> 3C", "--ke=-27/4"])
        assert spaced == joined
        assert spaced[0] == 0
        assert "K_e = -27/4" in spaced[1]
        if command == "ml-degree":
            assert "drops from 9 to 6" in spaced[1]

    def test_negative_fraction_after_ke_prefix(self, capsys):
        # a unique prefix names its flag: --k is --ke
        prefixed = run(capsys, ["model", "2A + B <-> 3C", "--k", "-27/4"])
        assert prefixed == run(capsys, ["model", "2A + B <-> 3C", "--ke=-27/4"])
        assert prefixed[0] == 0

    def test_json_envelope(self, capsys):
        code, out, _ = run(
            capsys,
            ["ml-degree", "A + B <-> 2C", "--ke", "5", "--output", "json",
             "--seed", "7"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["tool_version"] == "0.1.0"
        assert record["command"] == "ml-degree"
        assert record["seed"] == 7
        assert record["warnings"] == []
        assert record["parameter_space_count"] == 4

    def test_tsv_output(self, capsys):
        code, out, _ = run(
            capsys, ["ml-degree", "A <-> B", "--output", "tsv"]
        )
        assert code == 0
        assert "reaction\tA <-> B" in out
        assert "parameter_space_count\t1" in out

    def test_repeat_invocations_identical(self, capsys):
        argv = ["ml-degree", "A + B <-> 2C", "--ke", "5", "--method", "both"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestMLE:
    def test_hardy_weinberg_text(self, capsys):
        code, out, _ = run(
            capsys, ["mle", "A + B <-> 2C", "--ke", "4", "--counts", "30,30,40"]
        )
        assert code == 0
        assert "optimum: 0.25, 0.25, 0.5" in out
        assert "observed ml count: 1" in out
        assert "residual max: 0.0" in out

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys,
            ["mle", "A + B <-> 2C", "--ke", "4", "--counts", "30,30,40",
             "--output", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["optimum"] == ["0.25", "0.25", "0.5"]
        assert record["observed_ml_count"] == 1
        assert record["u"] == [30, 30, 40]

    def test_chain_estimate(self, capsys):
        code, out, _ = run(
            capsys,
            ["mle", "A + B + C <-> D + E + F", "--ke", "2",
             "--counts", "1,1,1,1,1,1"],
        )
        assert code == 0
        assert "optimum: 0.147497778008147" in out
        assert "observed ml count: 3" in out


class TestCatalogCommand:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, ["catalog"])
        assert code == 0
        assert "15 rows; all confirmed rows match" in out
        assert "discrepancy_documented" in out

    def test_tsv_rows(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--output", "tsv"])
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("reaction\tke\tpaper_value")
        assert len(lines) == 16


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "catalog": ["catalog"],
    "ml-degree_3A_4B_5C_both": ["ml-degree", "3A + 4B <-> 5C", "--method", "both"],
    "ml-degree_2A_2B_C_both": ["ml-degree", "2A + 2B <-> C", "--method", "both"],
    "ml-degree_A_2B_C_both": ["ml-degree", "A + 2B <-> C", "--method", "both"],
    # two species: the curve block of --method both is the refusal
    "ml-degree_A_2B_both": ["ml-degree", "A <-> 2B", "--method", "both"],
    "ml-degree_A_B_3C_curve": ["ml-degree", "A + B <-> 3C", "--method", "curve"],
    # numeric K_e on the faithful route: radical s^9, a tangent K_e where the
    # count drops from 9 to 6, an exact square root, an exact cube root with counts
    "ml-degree_5A_7B_9C_ke": ["ml-degree", "5A + 7B <-> 9C", "--ke", "23/71"],
    "ml-degree_2A_B_3C_tangent_both": [
        "ml-degree", "2A + B <-> 3C", "--ke", "-27/4", "--method", "both"],
    "ml-degree_A_B_2C_ke4": ["ml-degree", "A + B <-> 2C", "--ke", "4"],
    "ml-degree_3A_2B_4C_counts": [
        "ml-degree", "3A + 2B <-> 4C", "--ke", "8", "--counts", "13,29,41"],
    "mle_7A_9B_11C": ["mle", "7A + 9B <-> 11C", "--ke", "7/3", "--counts", "13,29,41"],
    "mle_A_B_C_D": ["mle", "A + B <-> C + D", "--ke", "2", "--counts", "3,5,7,11"],
    "mle_A_B_3C_large": ["mle", "A + B <-> 3C", "--ke", "7/3", "--counts", "1,1,1000000"],
    # model prints F_hom: numeric K_e with a parameterization, a rational K_e
    # with a radical, and a generic K_e on an unsupported shape
    "model_N2_3H2_2NH3": ["model", "N2 + 3H2 <-> 2NH3", "--ke", "4"],
    "model_7A_9B_11C": ["model", "7A + 9B <-> 11C", "--ke", "7/3"],
    "model_A_B_C_D_E": ["model", "A + B <-> C + D + E"],
}


class TestGoldenOutput:
    """Exact outputs are pinned byte for byte in every format."""

    @pytest.mark.parametrize("output", ["text", "json", "tsv"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_output_matches_recording(self, capsys, name, output):
        code, out, err = run(capsys, GOLDEN_COMMANDS[name] + ["--output", output])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.{output}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN_COMMANDS if n.startswith("mle_")))
    def test_mle_runs_on_integers(self, capsys, monkeypatch, name):
        # the estimate and the count never factor a polynomial: the extent
        # kernel takes deg gcd(Q, Q') on Python integers
        def refuse(*args, **kwargs):
            raise AssertionError("squarefree factorization in mle")

        monkeypatch.setattr(roots, "_squarefree_split", refuse)
        code, out, err = run(capsys, GOLDEN_COMMANDS[name])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.text").read_text(encoding="utf-8")


# help, version and argument errors, recorded at 80 columns: the name of
# each file is its key, its extension the stream it pins
GOLDEN_ARGV = {
    "help": (["--help"], 0),
    "help_parse": (["parse", "--help"], 0),
    "help_model": (["model", "--help"], 0),
    "help_ml-degree": (["ml-degree", "--help"], 0),
    "help_mle": (["mle", "--help"], 0),
    "help_catalog": (["catalog", "--help"], 0),
    "version": (["--version"], 0),
    "error_no_command": ([], 2),
    "error_unknown_command": (["frobnicate", "A <-> B"], 2),
    "error_method": (["ml-degree", "A <-> B", "--method", "x"], 2),
    "error_output": (["parse", "A <-> B", "--output", "x"], 2),
    "error_seed": (["parse", "A <-> B", "--seed", "x"], 2),
    "error_ke_no_value": (["model", "A <-> B", "--ke"], 2),
    "error_mle_no_counts": (["mle", "A <-> B", "--ke", "2"], 2),
    "error_parse_no_reaction": (["parse"], 2),
    "error_tol_residual": (["ml-degree", "A <-> B", "--tol-residual", "1e-6"], 2),
    "error_extra_positional": (["parse", "A <-> B", "C <-> D"], 2),
    "error_counts_letters": (["mle", "A <-> B", "--ke", "2", "--counts", "a,b"], 2),
}


class TestGoldenArgv:
    """Help, version and usage errors are pinned byte for byte, laid out
    for 80 columns whatever the terminal width."""

    @pytest.mark.parametrize("columns", ["80", "120"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_matches_recording(self, capsys, monkeypatch, name, columns):
        monkeypatch.setenv("COLUMNS", columns)
        argv, want_code = GOLDEN_ARGV[name]
        code, out, err = run(capsys, argv)
        if want_code == 0:
            assert (code, err) == (0, "")
            assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
        else:
            assert (code, out) == (2, "")
            assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")


class TestArgvParser:
    """cli._parse_argv reads every argv as the argparse front end in
    reference.py does: the same arguments wherever argparse accepts one,
    and exit 2 wherever it refuses one, but where --ke takes a token that
    argparse read as a flag, which the command then refuses."""

    @pytest.mark.parametrize("argv, want", [
        (["ml-degree", "A <-> B", "--k", "-27/4", "--co=-1,2"],
         {"ke": "-27/4", "counts": (-1, 2)}),
        (["ml-degree", "--meth=both", "A <-> B", "--s", "-5"], {"method": "both", "seed": -5}),
        (["mle", "--ke", "2", "--counts", "3,5", "A <-> B", "--counts", "7,9", "--ke", "3"],
         {"ke": "3", "counts": (7, 9)}),
        (["model", "--output", "json", "--", "A <-> B"],
         {"output": "json", "reaction": "A <-> B"}),
        (["parse", "-1"], {"reaction": "-1"}),
        (["catalog", "--o", "tsv", "--seed=+3"], {"output": "tsv", "seed": 3}),
    ])
    def test_forms(self, argv, want):
        args = vars(cli._parse_argv(argv))
        assert args == reference_args(argv)
        assert {key: args[key] for key in want} == want

    @pytest.mark.parametrize("argv, stream", [
        (["--vers"], "version"), (["--h", "parse"], "help"), (["mle", "--he"], "help_mle"),
        (["ml-degree", "--seed", "3", "-h", "--seed", "x"], "help_ml-degree"),
    ])
    def test_help_and_version_prefixes(self, capsys, argv, stream):
        want = (GOLDEN / f"{stream}.stdout").read_text(encoding="utf-8")
        assert run(capsys, argv) == (0, want, "")

    @staticmethod
    def seeded_argvs(count):
        """count argv forms: every flag under its full name or a prefix, its
        value after = or in the next token, negative values, the positional
        anywhere or after --, repeats, flags of other commands, unknown
        flags and tokens, missing values and a missing positional."""
        rng = random.Random(39)
        # each flag: values that the flag takes, then values that it refuses
        values = {
            "--ke": (["4", "-27/4", "1/2", "generic", "-1", "-.5", ""], ["-x"]),
            "--counts": (["3,5", "-1,2,3", " 3, +4 ,5", "-5"], ["a,b", "1_0,2"]),
            "--seed": (["7", "-5", "+0"], ["x", "-1.5"]),
            "--method": (["both", "curve", "faithful"], ["x", "-x"]),
            "--output": (["json", "tsv", "text"], ["x", "--seed"]),
            "--tol-residual": (["1e-6"], []),
            "--version": ([], []),
        }
        strays = ["--foo", "-x", "-", "-1", "- 1", "-27/4", "B <-> C", "--=x"]
        commands = [*cli._COMMANDS, "frobnicate"]
        argvs = []
        for _ in range(count):
            command = rng.choice(commands)
            own = [flag[0] for flag in cli._COMMANDS.get(command, ("", "", ()))[2]]
            tokens = []
            for _ in range(rng.randint(0, 4)):
                name = rng.choice(own if own and rng.random() < 0.85 else list(values))
                spelled = name[:rng.randint(3, len(name))] if rng.random() < 0.4 else name
                good, bad = values[name]
                value = rng.choice(bad if bad and rng.random() < 0.1 else good or [None])
                if value is None:
                    tokens.append([spelled])
                elif rng.random() < 0.3:
                    tokens.append([f"{spelled}={value}"])
                else:
                    tokens.append([spelled, value])
            if rng.random() < 0.1:
                tokens.append([rng.choice(strays)])
            if rng.random() < 0.2 and tokens:
                tokens.append(rng.choice(tokens))
            if rng.random() < 0.05 and tokens:
                tokens[-1] = tokens[-1][:1]
            tokens = [token for group in tokens for token in group]
            if rng.random() < 0.9:
                if rng.random() < 0.15:
                    tokens += ["--", "A + B <-> 2C"]
                else:
                    tokens.insert(rng.randint(0, len(tokens)), "A + B <-> 2C")
            lead = [rng.choice(["--foo", "--h", "--vers", "-x"])] if rng.random() < 0.03 else []
            argvs.append(lead + [command] + tokens if rng.random() < 0.98 else tokens)
        return argvs

    def test_matches_argparse(self, capsys):
        seen = {"accepted": 0, "refused": 0, "help": 0, "ke": 0}
        for argv in self.seeded_argvs(3000):
            try:
                want = reference_args(argv)
            except SystemExit as exc:
                want = exc.code
            want_out = capsys.readouterr().out
            got = cli._parse_argv(argv)
            out, err = capsys.readouterr()
            if isinstance(want, dict):
                seen["accepted"] += 1
                assert vars(got) == want, argv
            elif want == 0:
                seen["help"] += 1
                assert (got, out) == (0, want_out), argv
            else:
                seen["refused"] += 1
                if got == 2:
                    assert err.startswith("usage: mldeg") and "error: " in err, argv
                    continue
                # --ke takes the next token as its value, where argparse
                # took one such as -x or -- for a flag (a negative number,
                # joined or not, it took as a value), and has no converter:
                # only that differs, and the command refuses such a value
                # unless a later --ke replaces it
                seen["ke"] += 1
                kept, tokens = [], iter(argv)
                for token in tokens:
                    value = next(tokens) if token in ("--k", "--ke") else None
                    if value is None:
                        kept.append(token)
                    elif value in ("", "-") or " " in value or re.match(r"[^-]|-[0-9.]", value):
                        kept += [token, value]
                want = reference_args(kept)
                assert vars(got) == dict(want, ke=got.ke), argv
                if got.ke != want["ke"]:
                    assert got.ke.startswith("-") and cli.main(argv) == 2, argv
                    capsys.readouterr()
        assert min(seen.values()) >= 10 and seen["accepted"] + seen["refused"] > 2800, seen
