"""Command-line surface: exit codes, text output, JSON envelope, warnings."""

import importlib
import inspect
import json
import os
import pkgutil
import random
import shutil
import subprocess
import sys
import typing
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

from reference import model_poly


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

    def test_mle_negative_count(self, capsys):
        # malformed input, as for ml-degree; a zero count is what has no estimate
        code, _, err = run(
            capsys, ["mle", "A + B <-> 2C", "--ke", "4", "--counts=-1,2,3"]
        )
        assert code == 2
        assert "invalid input for mle: observation counts must be nonnegative" in err

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
        assert "expected 3 observation counts, got 2" in err

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

    @pytest.mark.parametrize("counts", ["٣,4,5", "1_0,4,5", "3,4,٥"])
    def test_counts_flag_takes_ascii_digits_only(self, capsys, counts):
        # as the reaction grammar does; int() alone reads both
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
    }
    COMMANDS = {
        "parse": (["parse", "A + 2B <-> C"], {"cli", "reaction"}),
        "model": (["model", "A + 2B <-> C"], {"cli", "intpoly", "model", "reaction"}),
        "ml-degree faithful": (
            ["ml-degree", "A + 2B <-> C", "--method", "faithful"],
            {"cli", "critical", "intpoly", "model", "reaction"}),
        "ml-degree curve": (
            ["ml-degree", "A + 2B <-> C", "--ke", "7/3", "--method", "curve"],
            {"cli", "curve", "intpoly", "model", "reaction", "roots"}),
        "ml-degree both": (
            ["ml-degree", "A + 2B <-> C", "--ke", "7/3", "--method", "both"],
            {"cli", "critical", "curve", "intpoly", "model", "reaction", "roots"}),
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
            assert not loaded & {"curve", "roots", "variety"}
        assert loaded == want | {"_version"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_loads_only_what_it_runs(self, command):
        argv, want = self.COMMANDS[command]
        probe = (
            "import contextlib, io\n"
            "import mldeg.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = mldeg.cli.main({argv!r})\n"
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
    def test_parser_built_once(self, capsys):
        cli._build_parser.cache_clear()
        assert run(capsys, ["parse", "A <-> B"])[0] == 0
        assert run(capsys, ["model", "A <-> B", "--ke", "2"])[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_parse_text(self, capsys):
        code, out, _ = run(capsys, ["parse", "2A + B <-> 3C"])
        assert code == 0
        assert "reaction: 2A + B <-> 3C" in out
        assert "species: A, B, C" in out
        assert "forward order: 3" in out

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
        (None, 2, None, 2, "divergence; variety-side quotient n/a vs curve count 2"),
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
        # argparse alone takes "-27/4" for an option and exits 2
        spaced = run(capsys, [command, "2A + B <-> 3C", "--ke", "-27/4"])
        joined = run(capsys, [command, "2A + B <-> 3C", "--ke=-27/4"])
        assert spaced == joined
        assert spaced[0] == 0
        assert "K_e = -27/4" in spaced[1]
        if command == "ml-degree":
            assert "drops from 9 to 6" in spaced[1]

    def test_negative_fraction_after_ke_prefix(self, capsys):
        # argparse takes the unique prefix --k for --ke
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
