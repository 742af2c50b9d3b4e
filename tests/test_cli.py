"""Command-line surface: exit codes, text output, JSON envelope, warnings."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mldeg
from mldeg import cli, roots
from mldeg.catalog import CatalogRowResult, load_catalog


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["parse", "A + <-> B"])
        assert code == 2
        assert "parse error" in err

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
        monkeypatch.setattr(cli, "evaluate_catalog", lambda: [forced])
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

    def test_model_chain_covers_note(self, capsys):
        code, out, _ = run(capsys, ["model", "A + B + C <-> D + E + F"])
        assert code == 0
        assert "note: parameterization does not cover the whole model" in out


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
