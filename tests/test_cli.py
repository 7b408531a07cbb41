"""End-to-end tests for the command-line interface (in-process, and start-up in a subprocess)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chebbound import cli, verification
from chebbound.cli import build_parser, main
from chebbound.verification import builtin_function, verify_domination


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment with this checkout's sources first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_python(*args):
    """A fresh interpreter with this checkout's sources first on the path."""
    return subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestBound:
    def test_univariate_reference(self, capsys):
        code, out, _ = run(capsys, "bound", "--rho", "2", "--n", "10", "--v", "1")
        assert code == 0
        assert "a          0.00390625" in out
        assert "winner" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--rho", "2.3,1.8", "--n", "10,10", "--v", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert np.isclose(doc["b"], 0.015017225907659782)
        assert np.isclose(doc["a"], 0.021431194550049202)
        assert doc["winner"] == "B"
        assert doc["sigma_star"] == [2, 1]  # 1-based in output
        assert doc["published_reference"] == {"a": 0.0066, "b": 0.0018}

    def test_reference_note_in_table(self, capsys):
        _, out, _ = run(capsys, "bound", "--rho", "2.3,1.8", "--n", "10,10", "--v", "1")
        assert "published reference values" in out
        _, out2, _ = run(capsys, "bound", "--rho", "2.0,1.8", "--n", "10,10", "--v", "1")
        assert "published reference values" not in out2

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--rho", "2", "--n", "10", "--v", "1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("rho,n,v,variant,a,b,")
        assert len(lines) == 2

    def test_rho_at_most_one_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--rho", "1.0", "--n", "5", "--v", "1")
        assert code == 2
        assert "rho must exceed 1" in err

    def test_mismatched_lists(self, capsys):
        code, _, err = run(capsys, "bound", "--rho", "2,3", "--n", "5", "--v", "1")
        assert code == 2
        assert "--rho/--n" in err

    def test_unparseable_list(self, capsys):
        code, _, err = run(capsys, "bound", "--rho", "2;3", "--n", "5,5", "--v", "1")
        assert code == 2

    def test_literal_variant(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--rho", "2.3,1.8", "--n", "10,10", "--v", "1",
            "--variant", "literal", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["variant"] == "literal"


class TestPlan:
    def test_all_selectors(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--rho", "2.95,9.8", "--v", "1", "--eps", "2e-4",
            "--selector", "all", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"request", "plans", "savings_vs_b"}
        assert doc["plans"]["B"]["budget"] == [10, 5]
        assert doc["plans"]["COMBINED"]["grid_points"] < doc["plans"]["B"]["grid_points"]

    def test_trivial_budget(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--rho", "2", "--v", "1", "--eps", "4", "--selector", "a"
        )
        assert code == 0
        assert "budget           (0)" in out
        assert "grid points      1" in out

    def test_zero_eps_usage_error(self, capsys):
        code, _, err = run(capsys, "plan", "--rho", "2", "--v", "1", "--eps", "0")
        assert code == 2
        assert "--eps" in err

    @pytest.mark.parametrize("selector", ["combined", "all"])
    def test_subnormal_eps_usage_error(self, capsys, selector):
        """Below the smallest normal the bounds underflow to 0 and certify anything."""
        code, out, err = run(
            capsys, "plan", "--rho", "2,2", "--v", "1", "--eps", "1e-310",
            "--selector", selector,
        )
        assert code == 2
        assert out == ""
        assert "smallest normal double 2.2250738585072014e-308" in err

    def test_unknown_selector(self, capsys):
        code, _, err = run(
            capsys, "plan", "--rho", "2", "--v", "1", "--eps", "1e-3",
            "--selector", "fastest",
        )
        assert code == 2

    def test_all_names_the_selector_that_cannot_plan(self, capsys):
        eps = "1.4108985713868176e-06"  # B plans it; A's lower limit is past the ceiling
        code, out, err = run(
            capsys, "plan", "--rho", "1.00002,3", "--v", "1", "--eps", eps, "--selector", "all"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: selector A: target {eps} needs more than 1000000 nodes along axis 0\n"

    def test_csv_single(self, capsys):
        code, out, _ = run(
            capsys, "plan", "--rho", "2.95,9.8", "--v", "1", "--eps", "2e-4",
            "--selector", "recursive", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "selector,budget,grid_points,certified_bound"
        assert lines[1].startswith("RECURSIVE,9 4,50,")


class TestInterp:
    def test_polynomial_probe_matches(self, capsys):
        code, out, _ = run(
            capsys, "interp", "--function", "poly-cubic-d2", "--n", "3,3",
            "--probe", "0.3,-0.4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"] - doc["true_value"]) < 1e-11
        assert doc["sup_error_estimate"] <= doc["combined"]

    def test_rational_error_below_bound(self, capsys):
        code, out, _ = run(
            capsys, "interp", "--function", "sep-rational-d1", "--n", "20",
            "--probe", "0.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sup_error_estimate"] <= doc["combined"]
        assert doc["probe_error"] <= doc["sup_error_estimate"] + 1e-15

    def test_probe_outside_domain(self, capsys):
        code, _, err = run(
            capsys, "interp", "--function", "poly-cubic-d1", "--n", "3",
            "--probe", "1.5",
        )
        assert code == 2
        assert "outside domain" in err

    def test_unknown_function(self, capsys):
        code, _, err = run(
            capsys, "interp", "--function", "tan-d1", "--n", "3", "--probe", "0.5"
        )
        assert code == 2
        assert "--function" in err

    def test_domain_override(self, capsys):
        code, out, _ = run(
            capsys, "interp", "--function", "poly-cubic-d1", "--domain", "0:2",
            "--n", "3", "--probe", "1.5", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["domain"] == [[0.0, 2.0]]

    def test_negative_leading_list_value(self, capsys):
        """A list flag takes a negative first value without the = form."""
        spaced = run(
            capsys, "interp", "--function", "exp-d3", "--n", "14,14,14",
            "--probe", "-0.48,0.63,0.78",
        )
        joined = run(
            capsys, "interp", "--function", "exp-d3", "--n", "14,14,14",
            "--probe=-0.48,0.63,0.78",
        )
        assert spaced[0] == 0
        assert spaced == joined
        domain = run(
            capsys, "interp", "--function", "poly-cubic-d1", "--domain", "-2:1",
            "--n", "3", "--probe", "-1.5", "--format", "json",
        )
        assert domain[0] == 0
        assert json.loads(domain[1])["domain"] == [[-2.0, 1.0]]

    @pytest.mark.parametrize(
        "function_id, n, probe, rho",
        [
            ("sep-rational-d1", "12", "0.5", None),
            ("sep-rational-d1", "12", "0.5", "1.7"),
            ("exp-d2", "6,8", "0.1,-0.3", None),
            ("exp-d2", "6,8", "0.1,-0.3", "3,5"),
            ("nonsep-rational-d3", "5,4,6", "0.2,0.2,-0.7", None),
            ("nonsep-rational-d3", "5,4,6", "0.2,0.2,-0.7", "2.2,2.4,2.6"),
        ],
    )
    def test_numbers_match_verify_domination(self, capsys, function_id, n, probe, rho):
        """interp reports the record verify_domination builds for its radii and budget."""
        argv = ["interp", "--function", function_id, "--n", n, "--probe", probe]
        argv += ["--format", "json"] + ([] if rho is None else ["--rho", rho])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        f = builtin_function(function_id)
        [record] = verify_domination(f, [tuple(doc["rho"])], [tuple(doc["n"])])
        if rho is not None:
            assert doc["rho"] == [float(r) for r in rho.split(",")]
        assert doc["v_estimate"] == record.v_estimate
        assert doc["sup_error_estimate"] == record.empirical_error
        assert doc["a"] == record.bound_a
        assert doc["b"] == record.bound_b
        assert doc["combined"] == record.bound_combined

    def test_wrong_probe_arity(self, capsys):
        code, _, err = run(
            capsys, "interp", "--function", "exp-d2", "--n", "4,4", "--probe", "0.5"
        )
        assert code == 2
        assert "--probe" in err

    def test_overflow_on_the_ellipse_is_one_error_line(self):
        """exp is entire but overflows on a huge ellipse: one error, no numpy warning."""
        result = run_python(
            "-m", "chebbound.cli", "interp", "--function", "exp-d1", "--n", "5",
            "--probe=0.5", "--rho", "2000",
        )
        assert result.returncode == 2
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        assert "overflows" in line


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick")
        assert code == 0
        assert "failed   0" in out

    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--format", "csv")
        assert code == 0
        assert out.startswith("function_id,dimension,domain,")

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code, _, _ = run(capsys, "verify", "--suite", "quick", "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert len(lines) >= 5

    def test_json_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "quick", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["failed"] == 0
        assert len(doc["records"]) == doc["total"]

    def test_suite_choices_are_the_suite_table(self):
        # the parser states them literally, so that it need not load numpy
        [subparsers] = [a for a in build_parser()._actions if a.dest == "subcommand"]
        [suite] = [a for a in subparsers.choices["verify"]._actions if a.dest == "suite"]
        assert list(suite.choices) == list(verification._SUITES)
        assert suite.default in verification._SUITES


class TestSweep:
    def test_default_format_is_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "12")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,a,b,winner"
        # 12 grid rows plus the bisected crossover row
        assert len(lines) == 14
        assert lines[-1].endswith("CROSSOVER")

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "sweep", "--steps", "25")
        _, second, _ = run(capsys, "sweep", "--steps", "25")
        assert first == second

    def test_table_summary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "12", "--format", "table")
        assert code == 0
        assert "crossings    1" in out

    @pytest.mark.parametrize(
        "rho_range, cause",
        [
            ("0.5:3", "need 1 < lo < hi"),
            ("1.1:inf", "ends must be finite"),
            ("nan:3.5", "ends must be finite"),
        ],
        ids=["below-one", "infinite", "nan"],
    )
    def test_bad_range(self, capsys, rho_range, cause):
        code, _, err = run(capsys, "sweep", "--rho-range", rho_range)
        assert code == 2
        assert err.startswith(f"error: --rho-range: {cause}")

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "sweep", "--steps", "12", "--csv", str(target))
        assert code == 0
        assert target.read_text().startswith("rho,a,b,winner")


class TestUsageErrorsNameTheFlag:
    """A value the library refuses is reported with the flag it came from."""

    @pytest.mark.parametrize(
        "argv, flag, cause",
        [
            (
                ["bound", "--rho", "2,3", "--n", "5,-1", "--v", "1"],
                "--n",
                "degrees must be integers >= 0",
            ),
            (
                ["interp", "--function", "exp-d1", "--n", "-1", "--probe", "0"],
                "--n",
                "degrees must be integers >= 0",
            ),
            (
                ["bound", "--rho", "1.0000000001", "--n", "5", "--v", "1"],
                "--rho",
                "axis 0: radius must be >= 1.000000001",
            ),
            (
                ["plan", "--rho", "1.0000000001", "--v", "1", "--eps", "1e-3"],
                "--rho",
                "axis 0: radius must be >= 1.000000001",
            ),
            (
                ["interp", "--function", "exp-d1", "--n", "3", "--probe", "0",
                 "--rho", "1.0000000001"],
                "--rho",
                "axis 0: radius must be >= 1.000000001",
            ),
            (
                ["bound", "--rho", "2,3", "--n", "5,5", "--v", "1", "--epsilon", "1.5"],
                "--epsilon",
                "1 + epsilon = 2.5 must stay below every radius",
            ),
            (
                ["plan", "--rho", ",".join(["2"] * 13), "--v", "1", "--eps", "1e-3"],
                "--rho",
                "planning supports up to 12 dimensions",
            ),
            (
                ["sweep", "--v", "-1", "--steps", "3"],
                "--v",
                "magnitude bound must be finite and >= 0, got -1.0",
            ),
            (
                ["sweep", "--v", "nan", "--steps", "3"],
                "--v",
                "magnitude bound must be finite and >= 0, got nan",
            ),
            (
                ["sweep", "--v", "inf", "--steps", "3"],
                "--v",
                "magnitude bound must be finite and >= 0, got inf",
            ),
            (
                ["sweep", "--n", "100000000000000000000", "--steps", "3"],
                "--n/--d",
                "total grid size exceeds addressable tensor size",
            ),
            (
                ["sweep", "--d", "100", "--steps", "3"],
                "--n/--d",
                "total grid size exceeds addressable tensor size",
            ),
            (
                ["sweep", "--rho-range", "1.0000000001:2", "--steps", "3"],
                "--rho-range",
                "axis 0: radius must be >= 1.000000001",
            ),
            (
                ["interp", "--function", "exp-d1", "--domain", "0:1,0:1", "--n", "5",
                 "--probe", "0.5"],
                "--domain",
                "domain has 2 axes, expected 1",
            ),
            (
                ["interp", "--function", "sep-rational-d1", "--domain", "0:2", "--n", "5",
                 "--probe", "0.5"],
                "--domain",
                "singularity 1.25 lies inside [0.0, 2.0]",
            ),
        ],
        ids=[
            "bound-negative-order",
            "interp-negative-order",
            "bound-radius-near-one",
            "plan-radius-near-one",
            "interp-radius-near-one",
            "bound-epsilon-past-radius",
            "plan-too-many-radii",
            "sweep-negative-magnitude",
            "sweep-nan-magnitude",
            "sweep-infinite-magnitude",
            "sweep-huge-order",
            "sweep-many-dimensions",
            "sweep-radius-near-one",
            "interp-domain-axes",
            "interp-domain-over-the-pole",
        ],
    )
    def test_message_names_the_flag(self, capsys, argv, flag, cause):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}: {cause}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("parent", ["missing", "file"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--suite", "quick"], ["sweep", "--steps", "3"]],
        ids=["verify", "sweep"],
    )
    def test_unwritable_csv_path(self, capsys, monkeypatch, tmp_path, argv, parent):
        """The path is refused before the suite or the scan runs, and nothing is created."""
        ran = []
        monkeypatch.setattr(verification, "_run_suite", lambda *args: ran.append("suite"))
        monkeypatch.setattr(cli, "crossover_scan", lambda *args: ran.append("scan"))
        if parent == "file":
            (tmp_path / "file").write_text("kept\n")
        target = tmp_path / parent / "x.csv"
        code, out, err = run(capsys, *argv, "--csv", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: --csv: [Errno ")
        assert str(target) in err
        assert err.count("\n") == 1
        assert ran == []
        if parent == "file":
            assert (tmp_path / "file").read_text() == "kept\n"
        else:
            assert not target.parent.exists()


class TestArgumentReasons:
    """A list flag that does not parse is reported with the reason, not a helper's name."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["bound", "--rho", "abc", "--n", "1", "--v", "1"],
                "argument --rho: could not convert string to float: 'abc'",
            ),
            (
                ["bound", "--rho", "2", "--n", "1.5", "--v", "1"],
                "argument --n: invalid literal for int() with base 10: '1.5'",
            ),
            (
                ["sweep", "--rho-range", "2"],
                "argument --rho-range: expected lo:hi, got '2'",
            ),
            (
                ["interp", "--function", "exp-d1", "--n", "3", "--probe", "0.5",
                 "--domain", "2:1"],
                "argument --domain: axis 0: need lo < hi, got [2.0, 1.0]",
            ),
        ],
        ids=["float-list", "int-list", "rho-range", "domain"],
    )
    def test_reason_is_shown(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"chebbound {argv[0]}: error: {message}"


class TestPastTheDoubleRange:
    """A result past the largest double exits 2 naming its fields, in every format."""

    LARGE_V = {
        "bound": (["bound", "--rho", "1.01", "--n", "0", "--v", "1e308"], "a, b, combined, recursive"),
        "sweep": (["sweep", "--v", "1e308", "--steps", "3"], "a, b"),
    }
    # the denominators of A and M underflow on 40 axes; its order searches
    # take 0.5 s, so one format shows the route
    WIDE = (
        ["bound", "--rho", ",".join(["1.000000002"] * 40), "--n", ",".join(["0"] * 40),
         "--v", "1"],
        "a, recursive",
    )

    @pytest.mark.parametrize(
        "case, fmt",
        [(case, fmt) for case in LARGE_V for fmt in ("table", "json", "csv")]
        + [("wide", "table")],
    )
    def test_message_names_the_fields(self, capsys, tmp_path, case, fmt):
        argv, fields = self.LARGE_V.get(case, self.WIDE)
        csv_path = tmp_path / "out.csv"
        extra = ["--csv", str(csv_path)] if argv[0] == "sweep" else []
        code, out, err = run(capsys, *argv, *extra, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == f"error: {fields}: exceeds the largest double (1.7976931348623157e+308)\n"
        assert not csv_path.exists()


class TestEnvironment:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_quietly(self, unbuffered):
        """A reader that stops after one line (`| head -1`) gets no traceback.

        Unbuffered (`PYTHONUNBUFFERED`), a short write to the closed pipe
        must still end in 141, not pass as success.
        """
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["-m", "chebbound.cli", "sweep", "--steps", "5000", "--format", "csv"]
        with subprocess.Popen(
            [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as child:
            # about 330 KB, more than the pipe holds, so later writes hit the closed pipe
            assert child.stdout.readline() == b"rho,a,b,winner\n"
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        assert err == b""
        assert code == cli.EXIT_BROKEN_PIPE == 141


class TestStartup:
    """Each subcommand loads only what it needs.

    `bound`, `plan` and `sweep` run on the standard library, only `plan`
    loads the planner, and nothing loads `dataclasses`, nor `inspect`, `ast`
    or `copy`, which the generated value-type constructors must not need,
    nor `numpy.random`, whose stream the verification probes reproduce.
    """

    #: the modules whose loading the cases pin
    WATCHED = (
        "chebbound.planner", "dataclasses", "inspect", "ast", "copy", "numpy", "numpy.random"
    )

    @pytest.mark.parametrize(
        "statement, loads",
        [
            ("import chebbound", []),
            ("import chebbound.cli", []),
            (
                "from chebbound.cli import main; assert main(['bound', '--rho', "
                "'2,2,2,2,2,2', '--n', '5,5,5,5,5,5', '--v', '1']) == 0",
                [],
            ),
            (
                "from chebbound.cli import main; assert main(['plan', '--rho', "
                "'2.95,9.8', '--v', '1', '--eps', '2e-4', '--selector', 'all']) == 0",
                ["chebbound.planner"],
            ),
            ("from chebbound.cli import main; assert main(['sweep', '--steps', '3']) == 0", []),
            (
                "from chebbound.cli import main; assert main(['interp', '--function', "
                "'poly-cubic-d2', '--n', '3,3', '--probe', '0.3,-0.4']) == 0",
                ["numpy"],
            ),
            (
                "from chebbound.cli import main; assert main(['verify', '--suite', 'quick']) == 0",
                ["numpy"],
            ),
        ],
        ids=["import", "import-cli", "bound", "plan", "sweep", "interp", "verify"],
    )
    def test_numpy_loaded_only_when_needed(self, statement, loads, numpy_loads):
        """numpy, and likewise every other watched module, loads only where listed.

        Where numpy loads, so do the watched modules numpy imports itself.
        """
        expected = set(loads) | (numpy_loads if "numpy" in loads else set())
        assert self._loaded(statement) == expected

    @pytest.fixture(scope="class")
    def numpy_loads(self):
        """The watched modules that ``import numpy`` loads on its own."""
        return self._loaded("import numpy") - {"numpy"}

    def _loaded(self, statement: str) -> set[str]:
        """The watched modules loaded after ``statement`` in a fresh interpreter."""
        script = (
            f"{statement}\nimport sys\n"
            f"print(*[m for m in {self.WATCHED!r} if m in sys.modules], file=sys.stderr)"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        return set(result.stderr.splitlines()[-1].split())
