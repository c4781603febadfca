"""Command-line interface: subcommands, exit codes, output determinism."""
import json
import math
import re
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import analysis, cli, weyl


@pytest.fixture
def runner():
    return CliRunner()


class TestOrbitCommand:
    def test_text_output(self, runner):
        result = runner.invoke(cli.main, ["orbit", "-n", "2", "-l", "1,0"])
        assert result.exit_code == 0
        assert "size 3" in result.output
        assert "stabilizer order 2" in result.output

    def test_singleton(self, runner):
        result = runner.invoke(cli.main, ["orbit", "-l", "0,0"])
        assert result.exit_code == 0
        assert "size 1" in result.output

    def test_a3_generic(self, runner):
        result = runner.invoke(cli.main, ["orbit", "-n", "3", "-l", "1,1,1", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["size"] == 24
        assert payload["points"][0] == {"weight": [1, 1, 1], "sign": 1, "even": True}

    def test_invalid_weight_exits_2(self, runner):
        assert runner.invoke(cli.main, ["orbit", "-l", "1,-1"]).exit_code == 2
        assert runner.invoke(cli.main, ["orbit", "-l", "a,b"]).exit_code == 2
        assert runner.invoke(cli.main, ["orbit", "-n", "3", "-l", "1,1"]).exit_code == 2


class TestEvalCommand:
    def test_rank_one_cosine_zero(self, runner):
        result = runner.invoke(
            cli.main, ["eval", "-n", "1", "-k", "C", "-l", "3", "-x", "0.25", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["re"]) < 1e-12
        assert abs(payload["im"]) < 1e-12

    def test_s_at_origin(self, runner):
        result = runner.invoke(
            cli.main, ["eval", "-n", "2", "-k", "S", "-l", "1,1", "-x", "0,0", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(complex(payload["re"], payload["im"])) < 1e-12

    def test_e_is_half_sum(self, runner):
        args = ["-l", "1,1", "-x", "0.21,0.43", "--json"]
        values = {}
        for kind in ("C", "S", "E"):
            out = runner.invoke(cli.main, ["eval", "-k", kind] + args)
            payload = json.loads(out.output)
            values[kind] = complex(payload["re"], payload["im"])
        assert values["E"] == pytest.approx((values["C"] + values["S"]) / 2, abs=1e-12)

    def test_s_on_wall_exits_2(self, runner):
        result = runner.invoke(cli.main, ["eval", "-k", "S", "-l", "1,0", "-x", "0.1,0.2"])
        assert result.exit_code == 2

    def test_bad_point_exits_2(self, runner):
        result = runner.invoke(cli.main, ["eval", "-k", "C", "-l", "1,0", "-x", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("point", ["nan,0", "0.5,inf", "-inf,0"])
    def test_non_finite_point_exits_2(self, runner, point):
        result = runner.invoke(cli.main, ["eval", "-k", "C", "-l", "1,0", "-x", point])
        assert result.exit_code == 2
        assert "finite" in result.output
        assert result.stdout == ""

    @pytest.mark.parametrize("point", ["inf,0", "1e308,0"])
    def test_non_finite_value_has_no_warning_or_traceback(self, point):
        proc = subprocess.run(
            [sys.executable, "-m", "orbitpoly.cli", "eval", "-k", "E", "-l", "1,0",
             "-x", point], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_non_finite_value_of_an_expanded_label_exits_2(self, kind):
        # Rank-7 orbits are evaluated by the column expansion, not the table.
        proc = subprocess.run(
            [sys.executable, "-m", "orbitpoly.cli", "eval", "-k", kind, "-l", "1,1,1,1,1,1,1",
             "-x", ",".join(["1e308"] * 7)], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "non-finite value" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_e_label_outside_p_plus_and_reflections_exits_2(self, runner):
        result = runner.invoke(cli.main, ["eval", "-k", "E", "-l", "-5,3", "-x", "0.1,0.2"])
        assert result.exit_code == 2
        assert "P+ or r_i P+" in result.output
        reflected = runner.invoke(cli.main, ["eval", "-k", "E", "-l", "-1,2", "-x", "0.1,0.2"])
        dominant = runner.invoke(cli.main, ["eval", "-k", "E", "-l", "1,1", "-x", "0.1,0.2"])
        assert reflected.exit_code == 0
        assert reflected.stdout.split("=")[1] == dominant.stdout.split("=")[1]


class TestDecomposeCommand:
    def test_fundamental_square(self, runner):
        result = runner.invoke(cli.main, ["decompose", "-a", "1,0", "-b", "1,0", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["terms"] == [
            {"weight": [2, 0], "coeff": 1},
            {"weight": [0, 1], "coeff": 2},
        ]
        assert payload["congruence"] == 2

    def test_stepping(self, runner):
        result = runner.invoke(cli.main, ["decompose", "-a", "4", "-b", "1", "--json"])
        payload = json.loads(result.output)
        assert payload["terms"] == [
            {"weight": [5], "coeff": 1},
            {"weight": [3], "coeff": 1},
        ]

    def test_identity_factor(self, runner):
        result = runner.invoke(cli.main, ["decompose", "-a", "0,0", "-b", "1,1", "--json"])
        payload = json.loads(result.output)
        assert payload["terms"] == [{"weight": [1, 1], "coeff": 1}]

    def test_large_rank5_product_is_fast(self, runner):
        start = time.perf_counter()
        result = runner.invoke(cli.main, ["decompose", "-a", "1,1,1,1,1",
                                          "-b", "1,2,1,2,1", "--json"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        terms = json.loads(result.output)["terms"]
        assert sum(t["coeff"] * weyl.orbit_size(tuple(t["weight"])) for t in terms) == 720 ** 2

    def test_invalid_exits_2(self, runner):
        assert runner.invoke(cli.main, ["decompose", "-a", "1,-1", "-b", "1,0"]).exit_code == 2
        assert runner.invoke(cli.main, ["decompose", "-a", "1", "-b", "1,0"]).exit_code == 2


class TestPolyCommand:
    def test_t_text(self, runner):
        result = runner.invoke(cli.main, ["poly", "-n", "1", "-l", "4", "-k", "T"])
        assert result.exit_code == 0
        assert result.output.strip() == "X1^4 - 4*X1^2 + 2"

    def test_u_trivial(self, runner):
        result = runner.invoke(cli.main, ["poly", "-l", "0", "-k", "U"])
        assert result.output.strip() == "1"

    def test_pc_json(self, runner):
        result = runner.invoke(cli.main, ["poly", "-l", "2,1", "-k", "PC", "--json"])
        payload = json.loads(result.output)
        assert payload["algebra"] == "A2"
        assert payload["kind"] == "PC"
        assert {"deg": [2, 1], "coeff": 1} in payload["terms"]
        assert len(payload["terms"]) == 6

    def test_csv_format(self, runner):
        result = runner.invoke(cli.main, ["poly", "-l", "3", "-k", "T", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "deg_1,coeff"
        assert lines[1] == "3,1"
        assert lines[2] == "1,-3"

    def test_invalid_exits_2(self, runner):
        assert runner.invoke(cli.main, ["poly", "-l", "1,-1", "-k", "T"]).exit_code == 2
        assert runner.invoke(cli.main, ["poly", "-l", "1", "-k", "Z"]).exit_code == 2


class TestVerifyCommand:
    def test_chebyshev_suite_passes(self, runner):
        result = runner.invoke(cli.main, ["verify", "-s", "chebyshev"])
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_detforms_small(self, runner):
        result = runner.invoke(cli.main, ["verify", "-s", "detforms", "-n", "2"])
        assert result.exit_code == 0

    def test_json_report(self, runner):
        result = runner.invoke(cli.main, ["verify", "-s", "chebyshev", "--json"])
        payload = json.loads(result.output)
        assert payload[0]["suite"] == "chebyshev"
        assert payload[0]["passed"] is True

    def test_bad_bounds_exit_2(self, runner):
        assert runner.invoke(cli.main, ["verify", "-s", "ortho", "-n", "99"]).exit_code == 2
        assert runner.invoke(cli.main, ["verify", "-s", "nope"]).exit_code == 2

    @pytest.mark.parametrize("suite", ["ortho", "all"])
    def test_oversized_ortho_refused_up_front(self, runner, monkeypatch, suite):
        def must_not_run(*args, **kwargs):
            raise AssertionError("suite work started before the refusal")

        monkeypatch.setattr(analysis, "orthogonality_report", must_not_run)
        monkeypatch.setattr(analysis, "quadrature_gram", must_not_run)
        # Rank 5 fits on the W+-orbit nodes; rank 6 does not.
        result = runner.invoke(cli.main, ["verify", "-s", suite, "-n", "6"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "6.93 GiB, over the 1 GiB budget" in result.output

    def test_oversized_detforms_refused_up_front(self, runner, monkeypatch):
        # Rank 8 runs (below); past lie.MAX_RANK the bound is refused before
        # any label is drawn.
        def must_not_run(*args, **kwargs):
            raise AssertionError("suite work started before the refusal")

        monkeypatch.setattr(analysis, "_form_deviations", must_not_run)
        start = time.perf_counter()
        result = runner.invoke(cli.main, ["verify", "-s", "detforms", "-n", "9"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "rank bound must lie in 1..8" in result.output

    def test_detforms_at_rank_eight_runs_in_bounded_memory(self):
        # With -c 1 all 100 samples of a rank draw rho, one 100-point batch
        # over rank 8's 9!/2 even rows: 40 bytes a term in one shot (~700
        # MiB), one chunk's ~24 MiB now.  ~80 MiB measured on x86-64 Linux.
        # The wrapper's only child is the CLI, so RUSAGE_CHILDREN is its peak.
        wrapper = ("import resource, subprocess, sys; "
                   "status = subprocess.run(sys.argv[1:]).returncode; "
                   "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, status)")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, sys.executable, "-m", "orbitpoly.cli",
             "verify", "-s", "detforms", "-n", "8", "-c", "1"],
            capture_output=True, text=True, timeout=300,
        )
        *report, usage = proc.stdout.splitlines()
        peak_kib, status = map(int, usage.split())
        assert status == 0, proc.stderr
        assert report[-1] == "  => all checks passed"
        assert "A8 alternating form = E" in proc.stdout
        assert peak_kib <= 128 * 1024

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["verify", "-s", "chebyshev", "--json", "--out", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())[0]["passed"] is True


class TestUnwritableOut:
    @pytest.mark.parametrize("args", [["orbit", "-l", "1,1"],
                                      ["verify", "-s", "chebyshev"]])
    @pytest.mark.parametrize("where", ["missing/x", "."])
    def test_exits_2_with_one_line(self, runner, tmp_path, args, where):
        # A missing directory, and a directory in place of the file.
        target = tmp_path / where
        result = runner.invoke(cli.main, [*args, "--out", str(target)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"Error: Could not open file '{target}'")

    @pytest.mark.parametrize("where", ["missing/x", "."])
    def test_verify_refuses_before_any_suite_runs(self, runner, tmp_path, monkeypatch, where):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a suite ran before the --out check")

        monkeypatch.setattr(analysis, "run_suite", must_not_run)
        target = tmp_path / where
        start = time.perf_counter()
        result = runner.invoke(cli.main, ["verify", "-s", "ortho", "-n", "4", "--out", str(target)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"Error: Could not open file '{target}'")

    def test_check_leaves_no_file_behind(self, runner, tmp_path):
        # A writable target, then a suite refused up front (exit 2): the
        # check's probe does not stay behind as an empty file.
        target = tmp_path / "report.txt"
        result = runner.invoke(cli.main, ["verify", "-s", "ortho", "-n", "6", "--out", str(target)])
        assert result.exit_code == 2
        assert "GiB" in result.output
        assert not target.exists()
        target.write_text("kept\n")
        result = runner.invoke(cli.main, ["verify", "-s", "ortho", "-n", "6", "--out", str(target)])
        assert result.exit_code == 2
        assert target.read_text() == "kept\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["orbit", "-l", "2,1", "--json"],
            ["eval", "-k", "C", "-l", "2,1", "-x", "0.3,0.4", "--json"],
            ["decompose", "-a", "2,1", "-b", "1,0", "--json"],
            ["poly", "-l", "2,1", "-k", "PS", "--json"],
            ["verify", "-s", "detforms", "-n", "2", "--seed", "7", "--json"],
        ],
    )
    def test_byte_identical_reruns(self, runner, args):
        first = runner.invoke(cli.main, args)
        second = runner.invoke(cli.main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
_JUNK = ["", " ", "nan", "inf", "1,,0", "a,b", "1.5", "0x1", "1;2"]


@st.composite
def weight_args(draw, n, low, high):
    """A weight of rank n, one of the wrong length (the rank is then passed
    explicitly, so it is refused), or a malformed string."""
    shape = draw(st.sampled_from(["right", "right", "right", "wrong", "junk"]))
    if shape == "junk":
        return [], draw(st.sampled_from(_JUNK))
    length = n if shape == "right" else draw(st.sampled_from([n - 1, n + 1]))
    coords = draw(st.lists(st.integers(low, high), min_size=length, max_size=length))
    rank = ["-n", str(n)] if shape == "wrong" or draw(st.booleans()) else []
    return rank, ",".join(map(str, coords))


@st.composite
def cli_invocations(draw):
    """Arguments for orbit/eval/decompose/poly at ranks 1-4 in a small box
    (coordinates up to 2, up to 1 at rank 4) plus malformed input."""
    n = draw(st.integers(1, 4))
    top = 2 if n < 4 else 1
    command = draw(st.sampled_from(["orbit", "eval", "decompose", "poly"]))
    if command == "eval":
        kind = draw(st.sampled_from(["C", "S", "E"]))
        rank, lam = draw(weight_args(n, -2 if kind == "E" else 0, top))
        finite = st.sampled_from(["0", "0.25", "-0.5", "1e-3", "0.7"])
        bad = st.sampled_from(["nan", "inf", "-inf", "1e308", ""])
        coords = draw(st.lists(finite, min_size=n, max_size=n))
        shape = draw(st.sampled_from(["finite", "finite", "finite", "bad", "wrong"]))
        if shape == "bad":
            coords[draw(st.integers(0, n - 1))] = draw(bad)
        elif shape == "wrong":
            coords = coords[1:] if n > 1 and draw(st.booleans()) else coords + ["0"]
        point = ",".join(coords)
        args = ["eval", *rank, "-k", kind, "-l", lam, "-x", point]
    elif command == "decompose":
        rank, a = draw(weight_args(n, -1, top))
        _, b = draw(weight_args(n, -1, top))
        args = ["decompose", *rank, "-a", a, "-b", b]
    else:
        rank, lam = draw(weight_args(n, -1, top))
        args = [command, *rank, "-l", lam]
        if command == "poly":
            args += ["-k", draw(st.sampled_from(["T", "U", "PC", "PS", "PE"])),
                     "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if command != "poly" and draw(st.booleans()):
        args.append("--json")
    return args


class TestFuzz:
    @given(cli_invocations())
    @settings(max_examples=150, deadline=None)
    def test_documented_exit_codes_and_finite_output(self, args):
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code in (0, 1, 2), args
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output, args
        if result.exit_code == 0:
            assert not _NON_FINITE.search(result.output), args
            assert all(math.isfinite(float(tok)) for tok in _NUMBER.findall(result.output)), args

    def test_deep_polynomial_answers(self, runner):
        result = runner.invoke(cli.main, ["poly", "-l", "1000", "-k", "T"])
        assert result.exit_code == 0
        assert result.exception is None
        assert result.output.startswith("X1^1000 - 1000*X1^998 + ")
