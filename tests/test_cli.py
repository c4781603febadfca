"""Command-line interface: subcommands, exit codes, output determinism."""
import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
import hypothesis.strategies as st

from orbitpoly import analysis, cli, exp_ring, weyl


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

    @pytest.mark.parametrize("big", [10 ** 400, 2 ** 1024], ids=["10^400", "2^1024"])
    @pytest.mark.parametrize("rank", [2, 6])  # the table path, the column expansion
    @pytest.mark.parametrize("kind", ["C", "S", "E"])
    def test_label_beyond_the_float_range_exits_2(self, runner, kind, rank, big):
        label = ",".join([str(big)] + ["1"] * (rank - 1))
        point = ",".join(["0.1"] * rank)
        result = runner.invoke(cli.main, ["eval", "-k", kind, "-l", label, "-x", point])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert result.output.splitlines()[-1] == (
            "Error: label too large: its coordinate sums do not fit a float")

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

    def test_text_renders_the_product_terms_unsorted(self, runner, monkeypatch):
        # Text output builds no JSON payload and no sorted copy of the terms,
        # and still matches every text golden.
        def must_not_run(self):
            raise AssertionError("text decompose built a sorted copy of the terms")

        monkeypatch.setattr(exp_ring.TermMap, "to_json_dict", must_not_run)
        monkeypatch.setattr(exp_ring.TermMap, "sorted_terms", must_not_run)
        golden = json.loads((pathlib.Path(__file__).parent / "golden" / "decompose.json").read_text())
        texts = [entry for entry in golden if "--json" not in entry["args"]]
        assert texts
        for entry in texts:
            result = runner.invoke(cli.main, entry["args"])
            assert (result.exit_code, result.stdout) == (entry["exit_code"], entry["stdout"])

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
        result = runner.invoke(cli.main, ["verify", "--seed", "-1"])
        assert result.exit_code == 2 and "Traceback" not in result.output
        assert [line for line in result.output.splitlines() if "seed" in line] == [
            "Error: seed must be a non-negative integer, not -1"]

    @pytest.mark.parametrize("suite", ["ortho", "all"])
    def test_oversized_ortho_refused_up_front(self, runner, monkeypatch, suite):
        def must_not_run(*args, **kwargs):
            raise AssertionError("suite work started before the refusal")

        for name in ("dominant_weights", "exp_sum", "quadrature_gram"):
            monkeypatch.setattr(analysis, name, must_not_run)
        # Rank 5 fits on the W+-orbit nodes; rank 6 does not.
        result = runner.invoke(cli.main, ["verify", "-s", suite, "-n", "6"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "4.96 GiB, over the 1 GiB budget" in result.output

    def test_rank_one_ortho_refused_up_front(self, runner, monkeypatch):
        # Rank 1 has no quadrature grid; its exact walk alone is charged,
        # mostly the label list.
        def must_not_run(*args, **kwargs):
            raise AssertionError("suite work started before the refusal")

        for name in ("dominant_weights", "exp_sum"):
            monkeypatch.setattr(analysis, name, must_not_run)
        result = runner.invoke(cli.main, ["verify", "-s", "ortho", "-n", "1", "-c", "20000000"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "rank 1, coordinate bound 20000000, N=16 would hold about 1.62 GiB" in result.output

    def test_symmetry_index_range_refused(self, runner):
        # 300^8 labels cannot be drawn by an int64 index: exit 2, no traceback.
        result = runner.invoke(cli.main, ["verify", "-s", "symmetry", "-n", "8", "-c", "300"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "300^8 exceed an int64 index" in result.output

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

    def test_verify_ignores_the_hash_seed(self):
        # Every drawn label and point comes from the seed alone, never from
        # the iteration order of a set or dict of str.
        args = [sys.executable, "-m", "orbitpoly.cli", "verify", "-s", "all", "--seed", "7",
                "--json"]
        outs = [subprocess.run(args, capture_output=True, timeout=60,
                               env={**os.environ, "PYTHONHASHSEED": hash_seed})
                for hash_seed in ("0", "1")]
        assert [proc.returncode for proc in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout


def _console(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60)


class TestConsoleEntry:
    """``python -m orbitpoly.cli`` (and the ``orbitpoly`` script) runs
    ``cli.run``, which ends the process once its output is flushed."""

    @pytest.mark.parametrize("args", [
        ["orbit", "-l", "2,1"],
        ["eval", "-k", "S", "-l", "2,1", "-x", "0.3,0.4"],
        ["decompose", "-a", "2,1", "-b", "1,0", "--json"],
        ["poly", "-l", "2,1", "-k", "U", "--format", "csv"],
        ["verify", "-s", "chebyshev"],
        ["orbit", "-l", "1,-1"],
    ])
    def test_subprocess_matches_in_process(self, runner, args):
        proc = _console("-m", "orbitpoly.cli", *args)
        local = runner.invoke(cli.main, args, prog_name="python -m orbitpoly.cli")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            local.exit_code, local.stdout_bytes, local.stderr_bytes)
        if proc.returncode:
            assert proc.returncode == 2 and proc.stdout == b""
            assert proc.stderr.decode().splitlines()[-1:] == ["Error: weight (1, -1) is not dominant"]
            assert b"Traceback" not in proc.stderr

    def test_out_file_holds_the_rendering(self, runner, tmp_path):
        target = tmp_path / "orbit.txt"
        proc = _console("-m", "orbitpoly.cli", "orbit", "-l", "2,1", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == f"written to {target}\n".encode()
        assert target.read_bytes() == runner.invoke(cli.main, ["orbit", "-l", "2,1"]).stdout_bytes

    def test_profiler_still_reports(self):
        proc = _console("-m", "cProfile", "-m", "orbitpoly.cli", "orbit", "-l", "1,1")
        assert proc.returncode == 0
        assert proc.stdout.startswith(b"A2 orbit of (1, 1): size 6")
        assert b"ncalls  tottime  percall  cumtime  percall" in proc.stdout

    @pytest.mark.parametrize("args,code", [(["orbit", "-l", "1"], 0),
                                           (["verify", "-s", "chebyshev"], 1)])
    def test_atexit_runs_once_and_teardown_is_skipped(self, args, code):
        # The chebyshev suite is swapped for one that fails.  ``Teardown.__del__``
        # runs only when the interpreter clears the modules on a normal exit.
        script = (
            "import atexit, os, runpy, sys\n"
            "from orbitpoly import analysis\n"
            "def failing(seed, **bounds):\n"
            "    report = analysis.SuiteReport('chebyshev', seed)\n"
            "    report.add('planted failure', False)\n"
            "    return report\n"
            "analysis.SUITES['chebyshev'] = failing\n"
            "class Teardown:\n"
            "    def __del__(self, write=os.write):\n"
            "        write(1, b'teardown\\n')\n"
            "kept = Teardown()\n"
            "atexit.register(print, 'atexit handler')\n"
            f"sys.argv = ['orbitpoly', *{args!r}]\n"
            "runpy.run_module('orbitpoly.cli', run_name='__main__')\n"
        )
        proc = _console("-c", script)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.count(b"atexit handler") == 1
        assert proc.stdout.endswith(b"atexit handler\n")
        assert b"teardown" not in proc.stdout
        if code:
            assert b"[FAIL] planted failure" in proc.stdout


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


def test_package_import_loads_no_unused_stdlib_modules():
    # After numpy and click, ``import orbitpoly.cli`` adds the package, not
    # the standard modules no import needs: nothing uses dataclasses or
    # fractions (which loads decimal), and json and heapq are imported
    # inside the functions that use them.  numpy stays loaded, with ``analysis``,
    # until the exact commands stop importing it (ROADMAP item 2).
    script = (
        "import sys\n"
        "import numpy, click\n"
        "before = set(sys.modules)\n"
        "import orbitpoly.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "print('orbitpoly.analysis' in sys.modules, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    added, loaded = proc.stdout.splitlines()
    unused = {"dataclasses", "fractions", "decimal", "json", "heapq"}
    assert not unused & set(added.split()), added
    assert loaded == "True True"


def test_suites_never_import_numpy_random():
    # Every suite draws from the stdlib ``random``, already loaded with the
    # package; numpy.random would cost ~6 MiB and ~9 ms in each process.
    script = ("import sys, orbitpoly\n"
              "orbitpoly.run_suite('all')\n"
              "orbitpoly.symmetry_suite((1, 2))\n"
              "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_public_name_is_used_outside_the_tests():
    # Each name ``orbitpoly`` re-exports is read by code other than its
    # definition and ``__init__``: another module of the package, the
    # benchmark or a script, by name, as an attribute, in an import or as a
    # string (the benchmark patches its spans in by ``getattr``).  The
    # parse sees code only, and docstrings are left out, so a mention in a
    # docstring or a comment does not count.
    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "orbitpoly"
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in [*package.glob("*.py"), *(root / "bench").glob("*.py"),
                 *(root / "scripts").glob("*.py")]:
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docstrings:
                used.add(node.value)
    assert sorted(exported - used) == []
