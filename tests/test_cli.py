"""Command-line interface: subcommands, exit codes, output determinism."""
import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from orbitpoly import cli


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

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            cli.main, ["verify", "-s", "chebyshev", "--json", "--out", str(target)]
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())[0]["passed"] is True


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
