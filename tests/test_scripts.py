"""The command-line scripts under scripts/: bounds, output files and exit statuses."""
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMakePolyTables:
    @pytest.mark.parametrize("args,message", [
        (["--rank", "0"], "rank must be a positive integer, got 0"),
        (["--rank", "9"], "rank 9 exceeds the configured maximum 8"),
        (["--max-coord", "-1"], "--max-coord must be >= 0, got -1"),
    ])
    def test_bad_bounds_exit_2_before_writing(self, tmp_path, capsys, args, message):
        out = tmp_path / "tables"
        with pytest.raises(SystemExit) as exc:
            load("make_poly_tables").main([*args, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")
        assert not out.exists()

    def test_writes_one_table_per_kind(self, tmp_path, capsys):
        assert load("make_poly_tables").main(
            ["--rank", "2", "--max-coord", "1", "--kinds", "T", "U",
             "--out-dir", str(tmp_path)]) == 0
        table = json.loads((tmp_path / "A2_U_up_to_1.json").read_text())
        assert [entry["lambda"] for entry in table] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert table[3]["terms"] == [{"deg": [1, 1], "coeff": 1}, {"deg": [0, 0], "coeff": -1}]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "A2_T_up_to_1.json", "A2_U_up_to_1.json"]


class TestPathScan:
    @pytest.mark.parametrize("args,message", [
        (["--max-rank", "3"], "--max-rank must lie in 4..8, got 3"),
        (["--max-rank", "9"], "--max-rank must lie in 4..8, got 9"),
        (["--budget", "-1"], "--budget must be >= 0, got -1.0"),
    ])
    def test_bad_arguments_exit_2(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            load("path_scan").main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")

    def test_one_row_per_kind_and_batch_with_the_chosen_path(self, capsys):
        from orbitpoly import orbit_functions

        assert load("path_scan").main(["--max-rank", "4", "--budget", "0"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["rank", "kind", "points", "table", "us/pt",
                                  "expansion", "us/pt", "picks"]
        cells = [row.split() for row in rows]
        assert [(rank, kind, points) for rank, kind, points, *_ in cells] == [
            ("4", kind, points) for kind in "CSE" for points in ("1", "20", "400")]
        for _, kind, points, table, expansion, picks in cells:
            assert float(table) > 0 and float(expansion) > 0
            break_even = orbit_functions._costs((1,) * 4, kind)[0]
            assert picks == ("expansion" if int(points) >= break_even else "table")


class TestStartupScan:
    def test_bad_runs_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            load("startup_scan").main(["--runs", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith("error: --runs must be >= 1, got 0")

    def test_layers_are_differences_of_probe_medians(self, capsys, monkeypatch):
        # Fake CPU times a probe: the untimed first call reads 1000 ms, the
        # timed ones total + 0, 2, 1.  The real probes are smoke-run in CI.
        scan = load("startup_scan")
        totals = dict(zip((source for _, source in scan.PROBES), (50, 140, 150, 170, 173, 193)))
        calls = []

        def cpu_ms(argv, env):
            assert argv[-5:] == ["decompose", "-a", "1", "-b", "1"] and env["PYTHONHASHSEED"] == "0"
            seen = calls.count(argv)
            calls.append(argv)
            total = totals[argv[2]] if argv[1] == "-c" else 172
            return 1000 if seen == 0 else total + (0, 2, 1)[seen - 1]

        monkeypatch.setattr(scan, "cpu_ms", cpu_ms)
        assert scan.main(["--runs", "3", "decompose", "-a", "1", "-b", "1"]) == 0
        assert len(calls) == 7 * (1 + 3)
        title, header, *rows = capsys.readouterr().out.splitlines()
        assert title == "orbitpoly decompose -a 1 -b 1: CPU ms, median of 3"
        assert [row.rsplit(None, 1) for row in rows] == [
            ["interpreter", "51.0"], ["numpy", "90.0"], ["click", "10.0"], ["package", "20.0"],
            ["command", "3.0"], ["teardown", "20.0"], ["total", "194.0"],
            ["python -m orbitpoly.cli", "173.0"]]


class TestPeak:
    @pytest.mark.parametrize("status", [0, 3])
    def test_status_passes_through_and_one_line_goes_to_stderr(self, status):
        child = f"import sys; print('out'); sys.exit({status})"
        done = subprocess.run([sys.executable, str(SCRIPTS / "peak.py"), sys.executable, "-c", child],
                              capture_output=True, text=True)
        assert done.returncode == status
        assert done.stdout == "out\n"
        assert re.fullmatch(r"peak RSS \d+ MiB, CPU \d+\.\d s\n", done.stderr)
