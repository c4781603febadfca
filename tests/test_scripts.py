"""The command-line scripts under scripts/: bounds and output files."""
import importlib.util
import json
import pathlib

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
