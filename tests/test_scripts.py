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
