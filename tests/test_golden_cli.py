"""Golden CLI outputs: fixed commands whose stdout must not change.

``orbit``, ``decompose`` and ``poly`` output is compared byte for byte.
``verify`` output is compared with every float inside a check's detail
masked, since those digits depend on the BLAS build; names, PASS/FAIL
marks, integers and exit codes still compare exactly.

The goldens live in ``tests/golden/<command>.json``.  Rewrite them (only
when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import json
import pathlib
import re

import pytest
from click.testing import CliRunner

from orbitpoly import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_ORBIT_LABELS = ["0", "3", "0,0", "1,0", "2,1", "0,3", "0,0,1", "1,1,1", "2,0,1",
                 "1,0,0,1"]
_DECOMPOSE_PAIRS = [("1", "1"), ("2", "3"), ("1,0", "1,0"), ("1,0", "0,1"),
                    ("2,1", "1,2"), ("1,1", "1,1"), ("0,0", "2,1"), ("1,0,1", "0,1,1"),
                    ("2,0,0", "0,0,2"), ("1,1,1", "1,0,1"), ("1,0,0,1", "0,1,1,0")]
_POLY_LABELS = ["0", "4", "7", "1,0", "2,1", "0,3", "2,2", "1,1,1", "2,0,1", "1,1,1,1"]
_SUITES = ["ortho", "laplace", "symmetry", "chebyshev", "detforms"]

_FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+(?=e))(?:e[+-]?\d+)?")


def commands() -> dict[str, list[list[str]]]:
    """Argument lists of every golden command, grouped by subcommand."""
    orbit = [["orbit", "-l", lam, *fmt] for lam in _ORBIT_LABELS for fmt in ([], ["--json"])]
    decompose = [["decompose", "-a", a, "-b", b, *fmt]
                 for a, b in _DECOMPOSE_PAIRS for fmt in ([], ["--json"])]
    poly = [["poly", "-l", lam, "-k", kind, "--format", fmt]
            for lam in _POLY_LABELS for kind in ("T", "U", "PC", "PS", "PE")
            for fmt in ("text", "json", "csv")]
    verify = [["verify", "-s", suite, *fmt] for suite in _SUITES for fmt in ([], ["--json"])]
    return {"orbit": orbit, "decompose": decompose, "poly": poly, "verify": verify}


def _mask_detail(detail: str) -> str:
    return _FLOAT.sub("<float>", detail)


def normalize(args: list[str], stdout: str) -> str:
    """stdout as compared: verify details have their floats masked."""
    if args[0] != "verify":
        return stdout
    if "--json" in args:
        reports = json.loads(stdout)
        for rep in reports:
            for check in rep["checks"]:
                check["detail"] = _mask_detail(check["detail"])
        return json.dumps(reports, indent=2) + "\n"
    lines = []
    for line in stdout.splitlines(keepends=True):
        head, sep, detail = line.partition("]")
        if sep and "  " in detail.lstrip(" "):
            name, _, rest = detail.lstrip(" ").partition("  ")
            line = f"{head}] {name}  {_mask_detail(rest)}"
        lines.append(line)
    return "".join(lines)


def run(args: list[str]) -> dict:
    result = CliRunner().invoke(cli.main, args)
    return {"args": args, "exit_code": result.exit_code,
            "stdout": normalize(args, result.stdout)}


def _cases():
    for group in commands():
        path = GOLDEN_DIR / f"{group}.json"
        # A missing file fails test_goldens_cover_the_command_set instead.
        for entry in json.loads(path.read_text()) if path.exists() else []:
            yield pytest.param(entry, id=" ".join(entry["args"]))


@pytest.mark.parametrize("entry", list(_cases()))
def test_golden(entry):
    got = run(entry["args"])
    assert got["exit_code"] == entry["exit_code"]
    assert got["stdout"] == entry["stdout"]


def test_goldens_cover_the_command_set():
    for group, argv_list in commands().items():
        stored = [e["args"] for e in json.loads((GOLDEN_DIR / f"{group}.json").read_text())]
        assert stored == argv_list


def test_masking_keeps_verdicts_and_integers():
    text = ("suite s (seed 1)\n"
            "  [PASS] A2 quadrature N=16 matches exact values  max deviation 2.665e-15\n"
            "  [FAIL] A1 C-orthogonality exact (diagonal = orbit size)  10 pairs, "
            "max deviation 0\n")
    masked = normalize(["verify"], text)
    assert "N=16 matches exact values  max deviation <float>" in masked
    assert "[FAIL] A1 C-orthogonality exact (diagonal = orbit size)  10 pairs, " \
           "max deviation 0" in masked


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for group, argv_list in commands().items():
        entries = [run(args) for args in argv_list]
        path = GOLDEN_DIR / f"{group}.json"
        path.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"{path}: {len(entries)} commands")


if __name__ == "__main__":
    main()
