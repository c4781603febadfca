#!/usr/bin/env python3
"""Dump tables of T/U polynomials and substitution Laurent polynomials as
JSON, one file per kind, for all dominant weights up to a coordinate bound.

Example:
    python scripts/make_poly_tables.py --rank 2 --max-coord 3 --out-dir tables/
"""
import argparse
import itertools
import json
import pathlib
import sys

from orbitpoly import chebyshev, lie


def build_table(rank: int, max_coord: int, kind: str) -> list[dict]:
    low = 1 if kind == "PS" else 0  # S-type sums need strictly dominant labels
    table = []
    for lam in itertools.product(range(low, max_coord + 1), repeat=rank):
        if kind == "T":
            poly = chebyshev.poly_t(lam)
        elif kind == "U":
            poly = chebyshev.poly_u(lam)
        else:
            poly = chebyshev.substitute_p(lam, kind[1])
        entry = poly.to_json_dict(lam, kind)
        entry["congruence"] = lie.congruence_number(lam)
        table.append(entry)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--max-coord", type=int, default=3)
    parser.add_argument(
        "--kinds", nargs="+", default=["T", "U", "PC", "PS"],
        choices=["T", "U", "PC", "PS", "PE"],
    )
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("tables"))
    args = parser.parse_args(argv)
    try:
        lie.check_rank(args.rank)
    except ValueError as exc:
        parser.error(str(exc))
    if args.max_coord < 0:
        parser.error(f"--max-coord must be >= 0, got {args.max_coord}")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for kind in args.kinds:
        table = build_table(args.rank, args.max_coord, kind)
        path = args.out_dir / f"A{args.rank}_{kind}_up_to_{args.max_coord}.json"
        path.write_text(json.dumps(table, indent=2) + "\n")
        print(f"{path}: {len(table)} polynomials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
