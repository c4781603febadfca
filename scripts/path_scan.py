#!/usr/bin/env python3
"""Time both evaluation paths of C, S and E at rho = (1, ..., 1) of ranks 4
up to --max-rank, at one point and at batches of 20 and 400 points, and
report the path the cost model picks.

Each row prints the microseconds a point of the table path (summing the
orbit's exponentials) and of the column expansion, and the path that
``orbit_functions._costs`` picks for that call.  Each path is forced by
patching the break-even of ``_costs``, which a batch reads, and by a fresh
``_tables`` cache, whose entry a one-point call reads, so that no entry
built under the patch is left in the module's cache.  A label's table or
plan is built by one untimed call first; each timing is the best of the
calls made within --budget seconds (at least one).  This is the evidence
for the cost model's constants.

Example:
    python scripts/path_scan.py --max-rank 6
"""
import argparse
import sys
import time
from math import inf
from unittest import mock

import numpy as np

from orbitpoly import lie, orbit_functions, weyl

EVALUATORS = {"C": orbit_functions.eval_c, "S": orbit_functions.eval_s,
              "E": orbit_functions.eval_e}
BATCHES = (1, 20, 400)
FORCED = (inf, 1)  # the break-evens that force the table and the expansion


def per_point_us(evaluate, x: np.ndarray, break_even, budget: float) -> float:
    """Best microseconds a point of evaluate(x), x one point or a batch,
    with every call breaking even at ``break_even`` points."""
    points = len(x) if x.ndim == 2 else 1
    tables = weyl._bounded_cache(orbit_functions._entry_rows, orbit_functions.TABLE_ROW_BOUND)(
        orbit_functions._tables.__wrapped__)
    with mock.patch.object(orbit_functions, "_costs", lambda dom, kind: (break_even,)), \
            mock.patch.object(orbit_functions, "_tables", tables):
        evaluate(x if x.ndim == 1 else x[0])  # builds the label's table or plan
        best, spent = inf, 0.0
        while best == inf or spent < budget:
            start = time.perf_counter()
            evaluate(x)
            took = time.perf_counter() - start
            best, spent = min(best, took), spent + took
    return 1e6 * best / points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=lie.MAX_RANK)
    parser.add_argument("--budget", type=float, default=0.2,
                        help="seconds of repeated calls a timing may take")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not 4 <= args.max_rank <= lie.MAX_RANK:
        parser.error(f"--max-rank must lie in 4..{lie.MAX_RANK}, got {args.max_rank}")
    if args.budget < 0:
        parser.error(f"--budget must be >= 0, got {args.budget}")

    rng = np.random.default_rng(args.seed)
    print(f"{'rank':>4} {'kind':>4} {'points':>6} {'table us/pt':>12} "
          f"{'expansion us/pt':>16} {'picks':>9}")
    for n in range(4, args.max_rank + 1):
        lam = (1,) * n
        for kind, evaluate in EVALUATORS.items():
            for points in BATCHES:
                x = rng.random((points, n)) if points > 1 else rng.random(n)
                table, expansion = (per_point_us(lambda p: evaluate(lam, p), x, break_even, args.budget)
                                    for break_even in FORCED)
                picks = "expansion" if points >= orbit_functions._costs(lam, kind)[0] else "table"
                print(f"{n:>4} {kind:>4} {points:>6} {table:>12.2f} {expansion:>16.2f} {picks:>9}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
