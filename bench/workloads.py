"""Seeded request lists for the four benchmark workloads, and the exact
oracles their outputs are checked against.

Everything here is standard-library integer arithmetic and never imports
orbitpoly: the generated inputs and the oracles stay the same whatever the
program under test does.  A request is a JSON-able list whose first entry
names the operation; ``child.py`` maps it onto one user-level call.
"""
from __future__ import annotations

import functools
import itertools
import math
import random

WORKLOADS = ("products", "tables", "numeric", "cli")

#: Dominant coordinate bounds per rank for the products workload.
PRODUCT_BOXES = {2: 3, 3: 2, 4: 2, 5: 1}
#: Product requests per rank in one round; each rank's candidate pairs are
#: sorted by size and cut into this many strata, one pair drawn from each,
#: so every round and seed gets the same spread of small and large products.
#: With these counts the 90th percentile of a run falls among the many
#: mid-sized rank-4 products, not in the sparse stretch above them, so
#: job_p90_ms varies little with the seed.
PRODUCT_STRATA = {2: 40, 3: 40, 4: 35, 5: 15}
#: Largest orbit-size product |W a| * |W b| a request may have.  It keeps
#: every rank-4 pair and the rank-5 pairs up to 32 400 multiplied terms;
#: the larger rank-5 products (43 200 to 518 400 terms, up to 8 s each on
#: the seed code) are left out so that one run holds several rounds.
PRODUCT_TERM_CAP = 32_400
RECURSION_REQUESTS = 10

#: make_poly_tables boxes: rank -> largest coordinate.
T_BOXES = {1: 20, 2: 8, 3: 6, 4: 3, 5: 1}
U_BOXES = {1: 20, 2: 8, 3: 3, 4: 1}

SUITE_NAMES = ("ortho", "laplace", "symmetry", "chebyshev", "detforms")
#: Eval requests per rank, a third of each kind C, S, E at ranks 1-5, and
#: the label box per rank for ranks 1-5.  With these counts the eight
#: rank-6 sweeps straddle the 90th percentile of a round (the rank-7 sweeps
#: and four suites lie above it), so job_p90_ms reads the middle of that
#: group rather than its noisy top.
EVAL_REQUESTS = {1: 21, 2: 21, 3: 21, 4: 21, 5: 18, 6: 8, 7: 4}
EVAL_BOXES = {1: 12, 2: 4, 3: 3, 4: 3, 5: 3}
EVAL_POINTS = 20
EVAL_CHECK_SHARE = 0.2

CLI_PER_COMMAND = 5


def suffix_sums(lam) -> list[int]:
    """p_j = lam_j + ... + lam_n for j = 1..n+1: e-coordinates up to a shift."""
    out, run = [0], 0
    for c in reversed(lam):
        run += c
        out.append(run)
    return out[::-1]


def orbit_size(lam) -> int:
    """(n+1)! over the factorials of repeated e-coordinates (any weight)."""
    p = suffix_sums(lam)
    size = math.factorial(len(p))
    for v in set(p):
        size //= math.factorial(p.count(v))
    return size


def is_generic(lam) -> bool:
    p = suffix_sums(lam)
    return len(set(p)) == len(p)


def even_orbit_size(lam) -> int:
    """Points of the even-subgroup orbit: half the orbit when generic."""
    size = orbit_size(lam)
    return size // 2 if is_generic(lam) else size


def weyl_dimension(lam) -> int:
    """Weyl dimension formula prod_{i<j} sum_{k=i}^{j-1}(lam_k+1) / (j-i)."""
    n = len(lam)
    num = den = 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= sum(lam[k] + 1 for k in range(i, j))
            den *= j - i
    return num // den


def box(rank: int, bound: int, low: int = 0) -> list[tuple[int, ...]]:
    return [tuple(w) for w in itertools.product(range(low, bound + 1), repeat=rank)]


#: Fractional part of the golden ratio: consecutive multiples of it spread
#: evenly over [0, 1).
GOLDEN = (5 ** 0.5 - 1) / 2


def stratified(start: random.Random, items: list, strata: int, round_no: int) -> list:
    """One item from each of ``strata`` consecutive, near-equal slices.

    Slice j's pick sits at fraction (u_j + round_no * GOLDEN) mod 1 of the
    slice, with u_j drawn from ``start``, which is seeded per run.  The
    rounds of a run thus cover every slice evenly, and statistics pooled
    over a run's rounds vary little with the seed.
    """
    cuts = [round(k * len(items) / strata) for k in range(strata + 1)]
    picks = []
    for lo, hi in zip(cuts, cuts[1:]):
        u = (start.random() + round_no * GOLDEN) % 1.0
        if hi > lo:
            picks.append(items[lo + int(u * (hi - lo))])
    return picks


# ---------------------------------------------------------------------------
# Request generators.

@functools.lru_cache(maxsize=None)
def product_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nonzero dominant pairs of the rank-n box under the size cap, by size."""
    weights = [w for w in box(n, PRODUCT_BOXES[n]) if any(w)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(weights, 2)
        if orbit_size(a) * orbit_size(b) <= PRODUCT_TERM_CAP
    ]
    return sorted(pairs, key=lambda ab: (orbit_size(ab[0]) * orbit_size(ab[1]), ab))


def products_requests(rng: random.Random, seed: int, round_no: int) -> list:
    reqs = []
    for n in PRODUCT_BOXES:
        start = random.Random(f"products:{seed}:{n}")
        for a, b in stratified(start, product_pairs(n), PRODUCT_STRATA[n], round_no):
            if rng.random() < 0.5:
                a, b = b, a
            reqs.append(["decompose", list(a), list(b)])
    ranks = list(PRODUCT_BOXES)
    for k in range(RECURSION_REQUESTS):
        n = ranks[k % len(ranks)]
        a = rng.choice(box(n, PRODUCT_BOXES[n]))
        reqs.append(["recursion", rng.randint(1, n), list(a)])
    rng.shuffle(reqs)
    return reqs


def tables_requests(rng: random.Random, seed: int, round_no: int) -> list:
    """The make_poly_tables job: per kind, per rank, every weight in the box.

    The random source only shuffles the order inside each (kind, rank) block.
    """
    reqs = []
    for kind, boxes, low in (("T", T_BOXES, 0), ("U", U_BOXES, 0),
                             ("PC", T_BOXES, 0), ("PS", T_BOXES, 1)):
        for n, bound in boxes.items():
            block = [[kind, list(w)] for w in box(n, bound, low)]
            rng.shuffle(block)
            reqs.extend(block)
    return reqs


@functools.lru_cache(maxsize=None)
def eval_pool(n: int, kind: str) -> list[tuple[int, ...]]:
    """Nonzero labels of the rank-n eval box (strictly dominant for S), by
    orbit size."""
    labels = [w for w in box(n, EVAL_BOXES[n], low=1 if kind == "S" else 0) if any(w)]
    return sorted(labels, key=lambda w: (orbit_size(w), w))


def numeric_requests(rng: random.Random, seed: int, round_no: int) -> list:
    """The five suites first, then the eval sweeps in seeded order.

    Peak RSS is set by what the orbit caches hold when the suites run, so
    fixing the suites' place keeps it from varying with the shuffle.
    """
    reqs = []
    for n, count in EVAL_REQUESTS.items():
        if n >= 6:
            # Distinct strictly dominant labels, so every request builds and
            # keeps a full (n+1)!-point orbit of its own.
            labels = [(kind, list(w)) for kind, w in
                      zip(itertools.cycle("CSE"), rng.sample(box(n, 2, low=1), count))]
        else:
            # Per kind, one label from each orbit-size stratum of the box.
            labels = [(kind, list(w)) for kind in "CSE"
                      for w in stratified(random.Random(f"numeric:{seed}:{n}:{kind}"),
                                          eval_pool(n, kind), count // 3, round_no)]
        for kind, lam in labels:
            points = [[round(rng.random(), 12) for _ in range(n)] for _ in range(EVAL_POINTS)]
            reqs.append(["eval", kind, lam, points])
    rng.shuffle(reqs)
    return [["suite", name] for name in SUITE_NAMES] + reqs


def _weight_arg(lam) -> str:
    return ",".join(str(c) for c in lam)


def cli_requests(rng: random.Random, seed: int, round_no: int) -> list:
    """argv lists for ``python -m orbitpoly.cli``: short commands, ranks 1-4."""
    def label(n_max=4, top=2, strict=False):
        n = rng.randint(1, n_max)
        while True:
            lam = [rng.randint(1 if strict else 0, top) for _ in range(n)]
            if any(lam):
                return lam

    reqs = []
    for k in range(CLI_PER_COMMAND):
        reqs.append(["orbit", "-l", _weight_arg(label())])
        kind = "CSE"[k % 3]
        lam = label(strict=kind == "S")
        point = ",".join(f"{rng.random():.4f}" for _ in lam)
        reqs.append(["eval", "-k", kind, "-l", _weight_arg(lam), "-x", point])
        a = label(n_max=3)
        b = [rng.randint(0, 2) for _ in a]
        reqs.append(["decompose", "-a", _weight_arg(a), "-b", _weight_arg(b)])
        kind = ("T", "U", "PC")[k % 3]
        lam = label(n_max=3 if kind == "U" else 4)
        reqs.append(["poly", "-l", _weight_arg(lam), "-k", kind])
        reqs.append(["verify", "-s", "chebyshev"])
    rng.shuffle(reqs)
    return [["cli", argv] for argv in reqs]


GENERATORS = {
    "products": products_requests,
    "tables": tables_requests,
    "numeric": numeric_requests,
    "cli": cli_requests,
}


def requests(workload: str, seed: int, round_no: int) -> list:
    """Request list of one round; each round of a run draws its own list."""
    rng = random.Random(f"{workload}:{seed}:{round_no}")
    return GENERATORS[workload](rng, seed, round_no)


def numeric_check_indices(reqs: list, seed: int, round_no: int) -> list[int]:
    """Seeded subsample of eval requests re-checked against exp_sum.evaluate."""
    rng = random.Random(f"numeric-check:{seed}:{round_no}")
    evals = [i for i, r in enumerate(reqs) if r[0] == "eval"]
    return sorted(rng.sample(evals, max(1, round(EVAL_CHECK_SHARE * len(evals)))))


# ---------------------------------------------------------------------------
# Oracles.  Each returns None when the output is right, else a message.

def check_decomposition(terms: dict, expected_points: int) -> str | None:
    if any(not isinstance(m, int) or m <= 0 for m in terms.values()):
        return "non-positive multiplicity"
    got = sum(m * orbit_size(nu) for nu, m in terms.items())
    if got != expected_points:
        return f"sum mult*|orbit| = {got}, expected {expected_points}"
    return None


def check_product(a, b, terms: dict) -> str | None:
    return check_decomposition(terms, orbit_size(a) * orbit_size(b))


def check_recursion(j: int, a, terms: dict) -> str | None:
    return check_decomposition(terms, math.comb(len(a) + 1, j) * orbit_size(a))


def x_poly_at_identity(terms: dict, n: int) -> int:
    """Value at X_j = C(n+1, j), i.e. every orbit function at x = 0."""
    x = [math.comb(n + 1, j) for j in range(1, n + 1)]
    return sum(c * math.prod(v ** d for v, d in zip(x, deg)) for deg, c in terms.items())


def check_table_entry(kind: str, lam, terms: dict) -> str | None:
    n = len(lam)
    if kind == "T":
        got, want = x_poly_at_identity(terms, n), orbit_size(lam)
    elif kind == "U":
        got, want = x_poly_at_identity(terms, n), weyl_dimension(lam)
    elif kind == "PC":
        got, want = sum(terms.values()), orbit_size(lam)
    else:
        got, want = sum(terms.values()), 0
    if got != want:
        return f"{kind}{tuple(lam)} at the identity is {got}, expected {want}"
    return None
