"""Verification harness: torus orthogonality, quadrature cross-checks,
Laplacian eigenvalue tests, symmetry identities, and the rank-1 reduction
of ``poly_t`` / ``poly_u`` to the classical Chebyshev polynomials.

Orthogonality is tested on the full torus [0,1]^n in alpha coordinates.
There the inner product of two formal exponential sums reduces to an exact
integer (distinct lattice exponentials integrate to zero), so the diagonal
values read off directly as orbit sizes for C, (n+1)! for S and the
even-orbit size for E, with no fundamental-region volume factor involved.

The quadrature cross-check of the C-functions sums one node per Weyl-group
orbit of the grid (1/N)Q^v mod Q^v, weighted by the orbit size;
``_folded_gram`` predicts it.  A Gram with S- or E-functions takes one node
per even-Weyl-group orbit, on which those are invariant.

Randomized checks draw from a numpy Generator seeded with DEFAULT_SEED
unless told otherwise, and reports record the seed used.
"""
from __future__ import annotations

import itertools
import warnings
from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import add, mul, sub
from typing import Sequence

import numpy as np

from . import chebyshev, lie, orbit_functions, weyl
from ._record import Record
from .exp_ring import ExpSum, exp_sum

DEFAULT_SEED = 1729


class AliasingWarning(UserWarning):
    """Quadrature grid below the Nyquist bound; aliasing is possible."""


def torus_inner_product(a: ExpSum, b: ExpSum) -> int:
    """Exact torus integral of a * conj(b): sum of matching coefficients.

    Integer coefficients make the conjugation trivial; only weights shared
    by both supports contribute.
    """
    a._check_rank(b)
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum(c * large[w] for w, c in small.items() if w in large)


def nyquist_points(a: ExpSum, b: ExpSum) -> int:
    """Smallest grid size per axis guaranteeing exact rectangle quadrature."""
    return 2 * max(a.support_bound(), b.support_bound()) + 1


class OrthogonalityReport(Record):
    """Outcome of pairing every orbit sum of one kind against every other."""

    _fields = ("kind", "rank", "coord_bound", "pairs_tested", "max_deviation",
               "expected_diagonal", "passed")

    def __init__(self, kind: str, rank: int, coord_bound: int, pairs_tested: int,
                 max_deviation: int, expected_diagonal: str, passed: bool):
        self.kind, self.rank, self.coord_bound = kind, rank, coord_bound
        self.pairs_tested, self.max_deviation = pairs_tested, max_deviation
        self.expected_diagonal, self.passed = expected_diagonal, passed


def _squares(terms: dict) -> int:
    """The sum of the squared coefficients: a sum's exact torus norm."""
    return sum(map(mul, terms.values(), terms.values()))


def _sorted_sums(terms: dict):
    """Per key, its integer suffix sums in reversed position order and 0,
    ascending: built column by column, then sorted per key.  The sums of
    one orbit agree up to a shift."""
    sums = []
    for column in reversed(list(zip(*terms))):
        sums.append(list(map(add, sums[-1], column)) if sums else column)
    return map(tuple, map(sorted, zip(itertools.repeat(0, len(terms)), *sums)))


def _dominant(sums: tuple[int, ...]) -> tuple[int, ...]:
    """The dominant weight of sorted suffix sums: their differences in
    descending order, which drop the shift."""
    return tuple(map(sub, sums[:0:-1], sums[-2::-1]))


def orthogonality_reports(rank: int, coord_bound: int) -> tuple[OrthogonalityReport, ...]:
    """Exact torus orthogonality of the rank's C, S and E families, in that
    order, one label at a time.

    Distinct dominant labels have disjoint Weyl orbits, so a family's exact
    Gram is diagonal once each sum lies on its label's orbit, with each
    sum's sum of squares on the diagonal.  The walk counts each C-sum's
    stray terms, whose dominant weight (``_dominant`` of their sorted
    suffix sums, once per distinct tuple) is not the label, and the S-sum's
    (strictly dominant labels) and E-sum's terms outside the C-sum's
    support, and compares each sum of squares with the orbit size (C),
    (n+1)! (S) or the even-orbit size (E).  A family's deviation is the largest, over its
    labels, of its stray terms and its distance from the diagonal.
    """
    full = factorial(rank + 1)
    labels = dominant_weights(rank, coord_bound)
    worst = dict.fromkeys("CSE", 0)
    for lam in labels:
        c = exp_sum(lam, "C").terms
        sums = list(_sorted_sums(c))
        stray = sum(map(sums.count, [s for s in set(sums) if _dominant(s) != lam]))
        size = full // weyl._stabilizer_order(lam)
        worst["C"] = max(worst["C"], stray, abs(_squares(c) - size))
        # E sums the even half of a generic orbit and the whole of any other.
        for kind, diag in (("S", full), ("E", size // 2)) if 0 not in lam else (("E", size),):
            s = exp_sum(lam, kind).terms
            stray = len(s) - sum(map(c.__contains__, s))
            worst[kind] = max(worst[kind], stray, abs(_squares(s) - diag))
    families = (("C", len(labels), "orbit size"), ("S", coord_bound ** rank, f"{rank + 1}!"),
                ("E", len(labels), "even-orbit size"))
    return tuple(OrthogonalityReport(kind, rank, coord_bound, count * (count + 1) // 2,
                                     worst[kind], expected, worst[kind] == 0)
                 for kind, count, expected in families)


def grid_orbits(n: int, n_points: int, even: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """One e-point per orbit of the even Weyl group W+ (of W itself when not
    even) on the rank-n grid, and the orbit sizes (they sum to N^n, N =
    n_points).  The grid is the residues r in Z_N^{n+1} summing to 0 mod N,
    permuted by W = S_{n+1}; one non-increasing r is one W-orbit.  Its first
    n residues fix the last, -sum mod N, kept when it is at most the n-th.
    The W-orbit of r is one W+-orbit if a residue repeats, else two: r and r
    with its last two entries swapped.  Its node is k/N, k being r with N
    taken from its first sum(r)/N entries, so that k sums to zero."""
    nodes, sizes = [], []
    for head in itertools.combinations_with_replacement(range(n_points - 1, -1, -1), n):
        r = head + (-sum(head) % n_points,)
        if r[-1] > head[-1]:
            continue
        k = [c - n_points * (i < sum(r) // n_points) for i, c in enumerate(r)]
        # The steps of a non-increasing r are a dominant weight with r's stabilizer.
        size = weyl.orbit_size([a - b for a, b in zip(r, r[1:])])
        reps = [k, k[:-2] + k[:-3:-1]] if even and size == factorial(n + 1) else [k]
        nodes += reps
        sizes += [size // len(reps)] * len(reps)
    return np.array(nodes, dtype=float) / n_points, np.array(sizes, dtype=float)


def grid_orbit_count(n: int, n_points: int) -> int:
    """W-orbits of the rank-n grid: multisets of m = n+1 residues mod N
    summing to 0 mod N, (1/N) sum of phi(d) C(N/d + m/d - 1, m/d) over the d
    dividing gcd(N, m) (roots-of-unity filter): the nodes of ``grid_orbits(n, N, False)``."""
    m, g = n + 1, gcd(n_points, n + 1)
    phi = lambda d: sum(gcd(j, d) == 1 for j in range(1, d + 1))
    return sum(phi(d) * comb((n_points + m) // d - 1, m // d)
               for d in range(1, g + 1) if g % d == 0) // n_points


def quadrature_inner_product(
    kind: str, lam_a: Sequence[int], lam_b: Sequence[int], n_points: int
) -> complex:
    """Rectangle-rule inner product on the torus with n_points per axis.

    Exact for trigonometric sums once n_points exceeds twice the largest
    frequency; below that bound an AliasingWarning is issued and the value
    may fold distinct frequencies together.
    """
    bound = nyquist_points(exp_sum(lam_a, kind), exp_sum(lam_b, kind))
    if n_points < bound:
        warnings.warn(f"{n_points} points per axis is below the alias-free bound {bound}",
                      AliasingWarning, stacklevel=2)
    return complex(quadrature_gram([(kind, lam_a), (kind, lam_b)], n_points)[0, 1])


# ---------------------------------------------------------------------------
# Laplacian eigenvalue checks.

@lru_cache(maxsize=None)
def hyperplane_frame(n: int, reverse: bool = False) -> np.ndarray:
    """Orthonormal frame of the zero-sum hyperplane in R^{n+1}, as (n, n+1)
    rows.

    Gram-Schmidt on the difference vectors e_i - e_{i+1} (reversed order
    when asked; the Laplacian is frame-independent and tests exploit that).
    The frame is computed once per argument and cached: the returned array
    is shared and read-only.
    """
    basis = [np.eye(n + 1)[i] - np.eye(n + 1)[i + 1] for i in range(n)]
    if reverse:
        basis = basis[::-1]
    frame: list[np.ndarray] = []
    for v in basis:
        w = v.astype(float)
        for u in frame:
            w = w - (w @ u) * u
        frame.append(w / np.linalg.norm(w))
    out = np.array(frame)
    out.flags.writeable = False
    return out


_EVALUATORS = {
    "C": orbit_functions.eval_c,
    "S": orbit_functions.eval_s,
    "E": orbit_functions.eval_e,
}


def _random_e_points(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m uniform points of the alpha-basis unit cube as (m, n+1) e-points;
    the same stream as m draws of ``rng.random(n)``."""
    return orbit_functions._columns(rng.random((m, n)), "alpha")


def _fd_block(
    kind: str, lam: Sequence[int], x_e: np.ndarray, steps: Sequence[float],
    frame: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """f at each e-point of the (k, n+1) block x_e, and its central-difference
    Laplacian for each step h, (k,) and (k, len(steps)), from one
    evaluation of every x_e and x_e +- h*v, v a row of the frame."""
    if frame is None:
        frame = hyperplane_frame(len(lam))
    shifts = np.vstack([s * h * frame for h in steps for s in (1, -1)])
    stencil = np.concatenate([x_e[:, None], x_e[:, None] + shifts], axis=1)
    values = _EVALUATORS[kind](lam, stencil.reshape(-1, x_e.shape[1]), basis="e")
    values = values.reshape(len(x_e), len(stencil[0]))
    centre = values[:, 0]
    plus, minus = np.moveaxis(values[:, 1:].reshape(len(x_e), len(steps), 2, -1), 2, 0)
    sums = (plus - 2 * centre[:, None, None] + minus).sum(axis=-1)
    # Each part divided by h^2, as a complex divided by a float is; numpy's
    # complex division would multiply by 1/h^2 instead.
    return centre, (sums.view(float) / np.repeat(np.square(steps), 2)).view(complex)


def _fd_values(
    kind: str, lam: Sequence[int], x_e: np.ndarray, steps: Sequence[float],
    frame: np.ndarray | None = None,
) -> tuple[complex, list[complex]]:
    """f at the e-point x_e and its central-difference Laplacian for each
    step h (``_fd_block`` of one point)."""
    centre, laps = _fd_block(kind, lam, np.asarray(x_e, dtype=float)[None], steps, frame)
    return complex(centre[0]), [complex(lap) for lap in laps[0]]


def fd_laplacian(
    kind: str,
    lam: Sequence[int],
    x_e: np.ndarray,
    h: float,
    frame: np.ndarray | None = None,
) -> complex:
    """Central-difference Laplacian along an orthonormal frame of the
    zero-sum hyperplane."""
    return _fd_values(kind, lam, x_e, (h,), frame)[1][0]


def _norm_sq(lam: Sequence[int]) -> float:
    """``float(lie.norm_sq(lam))``: its integer numerator divided by n+1,
    with no ``Fraction`` built (nor ``fractions`` imported)."""
    p = lie.suffix_sums(lam)
    return (len(p) * sum(c * c for c in p) - sum(p) ** 2) / len(p)


def _relative_errors(
    kind: str, lam: tuple[int, ...], candidates: np.ndarray, steps: Sequence[float],
    min_abs: float | None = None, frame: np.ndarray | None = None,
) -> list[list[float]]:
    """Relative errors of the eigenvalue identity, one per step, at each
    candidate e-point (a row of the (k, n+1) array) where |f| >= min_abs, in
    candidate order; below that the ratio measures the fluctuation of |f|
    rather than the h^2 truncation term.  Every candidate's stencil is
    evaluated in one call.  The default min_abs is min(0.05 |W lam|, 0.5
    sqrt|W lam|): a sum of |W lam| unit phases typically has modulus near
    sqrt|W lam|, so a bound linear in the orbit size finds no point on large
    orbits (it stays the bound up to |W lam| = 100, every orbit of rank <=
    3)."""
    if min_abs is None:
        size = weyl.orbit_size(weyl.dominant_representative(lam)[0])
        min_abs = min(0.05 * size, 0.5 * np.sqrt(size))
    factor = 4 * np.pi * np.pi * _norm_sq(lam)
    values, laps = _fd_block(kind, lam, candidates, steps, frame)
    kept = np.abs(values) >= min_abs
    errs = np.abs(laps[kept] + factor * values[kept, None]) / (factor * np.abs(values[kept, None]))
    return errs.tolist()


#: Default random draws of ``laplacian_eigenvalue_check`` per kind.  A
#: draw passes the |f| filter of ``_relative_errors`` with probability
#: about 0.47 for C, 0.28 for E and 0.11 for S at rank 8 (rho, 3 000
#: draws): |S| carries the product of sines of the Weyl denominator and E =
#: (C + S)/2 half of it.  These counts put the chance that every draw
#: fails near 1e-3 or below at every rank up to 8.
LAPLACE_RETRIES = {"C": 12, "E": 24, "S": 64}


def laplacian_eigenvalue_check(
    kind: str,
    lam: Sequence[int],
    x: Sequence[float] | None = None,
    h: float = 1e-3,
    rng: np.random.Generator | None = None,
    retries: int | None = None,
    min_abs: float | None = None,
    frame: np.ndarray | None = None,
) -> float | None:
    """Relative error of the finite-difference eigenvalue identity.

    The orbit functions satisfy laplacian(f) = -4*pi^2 <lam,lam> f; the
    check returns |fd_laplacian(f) + 4*pi^2 <lam,lam> f| normalized by
    4*pi^2 <lam,lam> |f|.  Points where |f| is not bounded away from zero
    are re-drawn (the ratio is meaningless there), up to ``retries`` draws
    (``LAPLACE_RETRIES[kind]`` by default; the first draws are the same
    whatever the count); None signals that every draw landed on a
    near-zero of f.
    """
    if not 0 < h <= 0.01:
        raise ValueError("step h must lie in (0, 0.01]")
    lam = lie.as_weight(lam)
    if _norm_sq(lam) == 0:
        return 0.0
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    if retries is None:
        retries = LAPLACE_RETRIES[kind]
    candidates = _random_e_points(rng, retries, len(lam))
    if x is not None:
        candidates = np.vstack([np.asarray(x, dtype=float), candidates])
    errs = _relative_errors(kind, lam, candidates, (h,), min_abs, frame)
    return errs[0][0] if errs else None


# ---------------------------------------------------------------------------
# Symmetry identities.

class SymmetryReport(Record):
    _fields = ("lam", "trials", "seed", "scale", "max_c_dev", "max_s_dev", "max_e_dev",
               "tolerance")

    def __init__(self, lam: tuple[int, ...], trials: int, seed: int, scale: float,
                 max_c_dev: float = 0.0, max_s_dev: float = 0.0, max_e_dev: float = 0.0,
                 tolerance: float = 1e-12):
        self.lam, self.trials, self.seed, self.scale = lam, trials, seed, scale
        self.max_c_dev, self.max_s_dev, self.max_e_dev = max_c_dev, max_s_dev, max_e_dev
        self.tolerance = tolerance

    @property
    def passed(self) -> bool:
        bound = self.tolerance * self.scale
        return max(self.max_c_dev, self.max_s_dev, self.max_e_dev) < bound

    def as_dict(self) -> dict:
        fields = super().as_dict()
        return {"lambda": list(fields.pop("lam")), **fields, "passed": self.passed}


def symmetry_suite(
    lam: Sequence[int], trials: int = 100, seed: int = DEFAULT_SEED,
    tolerance: float = 1e-12,
) -> SymmetryReport:
    """Reflection identities at random points: C invariant and S flipping
    sign under each reflection r_i, E invariant under each even element
    r_i r_{i+1}, and for strictly dominant lam E(x) + E(r_1 x) = C(x) (E
    sums the even orbit points, E at r_1 x the odd ones).  Each Weyl element
    acts on x as a permutation of its e-coordinates.

    Deviations are compared against tolerance * orbit size (each value is a
    sum of that many unit exponentials).
    """
    lam = lie.dominant_weight(lam, "symmetry suite")
    n = len(lam)
    strict = lie.is_strictly_dominant(lam)
    report = SymmetryReport(lam=lam, trials=trials, seed=seed,
                            scale=float(weyl.orbit_size(lam)), tolerance=tolerance)
    x = _random_e_points(np.random.default_rng(seed), trials, n)
    c0 = orbit_functions.eval_c(lam, x, basis="e")
    s0 = orbit_functions.eval_s(lam, x, basis="e") if strict else None
    e0 = orbit_functions.eval_e(lam, x, basis="e")
    columns = range(n + 1)
    for i in range(1, n + 1):
        rx = x[:, weyl.reflect(i, columns)]  # r_i swaps e-coordinates i, i+1
        c_dev = np.abs(orbit_functions.eval_c(lam, rx, basis="e") - c0)
        report.max_c_dev = float(c_dev.max(initial=report.max_c_dev))
        if strict:
            s_dev = np.abs(orbit_functions.eval_s(lam, rx, basis="e") + s0)
            report.max_s_dev = float(s_dev.max(initial=report.max_s_dev))
        if i < n:
            # r_i r_{i+1} cycles e-coordinates i, i+1, i+2.
            gx = x[:, weyl.reflect(i, weyl.reflect(i + 1, columns))]
            e_dev = np.abs(orbit_functions.eval_e(lam, gx, basis="e") - e0)
            report.max_e_dev = float(e_dev.max(initial=report.max_e_dev))
    if strict:
        r1x = x[:, weyl.reflect(1, columns)]
        e_dev = np.abs(orbit_functions.eval_e(lam, r1x, basis="e") + e0 - c0)
        report.max_e_dev = float(e_dev.max(initial=report.max_e_dev))
    return report


# ---------------------------------------------------------------------------
# Named verification suites (consumed by the CLI).

class Check(Record):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail


class SuiteReport(Record):
    _fields = ("suite", "seed", "checks")

    def __init__(self, suite: str, seed: int, checks: list | None = None):
        self.suite, self.seed = suite, seed
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite} (seed {self.seed})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  {c.detail}" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{suffix}")
        lines.append(f"  => {'all checks passed' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def dominant_weights(n: int, coord_bound: int) -> list[tuple[int, ...]]:
    return [tuple(w) for w in itertools.product(range(coord_bound + 1), repeat=n)]


#: Most bytes the ortho suite's quadrature cross-check may hold at once.
QUADRATURE_BYTE_BUDGET = 1 << 30

#: Grid points per axis of the ortho suite's quadrature cross-check.
ORTHO_POINTS = 16


def quadrature_bytes(n: int, coord_bound: int, n_points: int) -> int:
    """Upper bound on the bytes the rank-n ortho suite holds.

    From rank 2 on (rank 1 has no grid), complex values (16 B) at twice
    ``grid_orbit_count`` nodes, at least the W+-orbit nodes, although the
    suite's C Gram takes only the W-orbit ones: every label's values,
    weighted and conjugated for the Gram product; the Gram matrix, its
    prediction and two temporaries.  At every rank, what the walk of
    ``orthogonality_reports`` holds: one label's three sums and sorted
    suffix sums, 450 B a point of a generic orbit; the orbit cache it fills,
    260 B a point of every label's orbit up to ``ORBIT_POINT_BOUND`` (or
    the one generic orbit past it); and the label list, 48 + 36n B a label
    (tracemalloc, orbit cache cold: 410 B a point at rank 8, 250 B a cached
    point at rank 1 and 90-245 B at ranks 2-8).  Last, one evaluation
    chunk's transients, ~24 B a cell of ``orbit_functions.CHUNK_CELLS``.
    """
    labels = (coord_bound + 1) ** n
    full = factorial(n + 1)
    grid = (6 * grid_orbit_count(n, n_points) + 4 * labels) * labels if n >= 2 else 0
    cached = min(labels * full, max(weyl.ORBIT_POINT_BOUND, full))
    exact = 450 * full + 260 * cached + (48 + 36 * n) * labels
    return 16 * grid + exact + 24 * orbit_functions.CHUNK_CELLS


def run_ortho_suite(
    rank_bound: int = 3, coord_bound: int = 3, seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Exact torus orthogonality for C/S/E, one walk over the labels a rank
    (``orthogonality_reports``), plus quadrature cross-checks on the grid
    of ``ORTHO_POINTS`` points per axis.

    Raises ValueError before any work when the suite at the top rank would
    hold more than QUADRATURE_BYTE_BUDGET bytes (``quadrature_bytes``).
    """
    need = quadrature_bytes(rank_bound, coord_bound, ORTHO_POINTS)
    if need > QUADRATURE_BYTE_BUDGET:
        raise ValueError(
            f"ortho quadrature at rank {rank_bound}, coordinate bound {coord_bound}, "
            f"N={ORTHO_POINTS} would hold about {need / 2**30:.2f} GiB, "
            f"over the {QUADRATURE_BYTE_BUDGET / 2**30:g} GiB budget")
    report = SuiteReport("ortho", seed)
    for n in range(1, rank_bound + 1):
        for rep in orthogonality_reports(n, coord_bound):
            report.add(
                f"A{n} {rep.kind}-orthogonality exact (diagonal = {rep.expected_diagonal})",
                rep.passed,
                f"{rep.pairs_tested} pairs, max deviation {rep.max_deviation}",
            )

        if n >= 2:
            max_dev = _quadrature_gram_deviation(dominant_weights(n, coord_bound), ORTHO_POINTS)
            report.add(
                f"A{n} quadrature N={ORTHO_POINTS} matches exact values",
                max_dev < 1e-9,
                f"max deviation {max_dev:.3e}",
            )

    # Negative control: a grid below the bound must alias.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        aliased = quadrature_inner_product("C", (3,), (3,), 6)
    report.add(
        "undersampled grid demonstrates aliasing",
        abs(aliased - 2) > 0.5,
        f"N=6 diagonal value {aliased.real:.6f} (exact 2)",
    )
    return report


def quadrature_gram(functions: Sequence[tuple[str, Sequence[int]]], n_points: int) -> np.ndarray:
    """Rectangle-rule Gram matrix of the orbit functions, given as (kind,
    label) pairs, n_points per axis, over the nodes of ``grid_orbits``
    weighted by their orbit sizes.  Every orbit function is W+-invariant,
    so each product f * conj(g) is constant on the W+-orbits; a C-function
    sums the whole of W, so when every function is a C-function the nodes
    are one per W-orbit.  The values at the nodes come from
    ``eval_c``/``eval_s``/``eval_e``, one batch per function, so each label
    takes the path its batch size makes cheaper."""
    n = len(functions[0][1])
    nodes, sizes = grid_orbits(n, n_points, even=any(kind != "C" for kind, _ in functions))
    values = np.array([_EVALUATORS[kind](lam, nodes, basis="e") for kind, lam in functions])
    return (values * sizes) @ values.conj().T / n_points ** n


def _folded_orbit(lam: tuple[int, ...], n_points: int) -> tuple[tuple[int, ...], int]:
    """The key of the orbit onto which C_lam folds mod n_points, and the
    order |W_a'| of its stabilizer (``_folded_gram``)."""
    r = [p % n_points for p in lie.suffix_sums(lam)]
    shifted = [sorted((p + t) % n_points for p in r) for t in range(n_points)]
    order = shifted.count(shifted[0]) * prod(factorial(r.count(v)) for v in set(r))
    return tuple(min(shifted)), order


def _folded_gram(labels: Sequence[tuple[int, ...]], n_points: int) -> np.ndarray:
    """The rectangle-rule Gram of the C-functions of the dominant labels, N =
    n_points per axis, exact on any grid and from no orbit: a weight mod N is
    its suffix sums r mod N up to a common shift t, so C_a folds onto the
    W-orbit keyed by the least sorted (r + t) mod N, each of its |W|/|W_a'|
    points |W_a'|/|W_a| times (|W_a'|: the t that permute r, times the
    factorials of r's multiplicities), and C_a, C_b have entry
    |W| |W_a'| / (|W_a| |W_b|) when their keys agree, else 0."""
    ids: dict = {}
    keys, weights, sizes = [], [], []
    for lam in labels:
        key, order = _folded_orbit(lam, n_points)
        keys.append(ids.setdefault(key, len(ids)))
        weights.append(order // weyl.stabilizer_order(lam))
        sizes.append(factorial(len(lam) + 1) // order)
    weights = np.array(weights, dtype=float)
    return np.equal.outer(keys, keys) * np.outer(weights, weights * sizes)


def _quadrature_gram_deviation(labels: Sequence[tuple[int, ...]], n_points: int) -> float:
    """Largest distance of the grid Gram of the C-functions of the labels
    from its closed-form prediction ``_folded_gram``."""
    gram = quadrature_gram([("C", lam) for lam in labels], n_points)
    return float(np.abs(gram - _folded_gram(labels, n_points)).max())


def _laplace_cases(rank_bound: int) -> list[tuple[str, tuple[int, ...]]]:
    cases = []
    for n in range(1, rank_bound + 1):
        rho = (1,) * n
        cases.append(("C", rho))
        cases.append(("S", rho))
        cases.append(("E", rho))
        for j in range(n):
            cases.append(("C", tuple(2 if k == j else 0 for k in range(n))))
    return cases


def _drawn_errors(
    kind: str, lam: tuple[int, ...], rng: np.random.Generator, points: int, draws: int,
    steps: Sequence[float],
) -> list[list[float]]:
    """``_relative_errors`` at random e-points, drawn until ``points`` of
    them pass the |f| filter or ``draws`` are spent.  The draws go in blocks
    of at most the number still missing, which no block can overshoot, so
    every drawn point is used and ``rng`` ends where drawing one point at a
    time would leave it, with the same points accepted."""
    errs: list = []
    drawn = 0
    while len(errs) < points and drawn < draws:
        block = min(points - len(errs), draws - drawn)
        errs += _relative_errors(kind, lam, _random_e_points(rng, block, len(lam)), steps)
        drawn += block
    return errs


def run_laplace_suite(
    rank_bound: int = 3, coord_bound: int = 3, seed: int = DEFAULT_SEED,
    points: int = 20, h: float = 1e-3,
) -> SuiteReport:
    """Finite-difference eigenvalue identity and its h^2 convergence rate;
    the labels are fixed per rank, so coord_bound does not apply."""
    report = SuiteReport("laplace", seed)
    rng = np.random.default_rng(seed)
    for kind, lam in _laplace_cases(rank_bound):
        n = len(lam)
        # Both step sizes at the same point, or the ratio is meaningless.
        errs = _drawn_errors(kind, lam, rng, points, 20 * points, (h, h / 2))
        name = f"A{n} {kind}_{''.join(map(str, lam))}"
        if not errs:
            report.add(f"{name} eigenvalue", False, "all points degenerate")
            continue
        worst, worst_half = np.max(errs, axis=0)
        report.add(
            f"{name} relative error < 1e-4 at h={h:g}",
            worst < 1e-4,
            f"max {worst:.3e} over {len(errs)} points",
        )
        ratio = worst / worst_half
        report.add(
            f"{name} halving h shrinks error ~4x",
            3.0 <= ratio <= 5.0,
            f"ratio {ratio:.2f}",
        )
    # Frame independence at one deterministic case: two frames agree up to
    # the h^2 truncation term, so normalize like the eigenvalue check.
    lam = (1,) * min(2, rank_bound)
    x = _random_e_points(np.random.default_rng(seed), 1, len(lam))[0]
    centre, (l1,) = _fd_values("C", lam, x, (h,), hyperplane_frame(len(lam)))
    _, (l2,) = _fd_values("C", lam, x, (h,), hyperplane_frame(len(lam), reverse=True))
    scale = 4 * np.pi * np.pi * _norm_sq(lam) * abs(centre)
    report.add(
        "Laplacian independent of the orthonormal frame",
        abs(l1 - l2) < 1e-4 * scale,
        f"relative delta {abs(l1 - l2) / scale:.3e}",
    )
    return report


def run_symmetry_suite(
    rank_bound: int = 3, coord_bound: int = 3, seed: int = DEFAULT_SEED,
    trials: int = 100, tolerance: float = 1e-11,
) -> SuiteReport:
    if coord_bound ** rank_bound > np.iinfo(np.int64).max:
        raise ValueError(f"symmetry labels: {coord_bound}^{rank_bound} exceed an int64 index")
    report = SuiteReport("symmetry", seed)
    rng = np.random.default_rng(seed)
    for n in range(1, rank_bound + 1):
        lams = {(1,) * n}
        # Two of the c^n labels with coordinates 1..c in lexicographic order,
        # drawn by index; the list is never built.
        idx = rng.choice(coord_bound ** n, size=min(2, coord_bound ** n), replace=False)
        lams.update(tuple(int(d) + 1 for d in np.unravel_index(i, (coord_bound,) * n)) for i in idx)
        lams.add(tuple(coord_bound if k == 0 else 0 for k in range(n)))
        for lam in sorted(lams):
            rep = symmetry_suite(lam, trials=trials, seed=seed, tolerance=tolerance)
            report.add(
                f"A{n} symmetry at {lam}",
                rep.passed,
                f"max dev C {rep.max_c_dev:.2e} S {rep.max_s_dev:.2e} "
                f"E {rep.max_e_dev:.2e} (scale {rep.scale:g})",
            )
    return report


#: The top degree of the chebyshev suite's rank-1 checks.
CHEBYSHEV_DEGREE = 20


def _rank_one(m: int, first_kind: bool) -> dict:
    """The closed forms in X of 2T_m(X/2), m >= 1, and of U_m(X/2): the
    coefficient of X^(m-2k) is (-1)^k m/(m-k) C(m-k, k), resp. (-1)^k C(m-k, k)
    (Mason & Handscomb, *Chebyshev Polynomials*, ch. 2)."""
    return {(m - 2 * k,): (-1) ** k * (m * comb(m - k, k) // (m - k) if first_kind
                                       else comb(m - k, k))
            for k in range(m // 2 + 1)}


def run_chebyshev_suite(rank_bound: int | None = None, coord_bound: int | None = None,
                        seed: int = DEFAULT_SEED) -> SuiteReport:
    """Rank-1 reduction to the classical polynomials, exactly: poly_t((m,)) is
    2T_m(X/2) and poly_u((m,)) is U_m(X/2), compared with their closed forms,
    and the classical identities tying the kinds hold on them in X.  Nothing
    is drawn at random and the rank is 1, so the bounds and the seed do not
    apply."""
    top = CHEBYSHEV_DEGREE
    report = SuiteReport("chebyshev", DEFAULT_SEED)
    t = [chebyshev.poly_t((m,)) for m in range(top + 2)]
    u = [chebyshev.poly_u((m,)) for m in range(top + 1)]
    report.add(f"T-polynomials reduce to doubled first kind, m=1..{top}",
               all(t[m].terms == _rank_one(m, True) for m in range(1, top + 1)))
    report.add("T at m=0 is the unit (distinct-point normalization)",
               t[0].terms == {(0,): 1})
    report.add(f"U-polynomials reduce to second kind, m=0..{top}",
               all(u[m].terms == _rank_one(m, False) for m in range(top + 1)))
    # dT_m/dX = m U_{m-1}; 2T_{m+1} = X T_m - (4 - X^2) U_{m-1};
    # T_m = 2U_m - X U_{m-1}; T_m = U_m - U_{m-2}.
    x = chebyshev.XPolynomial(1, {(1,): 1})
    four_minus_x2 = chebyshev.XPolynomial(1, {(0,): 4, (2,): -1})
    ok_ids = all(
        chebyshev.XPolynomial(1, {(k - 1,): k * c for (k,), c in t[m].terms.items()})
        == u[m - 1].scale(m)
        and t[m + 1].scale(2) == x * t[m] - four_minus_x2 * u[m - 1]
        and t[m] == u[m].scale(2) - x * u[m - 1]
        and (m < 2 or t[m] == u[m] - u[m - 2])
        for m in range(1, top + 1)
    )
    report.add(f"classical identity suite exact, m<= {top}", ok_ids)
    fixed = {
        (2,): {(2,): 1, (0,): -2},
        (3,): {(3,): 1, (1,): -3},
        (4,): {(4,): 1, (2,): -4, (0,): 2},
    }
    ok_table = all(chebyshev.poly_t(k).terms == v for k, v in fixed.items())
    fixed_u = {
        (2,): {(2,): 1, (0,): -1},
        (3,): {(3,): 1, (1,): -2},
        (4,): {(4,): 1, (2,): -3, (0,): 1},
    }
    ok_table &= all(chebyshev.poly_u(k).terms == v for k, v in fixed_u.items())
    report.add("fixed low-degree coefficient tables", ok_table)
    return report


#: The generic-label identities of ``_form_deviations``, in report order.
_FORM_CHECKS = {
    "plus": "permanent form = stabilizer * C",
    "minus": "determinant form = S",
    "alt": "alternating form = E",
    "half": "alternating = (permanent + determinant)/2",
}


def _form_deviations(lam: tuple[int, ...], xs: np.ndarray) -> dict[str, float]:
    """Largest deviation, over the e-points xs, of each identity tying the
    forms of the dominant label lam to its orbit functions: the permanent is
    stabilizer * C, the determinant S (zero on a chamber wall), the
    alternating form (permanent + determinant)/2 and, off the walls, E."""
    p = lie.suffix_sums(lam)  # the floats of lie.omega_to_e(lam), p - mean(p)
    l_e = np.array([(len(p) * c - sum(p)) / len(p) for c in p])
    dp = orbit_functions.d_plus(l_e, xs)
    dm = orbit_functions.d_minus(l_e, xs)
    da = orbit_functions.d_alt(l_e, xs)
    c = orbit_functions.eval_c(lam, xs, basis="e")
    devs = {"plus": dp - weyl.stabilizer_order(lam) * c, "minus": dm,
            "half": da - (dp + dm) / 2}
    if lie.is_strictly_dominant(lam):
        devs["minus"] = dm - orbit_functions.eval_s(lam, xs, basis="e")
        devs["alt"] = da - orbit_functions.eval_e(lam, xs, basis="e")
    return {key: float(np.abs(dev).max()) for key, dev in devs.items()}


def run_detforms_suite(
    rank_bound: int = 4, coord_bound: int = 3, seed: int = DEFAULT_SEED,
    samples: int = 100, tolerance: float = 1e-9,
) -> SuiteReport:
    """Permanent/determinant/alternating forms against C, S, E functions.

    Each form sums (n+1)! unit exponentials, so deviations are compared
    against tolerance * (n+1)!.  A rank draws its samples' labels first,
    then their points, and evaluates the samples once per label, as one
    batch: ``samples`` scales memory as a batch size does, while the tables,
    arrangements and evaluation chunks are bounded by constants.

    On the column expansion S is also a determinant, yet "determinant form
    = S" still compares two computations: ``d_minus`` builds its matrix
    from ``lie.omega_to_e`` and the raw e-point, ``eval_s`` from the integer
    suffix sums and y = x - mean(x), so a fault in either matrix shows (the
    two differ by ~1e-12 at rank 6 from rounding alone).  numpy's LU itself
    is pinned by "alternating = (permanent + determinant)/2", which checks
    it against Ryser's permanent and ``exp_kernel``'s even-permutation sum.
    """
    report = SuiteReport("detforms", seed)
    rng = np.random.default_rng(seed)
    for n in range(1, rank_bound + 1):
        bound = tolerance * factorial(n + 1)
        labels = rng.integers(1, coord_bound + 1, size=(samples, n)).tolist()
        points: dict[tuple[int, ...], list] = {}
        for lam, x in zip(labels, _random_e_points(rng, samples, n)):
            points.setdefault(tuple(lam), []).append(x)
        worst = dict.fromkeys(_FORM_CHECKS, 0.0)
        for lam, xs in points.items():
            for key, dev in _form_deviations(lam, np.array(xs)).items():
                worst[key] = max(worst[key], dev)
        for key, claim in _FORM_CHECKS.items():
            report.add(f"A{n} {claim}", worst[key] < bound, f"max dev {worst[key]:.3e}")

        if n >= 2:
            # On a chamber wall the permanent form picks up the stabilizer
            # order and the determinant form vanishes outright.
            wall = tuple(2 if k == 0 else 0 for k in range(n))
            dev = max(_form_deviations(wall, _random_e_points(rng, 10, n)).values())
            k = weyl.stabilizer_order(wall)
            report.add(f"A{n} wall weight {wall}: permanent = {k} * C, determinant = 0",
                       dev < bound, f"max dev {dev:.3e}")
    return report


SUITES = {
    "ortho": run_ortho_suite,
    "laplace": run_laplace_suite,
    "symmetry": run_symmetry_suite,
    "chebyshev": run_chebyshev_suite,
    "detforms": run_detforms_suite,
}


def run_suite(
    name: str, rank_bound: int | None = None, coord_bound: int | None = None,
    seed: int = DEFAULT_SEED,
) -> list[SuiteReport]:
    """Run one named suite, or all of them; returns one report per suite.
    A bound left as None keeps each suite's own default."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    bounds = {key: value for key, value in
              (("rank_bound", rank_bound), ("coord_bound", coord_bound)) if value is not None}
    return [SUITES[suite](seed=seed, **bounds) for suite in (SUITES if name == "all" else [name])]
