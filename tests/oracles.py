"""Helpers that only the tests use: independent oracles and point
conversions that the package itself does not need."""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from orbitpoly import lie, weyl
from orbitpoly.exp_ring import ExpSum, OrbitDecomposition, grlex_key
from orbitpoly.lie import check_rank, suffix_sums


def signed_permutations(items: tuple) -> Iterator[tuple[tuple, int]]:
    """Yield (arrangement, parity) for all permutations of distinct items.

    Parity is relative to the input order.  Built by inserting the head
    element into every gap of each sub-permutation; an insertion that skips
    p elements costs p adjacent transpositions.
    """
    if len(items) <= 1:
        yield items, 1
        return
    head, rest = items[0], items[1:]
    for sub, s in signed_permutations(rest):
        for pos in range(len(sub) + 1):
            sign = s if pos % 2 == 0 else -s
            yield sub[:pos] + (head,) + sub[pos:], sign


def ryser_permanent(a: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix of an (..., m, m)
    stack, by Ryser's inclusion-exclusion: the row sums over every nonempty
    column subset are one product with the (m, 2^m - 1) 0/1 mask matrix,
    and their products over the rows are summed with sign
    (-1)^(m - |subset|).  The empty subset's term is the product of m zero
    row sums, 0 for m >= 1; at m = 0 it is the empty product 1, and it is
    the only subset.  The oracle of Glynn's ``orbit_functions.permanent``
    and of the column expansion.
    """
    a = np.asarray(a)
    m = a.shape[-1]
    masks = (np.arange(1 if m else 0, 1 << m) >> np.arange(m)[:, None] & 1).astype(float)
    return (a @ masks).prod(axis=-2) @ (-1.0) ** (m - masks.sum(axis=0))


def alpha_to_e_point(x: Sequence[float]) -> tuple[float, ...]:
    """Real vector in the alpha basis -> e-coordinates (zero-sum)."""
    x = tuple(x)
    n = len(x)
    prev = 0.0
    out = []
    for j in range(n):
        out.append(x[j] - prev)
        prev = x[j]
    out.append(-x[n - 1])
    return tuple(out)


def e_to_alpha_point(coords: Sequence[float]) -> tuple[float, ...]:
    """Real zero-sum e-point -> alpha coordinates (partial sums)."""
    coords = tuple(coords)
    out = []
    run = 0.0
    for c in coords[:-1]:
        run += c
        out.append(run)
    return tuple(out)


def torus_inner_product(a: ExpSum, b: ExpSum) -> int:
    """Exact torus integral of a * conj(b): sum of matching coefficients.

    Integer coefficients make the conjugation trivial; only weights shared
    by both supports contribute.
    """
    a._check_rank(b)
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    return sum(c * large[w] for w, c in small.items() if w in large)


def fold(s: ExpSum, n_points: int) -> ExpSum:
    """The sum with every weight reduced coordinatewise mod n_points.

    The grid mean of exp(2*pi*i <w - v, x>) over the rectangle rule with
    n_points per axis is 1 when w = v (mod n_points) coordinatewise and 0
    otherwise, so the rule's value for a * conj(b) is exactly
    ``torus_inner_product(fold(a, N), fold(b, N))``: the orbit-by-orbit
    oracle of ``analysis._folded_gram``.
    """
    out: dict = {}
    for w, c in s.terms.items():
        key = tuple(x % n_points for x in w)
        out[key] = out.get(key, 0) + c
    return ExpSum(s.rank, out)


def sparse_gram(sums: Sequence[ExpSum]) -> dict[tuple[int, int], int]:
    """The nonzero entries (i, j), i <= j, of the exact torus Gram of the
    sums: sum_w a_w * b_w, ``torus_inner_product`` of every pair at once.

    The diagonal is each sum's sum of squares.  One index maps each weight
    to the first sum holding it, and a weight that a later sum holds too
    gets the list of its holders, in sum order, so pairs of sums meet only
    at shared weights: the work is the number of terms plus the pairs per
    shared weight, not the number of pairs of sums.  The Gram oracle of the
    folded and reduced-grid quadrature tests.
    """
    gram = {(i, i): sum(c * c for c in s.terms.values()) for i, s in enumerate(sums)}
    first: dict = {}
    holders: dict = {}
    for i, s in enumerate(sums):
        for w in s.terms:
            j = first.setdefault(w, i)
            if j != i:
                holders.setdefault(w, [j]).append(i)
    for w, held in holders.items():
        for k, i in enumerate(held):
            a = sums[i].terms[w]
            for j in held[k + 1:]:
                gram[i, j] = gram.get((i, j), 0) + a * sums[j].terms[w]
    return {key: value for key, value in gram.items() if value}


def orbit_product_by_points(a: Sequence[int], b: Sequence[int]) -> OrbitDecomposition:
    """``exp_ring.orbit_product`` by a loop over the built points q of the
    smaller orbit (``weyl.orbit``), each turned back into its suffix sums:
    the oracle of the product's read of the arrangements, terms and key
    order alike."""
    a, b = lie.dominant_weight(a, "C"), lie.dominant_weight(b, "C")
    stab_a, stab_b = weyl._stabilizer_order(a), weyl._stabilizer_order(b)
    if stab_a < stab_b:
        a, b, stab_b = b, a, stab_a
    # Suffix sums in reversed position order (p_{n+1}, p_n, ..., p_1): the
    # order is immaterial once sorted, as long as both summands share it.
    base = (0, *itertools.accumulate(reversed(b)))
    counts: dict = {}
    for q in weyl.orbit(a).points:
        p = sorted(map(operator.add, base, (0, *itertools.accumulate(reversed(q)))),
                   reverse=True)
        dom = tuple(map(operator.sub, p, p[1:]))
        counts[dom] = counts.get(dom, 0) + 1
    terms = {}
    for dom in sorted(counts, key=grlex_key, reverse=True):
        mult, rest = divmod(counts[dom] * weyl._stabilizer_order(dom), stab_b)
        assert not rest, (dom, a, b)
        terms[dom] = mult
    return OrbitDecomposition(len(a), terms)


def strictly_dominant_weights(n: int, coord_bound: int) -> list[tuple[int, ...]]:
    """Every rank-n label with coordinates in 1..coord_bound, in
    lexicographic order: the S labels of the ortho suite and the pool the
    symmetry suite draws from by index."""
    return list(itertools.product(range(1, coord_bound + 1), repeat=n))


def three_term_coeffs(m: int, first: Sequence[int]) -> tuple[int, ...]:
    """Dense coefficients of P_m for P_0 = 1, P_1 = first (dense) and
    P_{k+1} = 2z P_k - P_{k-1}: the classical Chebyshev recursion on plain
    integer lists, from P_0 on every call.  ``first`` is (0, 1) for the
    first kind and (0, 2) for the second."""
    prev, cur = [1], list(first)
    if m == 0:
        return tuple(prev)
    for _ in range(m - 1):
        prev, cur = cur, list(map(operator.sub, [0] + [2 * c for c in cur], prev + [0, 0]))
    return tuple(cur)


def omega_to_e_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """(n+1) x n conversion matrix from omega to e coordinates.

    Row j, column k is (n+1-k)/(n+1) for k >= j and -k/(n+1) for k < j;
    column k is the e-coordinate vector of the k-th fundamental weight.
    """
    check_rank(n)
    return tuple(
        tuple(
            Fraction(n + 1 - k, n + 1) if k >= j else Fraction(-k, n + 1)
            for k in range(1, n + 1)
        )
        for j in range(1, n + 2)
    )


def omega_to_e(lam: Sequence[int]) -> tuple[Fraction, ...]:
    """e-basis coordinates of a weight, p - mean(p); they sum to exactly zero."""
    p = suffix_sums(lam)
    total = sum(p)
    return tuple(Fraction(len(p) * c - total, len(p)) for c in p)


def inner_product(lam: Sequence[int], mu: Sequence[int]) -> Fraction:
    """W-invariant scalar product: lam^T C^{-1} mu in omega coordinates.

    Equals the Euclidean dot product of the e-coordinate images (the omega
    basis has Gram matrix C^{-1} because every simple root has squared
    length 2), which on suffix sums is sum p*q - sum p * sum q / (n+1).
    """
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam)} vs {len(mu)}")
    p, q = suffix_sums(lam), suffix_sums(mu)
    return Fraction(len(p) * sum(map(operator.mul, p, q)) - sum(p) * sum(q), len(p))


def norm_sq(lam: Sequence[int]) -> Fraction:
    return inner_product(lam, lam)


def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """n x n Cartan matrix: 2 on the diagonal, -1 on the sub/super-diagonal."""
    check_rank(n)
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


def cartan_inverse(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse Cartan matrix, entries min(i,j)*(n+1-max(i,j))/(n+1)."""
    check_rank(n)
    return tuple(
        tuple(
            Fraction(min(i, j) * (n + 1 - max(i, j)), n + 1)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


def e_to_omega(coords: Sequence) -> tuple:
    """Inverse of ``omega_to_e`` on the zero-sum hyperplane:
    lam_i = l_i - l_{i+1}.

    Exact inputs (int/Fraction) must sum to exactly zero; float inputs are
    accepted within a small tolerance.
    """
    coords = tuple(coords)
    if len(coords) < 2:
        raise ValueError("e-coordinates need length rank+1 >= 2")
    total = sum(coords)
    exact = all(isinstance(c, (int, Fraction)) for c in coords)
    if exact:
        if total != 0:
            raise ValueError(f"e-coordinates must sum to zero, got {total}")
    else:
        scale = max(1.0, max(abs(float(c)) for c in coords))
        if abs(float(total)) > 1e-9 * scale:
            raise ValueError(f"e-coordinates must sum to ~zero, got {total}")
    return tuple(coords[i] - coords[i + 1] for i in range(len(coords) - 1))


def rank_one_in_x(m: int, kind: str) -> dict[tuple[int], int]:
    """The rank-1 polynomial of the kind ("T" or "U") at degree m as
    {(k,): coefficient of X^k}, from ``three_term_coeffs`` under z = X/2:
    2T_m(X/2) for T at m >= 1, the unit for T at m = 0 (orbit sums count
    distinct points), U_m(X/2) for U."""
    scale = 2 if kind == "T" and m else 1
    out = {}
    for k, c in enumerate(three_term_coeffs(m, (0, 1) if kind == "T" else (0, 2))):
        if c:
            q, r = divmod(scale * c, 2 ** k)
            assert not r, (m, kind, k)
            out[(k,)] = q
    return out
