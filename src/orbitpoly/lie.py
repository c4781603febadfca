"""Exact lattice data for the A-series algebras (rank n, group SU(n+1)).

Weights are plain tuples of integers giving coordinates in the omega basis
(fundamental weights).  e-basis coordinates are exact ``fractions.Fraction``
values on the hyperplane where all n+1 coordinates sum to zero; every exact
e-space computation works on the integer ``suffix_sums`` instead, which are
the e-coordinates shifted by a constant.  Everything here is exact
rational arithmetic, ``fractions`` imported only by the functions that
return a ``Fraction``; floating point enters only at evaluation time in
:mod:`orbitpoly.orbit_functions` and :mod:`orbitpoly.analysis`, which
divide the same integer numerators once instead.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

#: Default cap on the rank.  At n = 8 a generic orbit already has
#: 9! = 362880 points; operations never assume small rank structurally,
#: so the cap is only a guard against accidentally huge computations.
MAX_RANK = 8

Weight = tuple[int, ...]


def check_rank(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_RANK.

    The module-level MAX_RANK is read at call time, so reassigning it
    reconfigures every entry point at once.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"rank must be a positive integer, got {n!r}")
    if n > MAX_RANK:
        raise ValueError(f"rank {n} exceeds the configured maximum {MAX_RANK}")


def as_weight(coords: Sequence[int]) -> Weight:
    """Validate and normalize omega-basis coordinates to a tuple of ints.

    A plain int passes on its exact type; only another type goes on to the
    ``isinstance`` check, which lets int subclasses other than bool pass and
    names the first coordinate that is not an integer.
    """
    lam = tuple(coords)
    for c in lam:
        if type(c) is not int and (isinstance(c, bool) or not isinstance(c, int)):
            raise ValueError(f"weight coordinates must be integers, got {c!r}")
    if not 0 < len(lam) <= MAX_RANK:
        check_rank(len(lam))
    return lam


@lru_cache(maxsize=None)
def omega_to_e_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """(n+1) x n conversion matrix from omega to e coordinates.

    Row j, column k is (n+1-k)/(n+1) for k >= j and -k/(n+1) for k < j;
    column k is the e-coordinate vector of the k-th fundamental weight.
    """
    from fractions import Fraction
    check_rank(n)
    return tuple(
        tuple(
            Fraction(n + 1 - k, n + 1) if k >= j else Fraction(-k, n + 1)
            for k in range(1, n + 1)
        )
        for j in range(1, n + 2)
    )


def suffix_sums(lam: Sequence[int]) -> tuple[int, ...]:
    """p_j = lam_j + ... + lam_n for j = 1..n+1 (p_{n+1} = 0).

    The one exact e-frame: p is the e-coordinate vector shifted by its mean,
    so the e-coordinates are p - mean(p), a root e_i - e_j moves p_i and p_j
    by one each, W permutes the entries of p, a weight is dominant exactly
    when p descends, and the omega coordinates are the consecutive
    differences.  All integers, no scaling.
    """
    return tuple(itertools.accumulate(reversed(lam)))[::-1] + (0,)


def omega_to_e(lam: Sequence[int]) -> tuple[Fraction, ...]:
    """e-basis coordinates of a weight, p - mean(p); they sum to exactly zero."""
    from fractions import Fraction
    p = suffix_sums(lam)
    total = sum(p)
    return tuple(Fraction(len(p) * c - total, len(p)) for c in p)


def inner_product(lam: Sequence[int], mu: Sequence[int]) -> Fraction:
    """W-invariant scalar product: lam^T C^{-1} mu in omega coordinates.

    Equals the Euclidean dot product of the e-coordinate images (the omega
    basis has Gram matrix C^{-1} because every simple root has squared
    length 2), which on suffix sums is sum p*q - sum p * sum q / (n+1).
    """
    from fractions import Fraction
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam)} vs {len(mu)}")
    p, q = suffix_sums(lam), suffix_sums(mu)
    return Fraction(len(p) * sum(map(operator.mul, p, q)) - sum(p) * sum(q), len(p))


def norm_sq(lam: Sequence[int]) -> Fraction:
    return inner_product(lam, lam)


def congruence_number(lam: Sequence[int]) -> int:
    """sum_k k*lam_k (the sum of the suffix sums) mod (n+1); additive under weight addition."""
    return sum(suffix_sums(lam)) % (len(lam) + 1)


def dominant_weight(coords: Sequence[int], what: str) -> Weight:
    """``as_weight(coords)``; raises ValueError naming ``what`` unless dominant.

    Non-negative plain ints of an allowed rank pass one exact-type loop;
    anything else takes ``as_weight``'s full check, so every error keeps
    its message and its order (integers, then rank, then dominance).
    """
    lam = tuple(coords)
    for c in lam:
        if type(c) is not int or c < 0:
            break
    else:
        if 0 < len(lam) <= MAX_RANK:
            return lam
    lam = as_weight(lam)
    if not is_dominant(lam):
        raise ValueError(f"{what} requires a dominant weight, got {lam}")
    return lam


def weyl_dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible representation of highest weight lam.

    Weyl's formula prod_{alpha > 0} (lam + rho, alpha) / (rho, alpha); for
    the root e_i - e_j (i < j) the pairings are the integer sums
    sum_{k=i}^{j-1} (lam_k + 1) and j - i.
    """
    lam = dominant_weight(lam, "weyl_dimension")
    n = len(lam)
    num = den = 1
    for i in range(n):
        run = 0
        for j in range(i, n):
            run += lam[j] + 1
            num *= run
            den *= j - i + 1
    return num // den


def is_dominant(lam: Sequence[int]) -> bool:
    return all(c >= 0 for c in lam)


def is_strictly_dominant(lam: Sequence[int]) -> bool:
    return all(c > 0 for c in lam)
