"""Exact lattice data for the A-series algebras (rank n, group SU(n+1)).

Weights are plain tuples of integers giving coordinates in the omega basis
(fundamental weights).  e-basis coordinates lie on the hyperplane where all
n+1 coordinates sum to zero; every exact e-space computation works on the
integer ``suffix_sums`` instead, which are the e-coordinates shifted by a
constant.  Everything here is exact integer arithmetic; floating point
enters only at evaluation time in :mod:`orbitpoly.orbit_functions` and
:mod:`orbitpoly.analysis`, which divide those integers by n+1 once.
"""
from __future__ import annotations

import itertools
from typing import Sequence

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


def suffix_sums(lam: Sequence[int]) -> tuple[int, ...]:
    """p_j = lam_j + ... + lam_n for j = 1..n+1 (p_{n+1} = 0).

    The one exact e-frame: p is the e-coordinate vector shifted by its mean,
    so the e-coordinates are p - mean(p), a root e_i - e_j moves p_i and p_j
    by one each, W permutes the entries of p, a weight is dominant exactly
    when p descends, and the omega coordinates are the consecutive
    differences.  All integers, no scaling.
    """
    return tuple(itertools.accumulate(reversed(lam)))[::-1] + (0,)


def congruence_number(lam: Sequence[int]) -> int:
    """sum_k k*lam_k (the suffix sums' sum) mod (n+1), additive; lam is checked by ``as_weight``."""
    lam = as_weight(lam)
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
