"""Helpers that only the tests use: independent oracles and point
conversions that the package itself does not need."""
from __future__ import annotations

import operator
from typing import Iterator, Sequence


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
