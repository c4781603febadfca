"""Numeric evaluation of C-, S- and E-orbit functions, and the permanent /
determinant / alternating-sum exponential forms they coincide with.

The argument point x may be given in alpha coordinates (length n, the
pairing with an omega-coordinate weight is then the plain dot product) or
as a real e-point of length n+1; adding a multiple of (1,...,1) to an
e-point never changes a value because weights sum to zero there.  An
(m, n) or (m, n+1) array is a batch of m points with one value each; a
batch row may differ from the same point evaluated alone in the last bits
(a matrix-matrix against a matrix-vector product).

Every exponential sum -- an orbit function here, ``ExpSum.evaluate``, the
quadrature grids of ``analysis`` -- is computed by the one kernel
``exp_kernel``.  It accumulates with numpy reductions (pairwise summation);
orbit sizes reach (n+1)! and naive left-to-right accumulation would leak
cancellation error into the identity checks.
"""
from __future__ import annotations

import cmath
import warnings
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import lie, weyl


class NonGenericWeightWarning(UserWarning):
    """An antisymmetrized sum was requested on a Weyl-chamber wall."""


def weight_rows(weights: Sequence[Sequence[int]], rank: int, basis: str) -> np.ndarray:
    """Omega-coordinate weights as float rows that pair with a point given
    in ``basis`` ("alpha": length n, "e": length n+1) by a dot product."""
    rows = np.array(weights, dtype=float).reshape(len(weights), rank)
    if basis == "alpha":
        return rows
    if basis == "e":
        return rows @ np.array(lie.omega_to_e_matrix(rank), dtype=float).T
    raise ValueError(f"unknown basis {basis!r}")


def exp_kernel(weights: np.ndarray, coeffs: np.ndarray, points: np.ndarray):
    """sum_mu coeff_mu * exp(2*pi*i <mu, x>) over the rows mu of ``weights``.

    ``points`` is one point x (a scalar result) or an (m, n) grid of them
    (m results).  Every numeric exponential sum in the package goes through
    here, so the same weights, coefficients and point give the same bits
    whichever function asked.
    """
    terms = np.exp(2j * np.pi * (points @ weights.T))
    terms *= coeffs  # in place: the same bits as coeffs * terms, one array fewer
    return terms.sum(axis=-1)


@lru_cache(maxsize=64)
def _table(dom: tuple[int, ...], kind: str, basis: str):
    """(weight rows, coefficients) of the kind-orbit sum of a dominant label.

    E keeps only the even rows themselves: masking would change the
    summation blocks and with them the bits.
    """
    orb = weyl.orbit(dom)
    points = orb.even_points if kind == "E" else orb.points
    coeffs = orb.signs if kind == "S" else (1,) * len(points)
    return weight_rows(points, orb.rank, basis), np.array(coeffs, dtype=float)


def _points(x, width: int, basis: str) -> np.ndarray:
    """x as float coordinates of one point (width,) or a batch (m, width)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"{basis} point must have length {width}, or a batch shape "
                         f"(m, {width}); got shape {x.shape}")
    return x


def _finite(values, x: np.ndarray):
    """values as a complex for one point x, as an array for a batch; raises
    ValueError naming the first point whose value is not finite."""
    if x.ndim == 1:
        values = complex(values)
        if cmath.isfinite(values):
            return values
    elif np.isfinite(values).all():
        return values
    row = x if x.ndim == 1 else x[np.isfinite(values).argmin()]
    raise ValueError(f"non-finite value at the point {tuple(row.tolist())}")


def _evaluate(dom: tuple[int, ...], kind: str, x, basis: str) -> complex | np.ndarray:
    weights, coeffs = _table(dom, kind, basis)
    x = _points(x, weights.shape[1], basis)
    return _finite(exp_kernel(weights, coeffs, x), x)


def eval_c(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """C-orbit function: plain exponential sum over the orbit of lam.

    Normalized over distinct orbit points, so C_0 = 1 and C_lam(0) equals
    the orbit size.
    """
    lam = lie.as_weight(lam)
    if not lie.is_dominant(lam):
        raise ValueError(f"C requires a dominant weight, got {lam}")
    return _evaluate(lam, "C", x, basis)


def eval_s(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """S-orbit function: parity-signed exponential sum over the orbit.

    Strictly dominant lam is the meaningful domain.  A dominant lam on a
    chamber wall returns exactly 0 (zeros for a batch) with one
    NonGenericWeightWarning -- the antisymmetrization cancels identically
    there, and callers composing characters need a total function rather
    than an error.  The points are checked as for any other label.
    """
    lam = lie.as_weight(lam)
    if not lie.is_dominant(lam):
        raise ValueError(f"S requires a dominant weight, got {lam}")
    if lie.is_strictly_dominant(lam):
        return _evaluate(lam, "S", x, basis)
    x = _points(x, weight_rows((), len(lam), basis).shape[1], basis)
    zeros = _finite(np.where(np.isfinite(x).all(axis=-1), 0j, np.nan), x)
    warnings.warn(
        f"S vanishes identically at the non-generic weight {lam}",
        NonGenericWeightWarning,
        stacklevel=2,
    )
    return zeros


def eval_e(lam: Sequence[int], x, basis: str = "alpha") -> complex | np.ndarray:
    """E-orbit function: exponential sum over the even-subgroup orbit.

    Labels are weights in P+ or r_i P+ (as for ``exp_sum(lam, "E")``); the
    value depends on lam only through its dominant representative, so E is
    invariant under lam -> r_i lam.  For strictly dominant lam it equals
    (C_lam + S_lam)/2.
    """
    return _evaluate(weyl.e_label_dominant(lam), "E", x, basis)


# ---------------------------------------------------------------------------
# Exponential functions in n+1 variables: permanent, determinant and
# alternating-sum forms of the matrix exp(2*pi*i * l_j * x_k).

def permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser inclusion-exclusion, O(2^m m); m <= 9."""
    a = np.asarray(a)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError("permanent requires a square matrix")
    if m > 9:
        raise ValueError(f"permanent limited to order 9, got {m}")
    total = 0j
    for mask in range(1, 1 << m):
        cols = [j for j in range(m) if mask >> j & 1]
        prod = a[:, cols].sum(axis=1).prod()
        total += prod if (m - len(cols)) % 2 == 0 else -prod
    return complex(total)


def _check_e_inputs(l: Sequence[float], x: Sequence[float]):
    l = np.asarray(l, dtype=float)
    x = np.asarray(x, dtype=float)
    if l.shape != x.shape or l.ndim != 1:
        raise ValueError("l and x must be e-vectors of equal length n+1")
    scale = max(1.0, float(np.abs(l).max()))
    if abs(l.sum()) > 1e-9 * scale:
        raise ValueError("l must sum to zero")
    if np.any(l[:-1] < l[1:] - 1e-12 * scale):
        raise ValueError("l must be weakly decreasing (dominant e-coordinates)")
    return l, x


def _exp_matrix(l: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * np.outer(l, x))


def d_plus(l: Sequence[float], x: Sequence[float]) -> complex:
    """Symmetric form: permanent of exp(2*pi*i l_j x_k).

    Equals the full group sum, hence (|W|/|W_lam|) times the C-function of
    the same weight.
    """
    l, x = _check_e_inputs(l, x)
    return permanent(_exp_matrix(l, x))


def d_minus(l: Sequence[float], x: Sequence[float]) -> complex:
    """Antisymmetric form: conventional determinant of the same matrix.

    Equals the S-function for generic weights and vanishes (repeated rows)
    on non-generic ones.
    """
    l, x = _check_e_inputs(l, x)
    return complex(np.linalg.det(_exp_matrix(l, x)))


def d_alt(l: Sequence[float], x: Sequence[float]) -> complex:
    """Alternating form: sum over even permutations only.

    Always equals (d_plus + d_minus)/2, and the E-function at generic
    weights.
    """
    l, x = _check_e_inputs(l, x)
    m = len(l)
    total = 0j
    for perm, sign in weyl.signed_permutations(tuple(range(m))):
        if sign != 1:
            continue
        total += np.exp(2j * np.pi * float(sum(l[i] * x[j] for i, j in enumerate(perm))))
    return complex(total)
