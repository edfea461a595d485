"""Perron data of the k-bonacci incidence matrix: the dominant root,
the left eigenvector, the growth coefficients of the power lengths and
the letter frequencies of the unique invariant measure.

The dominant root lambda of X^k - sum_{j<k} X^j drives all growth rates;
the left eigenvector is available in closed form and is normalized so
that its first entry equals lambda, and the right one is (lambda^-i)_i.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .substitution import Substitution, require_kbonacci

ROOT_TOL = 1e-14


def _charpoly(k: int, x: float) -> float:
    return x**k - sum(x**j for j in range(k))


def _charpoly_deriv(k: int, x: float) -> float:
    return k * x ** (k - 1) - sum(j * x ** (j - 1) for j in range(1, k))


def perron_root(k: int) -> float:
    """Dominant root of X^k - sum_{j=0}^{k-1} X^j, in (1, 2).

    Bisection on [1, 2] (the polynomial is negative at 1, positive at 2
    and monotone between) until lo and hi are adjacent floats, whose
    midpoint is one of them, followed by a Newton polish.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lo, hi, x = 1.0, 2.0, 1.5
    while lo < x < hi:
        if _charpoly(k, x) < 0.0:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    for _ in range(8):
        step = _charpoly(k, x) / _charpoly_deriv(k, x)
        x -= step
        if abs(step) < ROOT_TOL:
            break
    return x


def left_eigenvector(k: int, lam: float) -> np.ndarray:
    """Left Perron eigenvector v with v_l = lambda^{l+1-k} sum_{j<=k-1-l} lambda^j.

    The normalization makes v_{k-1} = 1 and forces v_0 = lambda via the
    defining polynomial identity.
    """
    v = np.empty(k)
    for l in range(k):
        v[l] = sum(lam**j for j in range(k - l)) / lam ** (k - 1 - l)
    return v


@functools.lru_cache(maxsize=None)
def _perron(k: int) -> tuple[float, tuple[float, ...]]:
    """(lambda, v), derived once per k: a float and a tuple, which no caller can change."""
    lam = perron_root(k)
    return lam, tuple(left_eigenvector(k, lam))


def tribonacci_cardan() -> float:
    """Cardan closed form of the Tribonacci root (k = 3)."""
    a = (19.0 + 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    b = (19.0 - 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return (a + b + 1.0) / 3.0


class GrowthDecomposition(NamedTuple):
    """|s^n(l)| = gamma_l lambda^n + r_l(n) with |r_l(n)| = O(theta^n):
    the coefficients, the decay rate of the remainders, the left eigenvector
    v and the polynomial residual |lambda^k - sum_{j<k} lambda^j|."""

    lam: float
    gamma: np.ndarray                 # per letter
    theta: float                      # second-largest root modulus
    v: np.ndarray                     # per letter, a fresh copy of the cached one
    residual: float


def growth_decomposition(s: Substitution) -> GrowthDecomposition:
    """gamma_l = lambda v_l / sum_i v_i lambda^-i, from the left eigenvector v
    and the right one (lambda^-i)_i, whose entries sum to lambda; theta is
    the second-largest modulus among the roots of X^k - sum_{j<k} X^j.
    k-bonacci only."""
    require_kbonacci(s)
    lam, v = _perron(s.k)
    v = np.array(v)
    gamma = lam * v / sum(v[i] / lam**i for i in range(s.k))
    theta = float(np.sort(np.abs(np.roots([1.0] + [-1.0] * s.k)))[-2])
    return GrowthDecomposition(lam, gamma, theta, v, abs(_charpoly(s.k, lam)))


def letter_frequencies(s: Substitution) -> np.ndarray:
    """Letter frequencies of the unique invariant measure, mu_i = lambda^-(i+1):
    the right eigenvector (lambda^-i)_i over its sum, lambda.  k-bonacci only."""
    require_kbonacci(s)
    lam = _perron(s.k)[0]
    return np.array([lam ** -(i + 1) for i in range(s.k)])
