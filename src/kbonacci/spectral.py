"""Perron data of the k-bonacci incidence matrix: the dominant root,
the left eigenvector, the growth coefficients of the power lengths and
the letter frequencies of the unique invariant measure.

The dominant root lambda of X^k - sum_{j<k} X^j drives all growth rates;
the left eigenvector is available in closed form and is normalized so
that its first entry equals lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .substitution import Substitution, require_kbonacci

ROOT_TOL = 1e-14
# gamma_l is read off the exact |s^n(l)| at this n, where the remainder is negligible
GROWTH_DEPTH = 60


def _charpoly(k: int, x: float) -> float:
    return x**k - sum(x**j for j in range(k))


def _charpoly_deriv(k: int, x: float) -> float:
    return k * x ** (k - 1) - sum(j * x ** (j - 1) for j in range(1, k))


def perron_root(k: int) -> float:
    """Dominant root of X^k - sum_{j=0}^{k-1} X^j, in (1, 2).

    Bisection on [1, 2] (the polynomial is negative at 1, positive at 2
    and monotone between) followed by a Newton polish.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _charpoly(k, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(8):
        step = _charpoly(k, x) / _charpoly_deriv(k, x)
        x -= step
        if abs(step) < ROOT_TOL:
            break
    return x


def left_eigenvector(k: int, lam: float | None = None) -> np.ndarray:
    """Left Perron eigenvector v with v_l = lambda^{l+1-k} sum_{j<=k-1-l} lambda^j.

    The normalization makes v_{k-1} = 1 and forces v_0 = lambda via the
    defining polynomial identity.
    """
    if lam is None:
        lam = perron_root(k)
    v = np.empty(k)
    for l in range(k):
        v[l] = sum(lam**j for j in range(k - l)) / lam ** (k - 1 - l)
    return v


def tribonacci_cardan() -> float:
    """Cardan closed form of the Tribonacci root (k = 3)."""
    a = (19.0 + 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    b = (19.0 - 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return (a + b + 1.0) / 3.0


@dataclass(frozen=True)
class GrowthDecomposition:
    """|s^n(l)| = gamma_l lambda^n + r_l(n): coefficients and remainders."""

    k: int
    lam: float
    gamma: np.ndarray                 # per letter
    lengths: tuple[tuple[int, ...], ...]   # lengths[n][l] = |s^n(l)|, exact
    remainders: np.ndarray            # remainders[n, l] = r_l(n)
    theta_hat: float                  # fitted decay rate of |r_l(n)|


def growth_decomposition(s: Substitution) -> GrowthDecomposition:
    """Estimate gamma_l from exact matrix-power lengths at GROWTH_DEPTH and
    fit the remainder decay rate; no words are materialized.  k-bonacci only."""
    require_kbonacci(s)
    lam = perron_root(s.k)
    lengths = [s.power_lengths(n) for n in range(GROWTH_DEPTH + 1)]
    gamma = np.array([lengths[GROWTH_DEPTH][l] / lam**GROWTH_DEPTH for l in range(s.k)])
    remainders = np.array(
        [[lengths[n][l] - gamma[l] * lam**n for l in range(s.k)] for n in range(GROWTH_DEPTH + 1)]
    )
    # fit |r| ~ C theta^n on the mid-range where floating error is negligible
    theta_hat = 0.0
    ns, logs = [], []
    for n in range(1, 31):
        r = np.abs(remainders[n]).max()
        if r > 1e-9:
            ns.append(n)
            logs.append(math.log(r))
    if len(ns) >= 2:
        slope = np.polyfit(ns, logs, 1)[0]
        theta_hat = math.exp(slope)
    return GrowthDecomposition(s.k, lam, gamma, tuple(lengths), remainders, theta_hat)


def letter_frequencies(s: Substitution) -> np.ndarray:
    """Letter frequencies of the unique invariant measure: the normalized
    right Perron eigenvector of the incidence matrix."""
    m = s.incidence().astype(float)
    eigvals, eigvecs = np.linalg.eig(m)
    idx = int(np.argmax(eigvals.real))
    vec = np.abs(eigvecs[:, idx].real)
    return vec / vec.sum()
