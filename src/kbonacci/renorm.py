"""The renormalization operator, its powers, and the explicit fixed point.

(RV)(x) sums V over the |s(x_0)| shifts of s(x).  Powers are available
either by brute force, renorm_power(..., "brute-force"): materialize
s^n(x) and sweep its breaks with the language oracle, one bisection and
then one failing query per shift; or in closed form: break positions
from the shifted delta formula, valid for n >= k, read off the longest
language prefix of x.  The two paths cross-check each other in the
tests, and verify_fixed_point checks RU = U by summing U over the same
break sweep at n = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UncertifiedConfigurationError
from .potentials import Potential
from .recognition import (
    Configuration,
    advance_break,
    brute_delta,
    delta,
    delta_after_power,
    maximal_prefix,
    maximal_prefix_after_power,
    power_prefix,
)
from .spectral import left_eigenvector, perron_root
from .substitution import Substitution, require_kbonacci
from .words import in_language

MODES = ("closed-form", "brute-force")


# -- potential evaluation ----------------------------------------------------


def eval_potential(s: Substitution, V: Potential, x: Configuration) -> float:
    """(g + h)(first letters) / delta^alpha; zero on the subshift."""
    return 0.0 if x.in_subshift else _potential_at_break(V, x, delta(s, x))


def _potential_at_break(V: Potential, x: Configuration, p: int) -> float:
    if len(x.head) < V.order:
        raise ValueError(f"head of length {len(x.head)} shorter than potential order {V.order}")
    return V.numerator(x.head[: V.order]) / float(p) ** V.alpha


# -- powers of the operator --------------------------------------------------


def renorm_power(
    s: Substitution,
    V: Potential,
    x: Configuration,
    n: int,
    mode: str = "closed-form",
) -> float:
    """(R^n V)(x) = sum over j < |s^n(x_0)| of V(sigma^j s^n(x))."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    V.validate_for(s)
    if n == 0:
        return eval_potential(s, V, x)
    if x.in_subshift:
        return 0.0
    if mode == "closed-form":
        return renorm_after_power(s, V, maximal_prefix(s, x), n)
    return _renorm_power_brute(
        s, x, n, lambda word, j, dj: V.numerator(word[j : j + V.order]) / float(dj) ** V.alpha, V.order
    )


def renorm_after_power(s: Substitution, V: Potential, w: str, n: int) -> float:
    """(R^n V)(x) in closed form from w = maximal_prefix(s, x), x off the subshift.
    Domain: k-bonacci, n >= k and V.order <= s.ladder_length(n - 1) + 1
    (at least 2^k at n = k), which keeps every window read inside
    maximal_prefix_after_power(s, w, n); a larger order raises ValueError."""
    V.validate_for(s)
    require_kbonacci(s)
    if n < s.k:
        raise ValueError(f"closed-form mode requires n >= k = {s.k}")
    return _closed_form(s, V, w, n, _constant_numerator(s, V))


def _constant_numerator(s: Substitution, V: Potential) -> float | None:
    """g + h when it does not depend on the window, else None."""
    return V.numerator_range("", s.k)[0] if V.is_locally_trivial else None


def _closed_form(s: Substitution, V: Potential, w: str, n: int, numer: float | None) -> float:
    """renorm_after_power for a V validated on a k-bonacci s and n >= k,
    with numer = _constant_numerator(s, V)."""
    if V.order > s.ladder_length(n - 1) + 1:
        raise ValueError(f"potential order {V.order} exceeds s.ladder_length({n - 1}) + 1")
    big_delta = delta_after_power(s, w, n)
    block = s.power_lengths(n)[int(w[0])]
    if numer is not None:
        return numer * _inverse_power_sum(V.alpha, big_delta - block + 1, big_delta)
    word = maximal_prefix_after_power(s, w, n)[: block + V.order - 1]
    arr = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
    code = np.zeros(block, dtype=np.int64)
    for t in range(V.order):
        code = code * s.k + arr[t : t + block]
    table = np.array([V.numerator("".join(u)) for u in itertools.product(map(str, range(s.k)), repeat=V.order)])
    depths = big_delta - np.arange(block, dtype=np.float64)
    return math.fsum((table[code] * depths ** (-V.alpha)).tolist())


# Above this span the Euler-Maclaurin path is faster than summing term by
# term for every alpha: the measured crossover is about 2,000 terms at
# non-integer alpha and a few hundred at alpha = 1 or 2 (CPython 3.11 on
# a 2-vCPU Xeon).  It must stay above the spans |s^n(x_0)| of verify's
# closed form = brute force check (n = k..k+2), whose term-by-term sums
# it keeps bit for bit.
_DIRECT_SPAN = 2_000

# B_{2j} / (2j)! for j = 1..6, as exact fractions.
_BERNOULLI_OVER_FACTORIAL = (
    (1, 12), (-1, 720), (1, 30240), (-1, 1209600), (1, 47900160), (-691, 1307674368000),
)


def _inverse_power_sum(alpha: float, lo: int, hi: int) -> float:
    """Sum of d^{-alpha} for lo <= d <= hi, within 1 ulp, in O(1) for long ranges.

    For hi - lo <= _DIRECT_SPAN it is the term-by-term math.fsum.  Longer
    ranges take the Euler-Maclaurin formula (DLMF 2.10.1) for f(x) = x^-alpha
    in decimal, rounded to float once: the terms d < 64 directly, then for
    [a, b] the integral, half of each end term and six Bernoulli
    corrections.  Every derivative of f is monotone, so the remainder is
    bounded by the first omitted correction, below 1e-21 of the sum for
    alpha <= 4.  The integral (b^(1-alpha) - a^(1-alpha)) / (1 - alpha)
    loses to cancellation about the digits of b / ((b - a)|1 - alpha|),
    so they are carried on top of 34.  A power x^-alpha is
    exp(-alpha ln x), two correctly rounded functions at a fraction of the
    cost of the correctly rounded power, except at integral alpha, where
    the exact integer power is cheaper still.
    """
    if hi < lo:
        return 0.0
    if hi - lo <= _DIRECT_SPAN:
        return math.fsum(map(pow, range(lo, hi + 1), itertools.repeat(-alpha)))
    from decimal import Decimal, localcontext

    a = max(lo, 64)
    with localcontext() as ctx:
        ctx.prec = 34
        if alpha != 1.0:
            ctx.prec += max(0, math.ceil(math.log10(hi / ((hi - a) * abs(1.0 - alpha)))))
        s = Decimal(alpha)
        power = (lambda x: x**-s) if float(alpha).is_integer() else (lambda x: (-s * x.ln()).exp())
        total = sum(power(Decimal(d)) for d in range(lo, a))
        A, B = Decimal(a), Decimal(hi)
        fa, fb = power(A), power(B)
        total += (B / A).ln() if alpha == 1.0 else (B * fb - A * fa) / (1 - s)
        total += (fa + fb) / 2
        # f^(2j-1)(x) = -(s)_(2j-1) x^(-s-2j+1), (s)_m the rising factorial
        rising, da, db = s, fa / A, fb / B
        for j, (num, den) in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
            total -= num * rising * (db - da) / den
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            da /= A * A
            db /= B * B
        return float(total)


def _renorm_power_brute(
    s: Substitution, x: Configuration, n: int, term: Callable[[str, int, int], float], reach: int = 0
) -> float:
    """Sum of term(word, j, delta_j) over the shifts j < |s^n(x_0)|, where
    delta_j = delta(sigma^j s^n(x)) and word is a prefix of s^n(x) that
    holds every break and at least `reach` letters past each j.  x must
    lie off the subshift."""
    # the head contains its break iff the head is not in the language: one query
    if in_language(s, x.head):
        raise UncertifiedConfigurationError(
            f"all {len(x.head)} letters lie in the language; break position uncertified"
        )
    lengths = s.power_lengths(n)
    block = lengths[int(x.prefix(s, 1))]
    length = sum(lengths[int(c)] for c in x.head) + s.ladder_length(n - 1) + reach + 2
    breaks, word = _sweep_breaks(s, x, n, power_prefix(s, x, n, length), block)
    return math.fsum(term(word, j, dj) for j, dj in enumerate(breaks))


def _sweep_breaks(s: Substitution, x: Configuration, n: int, word: str, count: int) -> tuple[list[int], str]:
    """The breaks delta(sigma^j s^n(x)) for j < count, and the prefix of
    s^n(x) they were read off: `word`, doubled while a break reaches its end.

    One bisection at j = 0, then a two-pointer sweep: the break end j + delta_j
    never decreases in j, so each start resumes at the previous end.
    """
    breaks = []
    end = 0
    for j in range(count):
        while True:
            try:
                end = brute_delta(s, word, 0) if j == 0 else advance_break(s, word, j, max(end, j))
                break
            except UncertifiedConfigurationError:
                word = power_prefix(s, x, n, 2 * len(word))
        breaks.append(end - j)
    return breaks, word


# -- the explicit fixed point ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _perron_pair(k: int) -> tuple[float, tuple[float, ...]]:
    lam = perron_root(k)
    return lam, tuple(left_eigenvector(k, lam))


def fixed_point_U(s: Substitution, x: Configuration) -> float:
    """The explicit fixed point of the renormalization operator.

    log(1 + v_{x_0} / (lambda/(lambda-1) + sum_l v_l |w|_l - v_{x_0}))
    with w the maximal language prefix of x; zero on the subshift by
    continuous extension.
    """
    require_kbonacci(s)
    return 0.0 if x.in_subshift else _fixed_point_from(s, maximal_prefix(s, x))


def _fixed_point_from(s: Substitution, w: str) -> float:
    """fixed_point_U given w = maximal_prefix(s, x)."""
    lam, v = _perron_pair(s.k)
    x0 = int(w[0])
    denom = lam / (lam - 1.0) + sum(v[a] * w.count(str(a)) for a in range(s.k)) - v[x0]
    return math.log1p(v[x0] / denom)


def verify_fixed_point(s: Substitution, samples: Sequence[Configuration]) -> float:
    """Max over the samples of |(RU)(x) - U(x)|, with RU summed over the
    break sweep of s(x): U(sigma^j s(x)) is read off its longest language
    prefix word[j : j + delta_j].  Both sides vanish on the subshift."""
    require_kbonacci(s)
    worst = 0.0
    for x in samples:
        if x.in_subshift:
            continue
        left = _renorm_power_brute(s, x, 1, lambda word, j, dj: _fixed_point_from(s, word[j : j + dj]))
        worst = max(worst, abs(left - fixed_point_U(s, x)))
    return worst


# -- convergence studies -----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStudy:
    """Table of (n, R^n V(x), method) rows with a verdict on the tail
    behaviour, and the fixed point U(x) read off the same longest language
    prefix of x."""

    alpha: float
    rows: tuple[tuple[int, float, str], ...]
    verdict: str            # "vanishes" | "diverges" | "converges"
    limit: float | None
    growth_exponent: float | None
    fixed_point: float


DIVERGENCE_THRESHOLD = 1e6


def convergence_study(s: Substitution, V: Potential, x: Configuration, n_max: int = 25) -> ConvergenceStudy:
    """Iterate the operator and classify the tail of R^n V(x).

    n_max must be at least k, or the verdict would be read off brute-force
    iterates far from the asymptotic regime.  Levels n < k take the
    brute-force oracle, the others the closed form from the longest
    language prefix of x.  The verdict comes from the step
    ratio R^{n+1}V / R^nV over the last few iterates, which settles near
    lambda^{1-alpha}: above 1 the values diverge, below 1 they vanish, and
    at 1 they converge to a nonzero limit.  The fitted per-step growth
    exponent (base lambda) is reported in the diverging case.
    """
    require_kbonacci(s)
    if n_max < s.k:
        raise ValueError(f"n_max must be at least k = {s.k}, got {n_max}")
    V.validate_for(s)  # once, and before the subshift's early zeros
    w = None if x.in_subshift else maximal_prefix(s, x)
    numer = _constant_numerator(s, V)
    rows = []
    for n in range(n_max + 1):
        method = "brute-force" if n < s.k else "closed-form"
        if w is None:
            value = 0.0
        elif n == 0:
            value = _potential_at_break(V, x, len(w))
        elif method == "brute-force":
            value = renorm_power(s, V, x, n, mode=method)
        else:
            value = _closed_form(s, V, w, n, numer)
        rows.append((n, value, method))
        if value > DIVERGENCE_THRESHOLD:
            break
    values = [v for _, v, _ in rows]
    tail = values[-5:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0.0]
    rho = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
    U = 0.0 if w is None else _fixed_point_from(s, w)
    # a ratio within 2% of 1 counts as converging
    if rho > 1.02:
        exponent = math.log(rho) / math.log(_perron_pair(s.k)[0])
        return ConvergenceStudy(V.alpha, tuple(rows), "diverges", None, exponent, U)
    if rho < 0.98:
        return ConvergenceStudy(V.alpha, tuple(rows), "vanishes", 0.0, None, U)
    return ConvergenceStudy(V.alpha, tuple(rows), "converges", values[-1], None, U)
