"""The renormalization operator, its powers, and the explicit fixed point.

(RV)(x) sums V over the |s(x_0)| shifts of s(x).  Powers are available
either by brute force, renorm_power(..., "brute-force"): materialize
s^n(x) and sweep its breaks with the language oracle, one query per
shift and one bisection where the break end moves; or in closed form:
break positions from the shifted delta formula, valid for n >= k, read
off the longest language prefix of x.  The two paths cross-check each
other in the tests, and verify_fixed_point checks RU = U by summing U
over the same break sweep at n = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import UncertifiedConfigurationError
from .potentials import Potential
from .recognition import (
    Configuration,
    _delta_from_counts,
    _letter_counts,
    brute_delta,
    maximal_prefix,
    power_prefix,
)
from .spectral import _perron
from .substitution import Substitution, require_kbonacci
from .words import in_language

MODES = ("closed-form", "brute-force")


# -- powers of the operator --------------------------------------------------


def renorm_power(
    s: Substitution,
    V: Potential,
    x: Configuration,
    n: int,
    mode: str = "closed-form",
) -> float:
    """(R^n V)(x) = sum over j < |s^n(x_0)| of V(sigma^j s^n(x)); R^0 V = V,
    (g + h)(first letters) / delta^alpha, and every power is zero on the
    subshift.  The closed form, from w = maximal_prefix(s, x), needs a
    k-bonacci s, n >= k and V.order <= s.ladder_length(n - 1) + 1 (at
    least 2^k at n = k), which keeps every window read inside the longest
    language prefix of s^n(x); else it raises ValueError."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    V.validate_for(s)
    if x.in_subshift:
        return 0.0
    w = maximal_prefix(s, x)
    if mode == "closed-form" and n > 0:
        require_kbonacci(s)
    return _renorm_level(s, V, x, w, _letter_counts(s, w), n, mode, _constant_numerator(s, V))


def _constant_numerator(s: Substitution, V: Potential) -> float | None:
    """g + h when it takes one value over every window on the alphabet, else None."""
    lo, hi = V.numerator_range("", s.k)
    return lo if lo == hi else None


def _renorm_level(
    s: Substitution, V: Potential, x: Configuration, w: str, counts: tuple[int, ...],
    n: int, mode: str, numer: float | None,
) -> float:
    """renorm_power for a V validated on s, x off the subshift,
    w = maximal_prefix(s, x), counts = _letter_counts(s, w) and
    numer = _constant_numerator(s, V): V read off w at n = 0, else the
    break sweep of s^n(x) in brute-force mode or the closed form, which
    needs s checked k-bonacci by the caller."""
    if n == 0:
        if len(x.head) < V.order:
            raise ValueError(f"head of length {len(x.head)} shorter than potential order {V.order}")
        return V.numerator(x.head[: V.order]) / float(len(w)) ** V.alpha
    if mode == "brute-force":
        return _renorm_power_brute(
            s, x, n, lambda word, j, dj: V.numerator(word[j : j + V.order]) / float(dj) ** V.alpha, V.order
        )
    if n < s.k:
        raise ValueError(f"closed-form mode requires n >= k = {s.k}")
    if V.order > s.ladder_length(n - 1) + 1:
        raise ValueError(f"potential order {V.order} exceeds s.ladder_length({n - 1}) + 1")
    big_delta = _delta_from_counts(s, counts, n)
    block = s.power_lengths(n)[int(w[0])]
    if numer is not None:
        return numer * _inverse_power_sum(V.alpha, big_delta - block + 1, big_delta)
    word = power_prefix(s, x, n, block + V.order - 1)
    arr = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
    code = np.zeros(block, dtype=np.int64)
    for t in range(V.order):
        code = code * s.k + arr[t : t + block]
    table = np.array([V.numerator("".join(u)) for u in itertools.product(s.letters, repeat=V.order)])
    depths = big_delta - np.arange(block, dtype=np.float64)
    return math.fsum((table[code] * depths ** (-V.alpha)).tolist())


# Above this span the Euler-Maclaurin path is faster than summing term by
# term for every alpha: the measured crossover is about 800 terms at
# non-integer alpha, 340 at alpha = 1 and 200 at alpha = 2, near 10^9
# (CPython 3.11.7 on a 2-vCPU Xeon).  It stays at 2,000 all the same:
# it must stay above the spans |s^n(x_0)| of verify's closed form = brute
# force check (n = k..k+2), whose term-by-term sums it keeps bit for bit,
# and the golden outputs fix which sums are term by term.
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
    and ln(b / a) at alpha = 1 those of b / (b - a), so one rule serves
    every alpha: the precision is 34 digits plus
    ceil(log10 b - log10(b - a) - log10(|1 - alpha| or 1)), when that is
    positive, counted from the logarithms of the integers, which do not
    overflow as their float quotient can.  Each end is converted once
    and rounded to the precision, so past the conversion a long call
    costs the precision and not the digits of its ends.  That moves an
    end by half an ulp at most, each power by alpha times as much, and
    the integral no more than the rounding of b f(b) and a f(a), or of
    b / a, already does, which the cancellation digits cover.  At integral alpha a power x^-alpha is
    the exact integer power; otherwise it is _exp(-alpha _ln(x)), and at
    alpha = 1 the integral ln(b / a) is one _ln seeded with
    log(b) - log(a), so no integer past the largest float becomes one.

    Both helpers are within 0.6 ulp of the working precision p.  _exp
    sums the Taylor series of e^(y / 2^m), |y / 2^m| <= 2^-h, until the
    first omitted term is below 10^-(p + g), then squares the sum m times.
    A squaring doubles the relative error, so the series remainder, the
    rounding of its n steps and that of y / 2^m grow to at most
    2^m (n + 3) 10^-(p + g), and g = m log10(2) + 4 guard digits keep that
    below 10^-p / 20.  _ln starts from L = log(x) in floats, so
    t = x e^-L - 1 is below 1e-12, and ln x = L + t - t^2/2 + t^3/3 leaves
    a Newton residual of O(t^4), below 1e-48; the series runs on to
    p / -log10|t| terms for higher precisions, at 3 guard digits.
    libmpdec's ln and exp, which this path replaced, are correctly
    rounded, so each power differs from theirs by at most about one unit
    in the 34th digit, and the sum, rounded to float once, differs below
    1e-32 of itself, far inside a double's half ulp of 1.1e-16: the two
    floats could differ only for a sum within 1e-32 of a midpoint between
    doubles.
    """
    if hi < lo:
        return 0.0
    if hi - lo <= _DIRECT_SPAN:
        return math.fsum(map(pow, range(lo, hi + 1), itertools.repeat(-alpha)))
    from decimal import Decimal, localcontext

    a = max(lo, 64)
    with localcontext() as ctx:
        ctx.prec = 34 + max(0, math.ceil(math.log10(hi) - math.log10(hi - a) - math.log10(abs(1.0 - alpha) or 1)))
        s = Decimal(alpha)
        if float(alpha).is_integer():
            power = lambda x, d: x ** -s
        else:
            power = lambda x, d: _exp(-s * _ln(x, math.log(d)))
        total = sum(power(Decimal(d), d) for d in range(lo, a))  # d < 64: exact
        A, B = +Decimal(a), +Decimal(hi)
        fa, fb = power(A, a), power(B, hi)
        total += _ln(B / A, math.log(hi) - math.log(a)) if alpha == 1.0 else (B * fb - A * fa) / (1 - s)
        total += (fa + fb) / 2
        # f^(2j-1)(x) = -(s)_(2j-1) x^(-s-2j+1), (s)_m the rising factorial
        rising, da, db = s, fa / A, fb / B
        for j, (num, den) in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
            total -= num * rising * (db - da) / den
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            da /= A * A
            db /= B * B
        return float(total)


@functools.lru_cache(maxsize=None)
def _exp_plan(prec: int, magnitude: int) -> tuple[int, int, tuple]:
    """The working precision, the halvings m and the Horner coefficients
    n!/i!, i = n..0, for _exp at precision prec and |y| < 10^magnitude.
    After m halvings |r| = |y| / 2^m <= 2^-h, h the square root of the
    bits of prec, which balances the n terms against the m squarings."""
    from decimal import Decimal

    h = round(math.sqrt(prec * math.log2(10)))
    m = h + math.ceil(max(magnitude, 0) * math.log2(10))
    work = prec + math.ceil(m * math.log10(2)) + 4
    n = 1  # the first omitted term r^(n+1) / (n+1)! must fall below 10^-work
    while h * (n + 1) + math.log2(math.factorial(n + 1)) < work * math.log2(10):
        n += 1
    return work, m, tuple(Decimal(math.factorial(n) // math.factorial(i)) for i in range(n, -1, -1))


def _exp(y):
    """e^y for a Decimal y, within 0.6 ulp of the current precision: the
    Taylor series of e^(y / 2^m) by Horner's rule, squared m times (see
    _inverse_power_sum for the error argument)."""
    import decimal

    work, m, coefficients = _exp_plan(decimal.getcontext().prec, y.adjusted() + 1)
    with decimal.localcontext() as ctx:
        ctx.prec = work
        r = y / (1 << m)
        acc = coefficients[0]
        for c in coefficients[1:]:
            acc = acc * r + c
        acc /= coefficients[-1]
        for _ in range(m):
            acc *= acc
    return +acc


def _ln(x, guess: float):
    """ln x for a Decimal x > 0, within 0.6 ulp of the current precision,
    from guess = math.log of x in floats: one Newton step L + ln(1 + t),
    t = x e^-L - 1, with the series of ln(1 + t) (see _inverse_power_sum)."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec += 3
        L = decimal.Decimal(guess)
        t = x * _exp(-L) - 1
        if t:
            terms = -(-ctx.prec // max(1, -1 - t.adjusted()))
            series = 0
            for i in range(terms, 0, -1):
                series = decimal.Decimal(1) / i - t * series
            L += t * series
    return +L


def _renorm_power_brute(
    s: Substitution, x: Configuration, n: int, term: Callable[[str, int, int], float], reach: int
) -> float:
    """Sum of term(word, j, delta_j) over the shifts j < |s^n(x_0)|, where
    delta_j = delta(sigma^j s^n(x)) and word is a prefix of s^n(x) that
    holds every break and at least `reach` letters past each j.  x must
    lie off the subshift, with a head that maximal_prefix has certified
    to hold its break."""
    lengths = s.power_lengths(n)
    block = lengths[int(x.prefix(s, 1))]
    length = sum(lengths[int(c)] for c in x.head) + s.ladder_length(n - 1) + reach + 2
    breaks, word = _sweep_breaks(s, x, n, power_prefix(s, x, n, length), block)
    return math.fsum(term(word, j, dj) for j, dj in enumerate(breaks))


def _sweep_breaks(s: Substitution, x: Configuration, n: int, word: str, count: int) -> tuple[list[int], str]:
    """The breaks delta(sigma^j s^n(x)) for j < count, and the prefix of
    s^n(x) they were read off: `word`, doubled while a break reaches its end.

    The break end j + delta_j never decreases in j, and word[j:end] is in
    the factorial language, so a later start keeps the previous end unless
    one membership query shows that it moved; one bisection of word[j:]
    finds the end at j = 0 and wherever it moved.
    """
    breaks = []
    end = 0
    for j in range(count):
        if j == 0 or in_language(s, word[j : end + 1]):
            while True:
                try:
                    end = j + brute_delta(s, word[j:])
                    break
                except UncertifiedConfigurationError:
                    word = power_prefix(s, x, n, 2 * len(word))
        breaks.append(end - j)
    return breaks, word


# -- the explicit fixed point ------------------------------------------------


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
    lam, v = _perron(s.k)
    x0 = int(w[0])
    denom = lam / (lam - 1.0) + sum(v_a * w.count(a) for v_a, a in zip(v, s.letters)) - v[x0]
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
        right = fixed_point_U(s, x)  # certifies the head before the sweep
        left = _renorm_power_brute(s, x, 1, lambda word, j, dj: _fixed_point_from(s, word[j : j + dj]), 0)
        worst = max(worst, abs(left - right))
    return worst


# -- convergence studies -----------------------------------------------------


class ConvergenceStudy(NamedTuple):
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


def convergence_study(s: Substitution, V: Potential, x: Configuration, n_max: int) -> ConvergenceStudy:
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
    counts = None if w is None else _letter_counts(s, w)
    numer = _constant_numerator(s, V)
    rows = []
    for n in range(n_max + 1):
        method = "brute-force" if n < s.k else "closed-form"
        value = 0.0 if w is None else _renorm_level(s, V, x, w, counts, n, method, numer)
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
        exponent = math.log(rho) / math.log(_perron(s.k)[0])
        return ConvergenceStudy(V.alpha, tuple(rows), "diverges", None, exponent, U)
    if rho < 0.98:
        return ConvergenceStudy(V.alpha, tuple(rows), "vanishes", 0.0, None, U)
    return ConvergenceStudy(V.alpha, tuple(rows), "converges", values[-1], None, U)
