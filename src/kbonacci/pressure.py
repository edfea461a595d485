"""Pressure estimation over cylinder depths, the freezing transition,
and the bispecial machinery behind it.

The pressure P(beta) = sup over invariant measures of h - beta * integral(V)
is bracketed at depth n by summing exp(-beta S) over all k^n windows,
with S the Birkhoff sum of V bounded from each side using the break
position of every suffix.  Windows that stay inside the language keep
the bracket open (the break may sit arbitrarily far to the right), which
puts a hard floor of log(#L_n)/n under the upper estimate at finite
depth; the floor is reported so plateau statistics can be read net of
it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .potentials import Potential
from .spectral import growth_decomposition
from .substitution import Substitution

PRESSURE_WORD_BUDGET = 10**7
DEFAULT_TOL = 1e-3


def default_beta_grid(points: int = 64, lo: float = 0.01, hi: float = 64.0) -> np.ndarray:
    return np.geomspace(lo, hi, points)


# -- Birkhoff brackets over full-shift windows --------------------------------


def birkhoff_bounds(s: Substitution, V: Potential, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_low, S_high) over all k^n windows, in lexicographic order.

    For each window w and each suffix u = w[i:], the break of u either
    sits inside u (then both bounds use the exact value) or u lies in
    the language, in which case the term is bracketed by
    [0, max(g + h) / |u|^alpha].

    Terms are tabled per suffix length m over the k^m words in
    lexicographic order: u[:-1] has index index(u) // k, w[n-m:] has
    index index(w) mod k^m, and as the language is closed under
    prefixes, break(u) = |u| on the language and break(u[:-1]) off it.
    """
    if n < V.order:
        raise ValueError(f"depth {n} below potential order {V.order}")
    V.validate_for(s)
    k = s.k
    total = k**n
    if total > PRESSURE_WORD_BUDGET:
        raise BudgetExceededError(f"{total} windows exceed the sweep budget")
    index = s.language(n)
    max_numer = V.numerator_range("", k)[1]
    # Python's float power, not np.power, so the sums equal those of the
    # per-suffix enumeration in tests/test_pressure.py bit for bit.
    powers = np.array([float(q) ** V.alpha for q in range(n + 1)])
    letters = [str(a) for a in range(k)]
    breaks = np.zeros(1, dtype=np.int64)
    tables = []
    for m in range(1, n + 1):
        inside = np.zeros(k**m, dtype=bool)
        inside[[_lex_index(u, k) for u in index.words(m)]] = True
        breaks = np.where(inside, m, np.repeat(breaks, k))
        # numerator_range(u) only reads u[:order]
        r = min(m, V.order)
        prefixes = ("".join(p) for p in itertools.product(letters, repeat=r))
        numer = np.array([V.numerator_range(p, k) for p in prefixes])
        num_lo, num_hi = np.repeat(numer, k ** (m - r), axis=0).T
        d = powers[breaks]
        lo_m = np.where(inside, 0.0, num_lo / d)
        hi_m = np.where(inside, max_numer / powers[m], num_hi / d)
        tables.append((lo_m, hi_m))
    s_lo = np.zeros(total)
    s_hi = np.zeros(total)
    # suffixes w[0:], w[1:], ..., w[n-1:]: the enumeration's summation order
    for lo_m, hi_m in reversed(tables):
        s_lo += np.tile(lo_m, total // lo_m.size)
        s_hi += np.tile(hi_m, total // hi_m.size)
    return s_lo, s_hi


def _lex_index(u: str, k: int) -> int:
    """Index of u among the k^|u| words of its length in lexicographic order."""
    code = 0
    for a in u:
        code = code * k + int(a)
    return code


def _log_mean_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.exp(values - m).sum()))


def pressure_bounds(s: Substitution, V: Potential, beta: float, n: int) -> tuple[float, float]:
    """(low, high) estimates of P(beta) at cylinder depth n.

    low = (1/n) log sum exp(-beta S_high), clamped at 0 (the invariant
    measure of the subshift has h = 0 and integral(V) = 0, so P >= 0);
    high = (1/n) log sum exp(-beta S_low).
    """
    s_lo, s_hi = birkhoff_bounds(s, V, n)
    return _bounds_from_sums(s_lo, s_hi, beta, n)


def _bounds_from_sums(s_lo: np.ndarray, s_hi: np.ndarray, beta: float, n: int) -> tuple[float, float]:
    low = _log_mean_exp(-beta * s_hi) / n
    high = _log_mean_exp(-beta * s_lo) / n
    return max(low, 0.0), high


# -- pressure curves and the transition point ---------------------------------


@dataclass(frozen=True)
class PressureCurve:
    """Per-beta pressure bracket at a fixed cylinder depth."""

    k: int
    alpha: float
    depth: int
    betas: tuple[float, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    floor: float  # log(#L_n)/n, the asymptote of the upper estimate

    def __post_init__(self):
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi + 1e-12:
                raise ValueError("pressure bracket inverted")

    def slope_increments(self) -> np.ndarray:
        """Increments of the divided differences of the upper estimate;
        nonnegative (up to noise) exactly when the curve is convex on
        the possibly non-uniform grid."""
        b = np.asarray(self.betas)
        h = np.asarray(self.highs)
        slopes = np.diff(h) / np.diff(b)
        return np.diff(slopes)

    @property
    def is_convex(self) -> bool:
        incs = self.slope_increments()
        return bool(len(incs) == 0 or incs.min() >= -1e-9)

    @property
    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(np.asarray(self.highs)) <= 1e-12))

    def excess(self) -> np.ndarray:
        """Upper estimate net of the finite-depth floor."""
        return np.asarray(self.highs) - self.floor

    def rows(self):
        for b, lo, hi in zip(self.betas, self.lows, self.highs):
            yield b, lo, hi


def pressure_curve(
    s: Substitution,
    V: Potential,
    n: int,
    betas: np.ndarray | None = None,
) -> PressureCurve:
    if betas is None:
        betas = default_beta_grid()
    s_lo, s_hi = birkhoff_bounds(s, V, n)
    floor = math.log(len(s.language(n).words(n))) / n
    lows, highs = [], []
    for beta in betas:
        lo, hi = _bounds_from_sums(s_lo, s_hi, float(beta), n)
        lows.append(lo)
        highs.append(hi)
    return PressureCurve(
        k=s.k,
        alpha=V.alpha,
        depth=n,
        betas=tuple(float(b) for b in betas),
        lows=tuple(lows),
        highs=tuple(highs),
        floor=floor,
    )


@dataclass(frozen=True)
class BetaCReport:
    """Outcome of the transition-point search on a beta grid.

    `statistic` names the crossing statistic: "raw" uses the upper
    estimate directly, "excess" subtracts the finite-depth floor first.
    When nothing crosses the tolerance, `crossed` is False and `beta_c`
    is None (a report, not an exception).
    """

    curve: PressureCurve
    tol: float
    statistic: str
    crossed: bool
    beta_c: float | None
    bracket: tuple[float, float] | None

    def plateau_excess(self, beta: float) -> float:
        """Upper-estimate excess over the floor at the largest grid point <= beta."""
        values = self.curve.excess()
        picks = [i for i, b in enumerate(self.curve.betas) if b <= beta]
        i = picks[-1] if picks else len(values) - 1
        return float(values[i])


def find_beta_c(
    s: Substitution,
    V: Potential,
    n: int,
    tol: float = DEFAULT_TOL,
    betas: np.ndarray | None = None,
    statistic: str = "raw",
) -> BetaCReport:
    """Smallest grid beta where the chosen statistic drops to tol or below."""
    if statistic not in ("raw", "excess"):
        raise ValueError("statistic must be 'raw' or 'excess'")
    curve = pressure_curve(s, V, n, betas)
    values = np.asarray(curve.highs) if statistic == "raw" else curve.excess()
    hit = None
    for i, value in enumerate(values):
        if value <= tol:
            hit = i
            break
    if hit is None:
        return BetaCReport(curve, tol, statistic, False, None, None)
    lo = curve.betas[hit - 1] if hit > 0 else 0.0
    return BetaCReport(curve, tol, statistic, True, curve.betas[hit], (lo, curve.betas[hit]))


# -- the bispecial ladder ------------------------------------------------------


@dataclass(frozen=True)
class BispecialLadder:
    """The words b_n = s^n(0) s^{n-1}(0) ... s(0) 0 and their exact lengths.

    `words` holds the materialized rungs up to the word cap; `lengths`
    covers every rung up to n_max via matrix powers.
    """

    k: int
    words: tuple[str, ...]
    lengths: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.lengths) - 1


def bispecial_ladder(s: Substitution, n_max: int, word_cap: int = 100_000) -> BispecialLadder:
    """Build the ladder by the recursion b_{n+1} = s(b_n) 0."""
    lengths = [sum(s.power_lengths(l)[0] for l in range(n + 1)) for n in range(n_max + 1)]
    words = ["0"]
    for n in range(n_max):
        nxt_len = lengths[n + 1]
        if nxt_len > word_cap:
            break
        words.append(s.apply(words[-1]) + "0")
    for n, w in enumerate(words):
        if len(w) != lengths[n]:
            raise AssertionError(f"ladder length mismatch at rung {n}")
    return BispecialLadder(k=s.k, words=tuple(words), lengths=tuple(lengths))


def brute_bispecials(s: Substitution, max_length: int) -> set[str]:
    """Every bispecial language word of length <= max_length, by enumeration."""
    index = s.language(max_length + 1)
    found: set[str] = set()
    for n in range(1, max_length + 1):
        _, _, bi = index.special_words(n)
        found |= bi
    return found


def verify_ladder(s: Substitution, max_length: int = 200) -> bool:
    """Exhaustive check: bispecials up to max_length are exactly the rungs."""
    ladder = bispecial_ladder(s, n_max=64, word_cap=max_length)
    rungs = {w for w in ladder.words if len(w) <= max_length}
    return brute_bispecials(s, max_length) == rungs


def overlap_ratios(ladder: BispecialLadder) -> np.ndarray:
    """|b_m| / |b_{m+1}| for consecutive rungs; tends to 1/lambda."""
    if ladder.depth < 5:
        raise ValueError("ladder too shallow for ratio statistics")
    lengths = np.asarray(ladder.lengths, dtype=float)
    return lengths[:-1] / lengths[1:]


def overlap_length(u: str, v: str) -> int:
    """Largest t with u[-t:] == v[:t] (proper suffix-prefix overlap)."""
    for t in range(min(len(u), len(v)) - 1, 0, -1):
        if u.endswith(v[:t]):
            return t
    return 0


@dataclass(frozen=True)
class RecurrenceReport:
    """Max occurrence gaps per factor length inside a fixed-point window."""

    window: int
    max_gap: tuple[int, ...]         # indexed by length, entry 0 unused
    gap_over_n: tuple[float, ...]
    inconclusive: tuple[str, ...]    # words with fewer than two hits

    @property
    def max_ratio(self) -> float:
        return max(self.gap_over_n[1:])


def recurrence_gaps(s: Substitution, L_max: int, window: int) -> RecurrenceReport:
    """Scan occurrence gaps of every factor of length <= L_max in omega."""
    omega = s.fixed_prefix(window)
    index = s.language(L_max)
    max_gap = [0] * (L_max + 1)
    pending: list[str] = []
    for n in range(1, L_max + 1):
        for w in sorted(index.words(n)):
            gaps = []
            prev = omega.find(w)
            pos = omega.find(w, prev + 1) if prev != -1 else -1
            while pos != -1:
                gaps.append(pos - prev)
                prev = pos
                pos = omega.find(w, pos + 1)
            if not gaps:
                pending.append(w)
                continue
            max_gap[n] = max(max_gap[n], max(gaps))
    ratios = [0.0] + [max_gap[n] / n for n in range(1, L_max + 1)]
    return RecurrenceReport(window, tuple(max_gap), tuple(ratios), tuple(pending))


@dataclass(frozen=True)
class LengthLawReport:
    """Residuals of |b_n| against gamma_0 lambda^{n+1} / (lambda - 1)."""

    lam: float
    residuals: tuple[float, ...]
    scaled: tuple[float, ...]   # residual / lambda^n

    @property
    def scaled_bounded(self) -> bool:
        """Residual / lambda^n stays below its early maximum (plus slack):
        the remainder grows strictly slower than lambda^n."""
        head = max(abs(r) for r in self.scaled[:10])
        tail = max(abs(r) for r in self.scaled[-10:])
        return tail <= head + 1e-9


def bispecial_length_law(s: Substitution, n_max: int = 40) -> LengthLawReport:
    growth = growth_decomposition(s, max(n_max + 5, 45))
    ladder = bispecial_ladder(s, n_max, word_cap=0)
    lam = growth.lam
    residuals = []
    scaled = []
    for n, length in enumerate(ladder.lengths):
        predicted = growth.gamma[0] * lam ** (n + 1) / (lam - 1.0)
        r = length - predicted
        residuals.append(r)
        scaled.append(r / lam**n)
    return LengthLawReport(lam, tuple(residuals), tuple(scaled))
