"""Pressure estimation over cylinder depths, the freezing transition,
and the bispecial ladder behind it: its rungs, their exhaustive check
against the language, and the ratios of their lengths.

The pressure P(beta) = sup over invariant measures of h - beta * integral(V)
is bracketed at depth n by summing exp(-beta S) over all k^n windows,
with S the Birkhoff sum of V bounded from each side using the break
position of every suffix.  The sweep keeps one (2, k^m) table of suffix
terms per length m: the language words of length m are the leading
base-k digits of the codes of the length-n ones, the breaks follow the
prefix-closure recurrence from one length to the next, and the numerator
bounds are read once per prefix length.  The tables are added in place
into one (2, k^n) accumulator through a reshaped view, the length-n table
first as the per-suffix enumeration adds its terms, so the window sums
equal the per-suffix scalar sums bit for bit.  The log-sum then runs
once per distinct sum, weighted by its multiplicity, over the whole beta
grid at once.  Windows that
stay inside the language keep the bracket open (the break may sit
arbitrarily far to the right), which puts a hard floor of log(#L_n)/n
under the upper estimate at finite depth; the floor is reported so
plateau statistics can be read net of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .potentials import Potential
from .substitution import Substitution

PRESSURE_WORD_BUDGET = 10**7
DEFAULT_TOL = 1e-3
# A suffix table narrower than this is tiled up to about this width before
# it is added across the windows: a broadcast over short rows is slower.
_TILE_WIDTH = 512
# Entries of one block of the beta grid in _log_partition, unless the
# window array is larger: fewer, larger blocks at small depths.
_BLOCK_ENTRIES = 2**16


def default_beta_grid() -> np.ndarray:
    return np.geomspace(0.01, 64.0, 64)


# -- Birkhoff brackets over full-shift windows --------------------------------


def birkhoff_bounds(s: Substitution, V: Potential, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_low, S_high) over all k^n windows, in lexicographic order.

    For each window w and each suffix u = w[i:], the break of u either
    sits inside u (then both bounds use the exact value) or u lies in
    the language, in which case the term is bracketed by
    [0, max(g + h) / |u|^alpha].

    Terms are tabled per suffix length m as one (2, k^m) array over the
    k^m words in lexicographic order: u[:-1] has index index(u) // k,
    w[n-m:] has index index(w) mod k^m, and as the language is closed
    under prefixes, break(u) = |u| on the language and break(u[:-1]) off
    it.  The language is also right-extendable, so the length-m language
    words are the indices index(v) // k^(n-m) of the length-n ones v.
    """
    if n < V.order:
        raise ValueError(f"depth {n} below potential order {V.order}")
    V.validate_for(s)
    k = s.k
    total = k**n
    if total > PRESSURE_WORD_BUDGET:
        raise BudgetExceededError(f"{total} windows exceed the sweep budget")
    top = s.language(n).words(n)
    digits = np.frombuffer("".join(top).encode("ascii"), dtype=np.uint8).reshape(len(top), n) - ord("0")
    codes = digits @ k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    max_numer = V.numerator_range("", k)[1]
    # Python's float power, not np.power, so the sums equal those of the
    # per-suffix enumeration in tests/test_pressure.py bit for bit.
    powers = np.array([float(q) ** V.alpha for q in range(n + 1)])
    # numerator_range(u) only reads u[:order]: one (2, k^r) table per prefix length r
    letters = [str(a) for a in range(k)]
    numer = {
        r: np.array([V.numerator_range("".join(p), k) for p in itertools.product(letters, repeat=r)]).T
        for r in range(1, min(n, V.order) + 1)
    }
    denom = np.zeros(1)  # |break(u)|^alpha, over the words u of the current length
    tables = []
    for m in range(1, n + 1):
        inside = codes // k ** (n - m)
        denom = np.repeat(denom, k)
        denom[inside] = powers[m]
        r = min(m, V.order)
        table = (numer[r][:, :, None] / denom.reshape(k**r, -1)).reshape(2, -1)
        table[0, inside] = 0.0
        table[1, inside] = max_numer / powers[m]
        tables.append(table)
    # suffixes w[0:], w[1:], ..., w[n-1:]: the enumeration's summation order
    acc = tables.pop()
    for table in reversed(tables):
        reps = 1
        while table.shape[1] * reps < min(_TILE_WIDTH, total):
            reps *= k
        if reps > 1:  # np.tile(table, reps), at a third of its call overhead
            table = np.repeat(table[:, None, :], reps, axis=1).reshape(2, -1)
        rows = acc.reshape(2, -1, table.shape[1])  # a view: the sum lands in acc
        rows += table[:, None, :]
    return acc[0], acc[1]


def _log_partition(S: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """log sum_w exp(-beta S_w) for every beta in the grid.

    The sum runs once per distinct value u of S, weighted by its count
    c_u, as m + log sum_u c_u exp(-beta u - m) with m the largest
    exponent.  The grid is taken in blocks of max(S.size, _BLOCK_ENTRIES)
    // U rows, U the number of distinct values; each row is reduced on
    its own, so the block size does not change a bit of the result.
    """
    values, counts = np.unique(S, return_counts=True)
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.size)
    rows = max(1, max(S.size, _BLOCK_ENTRIES) // values.size)
    for i in range(0, betas.size, rows):
        block = np.multiply.outer(-betas[i : i + rows], values)
        m = block.max(axis=1)
        block -= m[:, None]
        np.exp(block, out=block)
        block *= counts
        out[i : i + rows] = m + np.log(block.sum(axis=1))
    return out


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
    """(low, high) estimates of P(beta) at cylinder depth n on a beta grid:
    low = (1/n) log sum exp(-beta S_high), clamped at 0 (the subshift's
    measure has h = 0 and integral(V) = 0), high = (1/n) log sum
    exp(-beta S_low).  The bracket at one beta is a one-point grid."""
    if betas is None:
        betas = default_beta_grid()
    s_lo, s_hi = birkhoff_bounds(s, V, n)
    floor = math.log(s.language(n).complexity(n)) / n
    lows = np.maximum(_log_partition(s_hi, betas) / n, 0.0)
    highs = _log_partition(s_lo, betas) / n
    return PressureCurve(
        k=s.k,
        alpha=V.alpha,
        depth=n,
        betas=tuple(float(b) for b in betas),
        lows=tuple(lows.tolist()),
        highs=tuple(highs.tolist()),
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
        """Upper-estimate excess over the floor at the largest grid point <= beta;
        ValueError below the grid."""
        picks = [i for i, b in enumerate(self.curve.betas) if b <= beta]
        if not picks:
            raise ValueError(f"beta {beta} lies below the grid, which starts at {min(self.curve.betas)}")
        return float(self.curve.excess()[picks[-1]])


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


def bispecial_ladder(s: Substitution, max_length: int) -> tuple[str, ...]:
    """The rungs b_0 = 0, b_{n+1} = s(b_n) 0 of length <= max_length;
    |b_n| = s.ladder_length(n)."""
    words = []
    b = "0"
    while len(b) <= max_length:
        words.append(b)
        b = s.apply(b) + "0"
    return tuple(words)


def brute_bispecials(s: Substitution, max_length: int) -> set[str]:
    """Every bispecial language word of length <= max_length, classified
    through the language index, independently of the ladder."""
    index = s.language(max_length + 1)
    found: set[str] = set()
    for n in range(1, max_length + 1):
        _, _, bi = index.special_words(n)
        found |= bi
    return found


def verify_ladder(s: Substitution, max_length: int = 200) -> bool:
    """Exhaustive check: bispecials up to max_length are exactly the rungs."""
    return brute_bispecials(s, max_length) == set(bispecial_ladder(s, max_length))


def overlap_ratios(s: Substitution, n_max: int) -> np.ndarray:
    """|b_m| / |b_{m+1}| for the rungs m < n_max; tends to 1/lambda."""
    if n_max < 5:
        raise ValueError("ladder too shallow for ratio statistics")
    lengths = np.array([s.ladder_length(n) for n in range(n_max + 1)], dtype=float)
    return lengths[:-1] / lengths[1:]
