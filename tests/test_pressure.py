import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import (
    Potential,
    Substitution,
    bispecial_ladder,
    birkhoff_bounds,
    brute_bispecials,
    find_beta_c,
    growth_decomposition,
    in_language,
    kbonacci,
    overlap_ratios,
    perron_root,
    pressure_curve,
    verify_ladder,
)
from kbonacci import pressure
from kbonacci.errors import BudgetExceededError
from kbonacci.pressure import _BLOCK_ENTRIES, _TILE_WIDTH, _log_partition
from kbonacci.potentials import CylinderFunction

V0 = Potential.v0(1.0)


def test_exact_at_beta_zero(s2, s3):
    for s, n in ((s2, 10), (s3, 7)):
        curve = pressure_curve(s, V0, n, np.array([0.0]))
        assert curve.lows[0] == pytest.approx(math.log(s.k), abs=1e-14)
        assert curve.highs[0] == pytest.approx(math.log(s.k), abs=1e-14)


def test_bracket_ordered_and_nonnegative(s2):
    curve = pressure_curve(s2, V0, 10, np.array([0.5, 2.0, 8.0, 32.0]))
    for lo, hi in zip(curve.lows, curve.highs):
        assert 0.0 <= lo <= hi


def test_birkhoff_language_words_have_zero_lower_sum(s2):
    n = 10
    s_lo, _ = birkhoff_bounds(s2, V0, n)
    # exactly the language words of length n leave the bracket fully open
    assert int((s_lo == 0.0).sum()) == len(s2.language(n).words(n))


def enumerated_bounds(s, V, n):
    """Oracle for birkhoff_bounds: every suffix of every window, its break
    found by bisecting over in_language."""
    max_numer = V.numerator_range("", s.k)[1]
    letters = [str(a) for a in range(s.k)]
    s_lo, s_hi = [], []
    for tup in itertools.product(letters, repeat=n):
        word = "".join(tup)
        lo_sum = hi_sum = 0.0
        for i in range(n):
            u = word[i:]
            m = len(u)
            if in_language(s, u):
                a, b = 0.0, max_numer / float(m) ** V.alpha
            else:
                lo, hi = 0, m
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if in_language(s, u[:mid]):
                        lo = mid
                    else:
                        hi = mid - 1
                num_lo, num_hi = V.numerator_range(u, s.k)
                d = float(lo) ** V.alpha
                a, b = num_lo / d, num_hi / d
            lo_sum += a
            hi_sum += b
        s_lo.append(lo_sum)
        s_hi.append(hi_sum)
    return np.array(s_lo), np.array(s_hi)


# (substitution, largest depth): two-letter alphabets up to n = 10, three letters up to n = 7
ORACLE_CASES = [
    (kbonacci(2), 10),
    (kbonacci(3), 7),
    (Substitution(("01", "10")), 10),
    (Substitution(("1", "01")), 10),
]


@st.composite
def order_two_potential(draw, s, alpha):
    """g > 0 on every 2-window; h >= 0 off the language and 0 on it."""
    windows = ["".join(p) for p in itertools.product([str(a) for a in range(s.k)], repeat=2)]
    values = st.floats(min_value=0.01, max_value=10.0)
    g = {w: draw(values) for w in windows}
    h = {w: draw(values) for w in windows if not in_language(s, w)}
    return Potential(alpha, CylinderFunction(2, g), CylinderFunction(2, h, default=0.0))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_birkhoff_bounds_equal_enumeration(data):
    s, n_max = data.draw(st.sampled_from(ORACLE_CASES))
    alpha = data.draw(st.floats(min_value=0.05, max_value=4.0))
    V = data.draw(st.one_of(st.just(Potential.v0(alpha)), order_two_potential(s, alpha)))
    n = data.draw(st.integers(min_value=V.order, max_value=n_max))
    s_lo, s_hi = birkhoff_bounds(s, V, n)
    o_lo, o_hi = enumerated_bounds(s, V, n)
    assert np.array_equal(s_lo, o_lo)
    assert np.array_equal(s_hi, o_hi)


def test_birkhoff_bounds_one_letter():
    s = Substitution(("00",))
    for n in (1, 2, 6):
        s_lo, s_hi = birkhoff_bounds(s, V0, n)
        assert s_lo.shape == (1,) and np.all(s_lo == 0.0)
        o_lo, o_hi = enumerated_bounds(s, V0, n)
        assert np.array_equal(s_lo, o_lo) and np.array_equal(s_hi, o_hi)


def tabled_bounds(s, V, n):
    """Oracle for birkhoff_bounds at depths the enumeration cannot reach:
    one (lo, hi) table per suffix length m, membership read off the word
    set of each layer, one numerator_range call per prefix, and every
    table tiled to the full k^n width before it is added."""
    k = s.k
    index = s.language(n)
    max_numer = V.numerator_range("", k)[1]
    powers = np.array([float(q) ** V.alpha for q in range(n + 1)])
    letters = [str(a) for a in range(k)]
    breaks = np.zeros(1, dtype=np.int64)
    tables = []
    for m in range(1, n + 1):
        inside = np.zeros(k**m, dtype=bool)
        inside[[int(u, k) for u in index.words(m)]] = True
        breaks = np.where(inside, m, np.repeat(breaks, k))
        r = min(m, V.order)
        prefixes = ("".join(p) for p in itertools.product(letters, repeat=r))
        numer = np.array([V.numerator_range(p, k) for p in prefixes])
        num_lo, num_hi = np.repeat(numer, k ** (m - r), axis=0).T
        d = powers[breaks]
        lo_m = np.where(inside, 0.0, num_lo / d)
        hi_m = np.where(inside, max_numer / powers[m], num_hi / d)
        tables.append((lo_m, hi_m))
    s_lo = np.zeros(k**n)
    s_hi = np.zeros(k**n)
    for lo_m, hi_m in reversed(tables):
        s_lo += np.tile(lo_m, k**n // lo_m.size)
        s_hi += np.tile(hi_m, k**n // hi_m.size)
    return s_lo, s_hi


def fixed_order_two_potential(s, alpha):
    """An order-2 potential with a distinct g on every 2-window and h > 0
    exactly off the language."""
    windows = ["".join(p) for p in itertools.product([str(a) for a in range(s.k)], repeat=2)]
    g = {w: 0.5 + 0.37 * i for i, w in enumerate(windows)}
    h = {w: 0.25 + 1.13 * i for i, w in enumerate(windows) if not in_language(s, w)}
    return Potential(alpha, CylinderFunction(2, g), CylinderFunction(2, h, default=0.0))


# (substitution, largest depth): the pressure depths the benchmark runs at
# k = 2..5, and the two non-k-bonacci oracle substitutions as deep
TABLE_CASES = [
    (kbonacci(2), 15),
    (kbonacci(3), 9),
    (kbonacci(4), 7),
    (kbonacci(5), 6),
    (Substitution(("01", "10")), 14),
    (Substitution(("1", "01")), 14),
]


@pytest.mark.parametrize("s, n_max", TABLE_CASES, ids=["k2", "k3", "k4", "k5", "thue-morse", "1,01"])
def test_birkhoff_bounds_equal_the_table_oracle(s, n_max):
    # the deepest case adds tables both below and above the tiling width
    assert s.k < _TILE_WIDTH < s.k**n_max
    for alpha in (0.5, 1.0, 2.0):
        for V in (Potential.v0(alpha), fixed_order_two_potential(s, alpha)):
            for n in range(V.order, n_max + 1):
                s_lo, s_hi = birkhoff_bounds(s, V, n)
                o_lo, o_hi = tabled_bounds(s, V, n)
                assert np.array_equal(s_lo, o_lo), (alpha, V.order, n)
                assert np.array_equal(s_hi, o_hi), (alpha, V.order, n)


def test_log_partition_blocks_leave_every_bit(s2):
    """A grid taken in several blocks gives each beta the bits of its own
    one-point grid, for both window sums."""
    betas = np.concatenate([[0.0], np.geomspace(0.01, 64.0, 299)])
    for S in birkhoff_bounds(s2, V0, 14):  # 1,143 and 739 distinct sums
        distinct = np.unique(S).size
        assert betas.size > 3 * (max(S.size, _BLOCK_ENTRIES) // distinct)
        whole = _log_partition(S, betas)
        one_by_one = np.array([_log_partition(S, betas[i : i + 1])[0] for i in range(betas.size)])
        assert np.array_equal(whole, one_by_one)


def log_sum_exp(values):
    m = float(np.max(values))
    return m + math.log(float(np.exp(values - m).sum()))


def brackets_per_window(s_lo, s_hi, betas, n):
    """Oracle for the pressure bracket: for each beta on its own, a
    log-sum-exp over every window sum, repeated values included."""
    lows = [max(log_sum_exp(-beta * s_hi) / n, 0.0) for beta in betas]
    highs = [log_sum_exp(-beta * s_lo) / n for beta in betas]
    return lows, highs


# (substitution, largest depth) with k <= 3 and n <= 10
PARTITION_CASES = [
    (kbonacci(2), 10),
    (kbonacci(3), 10),
    (Substitution(("01", "10")), 10),
    (Substitution(("1", "01")), 10),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pressure_curve_equals_per_window_oracle(data):
    s, n_max = data.draw(st.sampled_from(PARTITION_CASES))
    alpha = data.draw(st.floats(min_value=0.25, max_value=4.0, exclude_min=True, exclude_max=True))
    V = data.draw(st.one_of(st.just(Potential.v0(alpha)), order_two_potential(s, alpha)))
    n = data.draw(st.integers(min_value=V.order, max_value=n_max))
    betas = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=80)))
    curve = pressure_curve(s, V, n, betas)
    lows, highs = brackets_per_window(*birkhoff_bounds(s, V, n), betas, n)
    assert np.allclose(curve.lows, lows, rtol=0.0, atol=1e-12)
    assert np.allclose(curve.highs, highs, rtol=0.0, atol=1e-12)
    i = data.draw(st.integers(min_value=0, max_value=betas.size - 1))
    one = pressure_curve(s, V, n, betas[i : i + 1])
    assert (one.lows[0], one.highs[0]) == (curve.lows[i], curve.highs[i])


def test_budget_guard(s3):
    with pytest.raises(BudgetExceededError):
        birkhoff_bounds(s3, V0, 20)


def test_curve_shape(s2):
    curve = pressure_curve(s2, V0, 10, np.geomspace(0.01, 64.0, 32))
    assert curve.is_monotone
    assert curve.is_convex
    assert curve.floor == pytest.approx(math.log(11) / 10)
    assert min(curve.excess()) >= 0.0


def test_upper_estimate_tightens_with_depth(s2):
    betas = np.geomspace(0.01, 64.0, 16)
    highs = [pressure_curve(s2, V0, n, betas).highs for n in (8, 10, 12)]
    for shallow, deep in zip(highs, highs[1:]):
        assert all(d <= s + 1e-12 for s, d in zip(shallow, deep))


def test_pressure_curve_refuses_an_inverted_bracket(s2, monkeypatch):
    bounds = pressure.birkhoff_bounds
    monkeypatch.setattr(pressure, "birkhoff_bounds", lambda *args: bounds(*args)[::-1])
    with pytest.raises(ValueError, match="^pressure bracket inverted$"):
        pressure_curve(s2, V0, 6)


def test_find_beta_c_no_crossing_at_default_tol(s2):
    report = find_beta_c(s2, V0, 10, tol=1e-3, statistic="raw")
    assert not report.crossed
    assert report.beta_c is None
    assert (report.tol, report.statistic, report.bracket) == (1e-3, "raw", None)
    for record, name in ((report, "crossed"), (report.curve, "floor")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_find_beta_c_crossing(s2):
    report = find_beta_c(s2, V0, 10, tol=0.3, statistic="raw")
    assert report.crossed
    assert report.bracket[0] < report.beta_c
    excess_report = find_beta_c(s2, V0, 10, tol=1e-3, statistic="excess")
    assert excess_report.crossed
    assert excess_report.plateau_excess(2 * excess_report.beta_c) <= 1e-3


@pytest.mark.parametrize("betas", [np.geomspace(64, 0.01, 8), np.array([5.0, 5.0, 5.0])])
def test_find_beta_c_rejects_a_grid_that_does_not_rise(s2, betas):
    with pytest.raises(ValueError):
        find_beta_c(s2, V0, 6, tol=0.5, betas=betas)


def test_plateau_excess_below_the_grid_is_an_error(s2):
    report = find_beta_c(s2, V0, 10, tol=1e-3, statistic="excess")
    assert report.curve.betas[0] == 0.01
    assert report.plateau_excess(0.01) == pytest.approx(0.449, abs=1e-3)
    # the excess at the last grid point (beta = 64) is about 1e-6, far below
    # the excess at the first; a beta below the grid has no value to read
    with pytest.raises(ValueError):
        report.plateau_excess(0.001)


def test_ladder_lengths(s3, s2):
    lad = bispecial_ladder(s3, 100_000)
    assert [s3.ladder_length(n) for n in range(5)] == [1, 3, 7, 14, 27]
    assert [len(b) for b in lad] == [s3.ladder_length(n) for n in range(len(lad))]
    assert s3.ladder_length(len(lad)) > 100_000
    assert lad[0] == "0"
    assert lad[1] == "010"
    for n in range(len(lad) - 1):
        assert lad[n + 1] == s3.apply(lad[n]) + "0"
    assert [s2.ladder_length(n) for n in range(4)] == [1, 3, 6, 11]
    assert [len(b) for b in bispecial_ladder(s2, 11)] == [1, 3, 6, 11]


def test_ladder_is_exactly_the_bispecials(s2, s3):
    assert verify_ladder(s2, 200)
    assert verify_ladder(s3, 200)


def test_brute_bispecials_small(s3):
    assert brute_bispecials(s3, 7) == {"0", "010", "0102010"}


def test_overlap_ratios(s3, s2):
    lam3 = perron_root(3)
    r3 = overlap_ratios(s3, 35)
    assert abs(r3[30] - 1 / lam3) < 1e-6
    assert np.all(r3 < 1)
    r2 = overlap_ratios(s2, 35)
    assert abs(r2[30] - 2 / (1 + math.sqrt(5))) < 1e-6


def overlap_length(u: str, v: str) -> int:
    """Largest t with u[-t:] == v[:t] (proper suffix-prefix overlap)."""
    for t in range(min(len(u), len(v)) - 1, 0, -1):
        if u.endswith(v[:t]):
            return t
    return 0


def test_rung_overlaps_are_rung_lengths(s3):
    lad = bispecial_ladder(s3, s3.ladder_length(9))
    lengths = {len(b) for b in lad}
    for i in range(2, 7):
        for j in range(i + 1, 8):
            t = overlap_length(lad[i], lad[j])
            assert t in lengths
            assert t / min(len(lad[i]), len(lad[j])) < 1.0


def test_length_law(s3, s2):
    """|b_n| - gamma_0 lambda^{n+1} / (lambda - 1), over lambda^n, stays
    below its early maximum: the remainder grows strictly slower than lambda^n."""
    for s in (s3, s2):
        g = growth_decomposition(s)
        residuals = [s.ladder_length(n) - g.gamma[0] * g.lam ** (n + 1) / (g.lam - 1.0) for n in range(41)]
        scaled = [r / g.lam**n for n, r in enumerate(residuals)]
        assert max(abs(r) for r in scaled[-10:]) <= max(abs(r) for r in scaled[:10]) + 1e-9
        assert abs(scaled[-1]) < 1e-6
