import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import (
    Potential,
    Substitution,
    bispecial_ladder,
    bispecial_length_law,
    birkhoff_bounds,
    brute_bispecials,
    default_beta_grid,
    find_beta_c,
    in_language,
    kbonacci,
    overlap_length,
    overlap_ratios,
    perron_root,
    pressure_bounds,
    pressure_curve,
    recurrence_gaps,
    verify_ladder,
)
from kbonacci.errors import BudgetExceededError
from kbonacci.potentials import CylinderFunction

V0 = Potential.v0(1.0)


def test_exact_at_beta_zero(s2, s3):
    for s, n in ((s2, 10), (s3, 7)):
        lo, hi = pressure_bounds(s, V0, 0.0, n)
        assert lo == pytest.approx(math.log(s.k), abs=1e-14)
        assert hi == pytest.approx(math.log(s.k), abs=1e-14)


def test_bracket_ordered_and_nonnegative(s2):
    for beta in (0.5, 2.0, 8.0, 32.0):
        lo, hi = pressure_bounds(s2, V0, beta, 10)
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


def test_budget_guard(s3):
    with pytest.raises(BudgetExceededError):
        birkhoff_bounds(s3, V0, 20)


def test_curve_shape(s2):
    curve = pressure_curve(s2, V0, 10, default_beta_grid(points=32))
    assert curve.is_monotone
    assert curve.is_convex
    assert curve.floor == pytest.approx(math.log(11) / 10)
    assert min(curve.excess()) >= 0.0


def test_upper_estimate_tightens_with_depth(s2):
    betas = default_beta_grid(points=16)
    highs = [pressure_curve(s2, V0, n, betas).highs for n in (8, 10, 12)]
    for shallow, deep in zip(highs, highs[1:]):
        assert all(d <= s + 1e-12 for s, d in zip(shallow, deep))


def test_find_beta_c_no_crossing_at_default_tol(s2):
    report = find_beta_c(s2, V0, 10, tol=1e-3, statistic="raw")
    assert not report.crossed
    assert report.beta_c is None


def test_find_beta_c_crossing(s2):
    report = find_beta_c(s2, V0, 10, tol=0.3, statistic="raw")
    assert report.crossed
    assert report.bracket[0] < report.beta_c
    excess_report = find_beta_c(s2, V0, 10, tol=1e-3, statistic="excess")
    assert excess_report.crossed
    assert excess_report.plateau_excess(2 * excess_report.beta_c) <= 1e-3


def test_ladder_lengths(s3, s2):
    lad = bispecial_ladder(s3, 10)
    assert lad.lengths[:5] == (1, 3, 7, 14, 27)
    assert lad.words[0] == "0"
    assert lad.words[1] == "010"
    for n in range(len(lad.words) - 1):
        assert lad.words[n + 1] == s3.apply(lad.words[n]) + "0"
    lad2 = bispecial_ladder(s2, 8)
    assert lad2.lengths[:4] == (1, 3, 6, 11)


def test_ladder_is_exactly_the_bispecials(s2, s3):
    assert verify_ladder(s2, 200)
    assert verify_ladder(s3, 200)


def test_brute_bispecials_small(s3):
    assert brute_bispecials(s3, 7) == {"0", "010", "0102010"}


def test_overlap_ratios(s3, s2):
    lam3 = perron_root(3)
    r3 = overlap_ratios(bispecial_ladder(s3, 35))
    assert abs(r3[30] - 1 / lam3) < 1e-6
    assert np.all(r3 < 1)
    r2 = overlap_ratios(bispecial_ladder(s2, 35))
    assert abs(r2[30] - 2 / (1 + math.sqrt(5))) < 1e-6


def test_rung_overlaps_are_rung_lengths(s3):
    lad = bispecial_ladder(s3, 9)
    lengths = set(lad.lengths)
    for i in range(2, 7):
        for j in range(i + 1, 8):
            t = overlap_length(lad.words[i], lad.words[j])
            assert t in lengths
            assert t / min(len(lad.words[i]), len(lad.words[j])) < 1.0


def test_recurrence_gaps(s3):
    report = recurrence_gaps(s3, 12, 200_000)
    assert report.inconclusive == ()
    assert report.max_ratio <= 30
    assert report.max_gap[1] >= 1


def test_recurrence_window_stability(s3):
    small = recurrence_gaps(s3, 8, 100_000)
    big = recurrence_gaps(s3, 8, 200_000)
    assert small.max_ratio == big.max_ratio


def test_length_law(s3, s2):
    for s in (s3, s2):
        report = bispecial_length_law(s, 40)
        assert report.scaled_bounded
        assert abs(report.scaled[-1]) < 1e-6
