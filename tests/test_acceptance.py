"""Acceptance gate: one check per headline claim, one pass/fail line each.

Each test prints `ACCEPTANCE <n>: PASS|FAIL - <summary>` so the suite
output doubles as the acceptance report.  Two sub-claims of check 10
and the complexity constant of check 6 are asserted exactly as stated
and marked xfail: they are unattainable as written (the analysis lives
in the repository notes, summarized in the docstrings below), and the
tests document the measured values rather than papering over them.
"""

import math
import time

import numpy as np
import pytest

from kbonacci import (
    Configuration,
    CylinderFunction,
    Potential,
    brute_delta,
    convergence_study,
    cut_points,
    find_beta_c,
    fixed_point_U,
    kbonacci,
    left_eigenvector,
    letter_frequencies,
    overlap_ratios,
    perron_root,
    pressure_curve,
    renorm_power,
    tribonacci_appendix_checks,
    tribonacci_cardan,
    verify_fixed_point,
    verify_ladder,
    verify_recognizability,
)
from kbonacci.recognition import delta_after_power, maximal_prefix, power_prefix
from kbonacci.sampling import sample_configurations

V0 = Potential.v0(1.0)


def report(number: int, passed: bool, summary: str):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {summary}")
    assert passed, summary


def test_01_fixed_point_identity():
    t0 = time.time()
    worst = 0.0
    for k in (2, 3, 4):
        s = kbonacci(k)
        worst = max(worst, verify_fixed_point(s, sample_configurations(s, 50, seed=k)))
    elapsed = time.time() - t0
    report(1, worst < 1e-9 and elapsed < 10,
           f"|RU - U| max {worst:.2e} over 150 configurations in {elapsed:.1f}s")


def test_02_convergence_to_fixed_point():
    t0 = time.time()
    worst = 0.0
    for k in (2, 3):
        s = kbonacci(k)
        for x in sample_configurations(s, 20, seed=10 + k):
            worst = max(worst, abs(renorm_power(s, V0, x, 25, "closed-form") - fixed_point_U(s, x)))
    elapsed = time.time() - t0
    report(2, worst < 1e-3 and elapsed < 60,
           f"|R^25 V0 - U| max {worst:.2e} over 40 configurations in {elapsed:.1f}s")


def test_03_trichotomy():
    t0 = time.time()
    s = kbonacci(3)
    x = Configuration("0000", "const", "0")
    small = renorm_power(s, Potential.v0(2.0), x, 25)
    ok_small = small < 1e-6

    study = convergence_study(s, Potential.v0(0.5), x, n_max=25)
    lam = perron_root(3)
    slope_target = 0.5  # (1 - alpha) in units of log lambda
    ok_slope = study.verdict == "diverges" and abs(study.growth_exponent - slope_target) < 0.1 * slope_target
    # the values keep growing like lambda^{n/2}; iterate further to clear 1e4
    big = renorm_power(s, Potential.v0(0.5), x, 35)
    ok_big = big > 1e4

    g = CylinderFunction.indicator("0", 1.0, base=1.0)
    V = Potential(1.0, g, CylinderFunction.constant(0.0))
    target = (1.0 + letter_frequencies(s)[0]) * fixed_point_U(s, x)
    value = renorm_power(s, V, x, 25)
    ok_mean = abs(value - target) < 2e-3
    elapsed = time.time() - t0
    report(3, ok_small and ok_slope and ok_big and ok_mean and elapsed < 120,
           f"alpha=2: {small:.1e}; alpha=0.5: {big:.3g} (slope {study.growth_exponent:.3f}); "
           f"alpha=1 weighted limit off by {abs(value - target):.1e}; {elapsed:.1f}s")


def test_04_delta_closed_forms():
    t0 = time.time()
    checks = 0
    mismatches = 0
    for k in (2, 3, 4):
        s = kbonacci(k)
        for x in sample_configurations(s, 20, seed=20 + k):
            w = maximal_prefix(s, x)
            for n in range(s.k, 9):
                block = s.power_lengths(n)[int(x.head[0])]
                step = max(1, block // 6)
                js = sorted(set(list(range(0, block, step)) + [block - 1]))
                base = delta_after_power(s, w, n)
                word = power_prefix(s, x, n, base + 8)
                for j in js:
                    checks += 1
                    if base - j != brute_delta(s, word[j:]):
                        mismatches += 1
    elapsed = time.time() - t0
    report(4, mismatches == 0 and checks >= 1000 and elapsed < 60,
           f"{checks} closed-form vs scan checks, {mismatches} mismatches, {elapsed:.1f}s")


def test_05_recognizability():
    t0 = time.time()
    ok = True
    for k in (2, 3, 4):
        s = kbonacci(k)
        for n in range(k, k + 4):
            ok &= verify_recognizability(s, cut_points(s, n, 100_000))
        for n in range(1, k + 4):
            ok &= set(cut_points(s, n + 1, 100_000).starts.tolist()) <= set(cut_points(s, n, 100_000).starts.tolist())
    elapsed = time.time() - t0
    report(5, ok and elapsed < 30, f"occurrence sets = cut points, nested, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="complexity of the k-bonacci language is (k-1)n+1 "
                   "(Fibonacci n+1, Tribonacci 2n+1); kn+1 already fails at k=3, n=1 "
                   "(3 letters, not 4); see the repository notes")
def test_06_complexity_kn_plus_1():
    failures = []
    for k in (2, 3, 4, 5):
        index = kbonacci(k).language(31)
        for n in range(1, 31):
            if index.complexity(n) != k * n + 1:
                failures.append((k, n, index.complexity(n)))
    report(6, not failures, f"complexity(n) == kn+1; first failures {failures[:3]}")


def test_06b_complexity_measured_law():
    t0 = time.time()
    ok = True
    for k in (2, 3, 4, 5):
        index = kbonacci(k).language(31)
        ok &= all(index.complexity(n) == (k - 1) * n + 1 for n in range(1, 31))
    elapsed = time.time() - t0
    report(6, ok and elapsed < 30, f"complexity(n) == (k-1)n+1 for k in 2..5, n <= 30, {elapsed:.1f}s")


def test_07_spectral_closed_forms():
    ok = all(
        abs(perron_root(k) ** k - sum(perron_root(k) ** j for j in range(k))) < 1e-12
        for k in range(2, 13)
    )
    lam = perron_root(3)
    ok &= abs(lam - tribonacci_cardan()) < 1e-12
    v = left_eigenvector(3, lam)
    m = kbonacci(3).incidence().astype(float)
    ok &= float(np.abs(v @ m - lam * v).max()) < 1e-10
    ok &= abs(v[0] - lam) < 1e-12 and abs(v[1] - (lam + 1) / lam) < 1e-12 and v[2] == 1.0
    report(7, ok, f"polynomial, Cardan, eigenvector residual, v = (lam, (lam+1)/lam, 1)")


def test_08_bispecial_ladder():
    t0 = time.time()
    ok = verify_ladder(kbonacci(2), 200) and verify_ladder(kbonacci(3), 200)
    for k in (2, 3):
        ratios = overlap_ratios(kbonacci(k), 35)
        ok &= abs(ratios[30] - 1.0 / perron_root(k)) < 1e-6
    elapsed = time.time() - t0
    report(8, ok and elapsed < 60,
           f"bispecials <= 200 are exactly the ladder; ratios -> 1/lambda; {elapsed:.1f}s")


def test_09_appendix():
    rep = tribonacci_appendix_checks(max_length=30)
    report(9, rep.ok, f"{rep.words_checked} unique de-substitutions; 001 in L; 000, 002 absent")


# ---- pressure properties (check 10), split into measurable sub-claims -------


def test_10a_pressure_bracket_and_exactness():
    t0 = time.time()
    s = kbonacci(2)
    curve = pressure_curve(s, V0, 14)
    at_zero = pressure_curve(s, V0, 14, np.array([0.0]))
    lo0, hi0 = at_zero.lows[0], at_zero.highs[0]
    ok = abs(lo0 - math.log(2)) < 1e-14 and abs(hi0 - math.log(2)) < 1e-14
    ok &= all(0.0 <= lo <= hi for lo, hi in zip(curve.lows, curve.highs))
    ok &= curve.is_convex and curve.is_monotone
    elapsed = time.time() - t0
    report(10, ok and elapsed < 600,
           f"bracket ordered, log 2 at beta=0, convex and monotone on grid, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason="windows that stay in the language keep the bracket "
                   "open by max(g+h)/|u|^alpha per coordinate, so the width at beta=5, n=14 "
                   "is 0.211 (floor log(15)/14 = 0.193 plus slack); < 0.05 needs depths far "
                   "beyond the 10^7-window budget; see the repository notes")
def test_10b_bracket_width_at_beta_5():
    curve = pressure_curve(kbonacci(2), V0, 14, np.array([5.0]))
    lo, hi = curve.lows[0], curve.highs[0]
    report(10, hi - lo < 0.05, f"width at beta=5, k=2, n=14 is {hi - lo:.3f}")


def test_10c_width_shrinks_with_depth():
    widths = []
    for n in (8, 10, 12, 14):
        curve = pressure_curve(kbonacci(2), V0, n, np.array([5.0]))
        widths.append(curve.highs[0] - curve.lows[0])
    ok = all(a > b for a, b in zip(widths, widths[1:]))
    report(10, ok, f"width at beta=5 over n=8,10,12,14: {[f'{w:.3f}' for w in widths]}")


def test_10d_beta_c_nonincreasing_in_depth():
    # the raw statistic never reaches the spec-default 1e-3 at these depths
    # (the floor is above it); monotonicity is measured at a crossable level
    s = kbonacci(2)
    defaults = [find_beta_c(s, V0, n, tol=1e-3, statistic="raw") for n in (8, 10, 12, 14)]
    ok = all(not r.crossed for r in defaults)
    bcs = [find_beta_c(s, V0, n, tol=0.3, statistic="raw").beta_c for n in (8, 10, 12, 14)]
    ok &= all(b is not None for b in bcs)
    ok &= all(a >= b for a, b in zip(bcs, bcs[1:]))
    report(10, ok, f"beta_c over n=8,10,12,14 at tol 0.3: {[f'{b:.2f}' for b in bcs]} "
           "(tol 1e-3: no crossing, floor above tol)")


@pytest.mark.xfail(strict=True, reason="the raw upper estimate cannot drop below "
                   "log(#L_n)/n = 0.193 at n=14 (language windows contribute S=0); "
                   "the plateau holds net of that floor; see the repository notes")
def test_10e_plateau_raw():
    s = kbonacci(2)
    r = find_beta_c(s, V0, 14, tol=1e-3, statistic="raw")
    ok = r.crossed and max(h for b, h in zip(r.curve.betas, r.curve.highs) if b >= 2 * r.beta_c) <= 1e-3
    report(10, ok, "raw upper estimate <= 1e-3 at 2 beta_c")


def test_10f_plateau_above_floor():
    s = kbonacci(2)
    r = find_beta_c(s, V0, 14, tol=1e-3, statistic="excess")
    ok = r.crossed and r.plateau_excess(2 * r.beta_c) <= 1e-3
    report(10, ok, f"upper estimate exceeds the depth floor by "
           f"{r.plateau_excess(2 * r.beta_c):.1e} at 2 beta_c = {2 * r.beta_c:.1f}")
