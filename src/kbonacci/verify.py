"""Self-contained property suites, runnable from the command line.

Each suite returns a list of (check name, passed, detail) rows so the
driver can print a summary and set the exit code; the same checks back
the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import UncertifiedConfigurationError
from .potentials import Potential
from .pressure import PRESSURE_WORD_BUDGET, overlap_ratios, pressure_curve, verify_ladder
from .recognition import (
    brute_delta,
    cut_points,
    delta_after_power,
    maximal_prefix,
    power_prefix,
    tribonacci_appendix_checks,
    verify_recognizability,
)
from .renorm import (
    fixed_point_U,
    renorm_power,
    verify_fixed_point,
)
from .sampling import sample_configurations
from .spectral import growth_decomposition, tribonacci_cardan
from .substitution import Substitution, check_recurrence, require_kbonacci
from .words import in_language


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


def suite_language(s: Substitution) -> list[CheckResult]:
    rows = []
    index = s.language(16)
    expected = [(s.k - 1) * n + 1 for n in range(1, 16)]
    got = [index.complexity(n) for n in range(1, 16)]
    rows.append(_result("language", "complexity (k-1)n+1", got == expected, f"{got[:6]}"))
    factorial = all(
        w[1:] in index.words(n - 1) and w[:-1] in index.words(n - 1)
        for n in range(2, 12)
        for w in index.words(n)
    )
    rows.append(_result("language", "factor-closed", factorial))
    ok = all(check_recurrence(s, n) for n in range(0, 6))
    rows.append(_result("language", "image recurrence", ok))
    return rows


def suite_delta(s: Substitution) -> list[CheckResult]:
    rows = []
    mismatches = 0
    checks = 0
    for x in sample_configurations(s, 8, seed=7):
        w = maximal_prefix(s, x)
        for n in range(s.k, s.k + 3):
            block = s.power_lengths(n)[int(w[0])]
            base = delta_after_power(s, w, n)
            word = power_prefix(s, x, n, base + 4)
            # the closed form puts the break of every shift j < block at the
            # end `base`.  The language is factorial, so the end j + delta_j
            # never decreases in j: once one bisection puts the end of shift
            # 0 at base, a later shift ends at base exactly when
            # word[j : base + 1] is not in the language
            try:
                ok = brute_delta(s, word) == base
            except UncertifiedConfigurationError:
                ok = False
            for j in range(0, block, max(1, block // 8)):
                checks += 1
                mismatches += not ok or (j > 0 and in_language(s, word[j : base + 1]))
    rows.append(_result("delta", "closed form vs scan", mismatches == 0, f"{checks} checks"))
    return rows


def suite_recognizability(s: Substitution) -> list[CheckResult]:
    rows = []
    cuts = {n: cut_points(s, n, 20_000) for n in range(1, s.k + 4)}
    for n in range(s.k, s.k + 3):
        ok = verify_recognizability(s, cuts[n])
        rows.append(_result("recognizability", f"n={n} occurrences = cut points", ok))
    nested = all(np.isin(cuts[n + 1].starts, cuts[n].starts).all() for n in range(1, s.k + 3))
    rows.append(_result("recognizability", "cut points nested", nested))
    return rows


def suite_spectral(s: Substitution) -> list[CheckResult]:
    rows = []
    g = growth_decomposition(s)
    rows.append(_result("spectral", "polynomial residual < 1e-12", g.residual < 1e-12, f"{g.residual:.2e}"))
    m = s.incidence().astype(float)
    eig = float(np.abs(g.v @ m - g.lam * g.v).max())
    rows.append(_result("spectral", "left eigenvector residual < 1e-10", eig < 1e-10, f"{eig:.2e}"))
    if s.k == 3:
        rows.append(
            _result(
                "spectral",
                "Cardan closed form",
                abs(g.lam - tribonacci_cardan()) < 1e-12,
            )
        )
    return rows


def suite_renorm(s: Substitution) -> list[CheckResult]:
    rows = []
    configs = sample_configurations(s, 20, seed=11)
    residual = verify_fixed_point(s, configs)
    rows.append(_result("renorm", "fixed point residual < 1e-9", residual < 1e-9, f"{residual:.2e}"))
    V0 = Potential.v0(1.0)
    worst = max(
        abs(renorm_power(s, V0, x, 25, "closed-form") - fixed_point_U(s, x)) for x in configs[:6]
    )
    rows.append(_result("renorm", "R^25 V0 within 1e-3 of U", worst < 1e-3, f"{worst:.2e}"))
    x = configs[0]
    agree = max(
        abs(renorm_power(s, V0, x, n, "closed-form") - renorm_power(s, V0, x, n, "brute-force"))
        for n in range(s.k, s.k + 3)
    )
    rows.append(_result("renorm", "closed form = brute force", agree < 1e-12, f"{agree:.2e}"))
    return rows


def suite_pressure(s: Substitution) -> list[CheckResult]:
    rows = []
    V0 = Potential.v0(1.0)
    depth = max(n for n in range(1, 11) if s.k**n <= PRESSURE_WORD_BUDGET)
    curve = pressure_curve(s, V0, depth, np.array([0.0, 5.0]))
    (lo, lo5), (hi, hi5) = curve.lows, curve.highs
    exact = abs(lo - math.log(s.k)) < 1e-12 and abs(hi - math.log(s.k)) < 1e-12
    rows.append(_result("pressure", "exact at beta = 0", exact))
    rows.append(_result("pressure", "bracket ordered and nonnegative", 0.0 <= lo5 <= hi5))
    err = abs(overlap_ratios(s, 35)[30] - 1.0 / growth_decomposition(s).lam)
    rows.append(_result("pressure", "overlap ratio -> 1/lambda", err < 1e-6, f"{err:.2e}"))
    rows.append(_result("pressure", "bispecials = ladder (<= 120)", verify_ladder(s, 120)))
    return rows


def suite_appendix(s: Substitution) -> list[CheckResult]:
    if s.k != 3:
        raise ValueError(f"the appendix suite checks the Tribonacci substitution (k = 3), not k = {s.k}")
    report = tribonacci_appendix_checks(max_length=30)
    return [
        _result("appendix", "unique de-substitution", report.all_unique, f"{report.words_checked} words"),
        _result("appendix", "001 in language", report.has_001),
        _result("appendix", "000, 002 absent", report.lacks_000 and report.lacks_002),
    ]


SUITES: dict[str, Callable[[Substitution], list[CheckResult]]] = {
    "language": suite_language,
    "delta": suite_delta,
    "recognizability": suite_recognizability,
    "spectral": suite_spectral,
    "renorm": suite_renorm,
    "pressure": suite_pressure,
    "appendix": suite_appendix,
}


def run_all(s: Substitution, suites: list[str] | None) -> list[CheckResult]:
    """Run the named suites (None: every suite that applies to s, the
    appendix only at k = 3) on a k-bonacci substitution."""
    require_kbonacci(s)
    names = suites or [name for name in SUITES if name != "appendix" or s.k == 3]
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](s))
    return results
