"""Self-contained property suites, runnable from the command line.

Each suite returns a list of (check name, passed, detail) rows so the
driver can print a summary and set the exit code; the same checks back
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import Potential
from .pressure import (
    bispecial_ladder,
    overlap_ratios,
    pressure_bounds,
    verify_ladder,
)
from .recognition import (
    brute_delta,
    cut_points,
    delta_shifted,
    tribonacci_appendix_checks,
    verify_recognizability,
)
from .renorm import (
    fixed_point_U,
    renorm_power,
    verify_fixed_point,
)
from .sampling import sample_configurations
from .spectral import left_eigenvector, perron_root, tribonacci_cardan
from .substitution import Substitution, check_recurrence


@dataclass(frozen=True)
class CheckResult:
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


def suite_delta(s: Substitution, samples: int = 20, seed: int = 7) -> list[CheckResult]:
    rows = []
    configs = sample_configurations(s, samples, seed)
    mismatches = 0
    checks = 0
    for x in configs[:8]:
        for n in range(s.k, s.k + 3):
            block = s.power_lengths(n)[int(x.head[0])]
            word = None
            for j in range(0, block, max(1, block // 8)):
                closed = delta_shifted(s, x, n, j)
                if word is None:
                    from .renorm import _power_prefix

                    word = _power_prefix(s, x, n, closed + j + 4)
                checks += 1
                if brute_delta(s, word, j) != closed:
                    mismatches += 1
    rows.append(_result("delta", "closed form vs scan", mismatches == 0, f"{checks} checks"))
    return rows


def suite_recognizability(s: Substitution, window: int = 20_000) -> list[CheckResult]:
    rows = []
    for n in range(s.k, s.k + 3):
        ok = verify_recognizability(s, n, window)
        rows.append(_result("recognizability", f"n={n} occurrences = cut points", ok))
    nested = all(
        set(cut_points(s, n + 1, window).points) <= set(cut_points(s, n, window).points)
        for n in range(1, s.k + 3)
    )
    rows.append(_result("recognizability", "cut points nested", nested))
    return rows


def suite_spectral(s: Substitution) -> list[CheckResult]:
    rows = []
    lam = perron_root(s.k)
    residual = abs(lam**s.k - sum(lam**j for j in range(s.k)))
    rows.append(_result("spectral", "polynomial residual < 1e-12", residual < 1e-12, f"{residual:.2e}"))
    v = left_eigenvector(s.k, lam)
    m = s.incidence().astype(float)
    eig = float(np.abs(v @ m - lam * v).max())
    rows.append(_result("spectral", "left eigenvector residual < 1e-10", eig < 1e-10, f"{eig:.2e}"))
    if s.k == 3:
        rows.append(
            _result(
                "spectral",
                "Cardan closed form",
                abs(lam - tribonacci_cardan()) < 1e-12,
            )
        )
    return rows


def suite_renorm(s: Substitution, samples: int = 20, seed: int = 11) -> list[CheckResult]:
    rows = []
    configs = sample_configurations(s, samples, seed)
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


def suite_pressure(s: Substitution, depth: int = 10) -> list[CheckResult]:
    rows = []
    V0 = Potential.v0(1.0)
    lo, hi = pressure_bounds(s, V0, 0.0, depth)
    exact = abs(lo - math.log(s.k)) < 1e-12 and abs(hi - math.log(s.k)) < 1e-12
    rows.append(_result("pressure", "exact at beta = 0", exact))
    lo5, hi5 = pressure_bounds(s, V0, 5.0, depth)
    rows.append(_result("pressure", "bracket ordered and nonnegative", 0.0 <= lo5 <= hi5))
    ladder = bispecial_ladder(s, 35)
    lam = perron_root(s.k)
    err = abs(overlap_ratios(ladder)[30] - 1.0 / lam)
    rows.append(_result("pressure", "overlap ratio -> 1/lambda", err < 1e-6, f"{err:.2e}"))
    rows.append(_result("pressure", "bispecials = ladder (<= 120)", verify_ladder(s, 120)))
    return rows


def suite_appendix() -> list[CheckResult]:
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
}


def run_all(s: Substitution, suites: list[str] | None = None) -> list[CheckResult]:
    names = list(suites) if suites else list(SUITES) + (["appendix"] if s.k == 3 else [])
    results: list[CheckResult] = []
    for name in names:
        if name == "appendix":
            if s.k == 3:
                results.extend(suite_appendix())
            continue
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'appendix'")
        results.extend(SUITES[name](s))
    return results
