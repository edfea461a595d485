import math
import sys

import numpy as np
import pytest

from kbonacci import (
    Substitution,
    growth_decomposition,
    kbonacci,
    left_eigenvector,
    letter_frequencies,
    perron_root,
    tribonacci_cardan,
)
from kbonacci.cli import main
from kbonacci.spectral import ROOT_TOL, _charpoly, _charpoly_deriv


def test_perron_root_fibonacci(s2):
    assert perron_root(2) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)


def test_perron_root_cardan():
    assert abs(perron_root(3) - tribonacci_cardan()) < 1e-12


@pytest.mark.parametrize("k", range(2, 13))
def test_polynomial_residual(k):
    lam = perron_root(k)
    assert abs(lam**k - sum(lam**j for j in range(k))) < 1e-12
    assert 1 < lam < 2


def _perron_root_in_80_steps(k):
    """perron_root as it was: 80 bisection steps, then the Newton polish."""
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


def test_perron_root_stops_where_80_steps_end():
    # once the midpoint equals a bound, no later step moves either bound
    assert all(perron_root(k) == _perron_root_in_80_steps(k) for k in range(2, 301))


def test_left_eigenvector(s3):
    lam = perron_root(3)
    v = left_eigenvector(3, lam)
    assert v[0] == pytest.approx(lam, abs=1e-14)
    assert v[1] == pytest.approx((lam + 1) / lam, abs=1e-14)
    assert v[2] == 1.0
    m = s3.incidence().astype(float)
    assert np.abs(v @ m - lam * v).max() < 1e-10


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_left_eigenvector_general(k):
    s = kbonacci(k)
    lam = perron_root(k)
    v = left_eigenvector(k, lam)
    assert np.abs(v @ s.incidence().astype(float) - lam * v).max() < 1e-10


def test_growth_lengths(s3):
    g = growth_decomposition(s3)
    assert [s3.power_lengths(n)[0] for n in range(6)] == [1, 2, 4, 7, 13, 24]
    # gamma_l lambda^n tracks the exact lengths once the remainder has decayed
    for n in range(20, 35):
        assert s3.power_lengths(n)[0] == pytest.approx(g.gamma[0] * g.lam**n, rel=1e-7)
    assert g.theta < g.lam
    with pytest.raises(AttributeError):
        g.lam = 2.0


@pytest.mark.parametrize("k", range(2, 11))
def test_theta_is_the_second_root_modulus(k):
    s = kbonacci(k)
    g = growth_decomposition(s)
    moduli = np.sort(np.abs(np.linalg.eigvals(s.incidence().astype(float))))
    assert abs(g.theta - moduli[-2]) < 1e-12
    # the exact remainders decay at rate theta
    for n in range(31):
        lengths = s.power_lengths(n)
        assert max(abs(lengths[l] - g.gamma[l] * g.lam**n) for l in range(k)) <= g.theta**n


@pytest.mark.parametrize("k", range(2, 11))
def test_gamma_is_the_deep_length_ratio(k):
    # at n = 60 the remainder is below 1e-13 of |s^n(l)|
    s = kbonacci(k)
    g = growth_decomposition(s)
    oracle = np.array([s.power_lengths(60)[l] / g.lam**60 for l in range(k)])
    assert np.abs(g.gamma / oracle - 1.0).max() < 1e-13


def test_gamma_proportional_to_eigenvector(s3):
    g = growth_decomposition(s3)
    v = left_eigenvector(3, perron_root(3))
    ratios = g.gamma / v
    assert np.ptp(ratios) < 1e-9


def test_geometric_tail(s3):
    # sum_{l<10} |s^l(0)| against gamma_0 lambda^10 / (lambda - 1)
    assert s3.ladder_length(9) == sum(len(s3.power_image(l, 0)) for l in range(10))
    g = growth_decomposition(s3)
    assert abs(s3.ladder_length(9) - g.gamma[0] * g.lam**10 / (g.lam - 1.0)) < 10


@pytest.mark.parametrize("k", range(2, 11))
def test_growth_decomposition_carries_v_and_the_residual(k):
    g = growth_decomposition(kbonacci(k))
    lam = perron_root(k)
    assert g.lam == lam
    assert np.array_equal(g.v, left_eigenvector(k, lam))
    assert g.residual == abs(lam**k - sum(lam**j for j in range(k)))
    g.v[0] = 0.0  # a fresh array: the cached pair under it does not move
    assert np.array_equal(growth_decomposition(kbonacci(k)).v, left_eigenvector(k, lam))


@pytest.mark.parametrize("k", range(2, 11))
def test_letter_frequencies_are_the_normalized_eigenvector(k):
    m = kbonacci(k).incidence().astype(float)
    eigvals, eigvecs = np.linalg.eig(m)
    vec = np.abs(eigvecs[:, int(np.argmax(eigvals.real))].real)
    assert np.abs(letter_frequencies(kbonacci(k)) - vec / vec.sum()).max() < 1e-15


def test_letter_frequencies_are_kbonacci_only():
    with pytest.raises(ValueError):
        letter_frequencies(Substitution(("01", "10")))


def _calls(argv, functions, capsys):
    """How often each of `functions` runs in one command, its caches cleared first."""
    caches = [obj for name, module in sys.modules.items() if name.startswith("kbonacci.")
              for obj in vars(module).values() if callable(getattr(obj, "cache_clear", None))]
    for cache in caches:
        cache.cache_clear()
    codes = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        assert main(argv) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    return counts


def test_one_perron_derivation_per_command(capsys):
    functions = (perron_root, left_eigenvector)
    assert _calls(["verify", "--k", "3"], functions, capsys) == {"perron_root": 1, "left_eigenvector": 1}
    assert _calls(["spectral", "--k", "3"], functions, capsys) == {"perron_root": 1, "left_eigenvector": 1}


def test_letter_frequencies(s3):
    freq = letter_frequencies(s3)
    omega = s3.fixed_prefix(200_000)
    emp = np.array([omega.count(str(a)) / len(omega) for a in range(3)])
    assert np.abs(freq - emp).max() < 1e-4
    assert freq.sum() == pytest.approx(1.0)
    lam = perron_root(3)
    assert freq[0] == pytest.approx(1 / lam, abs=1e-10)


def test_spectral_data_bundle(capsys):
    assert main(["spectral", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "k=3" in lines[0].split()
    assert sum(line.startswith("v,") for line in lines) == 3
    residual = next(line for line in lines if line.startswith("polynomial_residual,"))
    assert float(residual.split(",")[2]) < 1e-12
