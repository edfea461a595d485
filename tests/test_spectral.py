import math

import numpy as np
import pytest

from kbonacci import (
    growth_decomposition,
    kbonacci,
    left_eigenvector,
    letter_frequencies,
    perron_root,
    tribonacci_cardan,
)
from kbonacci.cli import main


def test_perron_root_fibonacci(s2):
    assert perron_root(2) == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)


def test_perron_root_cardan():
    assert abs(perron_root(3) - tribonacci_cardan()) < 1e-12


@pytest.mark.parametrize("k", range(2, 13))
def test_polynomial_residual(k):
    lam = perron_root(k)
    assert abs(lam**k - sum(lam**j for j in range(k))) < 1e-12
    assert 1 < lam < 2


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
