import itertools
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import (
    Configuration,
    CylinderFunction,
    Potential,
    birkhoff_bounds,
    brute_delta,
    convergence_study,
    eval_potential,
    fixed_point_U,
    kbonacci,
    letter_frequencies,
    maximal_prefix,
    perron_root,
    power_prefix,
    renorm_after_power,
    renorm_power,
    verify_fixed_point,
)
from kbonacci import recognition
from kbonacci.errors import UncertifiedConfigurationError
from kbonacci.renorm import MODES, _DIRECT_SPAN, _inverse_power_sum, _sweep_breaks
from kbonacci.sampling import sample_configurations

ZEROS = Configuration("0000", "const", "0")
V0 = Potential.v0(1.0)


def test_potential_validation(s3):
    Potential.v0(1.0).validate_for(s3)
    with pytest.raises(ValueError):
        Potential(1.0, CylinderFunction.constant(0.0), CylinderFunction.constant(0.0)).validate_for(s3)
    # h must vanish on language words
    bad_h = CylinderFunction.indicator("01", 1.0)
    with pytest.raises(ValueError):
        Potential(1.0, CylinderFunction.constant(1.0), bad_h).validate_for(s3)
    ok_h = CylinderFunction.indicator("000", 1.0)
    Potential(1.0, CylinderFunction.constant(1.0), ok_h).validate_for(s3)


def test_entry_points_validate_the_potential(s3):
    bad = Potential(1.0, CylinderFunction.constant(1.0), CylinderFunction.indicator("01", 1.0))
    with pytest.raises(ValueError, match="h must vanish"):
        birkhoff_bounds(s3, bad, 4)
    for mode in ("closed-form", "brute-force"):
        with pytest.raises(ValueError, match="h must vanish"):
            renorm_power(s3, bad, ZEROS, 3, mode=mode)
    with pytest.raises(ValueError, match="h must vanish"):
        renorm_after_power(s3, bad, "00", 3)
    birkhoff_bounds(s3, V0, 4)
    renorm_power(s3, V0, ZEROS, 3)


def test_eval_potential(s3):
    assert eval_potential(s3, V0, ZEROS) == 0.5
    assert eval_potential(s3, V0, Configuration("", "orbit", 0)) == 0.0


def test_brute_force_first_power_value(s3):
    assert renorm_power(s3, V0, ZEROS, 1, "brute-force") == pytest.approx(0.45, abs=1e-15)


def tribonacci_fixed_point_cases(s, x):
    """The Tribonacci (k = 3) fixed point written out per first letter: the
    quantity of fixed_point_U, with the eigenvector entries
    (lambda, (lambda+1)/lambda, 1) spelled out case by case."""
    if x.in_subshift:
        return 0.0
    lam = perron_root(3)
    w = maximal_prefix(s, x)
    base = lam / (lam - 1.0) + lam * w.count("0") + (lam + 1.0) / lam * w.count("1") + w.count("2")
    vx = {"0": lam, "1": (lam + 1.0) / lam, "2": 1.0}[w[0]]
    return math.log1p(vx / (base - vx))


def test_fixed_point_value(s3):
    assert fixed_point_U(s3, ZEROS) == pytest.approx(0.3759065171513719, abs=1e-13)
    assert tribonacci_fixed_point_cases(s3, ZEROS) == pytest.approx(fixed_point_U(s3, ZEROS), abs=1e-15)


def _with_periodic_tails(s, configs):
    # the same certified heads, each followed by a periodic tail
    periods = ("01", "10", "1" + str(s.k - 1) + "0", "0" * s.k + "1")
    return [Configuration(x.head, "periodic", periods[i % len(periods)]) for i, x in enumerate(configs)]


def test_fixed_point_identity(s3, s2, s4):
    for s in (s2, s3, s4):
        samples = sample_configurations(s, 10, seed=5)
        samples += _with_periodic_tails(s, samples) + [Configuration("", "orbit", 3)]
        assert verify_fixed_point(s, samples) < 1e-12


def test_fixed_point_vanishes_on_subshift(s3):
    assert fixed_point_U(s3, Configuration("", "orbit", 7)) == 0.0


def test_tribonacci_cases_match_fixed_point_U_on_every_first_letter(s3):
    samples = sample_configurations(s3, 40, 0)
    assert {x.head[0] for x in samples} == {"0", "1", "2"}
    for x in samples:
        assert tribonacci_fixed_point_cases(s3, x) == pytest.approx(fixed_point_U(s3, x), abs=1e-15)


@pytest.mark.parametrize("mode", MODES)
def test_powers_vanish_on_the_subshift(s3, mode):
    orbit = Configuration("", "orbit", 4)
    assert [renorm_power(s3, V0, orbit, n, mode) for n in range(5)] == [0.0] * 5


def test_convergence_study_vanishes_on_the_subshift(s3):
    study = convergence_study(s3, V0, Configuration("", "orbit", 4), n_max=6)
    assert [value for _, value, _ in study.rows] == [0.0] * 7
    assert study.fixed_point == 0


def test_closed_form_matches_brute_force(s3, s2):
    for s in (s2, s3):
        samples = sample_configurations(s, 4, seed=9)
        for x in samples + _with_periodic_tails(s, samples):
            for n in range(s.k, s.k + 3):
                c = renorm_power(s, V0, x, n, mode="closed-form")
                b = renorm_power(s, V0, x, n, mode="brute-force")
                assert abs(c - b) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=2), st.floats(min_value=0.25, max_value=3.0),
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_closed_form_matches_brute_force_for_a_general_numerator(k, order, alpha, seed, data):
    # A non-constant g takes the per-window numerator table of the closed form.
    s = kbonacci(k)
    windows = ["".join(w) for w in itertools.product("012"[:k], repeat=order)]
    values = data.draw(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=len(windows),
                                max_size=len(windows), unique=True))
    V = Potential(alpha, CylinderFunction(order, dict(zip(windows, values))), CylinderFunction.constant(0.0))
    x = sample_configurations(s, 1, seed)[0]
    n = data.draw(st.integers(min_value=k, max_value=k + 2))
    closed = renorm_power(s, V, x, n, mode="closed-form")
    brute = renorm_power(s, V, x, n, mode="brute-force")
    assert abs(closed - brute) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=1, max_value=2), st.floats(min_value=0.25, max_value=3.0),
       st.data())
def test_configurations_sharing_a_maximal_prefix_share_the_closed_form(k, order, alpha, data):
    # R^n V(x) depends on x only through w = maximal_prefix(s, x): every
    # configuration w a ... with wa outside the language has the same value.
    s = kbonacci(k)
    letters = "012"[:k]
    windows = ["".join(u) for u in itertools.product(letters, repeat=order)]
    values = data.draw(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=len(windows),
                                max_size=len(windows)))
    V = Potential(alpha, CylinderFunction(order, dict(zip(windows, values))), CylinderFunction.constant(0.0))
    index = s.language(9)
    prefixes = [u for m in range(1, 9) for u in sorted(index.words(m))
                if any(u + a not in index.words(m + 1) for a in letters)]
    w = data.draw(st.sampled_from(prefixes))
    blocked = [a for a in letters if w + a not in index.words(len(w) + 1)]
    n = data.draw(st.integers(min_value=k, max_value=k + 2))
    closed = renorm_after_power(s, V, w, n)
    for _ in range(2):
        head = w + data.draw(st.sampled_from(blocked)) + data.draw(st.text(letters, max_size=3))
        x = Configuration(head, "const", data.draw(st.sampled_from(letters)))
        assert maximal_prefix(s, x) == w
        assert abs(renorm_power(s, V, x, n, mode="brute-force") - closed) < 1e-12


def test_closed_form_order_domain(s2):
    # at n = 2 every window read lies inside the longest language prefix of
    # s^n(x) up to order ladder_length(1) + 1 = 4; a larger order raises
    def of_order(order):
        return Potential(1.0, CylinderFunction.indicator("0" * order, 1.0, base=1.0), CylinderFunction.constant(0.0))

    bound = s2.ladder_length(1) + 1
    assert renorm_after_power(s2, of_order(bound), "00", 2) == pytest.approx(
        renorm_power(s2, of_order(bound), ZEROS, 2, mode="brute-force"), abs=1e-12)
    with pytest.raises(ValueError, match="order"):
        renorm_after_power(s2, of_order(bound + 1), "00", 2)


def test_iterates_converge_to_fixed_point(s3):
    assert abs(renorm_power(s3, V0, ZEROS, 25) - fixed_point_U(s3, ZEROS)) < 1e-6


def test_trichotomy_verdicts(s3):
    vanishing = convergence_study(s3, Potential.v0(2.0), ZEROS, n_max=20)
    assert vanishing.verdict == "vanishes"
    diverging = convergence_study(s3, Potential.v0(0.5), ZEROS, n_max=20)
    assert diverging.verdict == "diverges"
    assert diverging.growth_exponent == pytest.approx(0.5, abs=0.05)
    critical = convergence_study(s3, V0, ZEROS, n_max=20)
    assert critical.verdict == "converges"
    assert critical.limit == pytest.approx(fixed_point_U(s3, ZEROS), abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 3.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_convergence_study_rows_are_the_single_level_entry_points(k, alpha, seed):
    # the study reads its checks and numerator once; every row is bit for bit
    # what the checked entry point of its method gives at that level
    s = kbonacci(k)
    V = Potential.v0(alpha)
    x = sample_configurations(s, 1, seed)[0]
    study = convergence_study(s, V, x, n_max=20)
    w = maximal_prefix(s, x)
    assert study.rows[0] == (0, eval_potential(s, V, x), "brute-force")
    for n, value, method in study.rows[1:]:
        if n < k:
            assert (value, method) == (renorm_power(s, V, x, n, "brute-force"), "brute-force")
        else:
            assert (value, method) == (renorm_after_power(s, V, w, n), "closed-form")


def test_nonconstant_numerator_limit(s3):
    # g = 1 + 1_[0]: the limit picks up the mean of g
    g = CylinderFunction.indicator("0", 1.0, base=1.0)
    V = Potential(1.0, g, CylinderFunction.constant(0.0))
    mean_g = 1.0 + letter_frequencies(s3)[0]
    value = renorm_power(s3, V, ZEROS, 22)
    assert value == pytest.approx(mean_g * fixed_point_U(s3, ZEROS), abs=2e-3)


# -- the inverse-power sum of the V0 closed form ------------------------------

INVERSE_POWER_ALPHAS = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)


def _term_by_term(alpha, lo, hi):
    return math.fsum(d ** -alpha for d in range(lo, hi + 1))


def test_inverse_power_sum_is_term_by_term_up_to_the_direct_span(s2, s3, s4):
    # verify's closed form = brute force check reads blocks of at most
    # |s^(k+2)(0)| terms; those sums stay term by term, bit for bit
    for s in (s2, s3, s4):
        assert s.power_lengths(s.k + 2)[0] - 1 <= _DIRECT_SPAN
    for alpha in (0.5, 1.0, 1.37, 2.0, 4.0):
        for lo, span in ((1, 0), (7, 55), (1, _DIRECT_SPAN), (10**6, _DIRECT_SPAN)):
            assert _inverse_power_sum(alpha, lo, lo + span) == _term_by_term(alpha, lo, lo + span)
    assert _inverse_power_sum(1.0, 5, 4) == 0.0


@settings(max_examples=200, deadline=None)
@given(INVERSE_POWER_ALPHAS, st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=_DIRECT_SPAN + 1, max_value=10**9))
@example(1.0, 1, 10**9)
@example(1.0 + 2**-40, 64, _DIRECT_SPAN + 1)
@example(1.0 - 2**-40, 10**6, 10**9)
@example(4.0, 1, _DIRECT_SPAN + 1)
@example(4.0, 64, _DIRECT_SPAN + 1)
# alpha within a few ulps of 1: the integral term cancels to about 16 digits,
# and to about 6 more where lo >> span
@example(0.9999999999999998, 887871144, 2001)
@example(0.9999999999999996, 506634, 2001)
@example(0.9999999999999996, 684893, 2001)
def test_inverse_power_sum_matches_the_hurwitz_zeta_difference(alpha, lo, span):
    # sum_{d=lo}^{hi} d^-alpha = zeta(alpha, lo) - zeta(alpha, hi + 1), or
    # psi(hi + 1) - psi(lo) at alpha = 1, at 50 digits
    hi = lo + span
    with mpmath.workdps(50):
        if alpha == 1.0:
            exact = float(mpmath.psi(0, hi + 1) - mpmath.psi(0, lo))
        else:
            exact = float(mpmath.zeta(alpha, lo) - mpmath.zeta(alpha, hi + 1))
    assert abs(_inverse_power_sum(alpha, lo, hi) - exact) <= math.ulp(exact)


@settings(max_examples=100, deadline=None)
@given(INVERSE_POWER_ALPHAS, st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=_DIRECT_SPAN, max_value=_DIRECT_SPAN + 20_000))
@example(4.0, 1, _DIRECT_SPAN + 1)
@example(1.0, 64, _DIRECT_SPAN + 1)
def test_inverse_power_sum_matches_the_term_by_term_sum_past_the_direct_span(alpha, lo, span):
    expected = _term_by_term(alpha, lo, lo + span)
    assert abs(_inverse_power_sum(alpha, lo, lo + span) - expected) <= math.ulp(expected)


def test_powers_reject_a_head_without_its_break(s3):
    x = Configuration("0102", "const", "0")  # a factor of omega, so its break lies in the tail
    for n in (1, 2, 3):
        with pytest.raises(UncertifiedConfigurationError):
            renorm_power(s3, V0, x, n, "brute-force")
    with pytest.raises(UncertifiedConfigurationError):
        renorm_power(s3, V0, x, 3)


# -- the break sweep of brute-force renormalization ---------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_break_sweep_equals_one_bisection_per_start(k, seed, data):
    s = kbonacci(k)
    x = sample_configurations(s, 1, seed)[0]
    n = data.draw(st.integers(1, k + 3), label="n")
    block = s.power_lengths(n)[int(x.head[0])]
    count = data.draw(st.integers(1, block), label="count")
    # a prefix of a few letters forces the sweep to extend the word and retry
    letters = data.draw(st.integers(1, 8) | st.integers(1, 4 * block + 40), label="letters")
    breaks, word = _sweep_breaks(s, x, n, power_prefix(s, x, n, letters)[:letters], count)
    assert word == power_prefix(s, x, n, len(word))[: len(word)]
    assert breaks == [brute_delta(s, word, j) for j in range(count)]


@pytest.mark.parametrize("k, n", [(2, 8), (3, 3), (3, 9), (4, 6)])
def test_break_sweep_makes_one_failing_query_per_later_start(k, n, monkeypatch):
    # after the bisection at j = 0, each start costs one failing query plus
    # one per letter its break end advances past the previous one
    s = kbonacci(k)
    queries = []
    original = recognition.in_language

    def counted(s, u):
        queries.append(u)
        return original(s, u)

    monkeypatch.setattr(recognition, "in_language", counted)
    for x in sample_configurations(s, 3, seed=2):
        lengths = s.power_lengths(n)
        block = lengths[int(x.head[0])]
        word = power_prefix(s, x, n, 2 * (sum(lengths[int(c)] for c in x.head) + s.ladder_length(n)))
        queries.clear()
        brute_delta(s, word, 0)
        bisection = len(queries)
        queries.clear()
        breaks, swept = _sweep_breaks(s, x, n, word, block)
        assert swept is word
        ends = [j + d for j, d in enumerate(breaks)]
        assert len(queries) == bisection + (block - 1) + ends[-1] - ends[0]
