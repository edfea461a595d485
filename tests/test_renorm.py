import itertools
import math
import re
from decimal import Decimal, localcontext

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kbonacci import (
    Configuration,
    CylinderFunction,
    Potential,
    Substitution,
    birkhoff_bounds,
    brute_delta,
    convergence_study,
    delta_after_power,
    fixed_point_U,
    in_language,
    kbonacci,
    letter_frequencies,
    maximal_prefix,
    perron_root,
    power_prefix,
    renorm_power,
    verify_fixed_point,
)
from kbonacci import recognition, renorm, verify
from kbonacci.errors import UncertifiedConfigurationError
from kbonacci.renorm import (
    MODES,
    _BERNOULLI_OVER_FACTORIAL,
    _DIRECT_SPAN,
    _constant_numerator,
    _exp,
    _inverse_power_sum,
    _ln,
    _sweep_breaks,
)
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


def _cylinder_functions(letters):
    """Tables of order 1-3 with small integral values, so that sums are exact:
    with a default over some windows, else over all of them, and at times
    with a key outside the alphabet, which no window reads."""
    values = st.sampled_from([0.0, 1.0, 2.0])

    @st.composite
    def tables(draw):
        order = draw(st.integers(min_value=1, max_value=3))
        windows = ["".join(u) for u in itertools.product(letters, repeat=order)]
        default = draw(st.none() | values)
        keys = windows if default is None else draw(st.lists(st.sampled_from(windows), unique=True))
        table = {key: draw(values) for key in keys}
        if draw(st.booleans()):
            table["9" * order] = draw(values)
        return CylinderFunction(order, table, default)

    return tables()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constant_numerator_is_read_off_the_numerator_range(data):
    # g + h is taken as constant exactly when g and h each take one value
    # over every window on the alphabet, and then it is the numerator of
    # every window; a g + h that is constant only as a sum takes the
    # general path.
    k = data.draw(st.sampled_from([2, 3]))
    g, h = data.draw(_cylinder_functions("012"[:k])), data.draw(_cylinder_functions("012"[:k]))
    V = Potential(1.0, g, h)
    windows = ["".join(u) for u in itertools.product("012"[:k], repeat=V.order)]
    numerators = {V.numerator(w) for w in windows}
    constant = len({g(w) for w in windows}) == 1 and len({h(w) for w in windows}) == 1
    numer = _constant_numerator(kbonacci(k), V)
    assert (numer is not None) == constant
    if constant:
        assert numerators == {numer}


def test_a_key_outside_the_alphabet_leaves_the_numerator_constant(s2):
    # g reads 1 on every window of the alphabet {0, 1}; its "9" entry is never read
    g = CylinderFunction(1, {"0": 1.0, "9": 2.0}, 1.0)
    assert _constant_numerator(s2, Potential(1.0, g, CylinderFunction.constant(0.0))) == 1.0


@pytest.mark.parametrize("args, message", [
    ((0, {}), "order must be >= 1"),
    ((2, {"01": 1.0, "011": 1.0}), "table key '011' does not have length 2"),
])
def test_cylinder_function_rejects_a_bad_order_or_key(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CylinderFunction(*args)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_potential_rejects_an_alpha_not_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
        Potential(alpha, CylinderFunction.constant(1.0), CylinderFunction.constant(0.0))


def test_potentials_compare_by_value_and_are_frozen():
    table = {"01": 2.0}
    g = CylinderFunction(2, table, default=1.0)
    table["01"] = 3.0  # the function holds a read-only copy
    assert g("01") == 2.0 and g == CylinderFunction(2, {"01": 2.0}, 1.0)
    assert g != CylinderFunction(2, {"01": 3.0}, 1.0) and g != CylinderFunction(2, {"01": 2.0})
    h = CylinderFunction.constant(0.0)
    assert Potential(0.5, g, h) == Potential(0.5, CylinderFunction(2, {"01": 2.0}, 1.0), h)
    assert Potential.v0(0.5) != Potential.v0(1.0) and Potential.v0(1.0) == V0
    for record, name in ((g, "order"), (V0, "alpha")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)
    with pytest.raises(TypeError):
        g.table["01"] = 4.0


def test_entry_points_validate_the_potential(s3):
    bad = Potential(1.0, CylinderFunction.constant(1.0), CylinderFunction.indicator("01", 1.0))
    with pytest.raises(ValueError, match="h must vanish"):
        birkhoff_bounds(s3, bad, 4)
    for mode in ("closed-form", "brute-force"):
        with pytest.raises(ValueError, match="h must vanish"):
            renorm_power(s3, bad, ZEROS, 3, mode=mode)
    birkhoff_bounds(s3, V0, 4)
    renorm_power(s3, V0, ZEROS, 3)


def test_eval_potential(s3):
    # R^0 V = V: 1 / delta at the break |maximal_prefix| = 2, zero on an orbit
    assert renorm_power(s3, V0, ZEROS, 0) == 0.5
    assert renorm_power(s3, V0, Configuration("", "orbit", 0), 0) == 0.0


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
    alpha, _, verdict, limit, exponent, _ = study  # a record unpacks in field order
    assert (alpha, verdict, limit, exponent) == (study.alpha, study.verdict, study.limit, study.growth_exponent)
    assert (alpha, verdict, limit, exponent) == (1.0, "vanishes", 0.0, None)
    with pytest.raises(AttributeError):
        study.verdict = "converges"


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
    configurations = []
    for _ in range(2):
        head = w + data.draw(st.sampled_from(blocked)) + data.draw(st.text(letters, max_size=3))
        configurations.append(Configuration(head, "const", data.draw(st.sampled_from(letters))))
    closed = renorm_power(s, V, configurations[0], n, mode="closed-form")
    for x in configurations:
        assert maximal_prefix(s, x) == w
        assert abs(renorm_power(s, V, x, n, mode="brute-force") - closed) < 1e-12


def test_closed_form_order_domain(s2):
    # at n = 2 every window read lies inside the longest language prefix of
    # s^n(x) up to order ladder_length(1) + 1 = 4; a larger order raises
    def of_order(order):
        return Potential(1.0, CylinderFunction.indicator("0" * order, 1.0, base=1.0), CylinderFunction.constant(0.0))

    bound = s2.ladder_length(1) + 1
    assert maximal_prefix(s2, ZEROS) == "00"
    assert renorm_power(s2, of_order(bound), ZEROS, 2, mode="closed-form") == pytest.approx(
        renorm_power(s2, of_order(bound), ZEROS, 2, mode="brute-force"), abs=1e-12)
    with pytest.raises(ValueError, match="order"):
        renorm_power(s2, of_order(bound + 1), ZEROS, 2, mode="closed-form")
    # and below n = k, or off the k-bonacci substitutions, there is no closed form
    with pytest.raises(ValueError, match="n >= k"):
        renorm_power(s2, V0, ZEROS, 1, mode="closed-form")
    with pytest.raises(ValueError, match="k-bonacci"):
        renorm_power(Substitution(("01", "10")), V0, ZEROS, 2, mode="closed-form")


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
    assert study.rows[0] == (0, renorm_power(s, V, x, 0), "brute-force")
    for n, value, method in study.rows[1:]:
        if n < k:
            assert (value, method) == (renorm_power(s, V, x, n, "brute-force"), "brute-force")
        else:
            assert (value, method) == (renorm_power(s, V, x, n, "closed-form"), "closed-form")


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


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 1.0000001])
def test_inverse_power_sum_over_integers_past_the_largest_float(alpha):
    # the precision estimate divides the integers exactly; converting hi - a
    # to a float would overflow
    lo, hi = 10**400, 11 * 10**399
    with mpmath.workdps(50):
        exact = float(mpmath.zeta(alpha, lo) - mpmath.zeta(alpha, hi + 1))
    assert _inverse_power_sum(alpha, lo, hi) == exact


@pytest.mark.parametrize("span", [_DIRECT_SPAN + 1, 10**6])
@pytest.mark.parametrize("lo", [10**25, 10**34, 10**40])
def test_inverse_power_sum_at_alpha_1_carries_its_cancellation_digits(lo, span):
    # ln(hi / a) loses the digits of hi / (hi - a) as the integral at any
    # other alpha does: about 37 of them at lo = 10^40 and span 2,001,
    # where 34 digits left 1e-40
    hi = lo + span
    with mpmath.workdps(80):
        exact = float(mpmath.psi(0, hi + 1) - mpmath.psi(0, lo))
    assert abs(_inverse_power_sum(1.0, lo, hi) - exact) <= math.ulp(exact)


def _libmpdec_inverse_power_sum(alpha, lo, hi):
    """_inverse_power_sum's Euler-Maclaurin path with libmpdec's correctly
    rounded ln and exp in place of _ln and _exp, as it was before the
    kernel except that the cancellation digits are counted from the
    integers' logarithms, at alpha = 1 too: the oracle the kernel must
    match float for float."""
    a = max(lo, 64)
    with localcontext() as ctx:
        ctx.prec = 34 + max(0, math.ceil(math.log10(hi) - math.log10(hi - a) - math.log10(abs(1.0 - alpha) or 1)))
        s = Decimal(alpha)
        power = (lambda x: x**-s) if float(alpha).is_integer() else (lambda x: (-s * x.ln()).exp())
        total = sum(power(Decimal(d)) for d in range(lo, a))
        A, B = Decimal(a), Decimal(hi)
        fa, fb = power(A), power(B)
        total += (B / A).ln() if alpha == 1.0 else (B * fb - A * fa) / (1 - s)
        total += (fa + fb) / 2
        rising, da, db = s, fa / A, fb / B
        for j, (num, den) in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
            total -= num * rising * (db - da) / den
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            da /= A * A
            db /= B * B
        return float(total)


def _long_end_examples(test):
    """@example rows with ends of 1,000 and 3,000 digits, b/a about 1.05,
    1.3 and 1.6: each end enters rounded to the working precision.  At
    alpha = 0.5, 1.5 and 2 the sum lies past the float range (inf or 0);
    the alphas near 1 keep it inside."""
    for digits, near_one in ((1000, (0.9, 1.1, 1.25)), (3000, (0.95, 1.05))):
        lo = 10 ** (digits - 1)
        for span in (lo // 20, 3 * lo // 10, 3 * lo // 5):
            for alpha in (0.5, 1.0, 1.5, 2.0) + near_one:
                test = example(alpha, lo, span)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(INVERSE_POWER_ALPHAS | st.integers(min_value=1, max_value=4).map(float),
       st.integers(min_value=1, max_value=10**12), st.integers(min_value=_DIRECT_SPAN + 1, max_value=10**9))
@example(1.0 + 2**-40, 64, _DIRECT_SPAN + 1)
@example(1.0 - 2**-40, 10**6, 10**9)
@example(0.9999999999999998, 887871144, _DIRECT_SPAN + 1)
@example(0.5, 10**400, _DIRECT_SPAN + 1)  # about 430 digits, for the integral's cancellation
@example(1.5, 10**400, 10**399)  # hi = 11 * 10^399, both ends past the largest float
@example(1.0, 10**400, 10**399)  # ln(hi / a) seeded with log(hi) - log(a)
@_long_end_examples
def test_inverse_power_sum_is_the_libmpdec_sum(alpha, lo, span):
    hi = lo + span
    assert _inverse_power_sum(alpha, lo, hi) == _libmpdec_inverse_power_sum(alpha, lo, hi)


def _ulps(got, exact, prec):
    """|got - exact| in units of the last of prec digits of the Decimal got."""
    return abs(mpmath.mpf(str(got)) - exact) / mpmath.mpf(10) ** (got.adjusted() - prec + 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([34, 60, 450]), st.floats(min_value=-2000.0, max_value=100.0),
       st.integers(min_value=1, max_value=10**400))
@example(34, -2000.0, 10**400)
@example(450, 100.0, 2)
@example(60, 0.0, 1)
def test_exp_and_ln_are_within_0_6_ulp_of_mpmath(prec, y, x):
    with localcontext() as ctx:
        ctx.prec = prec
        power, log = _exp(Decimal(y)), _ln(Decimal(x), math.log(x))
    with mpmath.workdps(prec + 10):
        assert _ulps(power, mpmath.exp(mpmath.mpf(y)), prec) <= 0.6
        assert _ulps(log, mpmath.log(x), prec) <= 0.6


def test_powers_reject_a_head_without_its_break(s3):
    x = Configuration("0102", "const", "0")  # a factor of omega, so its break lies in the tail
    for n, mode in [(n, "brute-force") for n in range(4)] + [(0, "closed-form"), (3, "closed-form")]:
        with pytest.raises(UncertifiedConfigurationError, match="all 4 letters lie in the language"):
            renorm_power(s3, V0, x, n, mode)
    with pytest.raises(UncertifiedConfigurationError, match="all 4 letters lie in the language"):
        verify_fixed_point(s3, [x])


@pytest.mark.parametrize("x", [Configuration("0102", "const", "0"), Configuration("0110", "const", "2"),
                               Configuration("0110", "periodic", "012")])
def test_entry_points_reject_letters_outside_the_alphabet(s2, x):
    # at k = 2 a letter 2 used to reach the closed form, which read a value
    # off the certified prefix, and an IndexError in brute-force mode
    outside = "uses letters outside the alphabet of size 2"
    for n in range(4):
        for mode in MODES:
            with pytest.raises(ValueError, match=outside):
                renorm_power(s2, V0, x, n, mode)
    for entry in (maximal_prefix, fixed_point_U, lambda s, x: convergence_study(s, V0, x, n_max=3)):
        with pytest.raises(ValueError, match=outside):
            entry(s2, x)


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
    assert breaks == [brute_delta(s, word[j:]) for j in range(count)]


# sweeps in which a break end moves, off the k-bonacci family, where none
# does: (images, head of a tail of 0s, n, the break ends j + delta_j)
MOVING_SWEEPS = {
    "thue-morse": (("01", "10"), "000", 1, [4, 5]),
    "1-01": (("1", "01"), "00", 2, [4, 6]),
}
NON_KBONACCI = {images: Substitution(images) for images, *_ in MOVING_SWEEPS.values()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(NON_KBONACCI)), st.text("01", min_size=1, max_size=12), st.sampled_from("01"),
       st.integers(1, 5), st.integers(1, 8) | st.integers(1, 200))
@example(("01", "10"), "000", "0", 1, 1)
@example(("1", "01"), "00", "0", 2, 1)
def test_break_sweep_equals_one_bisection_per_start_where_ends_move(images, head, tail, n, letters):
    s, x = NON_KBONACCI[images], Configuration(head, "const", tail)
    try:
        maximal_prefix(s, x)
    except UncertifiedConfigurationError:
        assume(False)
    block = s.power_lengths(n)[int(head[0])]
    # a prefix of a few letters forces the sweep to extend the word and retry
    breaks, word = _sweep_breaks(s, x, n, power_prefix(s, x, n, letters)[:letters], block)
    assert word == power_prefix(s, x, n, len(word))[: len(word)]
    assert breaks == [brute_delta(s, word[j:]) for j in range(block)]


@pytest.mark.parametrize("case", ["2-8", "3-3", "3-9", "4-6", *MOVING_SWEEPS])
def test_break_sweep_makes_one_failing_query_per_later_start(case, monkeypatch):
    # after the bisection at j = 0, each later start costs one query, which
    # fails unless its break end moved, and one bisection of word[j:] where it did
    if case in MOVING_SWEEPS:
        images, head, n, moving_ends = MOVING_SWEEPS[case]
        s, configs = NON_KBONACCI[images], [Configuration(head, "const", "0")]
    else:
        k, n = map(int, case.split("-"))
        s = kbonacci(k)
        configs = sample_configurations(s, 3, seed=2)
    queries = []
    original = recognition.in_language

    def counted(s, u):
        queries.append(u)
        return original(s, u)

    monkeypatch.setattr(recognition, "in_language", counted)
    monkeypatch.setattr(renorm, "in_language", counted)
    for x in configs:
        lengths = s.power_lengths(n)
        block = lengths[int(x.head[0])]
        word = power_prefix(s, x, n, 2 * (sum(lengths[int(c)] for c in x.head) + s.ladder_length(n)))
        queries.clear()
        breaks, swept = _sweep_breaks(s, x, n, word, block)
        assert swept is word
        swept_queries = len(queries)
        ends = [j + d for j, d in enumerate(breaks)]
        moved = [j for j in range(1, block) if ends[j] > ends[j - 1]]
        assert (ends == moving_ends) if case in MOVING_SWEEPS else not moved
        queries.clear()
        for j in [0, *moved]:
            brute_delta(s, word[j:])
        assert swept_queries == len(queries) + (block - 1)


# -- the one-query rule of verify's delta suite -------------------------------

QUERY_RULE_SUBSTITUTIONS = {images: Substitution(images) for images in
                            [*NON_KBONACCI, *(kbonacci(k).images for k in (2, 3, 4))]}


@pytest.mark.parametrize("images", sorted(QUERY_RULE_SUBSTITUTIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 5))
def test_one_query_tells_whether_a_break_end_stays(images, data, n):
    # ends never decrease, so once the bisection of shift 0 puts its end at
    # base, shift j ends at base exactly when word[j : base + 1] is not in
    # the language; checked against a bisection of every shift, on
    # k-bonacci and where ends move (Thue-Morse, and 0 -> 1, 1 -> 01)
    s = QUERY_RULE_SUBSTITUTIONS[images]
    letters = "".join(str(a) for a in range(s.k))
    head = data.draw(st.text(letters, min_size=1, max_size=12), label="head")
    x = Configuration(head, "const", data.draw(st.sampled_from(letters), label="tail"))
    try:
        maximal_prefix(s, x)
    except UncertifiedConfigurationError:
        assume(False)
    block = s.power_lengths(n)[int(head[0])]
    word = power_prefix(s, x, n, 8)
    while True:
        try:
            ends = [j + brute_delta(s, word[j:]) for j in range(block)]
            break
        except UncertifiedConfigurationError:
            word = power_prefix(s, x, n, 2 * len(word))
    base = ends[0]
    assert [end == base for end in ends] == [not in_language(s, word[j : base + 1]) for j in range(block)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_delta_suite_makes_one_query_per_later_sampled_shift(k, monkeypatch):
    # one bisection of shift 0 per (x, n), not counted here: it runs under
    # recognition's name, and then one query per later sampled shift
    s = kbonacci(k)
    queries = []
    original = verify.in_language

    def counted(s, u):
        queries.append(u)
        return original(s, u)

    monkeypatch.setattr(verify, "in_language", counted)
    (row,) = verify.suite_delta(s)
    sampled = 0
    for x in sample_configurations(s, 8, seed=7):
        w = maximal_prefix(s, x)
        for n in range(k, k + 3):
            block = s.power_lengths(n)[int(w[0])]
            sampled += len(range(0, block, max(1, block // 8)))
    assert row.passed and row.detail == f"{sampled} checks"
    assert len(queries) == sampled - 8 * 3


@pytest.mark.parametrize("k", [2, 3])
def test_delta_suite_fails_on_a_wrong_end(k, monkeypatch):
    # a closed form one off fails at shift 0; a query that always finds the
    # end moved fails at every later sampled shift
    s = kbonacci(k)
    monkeypatch.setattr(verify, "delta_after_power", lambda s, w, n: delta_after_power(s, w, n) + 1)
    assert not verify.suite_delta(s)[0].passed
    monkeypatch.setattr(verify, "delta_after_power", delta_after_power)
    monkeypatch.setattr(verify, "in_language", lambda s, u: True)
    assert not verify.suite_delta(s)[0].passed
