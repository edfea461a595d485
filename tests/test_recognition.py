import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import (
    Configuration,
    CutPointSet,
    Substitution,
    brute_delta,
    cut_points,
    delta_after_power,
    kbonacci,
    maximal_prefix,
    power_prefix,
    tribonacci_appendix_checks,
    verify_recognizability,
)
from kbonacci import cli, verify
from kbonacci.errors import UncertifiedConfigurationError
from kbonacci.sampling import sample_configurations


ZEROS = Configuration("0000", "const", "0")
ONES = Configuration("111", "const", "1")


def test_configuration_text_roundtrip():
    for x in (ZEROS, Configuration("010", "periodic", "12"), Configuration("", "orbit", 5)):
        assert Configuration.from_text(x.to_text()) == x


@pytest.mark.parametrize("args, message", [
    (("0", "cyclic", "0"), "unknown tail kind 'cyclic'"),
    (("", "orbit", -1), "orbit offset must be nonnegative, got -1"),
    (("0", "const", "01"), "const tail needs exactly one letter, got '01'"),
    (("0", "periodic", ""), "periodic tail needs a nonempty period word"),
    (("01", "orbit", 3), "an orbit tail takes no head, got head '01'"),
])
def test_configuration_rejects_a_bad_tail(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Configuration(*args)


def test_configurations_compare_by_value_and_are_frozen():
    assert Configuration("0102", "periodic", "01") == Configuration("0102", "periodic", "01")
    assert ZEROS != Configuration("0000", "const", "1") and ZEROS != Configuration("000", "const", "0")
    assert len({ZEROS, Configuration("0000", "const", "0"), ONES}) == 2
    assert (ZEROS.head, ZEROS.tail_kind, ZEROS.tail_data) == ("0000", "const", "0")
    with pytest.raises(AttributeError):
        ZEROS.head = "1"


def test_configuration_prefix(s3):
    assert ZEROS.prefix(s3, 7) == "0000000"
    assert Configuration("01", "periodic", "20").prefix(s3, 7) == "0120202"
    assert Configuration("", "orbit", 2).prefix(s3, 5) == "02010"


@pytest.mark.parametrize("x, length", [
    (Configuration("0102", "const", "0"), -1),  # a slice would drop the last letter
    (Configuration("0102", "periodic", "01"), -2),
    (Configuration("", "orbit", 3), -1),  # a slice would read an empty word
    (Configuration("", "orbit", 0), -1),
])
def test_configuration_prefix_rejects_a_negative_length(s3, x, length):
    with pytest.raises(ValueError, match="nonnegative"):
        x.prefix(s3, length)
    assert x.prefix(s3, 0) == ""


def test_delta_basic(s3):
    assert len(maximal_prefix(s3, ZEROS)) == brute_delta(s3, ZEROS.head) == 2
    assert len(maximal_prefix(s3, ONES)) == brute_delta(s3, ONES.head) == 1
    with pytest.raises(ValueError, match="outside the subshift"):
        maximal_prefix(s3, Configuration("", "orbit", 0))


def test_delta_requires_certified_break(s3):
    x = Configuration("0102", "const", "0")  # 01020 etc. all in language
    for find_break in (lambda: maximal_prefix(s3, x), lambda: brute_delta(s3, x.head)):
        with pytest.raises(UncertifiedConfigurationError, match="all 4 letters lie in the language"):
            find_break()


def maximal_prefix_after_power(s, w, n):
    """Longest language prefix of s^n(x), given the longest language prefix
    w of x: s^n(w) s^{n-1}(0) ... s(0) 0, spelled out by one-step images.
    The oracle of power_prefix at the length delta_after_power(s, w, n)."""
    for _ in range(n):
        w = s.apply(w)
    ladder = "0"
    for _ in range(n - 1):
        ladder = s.apply(ladder) + "0"
    return w + ladder


def doubled_power_prefix(s, x, n, length):
    """The probe-doubling loop power_prefix replaced, kept as its oracle:
    image lengths summed over a probe of x doubled from 64 letters, then
    images joined by hand up to `length`."""
    lengths = s.power_lengths(n)
    probe = x.prefix(s, 64)
    while sum(lengths[int(c)] for c in probe) < length and len(probe) < length:
        probe = x.prefix(s, 2 * len(probe))
    out = []
    acc = 0
    for c in probe:
        out.append(s.power_image(n, int(c)))
        acc += lengths[int(c)]
        if acc >= length:
            break
    return "".join(out)


def test_maximal_prefix_after_power(s3):
    assert maximal_prefix_after_power(s3, "00", 1) == "01010"
    w = maximal_prefix_after_power(s3, maximal_prefix(s3, ZEROS), 3)
    assert len(w) == delta_after_power(s3, "00", 3) == 21
    assert w == "010201001020100102010"[: len(w)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_break_formula_reads_one_maximal_prefix(k, seed, data):
    s = kbonacci(k)
    x = sample_configurations(s, 1, seed)[0]
    n = data.draw(st.integers(min_value=1, max_value=k + 3))
    w = maximal_prefix(s, x)
    assert w == x.head[: brute_delta(s, x.head)]
    length = delta_after_power(s, w, n)
    expected = maximal_prefix_after_power(s, w, n)
    assert len(expected) == length
    assert power_prefix(s, x, n, length)[:length] == expected


UNEVEN_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [
    ("01", "10"), ("1", "01"), ("01", "1" * 40), ("0112", "0", "01")]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_prefix_is_the_probe_doubling_loop(data):
    images = data.draw(st.one_of(
        st.sampled_from(UNEVEN_SUBSTITUTIONS),
        st.integers(min_value=1, max_value=4).flatmap(lambda k: st.lists(
            st.text(alphabet="0123"[:k], min_size=1, max_size=7), min_size=k, max_size=k))))
    s = Substitution(images)
    letters = "0123"[: s.k]
    head = data.draw(st.text(alphabet=letters, max_size=100))
    tail = data.draw(st.one_of(
        st.tuples(st.just("const"), st.sampled_from(letters)),
        st.tuples(st.just("periodic"), st.text(alphabet=letters, min_size=1, max_size=5))))
    x = Configuration(head, *tail)
    n = data.draw(st.integers(min_value=0, max_value=6 if max(map(len, images)) <= 4 else 3))
    length = data.draw(st.integers(min_value=1, max_value=5_000))
    assert power_prefix(s, x, n, length) == doubled_power_prefix(s, x, n, length)


@pytest.mark.parametrize("k, depth", [(2, 30), (3, 22), (4, 20), (5, 20)])
def test_ladder_length_sums_the_images_of_0(k, depth):
    # depth keeps the materialized images of 0 below a few million letters;
    # the deepest rung comes first, so the column grows many levels at once
    s = kbonacci(k)
    for n in range(depth, -1, -1):
        assert s.ladder_length(n) == sum(len(s.power_image(l, 0)) for l in range(n + 1))
    with pytest.raises(ValueError):
        s.ladder_length(-1)


def test_maximal_prefix_rejects_the_subshift(s3):
    with pytest.raises(ValueError, match="outside the subshift"):
        maximal_prefix(s3, Configuration("", "orbit", 3))


def test_delta_after_power_fibonacci(s2):
    x = Configuration("110", "const", "1")
    assert delta_after_power(s2, maximal_prefix(s2, x), 4) == 16


def test_closed_form_equals_scan(s3, s2, s4):
    for s in (s2, s3, s4):
        for x in sample_configurations(s, 5, seed=3):
            w = maximal_prefix(s, x)
            for n in range(s.k, s.k + 2):
                base = delta_after_power(s, w, n)
                word = power_prefix(s, x, n, base + 8)
                assert brute_delta(s, word) == base
                block = s.power_lengths(n)[int(x.head[0])]
                for j in (1, block // 2, block - 1):
                    assert base - j == brute_delta(s, word[j:])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=1), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_shifted_break_equals_scan_on_random_configurations(k, seed, extra, where):
    s = kbonacci(k)
    x = sample_configurations(s, 1, seed)[0]
    n = k + extra
    block = s.power_lengths(n)[int(x.head[0])]
    j = int(where * block)
    base = delta_after_power(s, maximal_prefix(s, x), n)
    word = power_prefix(s, x, n, base + 1)
    assert base - j == brute_delta(s, word[j:])


@pytest.mark.parametrize("k, checks", [(2, 116), (3, 214), (4, 262)])
@pytest.mark.parametrize("error", [-8, -1, 0, 1])
def test_the_delta_suite_sweep_catches_a_closed_form_off_by_one(k, checks, error, monkeypatch, capsys):
    # the suite reads the breaks off one sweep per configuration and level;
    # a closed form off by one at a single level must still fail it, and
    # one that understates a break past the end of the swept word (-8) fails
    # it with the same checks instead of raising
    original = verify.delta_after_power
    monkeypatch.setattr(verify, "delta_after_power", lambda s, w, n: original(s, w, n) + error * (n == s.k + 1))
    (row,) = verify.suite_delta(kbonacci(k))
    assert (row.suite, row.name) == ("delta", "closed form vs scan")
    assert (row.passed, row.detail) == (error == 0, f"{checks} checks")
    with pytest.raises(AttributeError):
        row.passed = True
    assert cli.main(["verify", "--k", str(k), "--suites", "delta"]) == (0 if error == 0 else 1)
    verdict = "PASS" if error == 0 else "FAIL"
    assert f"{verdict} delta: closed form vs scan ({checks} checks)" in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_prefix_past_its_first_probe(data):
    s = kbonacci(data.draw(st.integers(min_value=2, max_value=4)))
    letters = "".join(map(str, range(s.k)))
    head = data.draw(st.text(alphabet=letters, min_size=65, max_size=300))
    x = Configuration(head, "const", data.draw(st.sampled_from(letters)))
    n = data.draw(st.integers(min_value=1, max_value=5))
    reference = s.apply_power(n, x.prefix(s, len(head) + 8))
    # longer than the image of the first 64 letters, where the probe of
    # doubled_power_prefix doubles
    first_probe = sum(s.power_lengths(n)[int(c)] for c in x.prefix(s, 64))
    length = data.draw(st.integers(min_value=first_probe + 1, max_value=len(reference)))
    word = power_prefix(s, x, n, length)
    assert len(word) >= length
    common = min(len(word), len(reference))
    assert word[:common] == reference[:common]


def test_delta_after_power_guards(s3):
    with pytest.raises(ValueError):
        delta_after_power(s3, "00", 0)  # n below range


def test_cut_points(s3):
    assert cut_points(s3, 1, 10).starts.tolist() == [0, 2, 4, 6, 7, 9]
    assert 0 in cut_points(s3, 3, 100).starts.tolist()


def looped_cut_points(s, n, window):
    """The per-letter scan cut_points replaced, kept as its oracle."""
    lengths = s.power_lengths(n)
    pts = [0]
    pos = 0
    i = 0
    omega = s.fixed_prefix(max(window, 1))
    while True:
        if i >= len(omega):
            omega = s.fixed_prefix(2 * len(omega))
        pos += lengths[int(omega[i])]
        if pos >= window:
            break
        pts.append(pos)
        i += 1
    return tuple(pts)


CUT_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [
    ("01", "10"), ("01", "00"), ("1", "01"), ("02", "0", "01")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CUT_SUBSTITUTIONS), st.sampled_from([1, 2, 5, 13, 40, 100]),
       st.one_of(st.sampled_from([0, 1, 12345]), st.integers(min_value=0, max_value=3000)))
@example(("01", "10"), 2, 12345)  # every block 4 long and 4 | 12344: the last point is 12344
@example(kbonacci(2).images, 100, 12345)  # |s^100(0)| is about 5.7e20, past 2^63
def test_cut_points_match_letter_loop(images, n, window):
    s = Substitution(images)
    try:
        expected = looped_cut_points(s, n, window)
    except ValueError:  # no fixed-point seed letter, as for 0 -> 1, 1 -> 01
        with pytest.raises(ValueError):
            cut_points(s, n, window)
        return
    cuts = cut_points(s, n, window)
    assert tuple(cuts.starts.tolist()) == expected
    assert cuts.starts.dtype == np.int64


def test_recognizability_reuses_the_callers_cut_points(s3):
    cuts = cut_points(s3, 4, 5000)
    assert verify_recognizability(s3, cuts)


def test_cut_points_nested(s3):
    big = set(cut_points(s3, 2, 3000).starts.tolist())
    small = set(cut_points(s3, 3, 3000).starts.tolist())
    assert small <= big


@pytest.mark.parametrize("k", [2, 3, 4])
def test_recognizability(k):
    s = kbonacci(k)
    for n in range(s.k, s.k + 3):
        assert verify_recognizability(s, cut_points(s, n, 20_000))


@pytest.mark.parametrize("k", [2, 3])
def test_recognizability_at_windows_ending_by_a_block(k):
    # A block starting at cut point d fits exactly when the window is
    # d + |s^n(0)|, and misses by one letter when it is one shorter.
    s = kbonacci(k)
    n = k
    block = len(s.power_image(n, 0))
    for d in cut_points(s, n, 2_000).starts[-3:].tolist():
        for window in (d + block - 1, d + block):
            assert verify_recognizability(s, cut_points(s, n, window))


def _corrupted_cut_points(s, n, window):
    """Cut-point sets that differ from cut_points(s, n, window) inside the
    usable part of the window: the last usable point dropped, the middle
    point shifted by one, and the level n+1 points labelled as level n."""
    points = tuple(cut_points(s, n, window).starts.tolist())
    last = max(i for i, d in enumerate(points) if d + len(s.power_image(n, 0)) <= window)
    mid = len(points) // 2
    return {
        "dropped": points[:last] + points[last + 1 :],
        "shifted": points[:mid] + (points[mid] + 1,) + points[mid + 1 :],
        "next level": tuple(cut_points(s, n + 1, window).starts.tolist()),
    }


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("shift", [-1, 1])
def test_recognizability_through_the_held_scan_rejects_a_shifted_start(k, shift, monkeypatch):
    s = kbonacci(k)
    window = 20_000
    assert verify_recognizability(s, cut_points(s, k, window))  # scans the window at level k

    def no_scan(text, word):
        raise AssertionError("the window was scanned again")

    # the occurrences of s^(k+2)(0) are narrowed from those of s^k(0)
    monkeypatch.setattr("kbonacci.substitution.occurrence_starts", no_scan)
    n = k + 2
    cuts = cut_points(s, n, window)
    points = cuts.starts.tolist()
    usable = sum(d + s.power_lengths(n)[0] <= window for d in points)
    points[usable // 2] += shift
    assert not verify_recognizability(s, CutPointSet(n, window, points))
    assert verify_recognizability(s, cuts)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("corruption", ["dropped", "shifted", "next level"])
def test_recognizability_rejects_wrong_cut_points(k, corruption):
    s = kbonacci(k)
    n, window = k + 1, 20_000
    points = _corrupted_cut_points(s, n, window)[corruption]
    assert not verify_recognizability(s, CutPointSet(n, window, points))


def test_appendix_checks():
    report = tribonacci_appendix_checks(max_length=20)
    assert report.ok
    assert report.words_checked > 50
    assert report.non_unique == ()
    with pytest.raises(AttributeError):
        report.all_unique = False
