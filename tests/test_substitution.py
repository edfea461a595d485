import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import FixedPointStream, Substitution, check_recurrence, kbonacci
from kbonacci.substitution import LETTERS, is_primitive, occurrence_starts
from kbonacci.errors import BudgetExceededError


def test_kbonacci_images(s3):
    assert s3.images == ("01", "02", "0")
    assert kbonacci(2).images == ("01", "0")
    assert kbonacci(4).images == ("01", "02", "03", "0")


def test_kbonacci_rejects_bad_k():
    with pytest.raises(ValueError):
        kbonacci(1)
    with pytest.raises(ValueError):
        kbonacci(11)


def test_power_images_tribonacci(s3):
    assert s3.power_image(3, 0) == "0102010"
    assert s3.power_image(3, 1) == "010201"
    assert s3.power_image(3, 2) == "0102"


def test_power_lengths_match_words(s3, s2):
    for s in (s3, s2):
        for n in range(8):
            lengths = s.power_lengths(n)
            for a in range(s.k):
                assert lengths[a] == len(s.power_image(n, a))


def test_recurrence_identity(s2, s3, s4):
    for s in (s2, s3, s4):
        for n in range(6):
            assert check_recurrence(s, n)


def test_incidence_and_primitivity(s3):
    m = s3.incidence()
    # column j counts letters of s(j)
    assert m[:, 0].tolist() == [1, 1, 0]
    assert m[:, 2].tolist() == [1, 0, 0]
    assert is_primitive(s3.incidence())
    assert not is_primitive(Substitution(("01", "1", "2")).incidence())


def test_budget_guard():
    s = kbonacci(2, length_budget=100)
    with pytest.raises(BudgetExceededError):
        s.power_image(40, 0)
    with pytest.raises(BudgetExceededError):
        s.fixed_prefix(101)
    # A 500-letter prefix is a slice of s^2(0), 3002 letters, and the budget
    # counts the level-1 images it is joined from as well: 3002 + 3002 letters.
    s = Substitution(("01", "1" * 3000), length_budget=5000)
    with pytest.raises(BudgetExceededError):
        s.fixed_prefix(500)


def test_budget_is_checked_before_the_image_is_joined(time_limit):
    # s^60(0) has 2.5e12 letters: only the level-30 pieces are built first
    s = kbonacci(2)
    with time_limit(0.5):
        with pytest.raises(BudgetExceededError):
            s.power_image(60, 0)
    assert s._cached_letters == sum(map(len, s._power_cache.values()))


def test_fixed_prefix_letters_count_against_the_budget():
    s = kbonacci(2, length_budget=200)
    s.fixed_prefix(144)  # s^10(0), held in the cache with the pieces it is joined from
    assert s._cached_letters == sum(map(len, s._power_cache.values())) >= 144
    with pytest.raises(BudgetExceededError):
        s.power_image(7, 1)  # 21 letters more than the 181 held
    assert len(kbonacci(2, length_budget=200).power_image(7, 1)) == 21


def test_text_roundtrip(s3):
    text = s3.to_text()
    assert Substitution.from_text(text) == s3


def test_fixed_point_prefixes(s3, s2):
    assert s3.fixed_prefix(13) == "0102010010201"
    assert s2.fixed_prefix(5) == "01001"
    stream = FixedPointStream(s3)
    assert stream.prefix(50) == s3.fixed_prefix(50)


def test_fixed_point_invariant_under_substitution(s3):
    omega = s3.fixed_prefix(200)
    assert s3.apply(omega).startswith(omega)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=30),
       st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=30))
def test_apply_is_a_morphism(u, v):
    s = kbonacci(3)
    wu = "".join(map(str, u))
    wv = "".join(map(str, v))
    assert s.apply(wu + wv) == s.apply(wu) + s.apply(wv)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_power_images_compose(m, n):
    s = kbonacci(3)
    assert s.apply_power(m, s.power_image(n, 0)) == s.power_image(m + n, 0)


# Oracles for the caches a Substitution keeps: each request order below
# grows the shared table or buffer differently, and no answer may depend
# on what was asked before.
ks = st.integers(min_value=2, max_value=4)


@settings(deadline=None)
@given(ks, st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=12))
def test_power_lengths_table_matches_images(k, levels):
    s = kbonacci(k)
    for n in levels:
        assert s.power_lengths(n) == tuple(len(s.power_image(n, a)) for a in range(k))


@settings(deadline=None)
@given(ks, st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=12))
def test_block_level_is_minimal(k, requests):
    s = kbonacci(k)
    for n in requests:
        m = s.block_level(n)
        assert m >= 1 and min(s.power_lengths(m)) >= n
        assert m == 1 or min(s.power_lengths(m - 1)) < n


@pytest.mark.parametrize("images", [("1", "0"), ("0",), ("01", "1", "2"), ("0", "1", "2")])
def test_block_level_rejects_images_that_stop_growing(images, time_limit):
    # each has a letter whose images stay one letter long, so no level is long enough
    s = Substitution(images)
    with time_limit(2.0):
        for _ in range(2):
            with pytest.raises(ValueError):
                s.block_level(5)


def test_block_level_waits_out_a_shortest_image_that_stalls_for_fewer_than_k_levels():
    # primitive: the shortest image is one letter at levels 0, 1 and 2, then grows
    s = Substitution(("1", "2", "01"))
    shortest = [min(s.power_lengths(m)) for m in range(12)]
    assert shortest[:4] == [1, 1, 1, 2]
    for n in range(1, shortest[-1] + 1):
        assert s.block_level(n) == next(m for m in range(1, 12) if shortest[m] >= n)


@settings(deadline=None)
@given(ks, st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=12))
def test_shared_fixed_point_buffer_matches_fresh_stream(k, requests):
    s = kbonacci(k)
    for length in requests:
        assert s.fixed_prefix(length) == FixedPointStream(s).prefix(length)


APPLY_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [
    ("01", "10"), ("01", "00"), ("1", "01"), ("02", "0", "01")]


def applied_prefix(s, length):
    """The fixed-point prefix grown by repeated s.apply from the seed image:
    the reference for FixedPointStream, which never calls apply."""
    buf = s.images[s.fixed_point_seed()]
    while len(buf) < length:
        buf = s.apply(buf)
    return buf[:length]


@settings(deadline=None)
@given(st.sampled_from(APPLY_SUBSTITUTIONS), st.data())
def test_power_image_matches_repeated_apply(images, data):
    # every request order fills the cache differently; the words and the
    # letter count must not depend on it
    s = Substitution(images)
    requests = st.tuples(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=s.k - 1))
    for n, a in data.draw(st.lists(requests, min_size=1, max_size=12)):
        word = str(a)
        for _ in range(n):
            word = s.apply(word)
        assert s.power_image(n, a) == word
        assert s._cached_letters == sum(map(len, s._power_cache.values()))


# ("1", "01") is the one without a seed letter, an a whose image starts with a.
SEEDED_SUBSTITUTIONS = [images for images in APPLY_SUBSTITUTIONS if images != ("1", "01")]


@settings(deadline=None)
@given(st.sampled_from(SEEDED_SUBSTITUTIONS),
       st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=12))
def test_fixed_point_stream_matches_repeated_apply(images, requests):
    s = Substitution(images)
    stream = FixedPointStream(s)
    for length in requests:
        assert stream.prefix(length) == applied_prefix(s, length)


def find_loop_occurrences(text, word):
    """Every start of word in text, overlaps included, by a str.find loop:
    the reference for the packed-word filter in occurrence_starts."""
    found = []
    pos = text.find(word)
    while pos != -1:
        found.append(pos)
        pos = text.find(word, pos + 1)
    return found


@st.composite
def texts_and_words(draw):
    """A random or periodic text on 1-3 letters and a word of 0-20 letters:
    a factor of the text, a random word, or one longer than the text.
    Periodic texts make every packed window match at many overlapping
    starts."""
    alphabet = draw(st.sampled_from(["0", "01", "012"]))
    if draw(st.booleans()):
        text = draw(st.text(alphabet=alphabet, max_size=300))
    else:
        period = draw(st.text(alphabet=alphabet, min_size=1, max_size=6))
        text = (period * 300)[: draw(st.integers(min_value=0, max_value=300))]
    length = draw(st.integers(min_value=0, max_value=20))
    kind = draw(st.sampled_from(["factor", "random", "longer"]))
    if kind == "factor":
        start = draw(st.integers(min_value=0, max_value=len(text)))
        return text, text[start : start + length]
    if kind == "random":
        return text, draw(st.text(alphabet=alphabet, min_size=length, max_size=length))
    return text, text + draw(st.text(alphabet=alphabet, min_size=1, max_size=max(length, 1)))


@settings(max_examples=300, deadline=None)
@given(texts_and_words())
@example(("0" * 50, "0" * 9))  # every start matches; the tail window sits at offset 1
@example(("0120", ""))
def test_occurrences_match_find_loop(text_and_word):
    text, word = text_and_word
    assert occurrence_starts(text, word).tolist() == find_loop_occurrences(text, word)


@pytest.mark.parametrize("k, window", [(2, 10**4), (3, 3 * 10**5)])
def test_occurrences_of_blocks_in_the_fixed_point_match_find_loop(k, window):
    s = kbonacci(k)
    omega = s.fixed_prefix(window)
    for n in range(k, k + 4):
        block = s.power_image(n, 0)
        assert occurrence_starts(omega, block).tolist() == find_loop_occurrences(omega, block)


# k-bonacci for k = 2..5 and Thue-Morse, which is primitive with seed 0
HELD_SCAN_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [("01", "10")]


@settings(deadline=None)
@given(st.sampled_from(HELD_SCAN_SUBSTITUTIONS),
       st.lists(st.tuples(st.integers(min_value=0, max_value=12), st.sampled_from([0, 3, 40, 500, 3000])),
                min_size=1, max_size=12))
@example(("01", "10"), [(2, 3000), (3, 3000), (3, 3000), (12, 3000), (11, 3000), (13, 3000), (5, 40), (9, 40)])
@example(("01", "0"), [(0, 500), (1, 500), (4, 500), (12, 500), (2, 3), (1, 3), (5, 3), (12, 500)])
def test_held_scan_matches_fresh_scans(images, requests):
    # rising, falling and repeated levels, and window changes, on one
    # instance; windows of 0 to 40 letters are shorter than most words
    s = Substitution(images)
    seed = s.fixed_point_seed()
    for n, window in requests:
        text, word = s.fixed_prefix(window), s.power_image(n, seed)
        expected = find_loop_occurrences(text, word)
        assert occurrence_starts(text, word).tolist() == expected
        assert s.fixed_point_occurrences(n, window).tolist() == expected


@given(st.sampled_from(APPLY_SUBSTITUTIONS), st.data())
def test_apply_matches_joined_images(images, data):
    s = Substitution(images)
    w = data.draw(st.text(alphabet="".join(map(str, range(s.k))), max_size=60))
    assert s.apply(w) == "".join(images[int(c)] for c in w)


@pytest.mark.parametrize("images", APPLY_SUBSTITUTIONS)
def test_apply_rejects_letters_outside_the_alphabet(images):
    s = Substitution(images)
    # int() reads the Arabic-Indic digits as 1 and 3; they are still not
    # letters, for apply, apply_power and power_image alike
    for letter in (str(s.k), "a", " ", "\u0661", "\u0663"):
        with pytest.raises(ValueError):
            s.apply("0" + letter)
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="not in alphabet"):
                s.power_image(n, letter)
            with pytest.raises(ValueError, match="not in alphabet"):
                s.apply_power(n, "0" + letter)
    for letter in (-1, s.k, 0.5, None, [0], "", "00"):
        with pytest.raises(ValueError, match="not in alphabet"):
            s.power_image(2, letter)
    for a, c in enumerate(s.letters):
        assert s.power_image(0, a) == s.power_image(0, c) == c
        assert s.power_image(3, a) == s.power_image(3, c) == s.apply_power(3, c)


@st.composite
def images_over_digits(draw):
    """k images over the first k ASCII digits, or, half the time, over
    those, the other ASCII digits and every Unicode decimal digit."""
    k = draw(st.integers(1, 10))
    characters = st.sampled_from(LETTERS[:k])
    if draw(st.booleans()):
        characters |= st.sampled_from(LETTERS) | st.characters(categories=("Nd",))
    return tuple(draw(st.lists(st.text(characters, min_size=1, max_size=3), min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(images_over_digits())
@example(("0\u0661", "0"))  # was accepted, with |s^3(0)| = 4 letters against a length table of 5
@example(("0\u0663", "0", "1"))
@example(("01", "0\uff11"))  # a fullwidth digit one
def test_a_substitution_takes_exactly_the_images_over_its_letters(images):
    k = len(images)
    if not all(set(w) <= set(LETTERS[:k]) for w in images):
        with pytest.raises(ValueError, match="uses letters outside the alphabet"):
            Substitution(images)
        return
    s = Substitution(images)
    assert s.letters == LETTERS[:k]
    for n in range(9):
        for a in range(k):
            assert len(s.power_image(n, a)) == s.power_lengths(n)[a]
