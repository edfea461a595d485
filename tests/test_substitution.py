import pytest
from hypothesis import example, given, settings, strategies as st

from kbonacci import FixedPointStream, Substitution, check_recurrence, kbonacci
from kbonacci.substitution import occurrence_starts
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
    assert s3.is_primitive()
    assert not Substitution(("01", "1", "2")).is_primitive()


def test_budget_guard():
    s = kbonacci(2, length_budget=100)
    with pytest.raises(BudgetExceededError):
        s.power_image(40, 0)
    with pytest.raises(BudgetExceededError):
        s.fixed_prefix(101)
    # The budget counts the blocks a prefix is joined from: s^2(0) would be
    # joined from the level-1 blocks, 3002 + 3002 letters for a 500-letter prefix.
    s = Substitution(("01", "1" * 3000), length_budget=5000)
    with pytest.raises(BudgetExceededError):
        s.fixed_prefix(500)


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


@given(st.sampled_from(APPLY_SUBSTITUTIONS), st.data())
def test_apply_matches_joined_images(images, data):
    s = Substitution(images)
    w = data.draw(st.text(alphabet="".join(map(str, range(s.k))), max_size=60))
    assert s.apply(w) == "".join(images[int(c)] for c in w)


@pytest.mark.parametrize("images", APPLY_SUBSTITUTIONS)
def test_apply_rejects_letters_outside_the_alphabet(images):
    s = Substitution(images)
    # int() reads the Arabic-Indic digit as 3; it is still not a letter.
    for letter in (str(s.k), "a", " ", "\u0663"):
        with pytest.raises(ValueError):
            s.apply("0" + letter)
