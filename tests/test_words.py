import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kbonacci import Configuration, Substitution, build_language, in_language, kbonacci
from kbonacci.errors import BudgetExceededError, OutOfIndexError
from kbonacci.recognition import maximal_prefix


def naive_factors(s, depth, window=4000):
    """Factors of a long fixed-point prefix, the simplest possible oracle."""
    omega = s.fixed_prefix(window)
    out = {n: set() for n in range(1, depth + 1)}
    for n in range(1, depth + 1):
        for i in range(len(omega) - n + 1):
            out[n].add(omega[i : i + n])
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_language_matches_fixed_point_factors(k):
    s = kbonacci(k)
    depth = 10
    index = s.language(depth)
    oracle = naive_factors(s, depth)
    for n in range(1, depth + 1):
        assert index.words(n) == oracle[n], f"length {n} mismatch"


def test_complexity_values(s3, s2):
    index3 = s3.language(8)
    assert [index3.complexity(n) for n in range(1, 8)] == [3, 5, 7, 9, 11, 13, 15]
    index2 = s2.language(8)
    assert [index2.complexity(n) for n in range(1, 8)] == [2, 3, 4, 5, 6, 7, 8]


def test_membership_oracle(s3):
    assert in_language(s3, "001")
    assert not in_language(s3, "000")
    assert not in_language(s3, "002")
    assert in_language(s3, "0102010010201")
    assert not in_language(s3, "11")
    assert in_language(s3, "")


def test_membership_agrees_with_index(s3):
    index = s3.language(7)
    import itertools

    for n in range(1, 8):
        for tup in itertools.product("012", repeat=n):
            w = "".join(tup)
            assert in_language(s3, w) == (w in index.words(n))


def test_factor_closed(s3):
    index = s3.language(10)
    for n in range(2, 11):
        for w in index.words(n):
            assert w[1:] in index.words(n - 1)
            assert w[:-1] in index.words(n - 1)


def test_special_words(s3):
    index = s3.language(5)
    left, right, bi = index.special_words(1)
    assert bi == {"0"}
    assert left == {"0"}
    left, right, bi = index.special_words(3)
    assert bi == {"010"}
    left2, right2, bi2 = index.special_words(2)
    assert bi2 == frozenset()
    # exactly one left-special and one right-special word per length
    for n in range(1, 5):
        l, r, _ = index.special_words(n)
        assert len(l) == 1 and len(r) == 1


def test_index_depth_guard(s3):
    index = build_language(s3, 5)
    with pytest.raises(OutOfIndexError):
        index.words(6)
    for n in (-1, -6, 5):
        with pytest.raises(OutOfIndexError):
            index.special_words(n)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_specials_are_the_fixed_point_prefixes_and_their_reversals(k):
    # Arnoux-Rauzy: one left special per length, the prefix of the fixed
    # point, and one right special, its reversal; each extends by all k
    # letters.  Read off the fixed point, not off any classifier.
    s = kbonacci(k)
    depth = 120
    index = s.language(depth + 1)
    omega = s.fixed_prefix(depth)
    letters = [str(a) for a in range(k)]
    for n in range(1, depth + 1):
        prefix = omega[:n]
        left, right, bi = index.special_words(n)
        assert left == {prefix}
        assert right == {prefix[::-1]}
        assert bi == (left if prefix == prefix[::-1] else set())
        longer = index.words(n + 1)
        assert all(a + prefix in longer for a in letters)
        assert all(prefix[::-1] + a in longer for a in letters)


@settings(max_examples=200)
@given(st.text(alphabet="012", min_size=1, max_size=12))
def test_membership_closed_under_factors(w):
    s = kbonacci(3)
    if in_language(s, w):
        assert in_language(s, w[1:])
        assert in_language(s, w[:-1])


def test_language_closed_under_substitution(s3):
    index = s3.language(6)
    for n in range(1, 7):
        for w in index.words(n):
            assert in_language(s3, s3.apply(w))


@pytest.mark.parametrize("images", [("01", "1", "2"), ("0",), ("1", "0"), ("0", "1")])
def test_non_primitive_substitution_is_rejected(images, time_limit):
    # the primitivity check comes before the block level, which no image here reaches
    s = Substitution(images)
    with time_limit(2.0):
        for u in ("00", "0" * 300):
            with pytest.raises(ValueError):
                in_language(s, u)
        with pytest.raises(ValueError):
            maximal_prefix(s, Configuration("0000", "const", "0"))
        with pytest.raises(ValueError):
            build_language(s, 3)


def long_word(s):
    """s^N(0) for the least N with |s^N(0)| >= 4000; needs no fixed point."""
    level = 0
    while len(s.power_image(level, 0)) < 4000:
        level += 1
    return s.power_image(level, 0)


def long_word_factors(s, n):
    """Factors of length n of long_word(s)."""
    word = long_word(s)
    return {word[i : i + n] for i in range(len(word) - n + 1)}


ORACLE_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [("01", "10"), ("1", "01")]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORACLE_SUBSTITUTIONS), st.integers(min_value=0, max_value=30))
def test_language_matches_long_word_factors(images, depth):
    s = Substitution(images)
    oracle = [long_word_factors(s, n) for n in range(max(depth, 6) + 1)]
    index = s.language(depth)
    for n in range(depth + 1):
        assert index.words(n) == oracle[n]
    letters = "".join(str(a) for a in range(s.k))
    for n in range(7):
        for tup in itertools.product(letters, repeat=n):
            w = "".join(tup)
            assert in_language(s, w) == (w in oracle[n])


def two_blocks(s, n):
    """The words s^m(a) s^m(b) for the sorted 2-factors ab, m = block_level(n),
    joined here from the power images rather than read off language_text."""
    m = s.block_level(n)
    return [s.power_image(m, a) + s.power_image(m, b) for a, b in sorted(s.pair_language())]


def two_block_membership(s, u):
    """The membership oracle: u is a factor of one of the two-block words, searched one by one."""
    return not u or any(u in w for w in two_blocks(s, len(u)))


@st.composite
def membership_queries(draw):
    """A substitution of ORACLE_SUBSTITUTIONS (k-bonacci for k = 2..5, and two
    that are primitive but not Arnoux-Rauzy, Thue-Morse among them) and
    queries: factors of its long word, the same with one letter changed, and
    words at random, of lengths at and one past a block-level step (the
    shortest image length of a level), or anywhere up to 300."""
    s = Substitution(draw(st.sampled_from(ORACLE_SUBSTITUTIONS)))
    letters = "".join(str(a) for a in range(s.k))
    word = long_word(s)
    steps = sorted({min(s.power_lengths(m)) for m in range(1, 13)} & set(range(1, 300)))
    at_a_step = st.sampled_from(steps).flatmap(lambda step: st.sampled_from([step, step + 1]))
    queries = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(at_a_step | st.integers(1, 300))
        kind = draw(st.sampled_from(["factor", "edit", "random"]))
        if kind == "random":
            queries.append(draw(st.text(alphabet=letters, min_size=n, max_size=n)))
            continue
        start = draw(st.integers(0, len(word) - n))
        u = word[start : start + n]
        if kind == "edit":
            p = draw(st.integers(0, n - 1))
            u = u[:p] + draw(st.sampled_from(letters.replace(u[p], ""))) + u[p + 1 :]
        queries.append(u)
    return s.images, queries


@settings(max_examples=200, deadline=None)
@given(membership_queries())
def test_membership_matches_the_two_block_oracle(case):
    images, queries = case
    s, oracle = Substitution(images), Substitution(images)  # per-length texts built in the drawn order
    assert [in_language(s, u) for u in queries] == [two_block_membership(oracle, u) for u in queries]


@pytest.mark.parametrize("images", ORACLE_SUBSTITUTIONS)
def test_lengths_of_one_block_level_share_one_text(images):
    s = Substitution(images)
    texts = {n: s.language_text(n) for n in range(1, 120)}
    for n, text in texts.items():
        assert text == "|".join(two_blocks(s, n))
        for other in range(1, n):
            assert (texts[other] is text) == (s.block_level(other) == s.block_level(n))


# The slicing build and the concatenation classifier these replaced, kept
# as oracles: every factor of the two-block words at every length, and the
# letters a with a+w (w+a) in the next layer.
def sliced_language(s, depth):
    blocks = two_blocks(s, depth)
    return [{w[i : i + n] for w in blocks for i in range(len(w) - n + 1)} for n in range(depth + 1)]


def concatenated_specials(s, shorter, longer):
    letters = [str(a) for a in range(s.k)]
    left = {w for w in shorter if sum(a + w in longer for a in letters) >= 2}
    right = {w for w in shorter if sum(w + a in longer for a in letters) >= 2}
    return left, right, left & right


LANGUAGE_SUBSTITUTIONS = [kbonacci(k).images for k in range(2, 6)] + [
    ("01", "10"), ("01", "00"), ("1", "01"), ("02", "0", "01")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LANGUAGE_SUBSTITUTIONS), st.integers(min_value=0, max_value=60))
def test_top_down_language_matches_slicing_oracle(images, depth):
    s = Substitution(images)
    index = build_language(s, depth)
    oracle = sliced_language(s, depth)
    assert [index.words(n) for n in range(depth + 1)] == oracle
    for n in range(depth):
        assert index.special_words(n) == concatenated_specials(s, oracle[n], oracle[n + 1])
    with pytest.raises(OutOfIndexError):
        index.special_words(depth)


# The layer-by-layer build the sorted-top-layer index replaced, kept as
# its oracle: the length-depth factors sliced out of the two-block words,
# then each shorter layer the prefixes u[:-1] of the layer above, charging
# the letters every layer holds against the budget as it goes.
def top_down_language(s, depth):
    blocks = two_blocks(s, depth)
    letters = depth * sum(len(w) - depth + 1 for w in blocks)
    if letters > s.length_budget:
        raise BudgetExceededError(f"{letters} letters before slicing")
    layer = frozenset(w[i : i + depth] for w in blocks for i in range(len(w) - depth + 1))
    letters = depth * len(layer)
    layers = [layer]
    for m in range(depth - 1, -1, -1):
        layer = frozenset(u[:-1] for u in layer)
        letters += m * len(layer)
        if letters > s.length_budget:
            raise BudgetExceededError(f"{letters} letters at length {m}")
        layers.append(layer)
    return layers[::-1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LANGUAGE_SUBSTITUTIONS), st.integers(min_value=0, max_value=60))
def test_sorted_top_layer_matches_top_down_oracle(images, depth):
    s = Substitution(images)
    index = build_language(s, depth)
    oracle = top_down_language(s, depth)
    for n in range(depth + 1):
        assert index.words(n) == oracle[n]
        assert index.complexity(n) == len(oracle[n])
    for n in range(depth):
        assert index.special_words(n) == concatenated_specials(s, oracle[n], oracle[n + 1])


def _raises_budget(build, images, depth, budget):
    try:
        build(Substitution(images, length_budget=budget), depth)
    except BudgetExceededError:
        return True
    return False


def every_layer(s, depth):
    index = build_language(s, depth)
    return [index.words(n) for n in range(depth + 1)]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("depth", [1, 5, 30, 100])
def test_budget_matches_top_down_oracle(k, depth):
    # The build charges the letters it slices and nothing more; every
    # layer asked for later charges the letters it holds, and asking for
    # all of them raises at exactly the budgets the layer-by-layer build
    # did: below the letters it sliced, or below the letters of all its layers.
    images = kbonacci(k).images
    s = Substitution(images)
    sliced = depth * sum(len(w) - depth + 1 for w in two_blocks(s, depth))
    held = sum(m * len(layer) for m, layer in enumerate(top_down_language(s, depth)))
    assert _raises_budget(build_language, images, depth, sliced - 1)
    assert not _raises_budget(build_language, images, depth, sliced)
    for total in (sliced, held):
        for budget in (total - 1, total, total + 1):
            expected = _raises_budget(top_down_language, images, depth, budget)
            assert _raises_budget(every_layer, images, depth, budget) == expected
    assert _raises_budget(every_layer, images, depth, max(sliced, held) - 1)
    assert not _raises_budget(every_layer, images, depth, max(sliced, held))


@pytest.mark.parametrize("images", [kbonacci(2).images, kbonacci(4).images, ("01", "10")])
def test_a_layer_past_the_budget_is_neither_built_nor_charged(images):
    # layers are charged as they are built, in any order: at a budget that
    # every layer fits but length 2, the length-2 layer raises, and the
    # length-1 layer still fits only because the failed one was not charged
    depth = 40
    index = build_language(Substitution(images), depth)
    cost = [n * index.complexity(n) for n in range(depth + 1)]
    index = build_language(Substitution(images, length_budget=sum(cost) - cost[1] - 1), depth)
    for n in range(depth, 2, -1):
        index.words(n)
    with pytest.raises(BudgetExceededError):
        index.words(2)
    assert len(index.words(1)) == index.complexity(1)
    with pytest.raises(BudgetExceededError):
        index.words(2)
    assert index.words(0) == {""} and index.words(depth) is index.words(depth)
