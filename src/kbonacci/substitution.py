"""Substitution morphisms, powers, incidence matrices and fixed points.

Words are plain Python strings of decimal digits, one digit per letter,
so the alphabet size is capped at 10 for the word machinery.  Spectral
quantities that only need the alphabet size (Perron root, eigenvectors)
accept larger k directly, see :mod:`kbonacci.spectral`.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError

MAX_ALPHABET = 10

DEFAULT_LENGTH_BUDGET = 10**8


class _ImageTable(dict):
    """``str.translate`` table from letter code to image.  A missing letter
    raises ValueError: translate passes a LookupError's letter through."""

    def __missing__(self, code: int):
        raise ValueError(f"letter {chr(code)!r} is outside the alphabet")


def _as_letter(a) -> int:
    a = int(a)
    if a < 0:
        raise ValueError(f"letter must be nonnegative, got {a}")
    return a


class Substitution:
    """A non-erasing morphism of the free monoid over {0, ..., k-1}.

    Power images s^n(a) are memoized per (n, letter).  The total number of
    cached letters is bounded by ``length_budget``; exceeding it raises
    :class:`BudgetExceededError` instead of silently eating memory
    (image lengths grow like lambda^n).  The instance also owns the table
    of exact lengths |s^n(a)|, one growable stream of the fixed point and
    the two-block words that describe the language.
    """

    def __init__(self, images: Sequence[str], length_budget: int = DEFAULT_LENGTH_BUDGET):
        images = tuple(str(w) for w in images)
        k = len(images)
        if k < 1 or k > MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}], got {k}")
        for a, w in enumerate(images):
            if len(w) == 0:
                raise ValueError(f"substitution must be non-erasing, image of {a} is empty")
            if any(not c.isdigit() or int(c) >= k for c in w):
                raise ValueError(f"image of {a} ({w!r}) uses letters outside the alphabet")
        self.images = images
        self.k = k
        self._table = _ImageTable((ord(str(a)), w) for a, w in enumerate(images))
        self.length_budget = int(length_budget)
        self._power_cache: dict[tuple[int, int], str] = {}
        self._cached_letters = 0
        self._lengths: list[tuple[int, ...]] = [(1,) * k]  # _lengths[n][a] = |s^n(a)|
        self._ladder = [0]  # _ladder[n] = sum_{l<n} |s^l(0)|
        self._shortest = [1]  # _shortest[m] = min_a |s^m(a)|, nondecreasing in m
        self._stream: FixedPointStream | None = None
        self._pairs: frozenset[str] | None = None
        self._two_blocks: dict[int, tuple[str, ...]] = {}  # block level m -> words
        self._level_texts: dict[int, str] = {}  # block level m -> its words joined by "|"
        self._texts: dict[int, str] = {}  # word length n -> the text of its block level
        self.is_kbonacci = k >= 2 and images == _kbonacci_images(k)
        self._lang_cache = None  # LanguageIndex

    # -- basic morphism operations ------------------------------------

    def apply(self, w: str) -> str:
        """Image of a finite word: concatenation of the letter images.
        Raises ValueError on a letter outside the alphabet."""
        return w.translate(self._table)

    def power_image(self, n: int, a) -> str:
        """s^n(a), with s^0 the identity.  Cached."""
        a = _as_letter(a)
        if a >= self.k:
            raise ValueError(f"letter {a} not in alphabet of size {self.k}")
        if n < 0:
            raise ValueError("power must be nonnegative")
        if n == 0:
            return str(a)
        cached = self._power_cache.get((n, a))
        if cached is not None:
            return cached
        word = self.power_image(n - 1, a).translate(self._table)
        if self._cached_letters + len(word) > self.length_budget:
            raise BudgetExceededError(
                f"power-image cache would exceed {self.length_budget} letters at s^{n}({a})"
            )
        self._cached_letters += len(word)
        self._power_cache[(n, a)] = word
        return word

    def apply_power(self, n: int, w: str) -> str:
        """s^n(w) assembled from cached letter images."""
        if n == 0:
            return w
        return "".join(self.power_image(n, c) for c in w)

    def power_lengths(self, n: int) -> tuple[int, ...]:
        """Exact |s^n(a)| for every letter a, from the length table.

        The table grows by one step of |s^{m+1}(a)| = sum_{c in s(a)} |s^m(c)|
        per new level and never materializes words, so arbitrary n is fine.
        """
        if n < 0:
            raise ValueError("power must be nonnegative")
        table = self._lengths
        while len(table) <= n:
            prev = table[-1]
            table.append(tuple(sum(prev[int(c)] for c in w) for w in self.images))
        return table[n]

    def ladder_length(self, n: int) -> int:
        """sum_{l<=n} |s^l(0)|, a running sum grown with the length table.

        For k-bonacci this is the length of the bispecial rung
        b_n = s^n(0) s^{n-1}(0) ... s(0) 0, and the break of s^n(x) is
        |s^n(w)| + ladder_length(n - 1) for w the longest language prefix
        of x.
        """
        if n < 0:
            raise ValueError("power must be nonnegative")
        sums = self._ladder
        for l in range(len(sums) - 1, n + 1):
            sums.append(sums[-1] + self.power_lengths(l)[0])
        return sums[n + 1]

    def block_level(self, n: int) -> int:
        """Smallest m >= 1 with |s^m(a)| >= n for every letter a.

        At that level any factor of length n of the fixed point spans at
        most two m-th image blocks.  The shortest image length never falls
        from one level to the next, so m is one bisection over the shortest
        lengths, kept per level.  They must grow without bound, as they do
        for a primitive, expanding substitution: if the shortest stays put
        for k levels, some letter's images are single letters forever, and
        ValueError is raised.
        """
        shortest = self._shortest
        while shortest[-1] < n:
            m = len(shortest)
            shortest.append(min(self.power_lengths(m)))
            if m >= self.k and shortest[m] == shortest[m - self.k]:
                raise ValueError(f"image lengths stop growing; no level has every image {n} long")
        return max(1, bisect.bisect_left(shortest, n))

    # -- matrix and primitivity ---------------------------------------

    def incidence(self) -> np.ndarray:
        """Incidence matrix M with M[i, j] = number of i's in the image of j."""
        k = self.k
        m = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            for c in self.images[j]:
                m[int(c), j] += 1
        return m

    def is_primitive(self) -> bool:
        return is_primitive(self.incidence())

    # -- fixed point ----------------------------------------------------

    def fixed_point_seed(self) -> int:
        """A letter a with s(a) starting by a and |s(a)| >= 2, if any."""
        for a in range(self.k):
            w = self.images[a]
            if len(w) >= 2 and int(w[0]) == a:
                return a
        raise ValueError("substitution has no expanding fixed-point seed letter")

    def fixed_prefix(self, length: int) -> str:
        """First `length` letters of the fixed point, from the one stream this
        substitution keeps and grows on demand."""
        if self._stream is None:
            self._stream = FixedPointStream(self)
        return self._stream.prefix(length)

    def pair_language(self) -> frozenset[str]:
        """All length-2 factors of the language, by closure under s.

        Starts from the 2-factors of the letter images; this is exact for a
        primitive substitution, because every 2-factor of s^n(c) lies inside
        some s(d) or across s(d)s(e) for a 2-factor de.  Raises ValueError
        unless s is primitive with image lengths that grow.
        """
        if self._pairs is not None:
            return self._pairs
        if not self.is_primitive() or all(len(w) == 1 for w in self.images):
            raise ValueError("language construction requires a primitive, expanding substitution")
        pairs: set[str] = set()
        words = self.images
        while new := {w[i : i + 2] for w in words for i in range(len(w) - 1)} - pairs:
            pairs |= new
            words = [self.apply(p) for p in new]
        self._pairs = frozenset(pairs)
        return self._pairs

    def two_blocks(self, n: int) -> tuple[str, ...]:
        """The words s^m(a) s^m(b) for the 2-factors ab, m = block_level(n).

        Every language word of length <= n spans at most two m-th blocks of
        some s^N(c), so the language words of length <= n are exactly the
        factors of these words.  Cached per level m.
        """
        pairs = self.pair_language()
        m = self.block_level(n)
        words = self._two_blocks.get(m)
        if words is None:
            words = tuple(self.power_image(m, p[0]) + self.power_image(m, p[1]) for p in sorted(pairs))
            self._two_blocks[m] = words
        return words

    def language_text(self, n: int) -> str:
        """``"|".join(self.two_blocks(n))``: a word of length <= n is in the
        language exactly when it occurs in this text, "|" being no letter.
        One string per block level, looked up by n."""
        text = self._texts.get(n)
        if text is None:
            words = self.two_blocks(n)  # raises on a non-primitive s before block_level runs
            m = self.block_level(n)
            text = self._level_texts.get(m)
            if text is None:
                text = self._level_texts[m] = "|".join(words)
            self._texts[n] = text
        return text

    def language(self, depth: int):
        """A LanguageIndex for this substitution, cached and grown on demand."""
        from .words import build_language

        cached = self._lang_cache
        if cached is None or cached.depth < depth:
            cached = build_language(self, depth)
            self._lang_cache = cached
        return cached

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Plain-text form: k on line 1, then one image word per line."""
        return "\n".join([str(self.k)] + list(self.images)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Substitution":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty substitution file")
        k = int(lines[0])
        images = lines[1:]
        if len(images) != k:
            raise ValueError(f"expected {k} image lines, got {len(images)}")
        return cls(images)

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Substitution({list(self.images)})"


def is_primitive(matrix: np.ndarray) -> bool:
    """True iff some power up to the Wielandt bound (k-1)^2 + 1 is positive.

    Works on the boolean support of the matrix so powers cannot overflow.
    """
    m = np.asarray(matrix)
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError("incidence matrix must be square")
    b = m > 0
    power = b.copy()
    bound = (k - 1) ** 2 + 1
    for _ in range(bound):
        if power.all():
            return True
        power = (power.astype(np.uint8) @ b.astype(np.uint8)) > 0
    return bool(power.all())


def _packed_windows(data: bytes, width: int) -> np.ndarray:
    """Every run of `width` consecutive bytes of data, read as one unsigned
    integer: a stride-1 view, so window i starts at byte i."""
    return np.ndarray((len(data) - width + 1,), dtype=f"u{width}", buffer=data, strides=(1,))


def occurrence_starts(text: str, word: str) -> np.ndarray:
    """Start positions of every occurrence of word in text, overlaps
    included, as a sorted integer array.

    Text and word are ASCII strings, as every word over a digit alphabet
    is.  The word is read in windows of w letters, w the widest of 8, 4, 2
    and 1 that fits in it: the starts where the text's window equals the
    word's first one are found in one numpy comparison, then narrowed by
    the word's windows at offsets w, 2w, ... and |word| - w, which cover
    the rest of the word.
    """
    if not word:
        return np.arange(len(text) + 1)
    data, key = text.encode("ascii"), word.encode("ascii")
    if len(key) > len(data):
        return np.zeros(0, dtype=np.intp)
    width = next(w for w in (8, 4, 2, 1) if w <= len(key))
    windows, parts = _packed_windows(data, width), _packed_windows(key, width)
    starts = np.flatnonzero(windows[: len(data) - len(key) + 1] == parts[0])
    for offset in range(width, len(key), width):
        offset = min(offset, len(key) - width)
        starts = starts[windows[starts + offset] == parts[offset]]
    return starts


def kbonacci(k: int, length_budget: int = DEFAULT_LENGTH_BUDGET) -> Substitution:
    """The k-bonacci substitution: a -> 0(a+1) for a < k-1 and (k-1) -> 0."""
    if k < 2:
        raise ValueError(f"k-bonacci requires k >= 2, got {k}")
    if k > MAX_ALPHABET:
        raise ValueError(f"word machinery supports k <= {MAX_ALPHABET}, got {k}")
    return Substitution(_kbonacci_images(k), length_budget=length_budget)


def _kbonacci_images(k: int) -> tuple[str, ...]:
    return tuple(f"0{a + 1}" for a in range(k - 1)) + ("0",)


def require_kbonacci(s: Substitution) -> None:
    if not s.is_kbonacci:
        raise ValueError("this operation is specific to k-bonacci substitutions")


def check_recurrence(s: Substitution, n: int) -> bool:
    """Exact check of s^{n+k}(0) == s^{n+k-1}(0) s^{n+k-2}(0) ... s^n(0)."""
    require_kbonacci(s)
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = s.k
    left = s.power_image(n + k, 0)
    right = "".join(s.power_image(n + k - 1 - i, 0) for i in range(k))
    return left == right


class FixedPointStream:
    """On-demand prefixes of the one-sided fixed point of a substitution.

    The fixed point starts with s^n(seed) for every n, the seed being the
    letter whose image starts with itself.  A request for `length` letters
    builds s^n(seed), n the least level with |s^n(seed)| >= length, as
    s^m(s^{n-m}(seed)) with m = n // 2: one str.translate of the short word
    s^{n-m}(seed) through a table of the blocks s^m(a) of every letter a,
    which joins whole blocks and reads no letter of the prefix.  The table
    grows a level at a time the same way, s^{m+1}(a) being s(a) translated
    through the level-m table, so the stream holds the prefix and blocks
    of about its square root.  A prefix and blocks that would hold more
    than ``length_budget`` letters, and more than four times the requested
    length, raise BudgetExceededError instead.
    """

    def __init__(self, subst: Substitution):
        self.subst = subst
        self._seed = subst.fixed_point_seed()
        self._n = 1  # the prefix is s^n(seed), the blocks s^{n // 2}(a)
        self._prefix = subst.images[self._seed]
        self._blocks = {ord(str(a)): str(a) for a in range(subst.k)}  # letter code -> block

    def prefix(self, length: int) -> str:
        if length < 0:
            raise ValueError("length must be nonnegative")
        s, seed = self.subst, self._seed
        if length > s.length_budget:
            raise BudgetExceededError(
                f"requested fixed-point prefix of {length} letters exceeds budget"
            )
        if len(self._prefix) < length:
            n = self._n + 1
            while s.power_lengths(n)[seed] < length:
                n += 1
            m = n // 2
            held = s.power_lengths(n)[seed] + sum(s.power_lengths(m))
            if held > 4 * length and held > s.length_budget:
                raise BudgetExceededError(f"fixed-point prefix and blocks of {held} letters exceed budget")
            blocks = self._blocks
            for _ in range(self._n // 2, m):
                blocks = {ord(str(a)): w.translate(blocks) for a, w in enumerate(s.images)}
            head = (s.images[seed] if n % 2 else str(seed)).translate(blocks)  # s^{n-m}(seed)
            self._n, self._prefix, self._blocks = n, head.translate(blocks), blocks
        return self._prefix[:length]
