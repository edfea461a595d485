"""Substitution morphisms, powers, incidence matrices and fixed points.

Words are plain Python strings over LETTERS, the ASCII digits, one digit
per letter, so the alphabet size is capped at 10 for the word machinery.
A substitution on k letters spells them ``s.letters = LETTERS[:k]``, and
every word that enters it is checked against them.  Spectral
quantities that only need the alphabet size (Perron root, eigenvectors)
accept larger k directly, see :mod:`kbonacci.spectral`.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError

LETTERS = "0123456789"
MAX_ALPHABET = len(LETTERS)

DEFAULT_LENGTH_BUDGET = 10**8


class _ImageTable(dict):
    """``str.translate`` table from letter code to image.  A missing letter
    raises ValueError: translate passes a LookupError's letter through."""

    def __missing__(self, code: int):
        raise ValueError(f"letter {chr(code)!r} is outside the alphabet")


class Substitution:
    """A non-erasing morphism of the free monoid over {0, ..., k-1}.

    Power images s^n(a) are built by :meth:`power_image` alone, memoized
    per (n, letter); fixed-point prefixes and two-block words are read off
    them.  The total number of cached letters is bounded by
    ``length_budget``; exceeding it raises :class:`BudgetExceededError`
    instead of silently eating memory (image lengths grow like lambda^n).
    The instance also owns the table of exact lengths |s^n(a)|.
    """

    def __init__(self, images: Sequence[str], length_budget: int = DEFAULT_LENGTH_BUDGET):
        images = tuple(str(w) for w in images)
        k = len(images)
        if k < 1 or k > MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in [1, {MAX_ALPHABET}], got {k}")
        self.letters = LETTERS[:k]
        for a, w in enumerate(images):
            if len(w) == 0:
                raise ValueError(f"substitution must be non-erasing, image of {a} is empty")
            if not set(w) <= set(self.letters):
                raise ValueError(f"image of {a} ({w!r}) uses letters outside the alphabet")
        self.images = images
        self.k = k
        self._table = _ImageTable(zip(map(ord, self.letters), images))
        # the number of each letter, keyed by the number and by the letter
        self._numbers = {key: a for a, c in enumerate(self.letters) for key in (a, c)}
        self.length_budget = int(length_budget)
        self._power_cache: dict[tuple[int, int], str] = {}
        self._cached_letters = 0
        self._lengths: list[tuple[int, ...]] = [(1,) * k]  # _lengths[n][a] = |s^n(a)|
        self._ladder = [0]  # _ladder[n] = sum_{l<n} |s^l(0)|
        self._shortest = [1]  # _shortest[m] = min_a |s^m(a)|, nondecreasing in m
        self._stream: FixedPointStream | None = None
        self._scan: tuple[int, int, bytes, np.ndarray] | None = None  # see fixed_point_occurrences
        self._pairs: frozenset[str] | None = None
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
        """s^n(a), with s^0 the identity, for a letter a given as its number
        in range(k) or as one character of ``self.letters``; anything else
        raises ValueError.  Cached.

        s^n(a) is s^{n-m}(a) translated through the images s^m(c),
        m = n // 2, which joins whole images.  Its pieces are cached first,
        then the budget is checked before the join."""
        try:
            a = self._numbers[a]
        except (KeyError, TypeError):
            raise ValueError(f"letter {a!r} not in alphabet of size {self.k}") from None
        if n < 0:
            raise ValueError("power must be nonnegative")
        if n == 0:
            return self.letters[a]
        word = self._power_cache.get((n, a))
        if word is not None:
            return word
        if n == 1:
            head, table = self.letters[a], self._table
        else:
            m = n // 2
            head = self.power_image(n - m, a)
            table = {ord(c): self.power_image(m, c) for c in self.letters}
        length = self.power_lengths(n)[a]
        if self._cached_letters + length > self.length_budget:
            raise BudgetExceededError(
                f"power-image cache would exceed {self.length_budget} letters at s^{n}({a})"
            )
        word = head.translate(table)
        self._cached_letters += length
        self._power_cache[(n, a)] = word
        return word

    def apply_power(self, n: int, w: str) -> str:
        """s^n(w) assembled from cached letter images.  Raises ValueError on
        a letter outside the alphabet, as apply does, at n = 0 too."""
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

    def fixed_point_occurrences(self, n: int, window: int) -> np.ndarray:
        """``occurrence_starts(self.fixed_prefix(window), self.power_image(n, seed))``
        for the fixed-point seed, narrowed from the last scan when it can be.

        The instance holds its last scan: the window, the level m, the
        window's letters and the starts of s^m(seed).  s(seed) begins with
        seed, so s^m(seed) is a prefix of s^n(seed) for m <= n: a request
        at the same window with n >= m compares only the letters of
        s^n(seed) past |s^m(seed)|, at the held starts that leave room for
        them.  Any other request scans the window.  Either result replaces
        the held scan.
        """
        seed = self.fixed_point_seed()
        word = self.power_image(n, seed)
        held = self._scan
        if held is not None and held[0] == window and held[1] <= n:
            _, m, data, starts = held
            starts = starts[: np.searchsorted(starts, len(data) - len(word), side="right")]
            starts = _narrowed(data, word.encode("ascii"), starts, self.power_lengths(m)[seed])
        else:
            text = self.fixed_prefix(window)
            starts = occurrence_starts(text, word)
            data = text.encode("ascii")
        self._scan = (window, n, data, starts)
        return starts

    def pair_language(self) -> frozenset[str]:
        """All length-2 factors of the language, by closure under s.

        Starts from the 2-factors of the letter images; this is exact for a
        primitive substitution, because every 2-factor of s^n(c) lies inside
        some s(d) or across s(d)s(e) for a 2-factor de.  Raises ValueError
        unless s is primitive with image lengths that grow.
        """
        if self._pairs is not None:
            return self._pairs
        if not is_primitive(self.incidence()) or all(len(w) == 1 for w in self.images):
            raise ValueError("language construction requires a primitive, expanding substitution")
        pairs: set[str] = set()
        words = self.images
        while new := {w[i : i + 2] for w in words for i in range(len(w) - 1)} - pairs:
            pairs |= new
            words = [self.apply(p) for p in new]
        self._pairs = frozenset(pairs)
        return self._pairs

    def language_text(self, n: int) -> str:
        """The words s^m(a) s^m(b) for the 2-factors ab, m = block_level(n),
        joined by "|".  Every language word of length <= n spans at most
        two m-th blocks of some s^N(c), so it is in the language exactly
        when it occurs in this text, "|" being no letter.  One string per
        block level, looked up by n."""
        text = self._texts.get(n)
        if text is None:
            pairs = sorted(self.pair_language())  # raises on a non-primitive s before block_level runs
            m = self.block_level(n)
            text = self._level_texts.get(m)
            if text is None:
                words = (self.power_image(m, a) + self.power_image(m, b) for a, b in pairs)
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
    is.  The starts where the text's window of w letters equals the word's
    first one, w as in ``_narrowed``, are found in one numpy comparison,
    then narrowed by the rest of the word.
    """
    if not word:
        return np.arange(len(text) + 1)
    data, key = text.encode("ascii"), word.encode("ascii")
    if len(key) > len(data):
        return np.zeros(0, dtype=np.intp)
    width = _window_width(len(key))
    windows = _packed_windows(data, width)[: len(data) - len(key) + 1]
    return _narrowed(data, key, np.flatnonzero(windows == _packed_windows(key, width)[0]), width)


def _window_width(length: int) -> int:
    """The widest of 8, 4, 2 and 1 letters that fits in a word of `length`."""
    return next(w for w in (8, 4, 2, 1) if w <= length)


def _narrowed(data: bytes, key: bytes, starts: np.ndarray, known: int) -> np.ndarray:
    """The sorted starts at which data holds key, among `starts`, at each of
    which data holds key[:known] and has room for all of key.

    The key is read in windows of w letters, w = ``_window_width(len(key))``,
    at offsets known, known + w, ... and |key| - w, which cover the rest of
    it; each comparison keeps the starts where the text's window matches.
    """
    if len(starts) == 0:  # the text may then be shorter than one window
        return starts
    width = _window_width(len(key))
    windows, parts = _packed_windows(data, width), _packed_windows(key, width)
    for offset in range(known, len(key), width):
        offset = min(offset, len(key) - width)
        starts = starts[windows[offset:][starts] == parts[offset]]
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
    is a slice of ``subst.power_image(n, seed)``, n the least level, at or
    above the last one served, with |s^n(seed)| >= length.  The words are
    held, and charged to ``length_budget``, in the substitution's
    power-image cache; the stream holds only the level.
    """

    def __init__(self, subst: Substitution):
        self.subst = subst
        self._seed = subst.fixed_point_seed()
        self._n = 0  # the last level served

    def prefix(self, length: int) -> str:
        if length < 0:
            raise ValueError("length must be nonnegative")
        s, seed, n = self.subst, self._seed, self._n
        while s.power_lengths(n)[seed] < length:
            n += 1
        word = s.power_image(n, seed)
        self._n = n
        return word[:length]
