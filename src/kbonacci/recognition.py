"""Distance-to-subshift combinatorics: the longest language prefix, whose
length is the break delta, the closed forms of the break after
substitution powers and shifts, cut-point sets of the fixed point, and
recognizability scans.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, InconclusiveWindowError, UncertifiedConfigurationError
from .substitution import Substitution, require_kbonacci
from .words import in_language


class Configuration(NamedTuple("Configuration", [("head", str), ("tail_kind", str), ("tail_data", "str | int")])):
    """A point of the full shift: finite head plus an eventually simple tail.

    Tail kinds:
      * ``const``    -- one letter repeated forever (tail_data: the digit),
      * ``periodic`` -- a finite word repeated forever (tail_data: the word),
      * ``orbit``    -- the point sigma^offset(fixed point), with no head;
                        the configuration lies in the subshift.

    For non-orbit configurations the head must contain the break: the
    longest language prefix ends strictly inside the head, so delta is
    read off without any hidden search.
    """

    __slots__ = ()

    def __new__(cls, head: str, tail_kind: str, tail_data: str | int):
        if tail_kind not in ("const", "periodic", "orbit"):
            raise ValueError(f"unknown tail kind {tail_kind!r}")
        if tail_kind == "orbit":
            if head:
                raise ValueError(f"an orbit tail takes no head, got head {head!r}")
            if int(tail_data) < 0:
                raise ValueError(f"orbit offset must be nonnegative, got {tail_data}")
        elif tail_kind == "const" and len(str(tail_data)) != 1:
            raise ValueError(f"const tail needs exactly one letter, got {tail_data!r}")
        elif not str(tail_data):
            raise ValueError("periodic tail needs a nonempty period word")
        return super().__new__(cls, head, tail_kind, tail_data)

    @property
    def in_subshift(self) -> bool:
        return self.tail_kind == "orbit"

    def prefix(self, s: Substitution, length: int) -> str:
        """First `length` letters of the configuration."""
        if length < 0:
            raise ValueError(f"prefix length must be nonnegative, got {length}")
        if self.tail_kind == "orbit":
            off = int(self.tail_data)
            return s.fixed_prefix(off + length)[off:]
        if len(self.head) >= length:
            return self.head[:length]
        tail = str(self.tail_data)
        reps = -(-(length - len(self.head)) // len(tail))
        return (self.head + tail * reps)[:length]

    def to_text(self) -> str:
        if self.tail_kind == "orbit":
            return f"head= tail=orbit:{self.tail_data}"
        return f"head={self.head} tail={self.tail_kind}:{self.tail_data}"

    @classmethod
    def from_text(cls, text: str) -> "Configuration":
        """The configuration of a line `head=<word> tail=<kind>:<data>`, each
        key at most once; an orbit tail takes no head."""
        line = text.strip()
        fields = {}
        for item in text.split():
            key, eq, value = item.partition("=")
            if not eq or key not in ("head", "tail"):
                raise ValueError(f"configuration {line!r}: {item!r} is not head=... or tail=...")
            if key in fields:
                raise ValueError(f"configuration {line!r} repeats {key}=")
            fields[key] = value
        if "tail" not in fields:
            raise ValueError(f"configuration {line!r} has no tail=")
        kind, _, data = fields["tail"].partition(":")
        if kind == "orbit":
            try:
                data = int(data)
            except ValueError:
                raise ValueError(f"configuration {line!r}: orbit offset {data!r} is not an integer") from None
        try:
            return cls(fields.get("head", ""), kind, data)
        except ValueError as exc:
            raise ValueError(f"configuration {line!r}: {exc}") from None


def power_prefix(s: Substitution, x: Configuration, n: int, length: int) -> str:
    """Prefix of s^n(x) of at least `length` letters: s.apply_power over the
    fewest leading letters of x, at least one, whose images reach `length`.
    No image is shorter than min(s.power_lengths(n)): that bounds the read."""
    if length > s.length_budget:
        raise BudgetExceededError(f"materializing {length} letters exceeds budget")
    lengths = s.power_lengths(n)
    letters = x.prefix(s, max(1, -(-length // min(lengths))))
    ends = itertools.accumulate(lengths[int(c)] for c in letters)
    return s.apply_power(n, letters[: next(i for i, end in enumerate(ends, 1) if end >= length)])


def brute_delta(s: Substitution, word: str) -> int:
    """Largest q with word[:q] in the language.

    Bisection over the membership oracle (membership is prefix-monotone);
    the oracle against the closed forms.  Raises if the break is not
    witnessed inside the word.
    """
    lo, hi = 0, len(word)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if in_language(s, word[:mid]):
            lo = mid
        else:
            hi = mid - 1
    if lo == len(word):
        raise UncertifiedConfigurationError(
            f"all {len(word)} letters lie in the language; break position uncertified"
        )
    return lo


def maximal_prefix(s: Substitution, x: Configuration) -> str:
    """The longest language prefix w of x, so delta(x) = |w|.

    Raises ValueError on the subshift, where every prefix is in the
    language, and on a letter of the head or the tail outside s.letters,
    and UncertifiedConfigurationError if the head does not contain its
    break.  Every command meets its configurations here first.
    """
    if x.in_subshift:
        raise ValueError("operation requires a configuration outside the subshift")
    if not set(x.head + str(x.tail_data)) <= set(s.letters):
        raise ValueError(f"configuration {x.to_text()!r} uses letters outside the alphabet of size {s.k}")
    return x.head[: brute_delta(s, x.head)]


def delta_after_power(s: Substitution, w: str, n: int) -> int:
    """delta(s^n(x)) by the closed form |s^n(w)| + |s^{n-1}(0) ... s(0) 0|,
    given the longest language prefix w = maximal_prefix(s, x) of x: image
    lengths weighted by the letter counts of w, plus the ladder length.

    The shifts of s^n(x) break one letter earlier per letter shifted:
    delta(sigma^j s^n(x)) = delta_after_power(s, w, n) - j for n >= k and
    0 <= j < |s^n(w[0])|.
    """
    require_kbonacci(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _delta_from_counts(s, _letter_counts(s, w), n)


def _letter_counts(s: Substitution, w: str) -> tuple[int, ...]:
    """The number of each letter of s in w."""
    return tuple(map(w.count, s.letters))


def _delta_from_counts(s: Substitution, counts: tuple[int, ...], n: int) -> int:
    """delta_after_power(s, w, n) for a k-bonacci s and n >= 1, given
    counts = _letter_counts(s, w): callers that tabulate many levels for
    one w count its letters and check s once."""
    return sum(map(operator.mul, s.power_lengths(n), counts)) + s.ladder_length(n - 1)


class CutPointSet:
    """Sorted cut points of the n-th image blocks of the fixed point in [0, W),
    held as an int64 array."""

    def __init__(self, n: int, window: int, starts):
        self.n = n
        self.window = window
        self.starts: np.ndarray = np.asarray(starts, dtype=np.int64)


def cut_points(s: Substitution, n: int, window: int) -> CutPointSet:
    """Positions where n-th power image blocks of the fixed point start:
    0 and the partial sums of |s^n(omega_i)| below the window."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # Clipping each length to the window leaves the sums below it unchanged
    # and keeps lengths past 2^63 out of int64.  The i-th sum is at least
    # i times the shortest length, so the sums below the window come from
    # the first (window - 1) // shortest letters of omega.
    clipped = [min(length, window) for length in s.power_lengths(n)]
    letters = max(window - 1, 0) // max(min(clipped), 1)
    if 8 * letters > s.length_budget:
        raise BudgetExceededError(f"{letters} int64 cut-point sums, at 8 letters each, exceed budget")
    omega = np.frombuffer(s.fixed_prefix(letters).encode("ascii"), dtype=np.uint8) - ord("0")
    ends = np.cumsum(np.array(clipped, dtype=np.int64)[omega])
    return CutPointSet(n, window, np.concatenate(([0], ends[: np.searchsorted(ends, window)])))


def verify_recognizability(s: Substitution, cuts: CutPointSet) -> bool:
    """Occurrences of s^n(0) in the fixed-point window are exactly the cut
    points of the n-th blocks, for the level n and window W of
    ``cuts = cut_points(s, n, W)`` (recognizability, valid for n >= k)."""
    require_kbonacci(s)
    n, window = cuts.n, cuts.window
    if n < s.k:
        raise ValueError(f"recognizability scan requires n >= k = {s.k}")
    block_length = s.power_lengths(n)[0]
    usable = cuts.starts[: np.searchsorted(cuts.starts, window - block_length, side="right")]
    if len(usable) < 2:
        raise InconclusiveWindowError(
            f"window {window} holds fewer than two full n={n} blocks"
        )
    return np.array_equal(s.fixed_point_occurrences(n, window), usable)


class AppendixReport(NamedTuple):
    """Tribonacci sanity report: unique de-substitution and the 00-words."""

    words_checked: int
    all_unique: bool
    non_unique: tuple[str, ...]
    has_001: bool
    lacks_000: bool
    lacks_002: bool

    @property
    def ok(self) -> bool:
        return self.all_unique and self.has_001 and self.lacks_000 and self.lacks_002


def count_preimages(s: Substitution, w: str) -> int:
    """Number of words v with s(v) = w, counted by segmentation (capped at 4)."""
    images = list(enumerate(s.images))
    counts = [0] * (len(w) + 1)
    counts[len(w)] = 1
    for i in range(len(w) - 1, -1, -1):
        total = 0
        for _, img in images:
            if w.startswith(img, i):
                total += counts[i + len(img)]
        counts[i] = min(total, 4)
    return counts[0]


def tribonacci_appendix_checks(max_length: int) -> AppendixReport:
    """Exhaustive Tribonacci checks: unique preimages for words starting
    with 0 and ending with 1 or 2, and the three-letter 00-words."""
    from .substitution import kbonacci

    s = kbonacci(3)
    index = s.language(max_length)
    checked = 0
    non_unique = []
    for n in range(1, max_length + 1):
        for w in index.words(n):
            if w[0] == "0" and w[-1] in "12":
                checked += 1
                if count_preimages(s, w) != 1:
                    non_unique.append(w)
    three = index.words(3)
    return AppendixReport(
        words_checked=checked,
        all_unique=not non_unique,
        non_unique=tuple(sorted(non_unique)),
        has_001="001" in three,
        lacks_000="000" not in three,
        lacks_002="002" not in three,
    )
