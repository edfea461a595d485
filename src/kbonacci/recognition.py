"""Distance-to-subshift combinatorics: the break function delta, its
closed forms after substitution powers and shifts, cut-point sets of the
fixed point, and recognizability scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, InconclusiveWindowError, UncertifiedConfigurationError
from .substitution import Substitution, occurrence_starts, require_kbonacci
from .words import in_language

INFINITE = math.inf


@dataclass(frozen=True)
class Configuration:
    """A point of the full shift: finite head plus an eventually simple tail.

    Tail kinds:
      * ``const``    -- one letter repeated forever (tail_data: the digit),
      * ``periodic`` -- a finite word repeated forever (tail_data: the word),
      * ``orbit``    -- the point sigma^offset(fixed point); head is ignored
                        and the configuration lies in the subshift.

    For non-orbit configurations the head must contain the break: the
    longest language prefix ends strictly inside the head, so delta is
    read off without any hidden search.
    """

    head: str
    tail_kind: str = "const"
    tail_data: str | int = "0"

    def __post_init__(self):
        if self.tail_kind not in ("const", "periodic", "orbit"):
            raise ValueError(f"unknown tail kind {self.tail_kind!r}")
        if self.tail_kind == "orbit":
            if int(self.tail_data) < 0:
                raise ValueError(f"orbit offset must be nonnegative, got {self.tail_data}")
        elif self.tail_kind == "const" and len(str(self.tail_data)) != 1:
            raise ValueError(f"const tail needs exactly one letter, got {self.tail_data!r}")
        elif not str(self.tail_data):
            raise ValueError("periodic tail needs a nonempty period word")

    @property
    def in_subshift(self) -> bool:
        return self.tail_kind == "orbit"

    def prefix(self, s: Substitution, length: int) -> str:
        """First `length` letters of the configuration."""
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
        fields = dict(item.split("=", 1) for item in text.split())
        head = fields.get("head", "")
        if "tail" not in fields:
            raise ValueError(f"configuration {text.strip()!r} has no tail=")
        kind, _, data = fields["tail"].partition(":")
        if kind == "orbit":
            return cls("", "orbit", int(data))
        return cls(head, kind, data)


def power_prefix(s: Substitution, x: Configuration, n: int, length: int) -> str:
    """Prefix of s^n(x) of at least `length` letters."""
    if length > s.length_budget:
        raise BudgetExceededError(f"materializing {length} letters exceeds budget")
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


def delta(s: Substitution, x: Configuration) -> int | float:
    """Length of the longest prefix of x in the language; inf on the subshift.

    The break must be certified by the head: if every head prefix is in
    the language the configuration is rejected rather than extended.
    """
    if x.in_subshift:
        return INFINITE
    return brute_delta(s, x.head)


def brute_delta(s: Substitution, word: str, start: int = 0) -> int:
    """Largest q with word[start:start+q] in the language.

    Bisection over the membership oracle (membership is prefix-monotone);
    the oracle against the closed forms.  Raises if the break is not
    witnessed inside the word.
    """
    tail = word[start:]
    lo, hi = 0, len(tail)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if in_language(s, tail[:mid]):
            lo = mid
        else:
            hi = mid - 1
    if lo == len(tail):
        raise UncertifiedConfigurationError(
            f"all {len(tail)} letters lie in the language; break position uncertified"
        )
    return lo


def advance_break(s: Substitution, word: str, start: int, end: int) -> int:
    """start + brute_delta(s, word, start), given that word[start:end] is in
    the language.

    Advances end one letter per passing query and stops at the first
    failing one (membership is prefix-monotone).  Since the language is
    factorial, the previous start's break end, or start itself if larger,
    is a valid `end`: a sweep over every start makes one failing query per
    start plus one per letter the end advances.  Raises if the break is
    not witnessed inside the word.
    """
    while end < len(word) and in_language(s, word[start : end + 1]):
        end += 1
    if end == len(word):
        raise UncertifiedConfigurationError(
            f"all {end - start} letters lie in the language; break position uncertified"
        )
    return end


def maximal_prefix(s: Substitution, x: Configuration) -> str:
    """The longest language prefix w of x, so delta(x) = |w|.

    Raises ValueError on the subshift, where every prefix is in the
    language, and UncertifiedConfigurationError if the head does not
    contain its break.
    """
    if x.in_subshift:
        raise ValueError("operation requires a configuration outside the subshift")
    return x.head[: brute_delta(s, x.head)]


def maximal_prefix_after_power(s: Substitution, w: str, n: int) -> str:
    """Longest language prefix of s^n(x), given the longest language prefix
    w = maximal_prefix(s, x) of x: s^n(w) s^{n-1}(0) ... s(0) 0."""
    require_kbonacci(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = [s.apply_power(n, w)]
    parts.extend(s.power_image(l, 0) for l in range(n - 1, -1, -1))
    return "".join(parts)


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
    lengths = s.power_lengths(n)
    return sum(lengths[a] * w.count(str(a)) for a in range(s.k)) + s.ladder_length(n - 1)


@dataclass(frozen=True, eq=False)
class CutPointSet:
    """Sorted cut points of the n-th image blocks of the fixed point in [0, W),
    held as an int64 array."""

    n: int
    window: int
    starts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "starts", np.asarray(self.starts, dtype=np.int64))

    @cached_property
    def points(self) -> tuple[int, ...]:
        """The cut points as Python ints."""
        return tuple(self.starts.tolist())


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
    block = s.power_image(n, 0)
    usable = cuts.starts[: np.searchsorted(cuts.starts, window - len(block), side="right")]
    if len(usable) < 2:
        raise InconclusiveWindowError(
            f"window {window} holds fewer than two full n={n} blocks"
        )
    return np.array_equal(occurrence_starts(s.fixed_prefix(window), block), usable)


@dataclass(frozen=True)
class AppendixReport:
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


def tribonacci_appendix_checks(max_length: int = 30) -> AppendixReport:
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
