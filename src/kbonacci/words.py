"""The factor language of a primitive substitution.

Everything here rests on :meth:`Substitution.two_blocks`: the language
words of length <= n are exactly the factors of the finitely many words
s^m(a) s^m(b), ab a 2-factor, at the level m where every m-th image is
at least n long.  :func:`in_language` searches those words, and
:class:`LanguageIndex` stores their per-length factor sets up to a
caller-chosen depth N, built top-down from the length-N layer; queries
past N raise instead of recomputing, so the cost profile stays
predictable.  The special words of every length < N are read off the
same layer in one pass: off its sorted order (right specials) and the
sorted order of its reversals (left specials).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceededError, OutOfIndexError
from .substitution import Substitution


def in_language(s: Substitution, u: str) -> bool:
    """Exact membership of u in the factor language of a primitive s."""
    return not u or any(u in w for w in s.two_blocks(len(u)))


@dataclass(frozen=True)
class LanguageIndex:
    """Immutable per-length factor sets of a substitution language, up to depth N."""

    depth: int
    _sets: tuple[frozenset[str], ...] = field(repr=False)

    def words(self, n: int) -> frozenset[str]:
        if n < 0 or n > self.depth:
            raise OutOfIndexError(f"length {n} outside indexed depth {self.depth}")
        return self._sets[n]

    def complexity(self, n: int) -> int:
        """Number of indexed factors of length n."""
        return len(self.words(n))

    def special_words(self, n: int) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """(left-specials, right-specials, bispecials) among length-n factors."""
        if n < 0 or n + 1 > self.depth:
            raise OutOfIndexError(f"classifying length {n} needs depth {n + 1}, have {self.depth}")
        return self._specials[n]

    @cached_property
    def _specials(self) -> tuple[tuple[frozenset[str], frozenset[str], frozenset[str]], ...]:
        """The special words of every length < depth, read off the top layer T.

        Every word of length n < depth is both a prefix and a suffix of a
        word of T (the language is right- and left-extendable).  So w is
        right special exactly when two neighbours in sorted(T) have longest
        common prefix w, and left special when two neighbours in the sorted
        reversals of T have longest common prefix w reversed.
        """
        top = self.words(self.depth)
        right = _branching_prefixes(sorted(top), self.depth)
        reversed_left = _branching_prefixes(sorted(u[::-1] for u in top), self.depth)
        left = [frozenset(w[::-1] for w in words) for words in reversed_left]
        return tuple((lw, rw, lw & rw) for lw, rw in zip(left, right))


def _branching_prefixes(ordered: list[str], depth: int) -> list[frozenset[str]]:
    """Per length n < depth, the longest common prefixes of length n of
    neighbours in ordered, a sorted list of distinct depth-long words."""
    found: list[set[str]] = [set() for _ in range(depth)]
    for a, b in zip(ordered, ordered[1:]):
        # bisection for the longest common prefix; a != b, so it is < depth
        lo, hi = 0, depth - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if a[:mid] == b[:mid]:
                lo = mid
            else:
                hi = mid - 1
        found[lo].add(a[:lo])
    return [frozenset(f) for f in found]


def build_language(s: Substitution, depth: int) -> LanguageIndex:
    """Index every factor of length <= depth of the language of s.

    The length-depth factors are sliced out of ``s.two_blocks(depth)``;
    each shorter layer is the set of prefixes u[:-1] of the layer above.
    That is exact because the language of a primitive substitution is
    right-extendable: every word is a prefix of a word one letter longer.
    It is left-extendable too (every word occurs at some position > 0 of
    a long enough s^m(a)), so every word is also a suffix of a length-depth
    word; :meth:`LanguageIndex.special_words` relies on both.
    Raises BudgetExceededError before the index holds more than
    ``s.length_budget`` letters.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    blocks = s.two_blocks(depth)
    # one length-depth word at most per slice position
    letters = depth * sum(len(w) - depth + 1 for w in blocks)
    _charge(s, letters, depth)
    layer = frozenset(w[i : i + depth] for w in blocks for i in range(len(w) - depth + 1))
    letters = depth * len(layer)
    sets = [layer]
    for m in range(depth - 1, -1, -1):
        layer = frozenset(u[:-1] for u in layer)
        letters += m * len(layer)
        _charge(s, letters, depth)
        sets.append(layer)
    return LanguageIndex(depth, tuple(reversed(sets)))


def _charge(s: Substitution, letters: int, depth: int) -> None:
    if letters > s.length_budget:
        raise BudgetExceededError(
            f"language index of depth {depth} would hold over {s.length_budget} letters"
        )
