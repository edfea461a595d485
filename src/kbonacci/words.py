"""The factor language of a primitive substitution.

Everything here rests on :meth:`Substitution.two_blocks`: the language
words of length <= n are exactly the factors of the finitely many words
s^m(a) s^m(b), ab a 2-factor, at the level m where every m-th image is
at least n long.  :func:`in_language` searches those words, and
:class:`LanguageIndex` stores their per-length factor sets up to a
caller-chosen depth N; queries past N raise instead of recomputing, so
the cost profile stays predictable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OutOfIndexError
from .substitution import Substitution


def in_language(s: Substitution, u: str) -> bool:
    """Exact membership of u in the factor language of a primitive s."""
    return not u or any(u in w for w in s.two_blocks(len(u)))


@dataclass(frozen=True)
class LanguageIndex:
    """Immutable per-length factor sets of a substitution language, up to depth N."""

    subst: Substitution
    depth: int
    _sets: tuple[frozenset[str], ...] = field(repr=False)

    def words(self, n: int) -> frozenset[str]:
        if n < 0 or n > self.depth:
            raise OutOfIndexError(f"length {n} outside indexed depth {self.depth}")
        return self._sets[n]

    def __contains__(self, u: str) -> bool:
        if len(u) > self.depth:
            raise OutOfIndexError(f"word of length {len(u)} outside indexed depth {self.depth}")
        return u in self._sets[len(u)]

    def complexity(self, n: int) -> int:
        """Number of indexed factors of length n."""
        return len(self.words(n))

    def special_words(self, n: int) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """(left-specials, right-specials, bispecials) among length-n factors."""
        if n + 1 > self.depth:
            raise OutOfIndexError(f"classifying length {n} needs depth {n + 1}, have {self.depth}")
        longer = self._sets[n + 1]
        letters = [str(a) for a in range(self.subst.k)]
        left, right = set(), set()
        for w in self._sets[n]:
            if sum(1 for a in letters if a + w in longer) >= 2:
                left.add(w)
            if sum(1 for a in letters if w + a in longer) >= 2:
                right.add(w)
        return frozenset(left), frozenset(right), frozenset(left & right)


def build_language(s: Substitution, depth: int) -> LanguageIndex:
    """Index every factor of length <= depth of the language of s: the
    length-n factors of ``s.two_blocks(depth)`` for n = 0..depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    blocks = s.two_blocks(depth)
    sets = tuple(
        frozenset(w[i : i + n] for w in blocks for i in range(len(w) - n + 1))
        for n in range(depth + 1)
    )
    return LanguageIndex(s, depth, sets)
