"""The factor language of a primitive substitution.

Everything here rests on :meth:`Substitution.two_blocks`: the language
words of length <= n are exactly the factors of the finitely many words
s^m(a) s^m(b), ab a 2-factor, at the level m where every m-th image is
at least n long.  :func:`in_language` searches those words, and
:class:`LanguageIndex` stores their per-length factor sets up to a
caller-chosen depth N, built top-down from the length-N layer; queries
past N raise instead of recomputing, so the cost profile stays
predictable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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
        if n + 1 > self.depth:
            raise OutOfIndexError(f"classifying length {n} needs depth {n + 1}, have {self.depth}")
        # A length-n word has as many left (right) extensions as there are
        # length-(n+1) words u with u[1:] (u[:-1]) equal to it.
        longer = self.words(n + 1)
        left = frozenset(w for w, c in Counter(u[1:] for u in longer).items() if c >= 2)
        right = frozenset(w for w, c in Counter(u[:-1] for u in longer).items() if c >= 2)
        return left, right, left & right


def build_language(s: Substitution, depth: int) -> LanguageIndex:
    """Index every factor of length <= depth of the language of s.

    The length-depth factors are sliced out of ``s.two_blocks(depth)``;
    each shorter layer is the set of prefixes u[:-1] of the layer above.
    That is exact because the language of a primitive substitution is
    right-extendable: every word is a prefix of a word one letter longer.
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
