"""The factor language of a primitive substitution.

Everything here rests on :meth:`Substitution.language_text`: the
language words of length <= n are exactly the factors of the finitely
many words s^m(a) s^m(b), ab a 2-factor, at the level m where every m-th
image is at least n long, joined into one text per level by a separator
that is no letter.  :func:`in_language` searches that text.
:class:`LanguageIndex` keeps one layer up to a caller-chosen depth N: the
sorted length-N factors T and the common-prefix length lcp[i] of each
neighbour pair T[i], T[i+1].  Every shorter length is read off those two;
no other layer is built unless a caller asks for its words.  Queries past
N raise instead of recomputing, so the cost profile stays predictable.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, OutOfIndexError
from .substitution import Substitution


def in_language(s: Substitution, u: str) -> bool:
    """Exact membership of u in the factor language of a primitive s: one
    substring search of the two-block words at the level of len(u)."""
    return not u or u in s.language_text(len(u))


class _SortedLayer:
    """Sorted distinct words of one length, held as ``heads``: the first
    word, then words[i + 1] for every neighbour pair (words[i], words[i + 1])
    in increasing order of its common-prefix length lcp[i].  ``below[n]``
    counts the pairs with lcp[i] < n, so heads[:1 + below[n]] are the words
    whose length-n prefix differs from that of the word before them."""

    def __init__(self, words: list[str], depth: int):
        lcp = np.zeros(0, dtype=np.intp)
        if len(words) > 1:
            rows = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8).reshape(len(words), depth)
            # distinct neighbours differ somewhere, so each row has a first True
            lcp = (rows[1:] != rows[:-1]).argmax(axis=1)
        order = np.argsort(lcp, kind="stable")
        self.heads: list[str] = [words[0]] + [words[i + 1] for i in order.tolist()]
        self.below: list[int] = np.searchsorted(lcp[order], np.arange(depth + 1)).tolist()

    def branching(self, n: int) -> list[str]:
        """The common prefixes of length exactly n of neighbour pairs."""
        return [w[:n] for w in self.heads[1 + self.below[n] : 1 + self.below[n + 1]]]


class LanguageIndex:
    """The factor language of a substitution up to depth N, read off its
    sorted length-N factors.

    Every language word of length n <= N is a prefix of a length-N word
    (the language of a primitive substitution is right-extendable), and
    the length-n prefixes of sorted(T) change exactly between neighbours
    whose common prefix is shorter than n.  The language is left-extendable
    too, so every word is also a suffix of a length-N word, and the sorted
    reversals of T describe the left extensions the same way.
    """

    def __init__(self, depth: int, top: _SortedLayer, budget: int):
        self.depth = depth
        self._top = top
        self._layers: dict[int, frozenset[str]] = {}
        self._budget = budget
        self._held = 0  # letters of the layers built so far

    def _check(self, n: int) -> None:
        if n < 0 or n > self.depth:
            raise OutOfIndexError(f"length {n} outside indexed depth {self.depth}")

    def words(self, n: int) -> frozenset[str]:
        """The length-n factors, built on first request and kept.

        Building a layer charges its n * complexity(n) letters; raises
        BudgetExceededError when the layers built would then hold more
        than the substitution's ``length_budget`` letters.
        """
        layer = self._layers.get(n)
        if layer is None:
            count = self.complexity(n)
            held = self._held + n * count
            if held > self._budget:
                raise BudgetExceededError(f"language layers would hold {held} letters, over {self._budget}")
            self._held = held
            layer = self._layers[n] = frozenset([w[:n] for w in self._top.heads[:count]])
        return layer

    def complexity(self, n: int) -> int:
        """Number of indexed factors of length n."""
        self._check(n)
        return 1 + self._top.below[n]

    def special_words(self, n: int) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """(left-specials, right-specials, bispecials) among length-n factors.

        w is right special exactly when two neighbours in sorted(T) have
        longest common prefix w, and left special when two neighbours in
        the sorted reversals of T have longest common prefix w reversed.
        """
        if n < 0 or n + 1 > self.depth:
            raise OutOfIndexError(f"classifying length {n} needs depth {n + 1}, have {self.depth}")
        left = frozenset(w[::-1] for w in self._reversed.branching(n))
        right = frozenset(self._top.branching(n))
        return left, right, left & right

    @cached_property
    def _reversed(self) -> _SortedLayer:
        return _SortedLayer(sorted(u[::-1] for u in self._top.heads), self.depth)


def build_language(s: Substitution, depth: int) -> LanguageIndex:
    """Index every factor of length <= depth of the language of s.

    The length-depth factors are sliced out of the two-block words of
    ``s.language_text(depth)`` and sorted; see :class:`LanguageIndex` for
    how the shorter lengths are read.  Raises BudgetExceededError when
    the slices would exceed ``s.length_budget`` letters; each layer the
    index builds later is charged when it is built (see
    :meth:`LanguageIndex.words`).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    blocks = s.language_text(depth).split("|")
    # one length-depth word at most per slice position
    letters = depth * sum(len(w) - depth + 1 for w in blocks)
    if letters > s.length_budget:
        raise BudgetExceededError(f"language index of depth {depth} would slice {letters} letters, over {s.length_budget}")
    top = _SortedLayer(sorted({w[i : i + depth] for w in blocks for i in range(len(w) - depth + 1)}), depth)
    return LanguageIndex(depth, top, s.length_budget)
