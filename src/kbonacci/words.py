"""Finite-word primitives and the factor-language engine.

Two membership mechanisms live here:

* :class:`LanguageIndex` stores the full per-length factor sets up to a
  caller-chosen depth N.  Queries past N raise instead of recomputing,
  so the cost profile stays predictable.
* :func:`in_language` is a depth-free exact membership oracle.  It uses
  the block decomposition of the fixed point: once every n-th image of a
  letter is at least as long as |u|, any occurrence of u in the fixed
  point spans at most two image blocks, so u is a factor iff it occurs
  in s^n(ab) for one of the finitely many length-2 factors ab.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OutOfIndexError
from .substitution import Substitution


def in_language(s: Substitution, u: str) -> bool:
    """Exact membership of u in the factor language of s.

    Requires s primitive with an expanding fixed-point seed (always the
    case for k-bonacci).
    """
    n = len(u)
    if n == 0:
        return True
    if any(not c.isdigit() or int(c) >= s.k for c in u):
        return False
    if n == 1:
        return True  # every letter occurs, by primitivity
    m = s.block_level(n)
    blocks = {a: s.power_image(m, a) for a in range(s.k)}
    for pair in s.pair_language():
        if u in blocks[int(pair[0])] + blocks[int(pair[1])]:
            return True
    return False


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

    def left_specials(self, n: int) -> frozenset[str]:
        return self.special_words(n)[0]

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
    """Index every factor of length <= depth of the language of s.

    Iterates s on every letter until the set of depth-length factors of
    the images stabilizes between consecutive iterations (primitivity
    guarantees termination); the shorter sets are then sliced out of the
    stabilized long factors, which is exact because every short factor
    extends to an indexed long one.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not s.is_primitive():
        raise ValueError("language construction requires a primitive substitution")
    if depth == 0:
        return LanguageIndex(s, 0, (frozenset([""]),))

    images = [str(a) for a in range(s.k)]
    top: set[str] = set()
    shorts: set[str] = set()  # whole images shorter than `depth`, accumulated
    while True:
        grew = False
        for w in images:
            if len(w) >= depth:
                for i in range(len(w) - depth + 1):
                    f = w[i : i + depth]
                    if f not in top:
                        top.add(f)
                        grew = True
            elif w not in shorts:
                shorts.add(w)
                grew = True
        if not grew and all(len(w) >= depth for w in images):
            break
        images = [s.apply(w) for w in images]

    # When the fixed point exists, complete the top level from the block
    # decomposition (see in_language); this makes the construction exact
    # rather than merely stabilized.
    try:
        pairs = s.pair_language()
    except ValueError:
        pairs = None
    if pairs is not None:
        m = s.block_level(depth)
        for pair in pairs:
            w = s.power_image(m, int(pair[0])) + s.power_image(m, int(pair[1]))
            top.update(w[i : i + depth] for i in range(len(w) - depth + 1))

    sets: list[frozenset[str]] = [frozenset([""])]
    for n in range(1, depth + 1):
        level = {w[i : i + n] for w in top for i in range(depth - n + 1)}
        level.update(w[i : i + n] for w in shorts for i in range(len(w) - n + 1))
        sets.append(frozenset(level))
    return LanguageIndex(s, depth, tuple(sets))

