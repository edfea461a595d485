"""Deterministic sampling of certified configurations for experiments."""

from __future__ import annotations

import random

from .recognition import Configuration
from .substitution import Substitution


def random_certified_configuration(s: Substitution, rng: random.Random) -> Configuration:
    """A configuration whose head provably contains its break.

    Picks a language word w of length 2..10 and a letter a with wa
    outside the language, so delta equals |w| by construction; up to
    three arbitrary letters and a random constant tail follow the break.
    """
    index = s.language(11)
    lengths = list(range(2, 11))
    rng.shuffle(lengths)
    for n in lengths:
        words = sorted(index.words(n))
        rng.shuffle(words)
        for w in words[: min(len(words), 8)]:
            blocked = [a for a in s.letters if w + a not in index.words(n + 1)]
            if blocked:
                head = w + rng.choice(blocked)
                head += "".join(rng.choice(s.letters) for _ in range(rng.randrange(4)))
                return Configuration(head, "const", rng.choice(s.letters))
    raise ValueError("could not find a certified configuration (language too permissive?)")


def sample_configurations(s: Substitution, count: int, seed: int) -> list[Configuration]:
    rng = random.Random(seed)
    return [random_certified_configuration(s, rng) for _ in range(count)]
