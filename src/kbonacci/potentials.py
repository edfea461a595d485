"""Locally constant functions and the potential family (g + h) / delta^alpha."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .substitution import Substitution


@dataclass(frozen=True)
class CylinderFunction:
    """A locally constant function of finite order on the full shift.

    The value at x only depends on the first `order` letters; `table`
    maps those windows to values, with `default` filling any window not
    listed explicitly.
    """

    order: int
    table: Mapping[str, float] = field(default_factory=dict)
    default: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        for key in self.table:
            if len(key) != self.order:
                raise ValueError(f"table key {key!r} does not have length {self.order}")
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    @classmethod
    def constant(cls, value: float) -> "CylinderFunction":
        return cls(order=1, table={}, default=float(value))

    @classmethod
    def indicator(cls, word: str, weight: float = 1.0, base: float = 0.0) -> "CylinderFunction":
        """base + weight * 1_{[word]} as a cylinder function of order len(word)."""
        return cls(order=len(word), table={word: base + weight}, default=base)

    @property
    def is_constant(self) -> bool:
        if not self.table:
            return self.default is not None
        values = set(self.table.values())
        return len(values) == 1 and (self.default is None or self.default in values)

    def __call__(self, w: str) -> float:
        key = w[: self.order]
        if len(key) < self.order:
            raise ValueError(f"window {w!r} shorter than order {self.order}")
        value = self.table.get(key, self.default)
        if value is None:
            raise KeyError(f"no value for window {key!r} and no default")
        return value

    def range_on_prefix(self, prefix: str, k: int) -> tuple[float, float]:
        """(min, max) of the function over all completions of `prefix`."""
        if len(prefix) >= self.order:
            v = self(prefix)
            return v, v
        letters = [str(a) for a in range(k)]
        values = [
            self(prefix + "".join(tail))
            for tail in itertools.product(letters, repeat=self.order - len(prefix))
        ]
        return min(values), max(values)

    def extremes(self, k: int) -> tuple[float, float]:
        """(min, max) over the whole full shift on k letters."""
        return self.range_on_prefix("", k)


@dataclass(frozen=True)
class Potential:
    """V(x) = (g(x) + h(x)) / delta(x)^alpha, zero on the subshift.

    g must be positive everywhere; h must be nonnegative and vanish on
    every language word of its order (hence on the subshift).
    """

    alpha: float
    g: CylinderFunction
    h: CylinderFunction

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def order(self) -> int:
        return max(self.g.order, self.h.order)

    @classmethod
    def v0(cls, alpha: float = 1.0) -> "Potential":
        """The bare potential 1 / delta^alpha."""
        return cls(alpha=alpha, g=CylinderFunction.constant(1.0), h=CylinderFunction.constant(0.0))

    @property
    def is_locally_trivial(self) -> bool:
        """True when g + h does not depend on the window."""
        return self.g.is_constant and self.h.is_constant

    def numerator(self, window: str) -> float:
        return self.g(window) + self.h(window)

    def numerator_range(self, prefix: str, k: int) -> tuple[float, float]:
        g_lo, g_hi = self.g.range_on_prefix(prefix, k)
        h_lo, h_hi = self.h.range_on_prefix(prefix, k)
        return g_lo + h_lo, g_hi + h_hi

    def validate_for(self, s: Substitution) -> None:
        """Check positivity of g and that h vanishes on the language."""
        g_lo, _ = self.g.extremes(s.k)
        if g_lo <= 0:
            raise ValueError("g must be positive on the full shift")
        h_lo, h_hi = self.h.extremes(s.k)
        if h_lo < 0:
            raise ValueError("h must be nonnegative")
        if h_hi > 0:
            index = s.language(self.h.order)
            for w in index.words(self.h.order):
                if self.h(w) != 0.0:
                    raise ValueError(f"h must vanish on language words; h({w!r}) != 0")
