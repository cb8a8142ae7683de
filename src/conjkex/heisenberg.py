"""Exact arithmetic in the non-metacyclic minimal non-abelian p-group.

The platform is

    G = < a, b, c | a^(p^m) = b^(p^n) = c^p = e,
                    b^-1 a b = a c,  c central >,

with p an odd prime, m, n >= 1 and p^m, p^n below 10^4300; |G| =
p^(m+n+1).  Normal form is a^i b^j c^k, and the commutator of any two
elements lands in the central <c>, so conjugation only ever shifts the
c-exponent.  The shared `core.PGroup` gives the checked constructor
`element(i, j, k)` and `core.PElement` the text form, equality and
hash; this module writes the multiplication law and the element index.
"""

from __future__ import annotations

from functools import cache

from .core import PElement, PGroup, canonical_parser, mutable_twin


class HeisenbergElement(PElement):
    """Normal form a^i b^j c^k; immutable value object."""

    __slots__ = ("group", "i", "j", "k")

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        # b^j a^i = a^i b^j c^(-i*j), so the c-exponent picks up -j1*i2.
        G = self.group
        if other.__class__ is not HeisenbergElement or other.group is not G:
            self._check(other)
        return _make(
            G,
            (self.i + other.i) % G.pm,
            (self.j + other.j) % G.pn,
            (self.k + other.k - self.j * other.i) % G.p,
        )

    def inverse(self) -> "HeisenbergElement":
        G = self.group
        return _make(
            G, -self.i % G.pm, -self.j % G.pn, (-self.k - self.i * self.j) % G.p
        )

    def conjugate_by(self, x: "HeisenbergElement") -> "HeisenbergElement":
        """x^-1 * self * x; only the c-exponent moves, by i*v - j*u."""
        G = self.group
        if x.__class__ is not HeisenbergElement or x.group is not G:
            self._check(x)
        return _make(G, self.i, self.j, (self.k + self.i * x.j - self.j * x.i) % G.p)


_MutableHeisenbergElement = mutable_twin(HeisenbergElement)


def _make(group: HeisenbergGroup, i: int, j: int, k: int = 0) -> HeisenbergElement:
    """Private constructor: i, j and k must already be reduced."""
    g = _MutableHeisenbergElement()
    g.group = group
    g.i = i
    g.j = j
    g.k = k
    g.__class__ = HeisenbergElement
    return g


class HeisenbergGroup(PGroup):
    """Parameters p, m, n for the a/b/c presentation above."""

    kind = "heisenberg"
    prefix = "mm"
    min_m = 1
    element_class = HeisenbergElement
    _make = staticmethod(_make)

    def index(self, g: HeisenbergElement) -> int:
        """g's position in `elements()`: (i*p^n + j)*p + k."""
        if g.group is not self:
            self._own(g)
        return (g.i * self.pn + g.j) * self.p + g.k

    def _shift(self, w: HeisenbergElement, w_x: HeisenbergElement) -> int | None:
        # Conjugation by b^s moves the c-exponent by i*s and keeps i and j.
        return w_x.k - w.k if (w_x.i, w_x.j) == (w.i, w.j) else None


heisenberg_group = cache(HeisenbergGroup)


parse_canonical = canonical_parser(HeisenbergGroup, heisenberg_group)
