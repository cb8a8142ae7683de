"""Exact arithmetic in the metacyclic minimal non-abelian p-group.

The platform is the semidirect product of two cyclic p-groups,

    G = < a, b | a^(p^m) = e, b^(p^n) = e, b a b^-1 = a^twist >,

with twist = 1 + p^(m-1), p an odd prime, m >= 2, n >= 1, and p^m, p^n
below 10^4300.  Every element has the unique normal form a^i b^j with
0 <= i < p^m, 0 <= j < p^n, so equality is componentwise.  The shared
`core.PGroup` gives the checked constructor `element(i, j)` and
`core.PElement` the text form, equality and hash; this module writes
the multiplication law and the element index.
`MetaElement.conjugate_by(x)` computes x w x^-1 in closed form: for
x = a^u b^v and w = a^i b^j it is a^(u + i*twist^v - u*twist^j) b^j,
one element built with no product or inverse.  Conjugating a^i by b^v
thus multiplies i by twist^v, which is what makes the platform
efficient: since m >= 2, every twist power is the closed form
twist^s = 1 + (s mod p)*p^(m-1) (mod p^m), so no operation takes a
modular power or keeps a table of them.  The twist has order exactly p:
(1 + p^(m-1))^p = 1 (mod p^m) by the same binomial expansion, and
1 + p^(m-1) is not 1 mod p^m.
"""

from __future__ import annotations

from functools import cache

from .core import PElement, PGroup, canonical_parser, mutable_twin


class MetaElement(PElement):
    """Normal form a^i b^j; immutable value object."""

    __slots__ = ("group", "i", "j")

    def __mul__(self, other: "MetaElement") -> "MetaElement":
        # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2*twist^j1) b^(j1 + j2)
        G = self.group
        if other.__class__ is not MetaElement or other.group is not G:
            self._check(other)
        # The claim suites' hot path builds in place; `_make` builds the rest.
        t = 1 + self.j % G.p * G.step
        g = _MutableMetaElement()
        g.group = G
        g.i = (self.i + other.i * t) % G.pm
        g.j = (self.j + other.j) % G.pn
        g.__class__ = MetaElement
        return g

    def inverse(self) -> "MetaElement":
        G = self.group
        t = 1 + -self.j % G.p * G.step
        return _make(G, -self.i * t % G.pm, -self.j % G.pn)

    def conjugate_by(self, x: "MetaElement") -> "MetaElement":
        """x * self * x^-1 in closed form, with no product or inverse.

        For x = a^u b^v and self = a^i b^j that is
        a^(u + i*twist^v - u*twist^j) b^j, and with the closed form
        twist^s = 1 + (s mod p)*p^(m-1) the a-exponent is
        i + (i*v - u*j)*p^(m-1): one `_make` and no twist power.  This
        is the convention b a b^-1 = a^twist of the presentation; the
        tree and heisenberg platforms compute x^-1 * self * x instead.
        """
        G = self.group
        if x.__class__ is not MetaElement or x.group is not G:
            self._check(x)
        p = G.p
        i = self.i + (self.i * (x.j % p) - x.i * (self.j % p)) * G.step
        return _make(G, i % G.pm, self.j)


_MutableMetaElement = mutable_twin(MetaElement)


def _make(group: MetacyclicGroup, i: int, j: int) -> MetaElement:
    """Private constructor: i and j must already be reduced."""
    g = _MutableMetaElement()
    g.group = group
    g.i = i
    g.j = j
    g.__class__ = MetaElement
    return g


class MetacyclicGroup(PGroup):
    """Parameters p, m, n, the twist 1 + p^(m-1) and its step p^(m-1)."""

    kind = "metacyclic"
    prefix = "mc"
    min_m = 2
    element_class = MetaElement
    _make = staticmethod(_make)

    def __init__(self, p: int, m: int, n: int):
        super().__init__(p, m, n)
        self.step = p ** (m - 1)
        self.twist = 1 + self.step

    def index(self, g: MetaElement) -> int:
        """g's position in `elements()`: i*p^n + j."""
        if g.group is not self:
            self._own(g)
        return g.i * self.pn + g.j

    def _shift(self, w: MetaElement, w_x: MetaElement) -> int | None:
        """Steps of p^(m-1) from w.i to w_x.i.  Since m >= 2,
        (p^(m-1))^2 = p^(2m-2) is 0 mod p^m, so the binomial expansion of
        twist^s = (1 + p^(m-1))^s stops after its linear term:
        twist^s = 1 + s*p^(m-1) (mod p^m), and conjugation by b^s moves
        i by i*s*p^(m-1) and keeps j."""
        shift, rest = divmod(w_x.i - w.i, self.step)
        return None if rest or w_x.j != w.j else shift


# Interned group instances, so parsed elements share one group and pass
# the operand checks by identity.
metacyclic_group = cache(MetacyclicGroup)


parse_canonical = canonical_parser(MetacyclicGroup, metacyclic_group)
