"""Exact arithmetic in the metacyclic minimal non-abelian p-group.

The platform is the semidirect product of two cyclic p-groups,

    G = < a, b | a^(p^m) = e, b^(p^n) = e, b a b^-1 = a^twist >,

with twist = 1 + p^(m-1), p an odd prime, m >= 2, n >= 1, and p^m, p^n
below 10^4300.  Every element has the unique normal form a^i b^j with
0 <= i < p^m, 0 <= j < p^n, so equality is componentwise.  The shared
`core.PElement` gives the constructor, text form, equality and hash;
this module writes the multiplication law.  `MetaElement.conjugate_by(x)`
computes x w x^-1, so conjugating a^i by b multiplies the exponent i by
the twist, which is what makes the platform efficient: a single modular
exponentiation.
"""

from __future__ import annotations

from functools import cache

from .core import PElement, PGroup, canonical_parser, mutable_twin
from .errors import NoSolutionError


class MetaElement(PElement):
    """Normal form a^i b^j; immutable value object."""

    __slots__ = ("group", "i", "j")

    def __mul__(self, other: "MetaElement") -> "MetaElement":
        # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2*twist^j1) b^(j1 + j2)
        G = self.group
        if other.__class__ is not MetaElement or other.group is not G:
            self._check(other)
        pows = G._twist_pows
        t = pows[self.j % G.p] if pows is not None else G.twist_pow(self.j)
        return _make(G, (self.i + other.i * t) % G.pm, (self.j + other.j) % G.pn)

    def inverse(self) -> "MetaElement":
        G = self.group
        return _make(G, -self.i * G.twist_pow(-self.j) % G.pm, -self.j % G.pn)

    def conjugate_by(self, x: "MetaElement") -> "MetaElement":
        """Conjugate of this element under x, computed as x * self * x^-1.

        This is the convention b a b^-1 = a^twist of the presentation:
        conjugating a^i by b^v gives a^(i * twist^v), one modular
        exponentiation.  The tree and heisenberg platforms compute
        x^-1 * self * x instead.
        """
        self._check(x)
        return x * self * x.inverse()


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
    """Parameters p, m, n plus the derived twist machinery."""

    kind = "metacyclic"
    prefix = "mc"
    min_m = 2
    element_class = MetaElement
    _make = staticmethod(_make)

    def __init__(self, p: int, m: int, n: int):
        super().__init__(p, m, n)
        self.twist = 1 + p ** (m - 1)
        # Construction-time sanity: the twist generates an automorphism of
        # a-exponents of multiplicative order exactly p.
        if pow(self.twist, p, self.pm) != 1 or self.twist % self.pm == 1:
            raise ValueError("twist exponent does not have order p")
        self._twist_pows: list[int] | None = None

    # twist^j depends only on j mod p, as twist has order p (so twist^-j
    # is twist^(p-j)); cache the cycle for small p, from the closed form
    # twist^s = 1 + s*p^(m-1) of `twist_log`, which is below p^m for s < p.
    def twist_pow(self, j: int) -> int:
        j %= self.p
        if self.p <= 1 << 16:
            if self._twist_pows is None:
                step = self.twist - 1
                self._twist_pows = [1 + s * step for s in range(self.p)]
            return self._twist_pows[j]
        return pow(self.twist, j, self.pm)

    def twist_log(self, u: int) -> int:
        """Least s in [0, p) with twist^s = u (mod p^m), in O(1) operations.

        Since m >= 2, (p^(m-1))^2 = p^(2m-2) is 0 mod p^m, so the binomial
        expansion of twist^s = (1 + p^(m-1))^s stops after its linear term:
        twist^s = 1 + s*p^(m-1) (mod p^m).  Hence s = (u - 1) / p^(m-1),
        and u is a twist power exactly when p^(m-1) divides u - 1.
        Raises NoSolutionError otherwise (non-units included).
        """
        s, rest = divmod(u % self.pm - 1, self.twist - 1)
        if rest:
            raise NoSolutionError(
                f"{u} is not in the subgroup generated by {self.twist} mod {self.pm}"
            )
        return s

    def generator_elements(self) -> list[MetaElement]:
        return [self.a(), self.b()]

    def _conjugates(self, w: MetaElement):
        # Conjugation by b and by a shifts i by i*p^(m-1) and by
        # -j*p^(m-1); i or j is a unit mod p when w is not central, so
        # the shifts reach every multiple of p^(m-1).
        step = self.twist - 1
        return (_make(self, (w.i + s * step) % self.pm, w.j) for s in range(self.p))


# Interned group instances, so parsed elements share power caches.
metacyclic_group = cache(MetacyclicGroup)


parse_canonical = canonical_parser(MetacyclicGroup, metacyclic_group)
