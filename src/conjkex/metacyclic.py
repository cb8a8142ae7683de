"""Exact arithmetic in the metacyclic minimal non-abelian p-group.

The platform is the semidirect product of two cyclic p-groups,

    G = < a, b | a^(p^m) = e, b^(p^n) = e, b a b^-1 = a^twist >,

with twist = 1 + p^(m-1), p an odd prime, m >= 2, n >= 1.  Every element
has the unique normal form a^i b^j with 0 <= i < p^m, 0 <= j < p^n, so
equality is componentwise.  `MetaElement.conjugate_by(x)` computes
x w x^-1, so conjugating a^i by b multiplies the exponent i by the
twist, which is what makes the platform efficient: a single modular
exponentiation.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

from .arith import is_probable_prime
from .core import ENUMERATION_CAP, Element, Group
from .errors import CapExceededError, NoSolutionError, ParseError, TooLargeError

_CANONICAL_RE = re.compile(
    r"^mc:p=(0|[1-9]\d*);m=(0|[1-9]\d*);n=(0|[1-9]\d*);"
    r"i=(0|[1-9]\d*);j=(0|[1-9]\d*)$"
)


@lru_cache(maxsize=None)
def metacyclic_group(p: int, m: int, n: int) -> "MetacyclicGroup":
    """Interned group instances, so parsed elements share power caches."""
    return MetacyclicGroup(p, m, n)


class MetacyclicGroup(Group):
    """Parameters p, m, n plus the derived twist machinery."""

    kind = "metacyclic"
    param_names = ("p", "m", "n")

    def __init__(self, p: int, m: int, n: int):
        if m < 2 or n < 1:
            raise ValueError("presentation requires m >= 2 and n >= 1")
        if p < 3 or not is_probable_prime(p):
            raise ValueError("p must be an odd prime")
        self.p = p
        self.m = m
        self.n = n
        self.pm = p ** m
        self.pn = p ** n
        self.twist = 1 + p ** (m - 1)
        self.order = self.pm * self.pn
        # Construction-time sanity: the twist generates an automorphism of
        # a-exponents of multiplicative order exactly p.
        if pow(self.twist, p, self.pm) != 1 or self.twist % self.pm == 1:
            raise ValueError("twist exponent does not have order p")
        self._twist_pows: list[int] | None = None
        self._twist_inv_pows: list[int] | None = None

    # twist^j depends only on j mod p; cache the cycle for small p.
    def twist_pow(self, j: int) -> int:
        j %= self.p
        if self.p <= 1 << 16:
            if self._twist_pows is None:
                self._twist_pows = self._cycle(self.twist)
            return self._twist_pows[j]
        return pow(self.twist, j, self.pm)

    def twist_pow_inv(self, j: int) -> int:
        j %= self.p
        if self.p <= 1 << 16:
            if self._twist_inv_pows is None:
                self._twist_inv_pows = self._cycle(pow(self.twist, -1, self.pm))
            return self._twist_inv_pows[j]
        return pow(self.twist, -j % self.p, self.pm)

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

    def _cycle(self, t: int) -> list[int]:
        out = [1]
        for _ in range(self.p - 1):
            out.append(out[-1] * t % self.pm)
        return out

    def element(self, i: int, j: int) -> "MetaElement":
        return MetaElement(self, i, j)

    def identity(self) -> "MetaElement":
        return MetaElement(self, 0, 0)

    def a(self, i: int = 1) -> "MetaElement":
        return MetaElement(self, i, 0)

    def b(self, j: int = 1) -> "MetaElement":
        return MetaElement(self, 0, j)

    def generator_elements(self) -> list["MetaElement"]:
        return [self.a(), self.b()]

    def elements(self) -> Iterator["MetaElement"]:
        if self.order > ENUMERATION_CAP:
            raise TooLargeError(f"|G| = {self.order} is beyond enumeration")
        for i in range(self.pm):
            for j in range(self.pn):
                yield _make(self, i, j)

    def center_order(self) -> int:
        return self.p ** (self.m + self.n - 2)

    def center_elements(self) -> list["MetaElement"]:
        """The subgroup generated by a^p and b^p, enumerated directly."""
        if self.center_order() > ENUMERATION_CAP:
            raise TooLargeError("center too large to enumerate")
        return [
            _make(self, self.p * x, self.p * y)
            for x in range(self.pm // self.p)
            for y in range(self.pn // self.p)
        ]

    def conjugacy_class(self, w: "MetaElement", cap: int | None = None) -> frozenset:
        """Full conjugacy class of w.

        Elements of <a> get the closed-form twist orbit: p elements, or
        w alone when w is central.  Its size is checked against `cap`
        before any element is built, so a cap refuses a large p at once.
        Anything else is closed under conjugation by the generators,
        which only needs the group to be enumerable.
        """
        self._own(w)
        if w.j == 0:
            size = 1 if w.i % self.p == 0 else self.p
            if cap is not None and size > cap:
                raise CapExceededError(f"class size {size} exceeds cap {cap}")
            return frozenset(
                MetaElement(self, w.i * self.twist_pow(v) % self.pm, 0)
                for v in range(size)
            )
        if self.order > ENUMERATION_CAP:
            raise TooLargeError(
                "class enumeration outside <a> needs an enumerable group"
            )
        return super().conjugacy_class(w, cap)

    # Designated commuting subgroup for the key exchange: the cyclic <b>.
    def commuting_subgroup_order(self) -> int:
        return self.pn

    def commuting_conjugator(self, s: int) -> "MetaElement":
        return self.b(s)

    def default_base(self) -> "MetaElement":
        return self.a(1)


class MetaElement(Element):
    """Normal form a^i b^j; immutable value object.

    Inputs are checked at the public boundary: this constructor reduces
    any int exponents mod p^m and p^n.  Products, inverses and the
    group's enumerations build their results with the private `_make`,
    which stores exponents that are in range by construction (each is
    reduced where it is computed) and skips `__init__`.
    """

    __slots__ = ("group", "i", "j")

    def __init__(self, group: MetacyclicGroup, i: int, j: int):
        _set_group(self, group)
        _set_i(self, i % group.pm)
        _set_j(self, j % group.pn)

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
        return _make(G, -self.i * G.twist_pow_inv(self.j) % G.pm, -self.j % G.pn)

    def conjugate_by(self, x: "MetaElement") -> "MetaElement":
        """Conjugate of this element under x, computed as x * self * x^-1.

        This is the convention b a b^-1 = a^twist of the presentation:
        conjugating a^i by b^v gives a^(i * twist^v), one modular
        exponentiation.  The tree and heisenberg platforms compute
        x^-1 * self * x instead.
        """
        self._check(x)
        return x * self * x.inverse()

    def is_central(self) -> bool:
        # Central iff both exponents are multiples of p, i.e. g in <a^p, b^p>.
        return self.i % self.group.p == 0 and self.j % self.group.p == 0

    def is_identity(self) -> bool:
        return self.i == 0 and self.j == 0

    def in_a_subgroup(self) -> bool:
        return self.j == 0

    def canonical(self) -> str:
        G = self.group
        return f"mc:p={G.p};m={G.m};n={G.n};i={self.i};j={self.j}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MetaElement)
            and self.i == other.i
            and self.j == other.j
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        return hash((self.i, self.j))

    def __repr__(self) -> str:
        return f"<a^{self.i} b^{self.j} | p={self.group.p},m={self.group.m},n={self.group.n}>"


_new = object.__new__
_set_group = MetaElement.group.__set__
_set_i = MetaElement.i.__set__
_set_j = MetaElement.j.__set__


def _make(group: MetacyclicGroup, i: int, j: int) -> MetaElement:
    """Private constructor: i and j must already be reduced."""
    g = _new(MetaElement)
    _set_group(g, group)
    _set_i(g, i)
    _set_j(g, j)
    return g


def parse_canonical(text: str) -> MetaElement:
    """Strict parser for the mc: canonical form (minimal decimal fields)."""
    match = _CANONICAL_RE.match(text)
    if not match:
        raise ParseError(f"not a canonical metacyclic element: {text!r}")
    p, m, n, i, j = (int(g) for g in match.groups())
    try:
        group = metacyclic_group(p, m, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if i >= group.pm or j >= group.pn:
        raise ParseError("exponents exceed their moduli; form is not canonical")
    return group.element(i, j)
