"""Exact arithmetic in the non-metacyclic minimal non-abelian p-group.

The platform is

    G = < a, b, c | a^(p^m) = b^(p^n) = c^p = e,
                    b^-1 a b = a c,  c central >,

with p an odd prime and m, n >= 1; |G| = p^(m+n+1).  Normal form is
a^i b^j c^k, and the commutator of any two elements lands in the central
<c>, so conjugation only ever shifts the c-exponent.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

from .arith import is_probable_prime
from .core import ENUMERATION_CAP, Element, Group
from .errors import ParseError, TooLargeError

_CANONICAL_RE = re.compile(
    r"^mm:p=(0|[1-9]\d*);m=(0|[1-9]\d*);n=(0|[1-9]\d*);"
    r"i=(0|[1-9]\d*);j=(0|[1-9]\d*);k=(0|[1-9]\d*)$"
)


@lru_cache(maxsize=None)
def heisenberg_group(p: int, m: int, n: int) -> "HeisenbergGroup":
    return HeisenbergGroup(p, m, n)


class HeisenbergGroup(Group):
    """Parameters p, m, n for the a/b/c presentation above."""

    kind = "heisenberg"
    param_names = ("p", "m", "n")

    def __init__(self, p: int, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("presentation requires m >= 1 and n >= 1")
        if p < 3 or not is_probable_prime(p):
            raise ValueError("p must be an odd prime")
        self.p = p
        self.m = m
        self.n = n
        self.pm = p ** m
        self.pn = p ** n
        self.order = p ** (m + n + 1)

    def element(self, i: int, j: int, k: int) -> "HeisenbergElement":
        return HeisenbergElement(self, i, j, k)

    def identity(self) -> "HeisenbergElement":
        return HeisenbergElement(self, 0, 0, 0)

    def a(self, i: int = 1) -> "HeisenbergElement":
        return HeisenbergElement(self, i, 0, 0)

    def b(self, j: int = 1) -> "HeisenbergElement":
        return HeisenbergElement(self, 0, j, 0)

    def c(self, k: int = 1) -> "HeisenbergElement":
        return HeisenbergElement(self, 0, 0, k)

    def generator_elements(self) -> list["HeisenbergElement"]:
        return [self.a(), self.b(), self.c()]

    def elements(self) -> Iterator["HeisenbergElement"]:
        if self.order > ENUMERATION_CAP:
            raise TooLargeError(f"|G| = {self.order} is beyond enumeration")
        for i in range(self.pm):
            for j in range(self.pn):
                for k in range(self.p):
                    yield _make(self, i, j, k)

    def center_order(self) -> int:
        return self.p ** (self.m + self.n - 1)

    def center_elements(self) -> list["HeisenbergElement"]:
        if self.center_order() > ENUMERATION_CAP:
            raise TooLargeError("center too large to enumerate")
        return [
            HeisenbergElement(self, self.p * x, self.p * y, k)
            for x in range(self.pm // self.p)
            for y in range(self.pn // self.p)
            for k in range(self.p)
        ]

    def conjugacy_class(self, w: "HeisenbergElement") -> frozenset:
        """Closed form: conjugation sweeps the c-exponent over Z_p unless
        w is central, in which case the class is a singleton."""
        self._own(w)
        if w.is_central():
            return frozenset({w})
        return frozenset(
            HeisenbergElement(self, w.i, w.j, k) for k in range(self.p)
        )

    def commuting_subgroup_order(self) -> int:
        return self.pn

    def commuting_conjugator(self, s: int) -> "HeisenbergElement":
        return self.b(s)

    def default_base(self) -> "HeisenbergElement":
        return self.a(1)


class HeisenbergElement(Element):
    """Normal form a^i b^j c^k; immutable value object.

    Inputs are checked at the public boundary: this constructor reduces
    any int exponents mod p^m, p^n and p.  Products, inverses,
    conjugates and the group's enumeration build their results with the
    private `_make`, which stores exponents that are in range by
    construction (each is reduced where it is computed) and skips
    `__init__`.
    """

    __slots__ = ("group", "i", "j", "k")

    def __init__(self, group: HeisenbergGroup, i: int, j: int, k: int):
        _set_group(self, group)
        _set_i(self, i % group.pm)
        _set_j(self, j % group.pn)
        _set_k(self, k % group.p)

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

    def conjugate_via_products(self, x: "HeisenbergElement") -> "HeisenbergElement":
        """Reference route for cross-checks: literal x^-1 * self * x."""
        self._check(x)
        return x.inverse() * self * x

    def is_central(self) -> bool:
        return self.i % self.group.p == 0 and self.j % self.group.p == 0

    def is_identity(self) -> bool:
        return self.i == 0 and self.j == 0 and self.k == 0

    def in_a_subgroup(self) -> bool:
        return self.j == 0 and self.k == 0

    def canonical(self) -> str:
        G = self.group
        return f"mm:p={G.p};m={G.m};n={G.n};i={self.i};j={self.j};k={self.k}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeisenbergElement)
            and self.i == other.i
            and self.j == other.j
            and self.k == other.k
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        return hash((self.i, self.j, self.k))

    def __repr__(self) -> str:
        G = self.group
        return f"<a^{self.i} b^{self.j} c^{self.k} | p={G.p},m={G.m},n={G.n}>"


_new = object.__new__
_set_group = HeisenbergElement.group.__set__
_set_i = HeisenbergElement.i.__set__
_set_j = HeisenbergElement.j.__set__
_set_k = HeisenbergElement.k.__set__


def _make(group: HeisenbergGroup, i: int, j: int, k: int) -> HeisenbergElement:
    """Private constructor: i, j and k must already be reduced."""
    g = _new(HeisenbergElement)
    _set_group(g, group)
    _set_i(g, i)
    _set_j(g, j)
    _set_k(g, k)
    return g


def parse_canonical(text: str) -> HeisenbergElement:
    """Strict parser for the mm: canonical form."""
    match = _CANONICAL_RE.match(text)
    if not match:
        raise ParseError(f"not a canonical heisenberg element: {text!r}")
    p, m, n, i, j, k = (int(g) for g in match.groups())
    try:
        group = heisenberg_group(p, m, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if i >= group.pm or j >= group.pn or k >= group.p:
        raise ParseError("exponents exceed their moduli; form is not canonical")
    return group.element(i, j, k)
