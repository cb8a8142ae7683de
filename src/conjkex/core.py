"""The contract the three platforms share.

A platform is a group class and an immutable element class in a unique
normal form, so element equality compares fields.  Every group answers:

- `kind` and `param_names`, the parameters that fix it and that
  transcripts carry (`wire_params()`);
- `p`, `log_order` and `order`: every platform is a p-group, and
  |G| = p^log_order;
- `identity()`, `generator_elements()` (a minimal generating set),
  `elements()` (an enumeration, refused past a size limit), `index(g)`
  (g's position in that enumeration) and `conjugacy_class(w)`;
- the key exchange's policies: the commuting subgroup the privates come
  from (`commuting_conjugator(s)` for s from `first_private` below
  `commuting_subgroup_order()`, the number of privates with distinct
  actions), `default_base()` and `usable_base(w)`;
- `private_log(w, w_x)`: an index s whose private moves w to w_x, which
  is all the attack needs to know of a platform.

Every element answers `*`, `inverse()`, `conjugate_by(x)`,
`canonical()` and `is_central()`.

Elements are built only through their group.  The checked constructors
are the p-groups' `element(*exponents)`, which takes one int per
exponent and reduces it, and the tree's `from_packed(packed)`, which
refuses a non-int, a negative and a value wider than the tree.  Both
then build with the platform's private `_make`, as every result that
is in range by construction does (the metacyclic product takes the
same steps inline); an element class refuses a call.

The group classes derive from `Group`, which gives them ownership
checks, equality and hashing over their parameter tuple, and the
conjugacy class as a closure under generator conjugation, the one class
route of every platform.  The element classes derive from `Element`,
which gives all three of them immutability, the operand check, and
equality and hash over their value fields (`_value`).  Each platform
writes its own `__mul__`, `inverse` and `conjugate_by`, the hot paths,
and its own `index`.

The two p-group platforms share more.  `PGroup` holds their parameters
(refusing a p^m or p^n too long to print), checked constructor, normal
form, enumeration, centre and key-exchange roles.  `PElement` derives
from each element class's `__slots__` its text form `canonical()` and
its value fields, so a p-group element class writes only its slots,
its algebra and its private `_make`.  `canonical_parser` builds the
strict parser of all three platforms from the fields and radix that
each element class states (`exponent_names`, `radix`) and the group's
`prefix`, `param_names`, `_make` and `moduli`.

Conjugation convention: `w.conjugate_by(x)` is x^-1 * w * x on the
heisenberg and tree platforms, and x * w * x^-1 on the metacyclic one,
where it follows the presentation's b a b^-1 = a^twist (every pinned
metacyclic key depends on it).  A conjugacy class is the same set
under either convention.
"""

from __future__ import annotations

import re
from itertools import product, starmap
from operator import attrgetter, mod
from typing import Callable

from .arith import is_probable_prime
from .errors import ConjKexError, NoSolutionError, ParamMismatchError, ParseError, TooLargeError

# The one enumeration limit: how many elements an enumeration may visit.
# It bounds the p-groups' `elements()` and `center_elements()`, the
# tree's `elements()` (k <= 4) and `level_subgroup` (level <= 4), and
# `Subgroup.elements()` (|H| <= 2^19), and through `elements()` the
# class histogram of `cryptanalysis.orbit_stats` and `stats`.  Each
# refusal names the order as a power: `str` refuses ints past 4300 decimal
# digits, which a tree from k = 14 and a p-group of large m + n reach.
ENUMERATION_CAP = 10 ** 6
# Python converts ints of at most 4300 decimal digits to and from text, so
# p^m and p^n stay below 10^4300 and every exponent of a p-group prints.
# _TEXT_BITS, the bit length of 10^4300, refuses most larger groups
# before their powers are built.
_TEXT_BOUND = 10 ** 4300
_TEXT_BITS = _TEXT_BOUND.bit_length()
_TOO_LARGE = "p^m and p^n must be below 10^4300, so that every exponent prints"


def conjugation_pairs(conjugators) -> list:
    """(x, x^-1) for each conjugator x, as `conjugation_orbit` and the tree
    subgroup engine's normalisers use them."""
    return [(x, x.inverse()) for x in conjugators]


def conjugation_orbit(w, pairs) -> frozenset:
    """Orbit of w under x^-1 * w * x for every (x, x^-1) in `pairs`,
    using nothing but element products.

    With generators as the conjugators this is w's conjugacy class: in
    a finite group, a set closed under conjugation by each generator is
    closed under conjugation by the group.  A caller that closes many
    orbits builds `pairs` once per group.
    """
    seen = {w}
    frontier = [w]
    while frontier:
        g = frontier.pop()
        for x, x_inv in pairs:
            conj = x_inv * g * x
            if conj not in seen:
                seen.add(conj)
                frontier.append(conj)
    return frozenset(seen)


class Group:
    """Base of the platform groups.

    A subclass sets `kind` and `param_names`, the attributes that fix
    the group and that transcripts carry; two groups are equal when
    their kinds and those attributes are.  It also sets `p`,
    `log_order`, `order` and `first_private`, and writes every other
    method of the contract in the module docstring but
    `conjugacy_class`, which this class gives.
    """

    kind: str
    param_names: tuple[str, ...]
    p: int
    log_order: int
    order: int
    first_private: int

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.param_names)

    def wire_params(self) -> dict[str, str]:
        return {name: str(getattr(self, name)) for name in self.param_names}

    def _own(self, g) -> None:
        if g.group is not self and g.group != self:
            raise ParamMismatchError("element belongs to a different group")

    def _mismatch(self, other: "Group") -> ConjKexError:
        """The error for combining elements of this group and `other`."""
        return ParamMismatchError("elements built under different parameters")

    def conjugacy_class(self, w) -> frozenset:
        """Class of w, closed under conjugation by the generators."""
        self._own(w)
        return conjugation_orbit(w, conjugation_pairs(self.generator_elements()))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, type(self)) and self._params() == other._params()
        )

    def __hash__(self) -> int:
        return hash((self.kind, *self._params()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.wire_params().items())
        return f"{type(self).__name__}({fields})"


class Element:
    """Base of the platform elements: immutable values of one group.

    A subclass declares its `__slots__`, with `group` among them, and no
    `__init__`, so a call of the class is refused with TypeError; its
    private `_make` fills a `mutable_twin`, since `__setattr__` refuses.
    It sets `_value`, a getter of the fields that hold its value (not
    `group`, nor any cache).  Two elements are equal when they share a
    class and a value and their groups are one object or equal; the
    hash is the value's.
    """

    __slots__ = ()
    _value: Callable

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and self._value(self) == self._value(other)
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self) -> int:
        return hash(self._value(self))

    def _check(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.group is not other.group and self.group != other.group:
            raise self.group._mismatch(other.group)


def mutable_twin(element_class) -> type:
    """A class with `element_class`'s base and slots and plain attribute
    assignment, for a platform's `_make` (or a hot path that builds in
    place, with the same steps) to fill: it sets the fields as ordinary
    attributes, then assigns `element_class` to the new object's
    `__class__`, after which `Element.__setattr__` refuses every further
    assignment.  That is faster than setting each slot through its
    descriptor."""
    return type(
        f"_Mutable{element_class.__name__}",
        element_class.__bases__,
        {"__slots__": element_class.__slots__, "__setattr__": object.__setattr__},
    )


class PGroup(Group):
    """Base of the two minimal non-abelian p-group platforms.

    Both are Miller-Moreno groups with parameters p, m, n: p an odd
    prime, a of order p^m and b of order p^n.  An element is its tuple
    of reduced exponents in a normal form that starts a^i b^j; only the
    multiplication law differs.  A Miller-Moreno group is 2-generated
    (Miller and Moreno, Trans. AMS 4, 1903), and a and b do not commute,
    so `generator_elements()`, a and b, is a minimal generating set.
    <b> is the key exchange's commuting subgroup and a is the default
    base.  b^p is central, so conjugation by b^s depends only on s mod
    p, and the privates are b^1 .. b^(p-1): the p - 1 that move every
    base (b^0 and every power of b^p fix it).  An element is
    central exactly when p divides both i and j.  A group whose p^m or
    p^n reaches 10^4300 is refused with TooLargeError, so every exponent
    prints.

    A subclass sets `kind`, `prefix` (of its canonical strings),
    `min_m`, its `element_class` and that class's `_make` (see
    `PElement`), which defaults the exponents after j to 0, and writes
    `index(g)`, the mixed-radix value of g's exponents, and `_shift(w,
    w_x)`: the steps of the one exponent that conjugation by a b-power
    moves, from w to w_x, or None when w_x differs from w elsewhere or
    by part of a step.
    """

    param_names = ("p", "m", "n")
    first_private = 1
    prefix: str
    min_m: int

    def __init__(self, p: int, m: int, n: int):
        if m < self.min_m or n < 1:
            raise ValueError(f"presentation requires m >= {self.min_m} and n >= 1")
        # p^e >= 2^(e * (bit_length(p) - 1)), so this refuses before any
        # power or primality test is computed, and the powers built below
        # stay under 2^(2 * _TEXT_BITS).
        if p > 2 and max(m, n) * (p.bit_length() - 1) >= _TEXT_BITS:
            raise TooLargeError(_TOO_LARGE)
        if p < 3 or not is_probable_prime(p):
            raise ValueError("p must be an odd prime")
        self.p = p
        self.m = m
        self.n = n
        self.pm = p ** m
        self.pn = p ** n
        if max(self.pm, self.pn) >= _TEXT_BOUND:
            raise TooLargeError(_TOO_LARGE)
        # i mod p^m, j mod p^n, and an exponent after j (of a central c) mod p.
        self.moduli = (self.pm, self.pn, p)[: len(self.element_class.exponent_names)]
        self.log_order = m + n + len(self.moduli) - 2
        self.order = p ** self.log_order
        self.tag = f"{self.prefix}:p={p};m={m};n={n}"

    def element(self, *exponents):
        """The checked constructor: one int per exponent, each reduced
        mod its modulus."""
        if len(exponents) != len(self.moduli):
            raise TypeError(
                f"{self.element_class.__name__} takes {len(self.moduli)} exponents"
            )
        for exponent in exponents:
            if not isinstance(exponent, int):
                raise TypeError(f"exponents must be ints, not {type(exponent).__name__}")
        return self._make(self, *map(mod, exponents, self.moduli))

    def identity(self):
        return self._make(self, 0, 0)

    def a(self, i: int = 1):
        return self._make(self, i % self.pm, 0)

    def b(self, j: int = 1):
        return self._make(self, 0, j % self.pn)

    def generator_elements(self) -> list:
        return [self.a(), self.b()]

    def elements(self):
        if self.order > ENUMERATION_CAP:
            raise TooLargeError(f"|G| = {self.p}^{self.log_order} is beyond enumeration")
        return starmap(self._make, product((self,), *map(range, self.moduli)))

    def center_order(self) -> int:
        return self.order // self.p ** 2

    def center_elements(self) -> list:
        """The centre, enumerated directly: <a^p, b^p>, times any c."""
        if self.center_order() > ENUMERATION_CAP:
            raise TooLargeError(f"|Z(G)| = {self.p}^{self.log_order - 2} is beyond enumeration")
        p = self.p
        ranges = (range(0, self.pm, p), range(0, self.pn, p), *map(range, self.moduli[2:]))
        return list(starmap(self._make, product((self,), *ranges)))

    # Designated commuting subgroup for the key exchange: the cyclic <b>.
    def commuting_subgroup_order(self) -> int:
        """The privates with distinct actions, |<b>/<b^p>| = p, and so
        the draw's bound: b^s and b^(s+p) conjugate alike."""
        return self.p

    def commuting_conjugator(self, s: int):
        return self.b(s)

    def default_base(self):
        return self.a(1)

    def private_log(self, w, w_x) -> int:
        """The least s in [0, p) with w.conjugate_by(b^s) == w_x.
        Conjugation by b^s moves one exponent of w by i*s steps, so s is
        the steps from w to w_x (`_shift`) divided by i mod p; a w with
        p | i is fixed by every b-power, so only w_x = w fits it.  Raises
        NoSolutionError when no b-power moves w to w_x."""
        shift = self._shift(w, w_x)
        p = self.p
        if shift is not None:
            if w.i % p:
                return shift * pow(w.i, -1, p) % p
            if not shift:
                return 0
        raise NoSolutionError("no b-power conjugates the base to this value")

    def usable_base(self, w) -> bool:
        """A base must be moved by the b-powers and lie in <a>: a
        non-central power of a."""
        return not w.is_central() and w == self.a(w.i)


class PElement(Element):
    """Base of the p-group elements.  A subclass declares `__slots__` as
    "group" and then its exponent names, which become its
    `exponent_names`; this class derives from them `canonical()` and the
    value, the exponent tuple, which `Element` compares and hashes.

    Every element comes from the subclass's private `_make` (or its
    steps inline), which stores exponents that are in range by
    construction: the group's `element` checks and reduces its input
    first, and products, inverses, conjugates and enumerations reduce
    each exponent where they compute it.
    """

    __slots__ = ()
    radix = 10  # of the exponents in `canonical()`

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exponent_names = names = cls.__slots__[1:]
        cls._value = attrgetter(*names)
        cls._text = "".join(f";{name}={{}}" for name in names).format

    def canonical(self) -> str:
        return self.group.tag + self._text(*self._value(self))

    def is_central(self) -> bool:
        p = self.group.p
        return self.i % p == 0 and self.j % p == 0

    def __repr__(self) -> str:
        G = self.group
        powers = " ".join(
            f"{x}^{getattr(self, name)}" for x, name in zip("abc", self.exponent_names)
        )
        return f"<{powers} | p={G.p},m={G.m},n={G.n}>"


def canonical_parser(group_class, factory):
    """The strict parser of `group_class`'s canonical strings, such as
    "mc:p=3;m=2;n=2;i=1;j=0" or "tg:k=3;bits=40": the whole string,
    minimal fields, parameters in decimal and element fields in the
    element class's `radix` (lowercase, at most 16), each below its
    modulus.  Groups come from the interned `factory`, so parsed
    elements share its group objects."""
    element_class = group_class.element_class
    count = len(group_class.param_names)
    names = (*group_class.param_names, *element_class.exponent_names)
    bases = (10,) * count + (element_class.radix,) * (len(names) - count)
    digits = "0123456789abcdef"
    grammar = re.compile(group_class.prefix + ":" + ";".join(
        f"{name}=(0|[{digits[1:base]}][{digits[:base]}]*)" for name, base in zip(names, bases)
    ))
    refusal = f"not a canonical {group_class.kind} element"

    def parse_canonical(text: str):
        match = grammar.fullmatch(text)
        if not match:
            raise ParseError(f"{refusal}: {text!r}")
        try:
            values = list(map(int, match.groups(), bases))
        except ValueError:  # past Python's str-to-int limit
            raise ParseError(f"{refusal}: a field is too long to read") from None
        try:
            group = factory(*values[:count])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        exponents = values[count:]
        for exponent, modulus in zip(exponents, group.moduli):
            if exponent >= modulus:
                raise ParseError("exponents exceed their moduli; form is not canonical")
        return group._make(group, *exponents)

    parse_canonical.__doc__ = f"Strict parser for the {group_class.prefix}: canonical form."
    return parse_canonical
