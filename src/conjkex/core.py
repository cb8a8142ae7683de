"""The element contract the three platforms share.

A platform is a group class (its parameters, enumeration and the key
exchange's commuting subgroup) and an immutable element class in a
unique normal form, so element equality compares fields.  The group
classes derive from `Group`, which gives them ownership checks, equality
and hashing over their parameter tuple, and the conjugacy class as a
closure under generator conjugation.  The element classes derive from
`Element`, which gives them immutability, the operand check, powers and
commutation.  Each platform writes its own `__mul__`, `inverse` and
`conjugate_by`: they are the hot paths.

Conjugation convention: `w.conjugate_by(x)` is x^-1 * w * x on the
heisenberg and tree platforms, and x * w * x^-1 on the metacyclic one,
where it follows the presentation's b a b^-1 = a^twist (every pinned
metacyclic key depends on it).  A conjugacy class is the same set
under either convention.
"""

from __future__ import annotations

from .errors import CapExceededError, ConjKexError, ParamMismatchError

ENUMERATION_CAP = 10 ** 6


def conjugation_pairs(conjugators) -> list:
    """(x, x^-1) for each conjugator x, as `conjugation_orbit` uses them."""
    return [(x, x.inverse()) for x in conjugators]


def conjugation_orbit(w, pairs, cap: int | None = None) -> frozenset:
    """Orbit of w under x^-1 * w * x for every (x, x^-1) in `pairs`,
    using nothing but element products.

    With generators as the conjugators this is w's conjugacy class: in
    a finite group, a set closed under conjugation by each generator is
    closed under conjugation by the group.  Raises CapExceededError as
    soon as the orbit would grow past `cap` elements.  A caller that
    closes many orbits builds `pairs` once per group.
    """
    seen = {w}
    frontier = [w]
    while frontier:
        g = frontier.pop()
        for x, x_inv in pairs:
            conj = x_inv * g * x
            if conj not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceededError(f"class grew past cap {cap}")
                seen.add(conj)
                frontier.append(conj)
    return frozenset(seen)


class Group:
    """Base of the platform groups.

    A subclass sets `kind` and `param_names`, the attributes that fix
    the group and that transcripts carry; two groups are equal when
    their kinds and those attributes are.  `generator_elements()` and
    `identity()` are the subclass's.
    """

    kind: str
    param_names: tuple[str, ...]

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.param_names)

    def wire_params(self) -> dict[str, str]:
        return {name: str(getattr(self, name)) for name in self.param_names}

    def _own(self, g) -> None:
        if g.group is not self:
            raise ParamMismatchError("element belongs to a different group")

    def _mismatch(self, other: "Group") -> ConjKexError:
        """The error for combining elements of this group and `other`."""
        return ParamMismatchError("elements built under different parameters")

    def conjugacy_class(self, w, cap: int | None = None) -> frozenset:
        """Class of w, closed under conjugation by the generators."""
        self._own(w)
        return conjugation_orbit(w, conjugation_pairs(self.generator_elements()), cap)

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

    A subclass declares its `__slots__`, with `group` among them, and
    sets them through the slot descriptors, since `__setattr__` refuses.
    """

    __slots__ = ()

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.group is not other.group and self.group != other.group:
            raise self.group._mismatch(other.group)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        out = self.group.identity()
        sq = self
        while exp:
            if exp & 1:
                out = out * sq
            sq = sq * sq
            exp >>= 1
        return out

    def commutes_with(self, other) -> bool:
        return self * other == other * self
