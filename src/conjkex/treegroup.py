"""Sylow 2-subgroups of S_(2^k) and A_(2^k) as labelled binary trees.

An automorphism of the complete binary tree of depth k is stored as a
*portrait*: one swap/identity bit per internal vertex, 2^k - 1 bits in
level order (root first, left to right within a level).  The portraits
form the iterated wreath product of k copies of C2, a Sylow 2-subgroup
of S_(2^k); its even half is a Sylow 2-subgroup of A_(2^k).  A label on
level l makes 2^(k-l-1) leaf transpositions, so a portrait is even iff
it has an even number of bottom-level labels.

Composition is "g then h": leaf x goes to h(g(x)).  In the packed int
level l is a 2^l-bit field, root side most significant, and level l of
g*h is g_l XOR P_g(h)_l, h's labels permuted by g's action: for each
depth d < l, shallowest first, swap the two halves of every run of
2^(l-d) level-l vertices whose depth-d ancestor g labels.  Halves of
2^j bits swap on every level at once in one masked delta swap (Warren,
Hacker's Delight, ch. 7), with g's masks from `_swap_masks`.  Q_g, the
inverse action, is the same swaps deepest first, and g^-1 = Q_g(g).  A
product or an inverse costs O(k*(k-l)) big-int operations on 2^k-bit
ints for a g whose highest label is on level l: O(k^2) for a dense g or
a root generator, O(k) for a key on level k-2, and one XOR for a g
labelled only on the bottom level (the bottom-swap base), since a swap
with an empty mask is skipped.

Conjugation takes two swap passes where x^-1 * w * x takes three: Q_x
is a bit permutation, so it distributes over XOR, and

    x^-1 * w * x = Q_x(x XOR w XOR P_w(x)).

The subgroup engine (`Subgroup`) keeps to products.  `Portrait.apply`,
which walks one leaf path bit by bit, is the independent oracle for
products, inverses and conjugation.

A portrait builds its masks on first use and keeps them: at most k-1
ints below 2^k, so a dense portrait keeps about k-1 times its own size,
and one labelled only on the bottom level shares its group's all-zero
tuple.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, compress, repeat
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Sequence

from .core import ENUMERATION_CAP, Element, Group, canonical_parser, conjugation_pairs, mutable_twin
from .errors import (
    DepthMismatchError,
    DepthTooLargeError,
    LevelOutOfRangeError,
    NoSolutionError,
    NotAGroupError,
    TooLargeError,
)

MAX_DEPTH = 20        # products, inverses, codec: O(k^2) big-int ops each
MAX_SUBGROUP_DEPTH = 8  # Subgroup only: G' and Phi(G') take about 0.3 s at k = 8 in-process


class TreeSylowGroup(Group):
    """Depth parameter k plus enumeration and subgroup machinery.

    The key exchange's commuting subgroup is level k-2, drawn whole from
    its identity on, and a base is usable when some private moves it.
    """

    kind = "tree"
    prefix = "tg"
    param_names = ("k",)
    p = 2
    first_private = 0

    def __init__(self, k: int):
        if not 1 <= k <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
        self.k = k
        self.leaves = 1 << k
        self.bit_count = self.log_order = (1 << k) - 1
        self.order = 1 << self.bit_count
        self.moduli = (self.order,)  # the bound of the packed labels
        # _spread[e] has the bits p < 2^k with bit e of p clear: what a
        # Morton step that shifts by 2^e keeps.
        self._spread = tuple(
            int(("0" * (1 << e) + "1" * (1 << e)) * (1 << (k - 1 - e)), 2)
            for e in range(k - 1)
        )
        # Shared by every product: the masks of a left factor with no
        # labels above the bottom level, and the delta-swap stage orders
        # (products shallowest ancestor first, inverses deepest first).
        self._zero_masks = (0,) * (k - 1)
        # Every bottom label set: the one non-identity central element.
        self._bottom = (1 << (self.leaves >> 1)) - 1
        # The lower bit of every bottom sibling pair.
        self._bottom_pairs = self._bottom // 3
        self._mul_order = tuple(range(k - 2, -1, -1))
        self._inv_order = tuple(range(k - 1))

    # ----------------------------------------------------------- elements

    def identity(self) -> "Portrait":
        return _make(self, 0)

    def from_packed(self, packed: int) -> "Portrait":
        """The checked constructor: an int in [0, 2^(2^k - 1))."""
        if not isinstance(packed, int):
            raise TypeError(f"packed value must be an int, not {type(packed).__name__}")
        if packed >> self.bit_count:
            raise ValueError(
                f"packed value {packed} is negative" if packed < 0
                else "packed value has more bits than the tree has vertices"
            )
        return _make(self, int(packed))

    def from_level_masks(self, masks: dict[int, int]) -> "Portrait":
        """Bit p of masks[level] labels vertex p of that level."""
        packed = 0
        for level, mask in masks.items():
            self._check_level(level)
            if not isinstance(mask, int):
                raise TypeError(f"mask for level {level} must be an int, not {type(mask).__name__}")
            width = 1 << level
            if mask >> width:
                raise ValueError(
                    f"mask {mask} for level {level} is negative" if mask < 0
                    else f"mask {mask:#x} too wide for level {level}"
                )
            packed |= _reverse(mask, width) << self._offset(level)
        return _make(self, packed)

    def single(self, level: int, pos: int) -> "Portrait":
        self._check_vertex(level, pos)
        return self.from_level_masks({level: 1 << pos})

    def _check_level(self, level: int) -> None:
        if not isinstance(level, int):
            raise TypeError(f"level must be an int, not {type(level).__name__}")
        if not 0 <= level < self.k:
            raise LevelOutOfRangeError(f"level {level} outside [0, {self.k})")

    def _check_vertex(self, level: int, pos: int) -> None:
        self._check_level(level)
        if not isinstance(pos, int):
            raise TypeError(f"position must be an int, not {type(pos).__name__}")
        if not 0 <= pos < 1 << level:
            raise ValueError(f"position {pos} outside [0, {1 << level})")

    def _offset(self, level: int) -> int:
        # Lowest bit of the level's field; the root is the most
        # significant bit, the bottom level the 2^(k-1) lowest.
        return self.leaves - (2 << level)

    def _shift(self, level: int, pos: int) -> int:
        # Vertex pos sits at the field's high end when pos is 0.
        return self._offset(level) + (1 << level) - 1 - pos

    def _swap_masks(self, packed: int) -> tuple[int, ...]:
        """Delta-swap masks of the portrait `packed`, indexed by j.

        masks[j] selects the lower half of every 2^(j+1)-bit block on
        levels j+1..k-1 whose ancestor j+1 levels up is labelled.  It is
        the labels widened to 2^j-bit blocks, bottom level dropped, after
        a Morton spread that moves run i to run 2i; filling the other
        halves gives the next j's blocks.  The step that shifts by 2^e, a
        no-op below 2^(2^e), is skipped where the int is too short for
        it, and the stages stop once no label is left to spread.

        Cost: O(k^2) full-width operations for a dense portrait; none for
        one labelled only on the bottom level, which gets the group's
        shared all-zero tuple; O(k*(k-l)) for one whose highest label is
        on level l (k-1-l stages); the j = 0 spread alone for level k-2
        (a key).
        """
        half = self.leaves >> 1
        if not packed >> half:
            return self._zero_masks
        k = self.k
        spread = self._spread
        masks = []
        widened = packed  # blocks of 2^j bits, one per label, for j = 0
        for j in range(k - 1):
            low = widened >> half
            if not low:
                masks.extend([0] * (k - 1 - j))
                break
            for e in range((low.bit_length() - 1).bit_length() - 1, j - 1, -1):
                low = (low | (low << (1 << e))) & spread[e]
            masks.append(low)
            widened = low | (low << (1 << j))
        return tuple(masks)

    # -------------------------------------------------------- enumeration

    def elements(self) -> Iterator["Portrait"]:
        """Every portrait; refused at the call past the enumeration limit."""
        if self.order > ENUMERATION_CAP:
            raise DepthTooLargeError(f"|G| = 2^{self.log_order} is beyond enumeration")
        return map(_make, repeat(self), range(self.order))

    def index(self, g: "Portrait") -> int:
        """g's position in `elements()`: its packed labels."""
        if g.group is not self:
            self._own(g)
        return g.packed

    def level_subgroup(self, level: int) -> list["Portrait"]:
        """All portraits supported on one level: an elementary abelian
        commuting family of size 2^(2^level)."""
        if self.level_subgroup_order(level) > ENUMERATION_CAP:
            raise DepthTooLargeError(f"|H| = 2^{1 << level} is beyond enumeration")
        return [self.from_level_masks({level: mask}) for mask in range(1 << (1 << level))]

    def level_subgroup_order(self, level: int) -> int:
        self._check_level(level)
        return 1 << (1 << level)

    def generator_elements(self) -> list["Portrait"]:
        """One single-vertex portrait per level: a minimal generating set,
        since the rank of G/Phi(G), the level parities, is k."""
        return [self.single(level, 0) for level in range(self.k)]

    def even_generators(self) -> list["Portrait"]:
        """A minimal generating set of the even half, the Sylow 2-subgroup
        of A_(2^k): the first k-1 of `generator_elements` and a swap of
        the first and last bottom vertices.

        The first k-1 give every portrait labelled on levels 0..k-2,
        which act on the bottom vertices, each half on its own and the
        root swapping the halves.  So the conjugates of the bottom swap
        are the swaps of every pair with one vertex in each half, and
        these span every even bottom labelling.  The engine measures the
        rank of the even half as k.
        """
        if self.k == 1:
            return [self.identity()]
        ends = 1 | 1 << ((1 << (self.k - 1)) - 1)  # the first and last bottom vertices
        return [*self.generator_elements()[:-1], self.from_level_masks({self.k - 1: ends})]

    # ----------------------------------------------------- subgroup tools

    def closure(self, generators: Iterable["Portrait"]) -> "Subgroup":
        """The subgroup that `generators` generate."""
        return Subgroup(self, self._engine_input(generators), [])

    def derived_subgroup(self, generators: Iterable["Portrait"]) -> "Subgroup":
        """Commutator subgroup of G = <generators>: the normal closure in
        G of the commutators of generator pairs."""
        pairs = conjugation_pairs(self._engine_input(generators))
        return Subgroup(self, [_commutator(x, y) for x, y in combinations(pairs, 2)], pairs)

    def minimal_generating_size(self, H: "Subgroup") -> int:
        """Size of a minimal generating set of the subgroup H.  H is a
        2-group, so by Burnside's basis theorem that is the rank of
        H/Phi(H), and the rank is |basis(H)| - |basis(Phi(H))|.  `closure`
        builds H from generators."""
        return len(H.basis) - len(H.frattini().basis)

    def minimal_generating_size_brute(self, elements: Collection["Portrait"]) -> int:
        """Independent check: the smallest subset that generates the
        input, each subset closed by a plain product worklist.  An input
        that no subset generates exactly is not a group: NotAGroupError.

        The subset element is each product's left factor, the one whose
        masks a product builds: the subset's build them once."""
        group = set(elements)
        if group == {self.identity()}:
            return 0
        candidates = sorted(group - {self.identity()}, key=lambda g: g.packed)
        for size in range(1, len(candidates) + 1):
            for subset in combinations(candidates, size):
                span = frontier = {self.identity()}
                while frontier:
                    frontier = {g * x for x in frontier for g in subset} - span
                    span = span | frontier
                if span == group:
                    return size
        raise NotAGroupError("input generates something larger than itself")

    def _engine_input(self, elements: Iterable["Portrait"]) -> list["Portrait"]:
        """`elements` as a list of this group's portraits, if in reach of `Subgroup`."""
        if self.k > MAX_SUBGROUP_DEPTH:
            raise DepthTooLargeError(f"subgroup engine limited to k <= {MAX_SUBGROUP_DEPTH}")
        elements = list(elements)
        for g in elements:
            self._own(g)
        return elements

    # ------------------------------------------------------------ plumbing

    def commuting_subgroup_level(self) -> int:
        if self.k < 2:
            raise LevelOutOfRangeError("key exchange needs depth k >= 2")
        return self.k - 2

    def commuting_subgroup_order(self) -> int:
        return self.level_subgroup_order(self.commuting_subgroup_level())

    def commuting_conjugator(self, s: int) -> "Portrait":
        return self.from_level_masks({self.commuting_subgroup_level(): s})

    def default_base(self) -> "Portrait":
        # One bottom-level swap: moved around by level-(k-2) conjugators.
        return self.single(self.k - 1, 0)

    def usable_base(self, w: "Portrait") -> bool:
        """Whether some level-(k-2) private moves w, in closed form.

        The level fixes w exactly when w has no labels above level k-2
        and every bottom sibling pair carries equal labels; on such a w,
        conjugation only swaps the pair below each labelled level-(k-2)
        vertex.  That covers the centre.  At k = 1 there is no level
        k-2, so no base is usable.
        """
        if self.k < 2:
            return False
        packed = w.packed
        return bool(packed >> (3 << (self.k - 2)) or (packed ^ packed >> 1) & self._bottom_pairs)

    def private_log(self, w: "Portrait", w_x: "Portrait") -> int:
        """A level-(k-2) label mask s with w.conjugate_by(x_s) == w_x, for
        x_s = commuting_conjugator(s); NoSolutionError when there is none.

        The displacement packed(w^(x_s)) XOR packed(w) is zero above level
        k-2, is s_i XOR s_pi(i) at vertex i of level k-2, where pi is w's
        permutation of that level, and flips the bottom pair under each i
        in s where w's two labels differ: GF(2)-linear in s, which is also
        why the key is w_x * w^-1 * w_y.  So with tau = w XOR w_x, s_pi(i)
        = s_i XOR tau_i along each cycle of pi, from a vertex whose pair
        differs, where tau's pair gives s, or else from s = 0 (either start
        gives the same w_x).  Labels are read once, as text, level l from
        index 2^l - 1, and one conjugation checks the mask: the whole
        refusal test.  0.05 ms at k = 8, 2-3 ms at k = 14, 8-11 ms at
        k = 16, 0.15-0.2 s at k = 20 (CPython 3.11).
        """
        n = 1 << self.commuting_subgroup_level()
        labels, tau = (format(g, f"0{self.bit_count}b") for g in (w.packed, w.packed ^ w_x.packed))
        pi = [0]  # w's image of each vertex, one level at a time from the root
        for level in range(self.k - 2):
            row = labels[(1 << level) - 1:(2 << level) - 1]
            pi = [2 * q + (c ^ (b == "1")) for q, b in zip(pi, row) for c in (0, 1)]
        anchored = bytes(a != b for a, b in zip(labels[2 * n - 1::2], labels[2 * n::2]))
        s = bytearray(n)  # b"0" or b"1" per vertex once walked
        for start in chain(compress(range(n), anchored), range(n)):  # anchors first
            j, bit = start, anchored[start] and tau[2 * n - 1 + 2 * start] == "1"
            while not s[j]:
                s[j] = 48 | bit
                bit ^= tau[n - 1 + j] == "1"
                j = pi[j]
        mask = int(s[::-1], 2)
        if w.conjugate_by(self.commuting_conjugator(mask)) != w_x:
            raise NoSolutionError("no level-(k-2) private conjugates the base to this value")
        return mask

    def _mismatch(self, other: "TreeSylowGroup") -> DepthMismatchError:
        return DepthMismatchError(f"depth mismatch: {self.k} vs {other.k}")


tree_group = cache(TreeSylowGroup)


class Portrait(Element):
    """One swap/identity bit per internal vertex, packed level-order.

    Every portrait comes from the private `_make`, which stores a value
    in range by construction: the group's `from_packed`, its
    `from_level_masks` and `parse_canonical` check their input's width
    first, and a product's levels are its factors' levels, XORed and
    permuted within each level.
    """

    __slots__ = ("group", "packed", "_masks")
    _value = attrgetter("packed")  # never the _masks cache
    exponent_names = ("bits",)  # `packed` in `canonical()`, in hex
    radix = 16

    def bit(self, level: int, pos: int) -> int:
        """The label of vertex pos on the level."""
        G = self.group
        G._check_vertex(level, pos)
        return (self.packed >> G._shift(level, pos)) & 1

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Composite "self then other": leaf x maps to other(self(x)).

        Every level: self's labels XOR other's labels permuted by self's
        action on that level (the module docstring has the swaps).
        """
        G = self.group
        if other.__class__ is not Portrait or other.group is not G:
            self._check(other)
        permuted = _swap_halves(other.packed, self._swap_masks(), G._mul_order)
        return _make(G, self.packed ^ permuted)

    def inverse(self) -> "Portrait":
        # Each level of self, permuted by the inverse of self's action.
        G = self.group
        return _make(G, _swap_halves(self.packed, self._swap_masks(), G._inv_order))

    def _swap_masks(self) -> tuple[int, ...]:
        """This portrait's delta-swap masks, built on first use and kept."""
        masks = self._masks
        if masks is None:
            masks = self.group._swap_masks(self.packed)
            _set_masks(self, masks)
        return masks

    def apply(self, leaf: int) -> int:
        """Image of a leaf in [0, 2^k); the path bits are flipped by the
        labels along the original path."""
        G = self.group
        k = G.k
        pos = 0
        out = 0
        for level in range(k):
            d = (leaf >> (k - 1 - level)) & 1
            out = (out << 1) | (d ^ ((self.packed >> G._shift(level, pos)) & 1))
            pos = 2 * pos + d
        return out

    def to_permutation(self) -> tuple[int, ...]:
        return tuple(self.apply(x) for x in range(self.group.leaves))

    def is_even(self) -> bool:
        # Only bottom-level swaps are single transpositions; every higher
        # level contributes an even number of them.  The bottom level is
        # the low 2^(k-1) bits.
        return (self.packed & self.group._bottom).bit_count() % 2 == 0

    def is_central(self) -> bool:
        """Closed form: the centre of the Sylow 2-subgroup has order 2
        (Kaloujnine 1948), the identity and the portrait that swaps
        every bottom pair of leaves."""
        return self.packed == 0 or self.packed == self.group._bottom

    def conjugate_by(self, x: "Portrait") -> "Portrait":
        """x^-1 * self * x, in two delta-swap passes (module docstring)."""
        G = self.group
        if x.__class__ is not Portrait or x.group is not G:
            self._check(x)
        wx = self.packed ^ _swap_halves(x.packed, self._swap_masks(), G._mul_order)
        return _make(G, _swap_halves(x.packed ^ wx, x._swap_masks(), G._inv_order))

    def canonical(self) -> str:
        return f"tg:k={self.group.k};bits={self.packed:x}"

    def __repr__(self) -> str:
        return f"Portrait(k={self.group.k}, bits={self.packed:#x})"


_set_masks = Portrait._masks.__set__
_MutablePortrait = mutable_twin(Portrait)


def _make(group: TreeSylowGroup, packed: int) -> Portrait:
    """Private constructor: `packed` must already fit the tree."""
    g = _MutablePortrait()
    g.group = group
    g.packed = packed
    g._masks = None
    g.__class__ = Portrait
    return g


# _REV8[b] is the byte b with its bits in reverse order.
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse(bits: int, width: int) -> int:
    """The `width` bits of `bits` (which must fit them) in reverse order.

    The bits of each byte are reversed by table and the byte order by
    reading the bytes back big-endian; a width that is not whole bytes
    then drops the zeros that its last byte contributed below.
    """
    n = (width + 7) >> 3
    return int.from_bytes(bits.to_bytes(n, "little").translate(_REV8), "big") >> (8 * n - width)


def _swap_halves(x: int, masks: Sequence[int], order: Iterable[int]) -> int:
    """Delta swaps: for each j in order, exchange every bit of x that
    masks[j] selects with the bit 2^j above it; a stage whose mask is 0
    does nothing and is skipped."""
    for j in order:
        mask = masks[j]
        if mask:
            shift = 1 << j
            t = ((x >> shift) ^ x) & mask
            x ^= t ^ (t << shift)
    return x


class Subgroup:
    """A subgroup H as an echelon basis: one element per leading bit (the
    highest set bit of `packed`), each stored with its inverse.

    Portraits below 2^b are a subgroup of index 2 in those below
    2^(b+1), since a level's field adds by XOR on portraits trivial above
    that level, so each step of `sift`, a left product with the stored
    inverse that has g's leading bit, lowers it.  Each new basis element
    r queues r*r and [r, e] for every basis element and normaliser e;
    once all of them sift to the identity, the basis is an induced
    polycyclic sequence (Kaloujnine 1948; Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 8): |H| = 2^|basis|, and g
    lies in H iff it sifts to the identity.  Cost: |basis| * (|basis| + |normalisers|)
    commutators of three products each, plus their sifts, where an
    enumerated closure takes |H| * |gens| products.

    A product builds swap masks only for its left factor, so every
    product here has a stored portrait (a basis element, a normaliser or
    an inverse of one) on the left: each builds its masks once.
    """

    __slots__ = ("group", "_basis", "_normalisers")

    def __init__(self, group: TreeSylowGroup, seeds: Iterable[Portrait], normalisers: list):
        """<seeds>, normalised by s for each (s, s^-1) in `normalisers`."""
        self.group = group
        self._basis = basis = {}
        self._normalisers = normalisers
        queue = list(seeds)
        while queue:
            r = self.sift(queue.pop())
            if r.packed:
                pair = (r, r.inverse())
                queue.append(r * r)
                queue += [_commutator(pair, e) for e in (*basis.values(), *normalisers)]
                basis[r.packed.bit_length()] = pair

    @property
    def order(self) -> int:
        return 1 << len(self._basis)

    @property
    def basis(self) -> list[Portrait]:
        """The basis, deepest leading bit first."""
        return [self._basis[b][0] for b in sorted(self._basis)]

    def sift(self, g: Portrait) -> Portrait:
        basis = self._basis
        while (pair := basis.get(g.packed.bit_length())) is not None:
            g = pair[1] * g
        return g

    def __contains__(self, g: Portrait) -> bool:
        self.group._own(g)
        return not self.sift(g).packed

    def frattini(self) -> "Subgroup":
        """Phi(H): the normal closure of the squares and commutators of the
        basis in L, the group that H's normalisers generate, or in H for a
        plain closure, which has none.  H's seeds lie in L and H is normal
        there, so Phi(H), characteristic in H, is normal in L too; for G'
        that is k normalisers in place of 2^k - k - 2 basis elements."""
        pairs = list(self._basis.values())
        seeds = [r * r for r, _ in pairs] + [_commutator(x, y) for x, y in combinations(pairs, 2)]
        return Subgroup(self.group, seeds, self._normalisers or pairs)

    def elements(self) -> frozenset:
        if self.order > ENUMERATION_CAP:
            raise TooLargeError(f"|H| = 2^{len(self._basis)} is beyond enumeration")
        els = [self.group.identity()]
        for r in self.basis:
            els += [r * g for g in els]
        return frozenset(els)


def _commutator(x: tuple[Portrait, Portrait], y: tuple[Portrait, Portrait]) -> Portrait:
    """[x, y] = x^-1 y^-1 x y from (element, inverse) pairs, in three
    products: x^-1 (y^-1 (x y)), with a stored factor on the left of
    each product, so no intermediate builds masks."""
    return x[1] * (y[1] * (x[0] * y[0]))


# `canonical_parser` reads these of the group; both come after its class.
TreeSylowGroup.element_class = Portrait
TreeSylowGroup._make = staticmethod(_make)
parse_canonical = canonical_parser(TreeSylowGroup, tree_group)
