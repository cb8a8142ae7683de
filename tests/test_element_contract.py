"""The element contract shared by the three platforms.

Products, inverses and conjugates take a fast path when both operands
share one interned group object and build their results without
re-validating them.  These tests pin that the fast path changes nothing
observable: equal but distinct group objects still interoperate, every
mismatch raises what it raised before, and every result equals the
element the public constructor builds from the same values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjkex.errors import (
    DepthMismatchError,
    NoSolutionError,
    ParamMismatchError,
    ParseError,
    TooLargeError,
)
from conjkex.heisenberg import HeisenbergElement, HeisenbergGroup, heisenberg_group
from conjkex.heisenberg import parse_canonical as parse_heisenberg
from conjkex.kex import parse_element, sample_private, validate_base
from conjkex.metacyclic import MetaElement, MetacyclicGroup, metacyclic_group
from conjkex.metacyclic import parse_canonical as parse_metacyclic
from conjkex.rng import SplitMix64
from conjkex.treegroup import Portrait, TreeSylowGroup, tree_group
from conjkex.treegroup import parse_canonical as parse_tree
from oracles import compose_perms, conjugate_via_products, power

EXPONENTS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


def assert_immutable(g, *names):
    for name in (*names, "__class__"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)


# ------------------------------------------- equal but distinct group objects

def test_metacyclic_distinct_equal_groups_interoperate():
    interned = metacyclic_group(5, 2, 1)
    fresh = MetacyclicGroup(5, 2, 1)  # outside the factory's cache
    assert fresh is not interned and fresh == interned
    g, h = interned.element(7, 3), fresh.element(11, 4)
    assert g * h == interned.element(7, 3) * interned.element(11, 4)
    assert h * g == interned.element(11, 4) * interned.element(7, 3)
    assert fresh.element(7, 3) == g and hash(fresh.element(7, 3)) == hash(g)
    assert h.conjugate_by(g) == interned.element(11, 4).conjugate_by(g)
    assert (g * h).group is interned and (h * g).group is fresh


def test_heisenberg_distinct_equal_groups_interoperate():
    interned = heisenberg_group(5, 1, 1)
    fresh = HeisenbergGroup(5, 1, 1)
    assert fresh is not interned and fresh == interned
    g, h = interned.element(2, 3, 4), fresh.element(1, 4, 2)
    same_h = interned.element(1, 4, 2)
    assert g * h == g * same_h and h * g == same_h * g
    assert fresh.element(2, 3, 4) == g and hash(fresh.element(2, 3, 4)) == hash(g)
    assert h.conjugate_by(g) == same_h.conjugate_by(g)
    assert g.conjugate_by(h) == g.conjugate_by(same_h)


def test_tree_distinct_equal_groups_interoperate():
    interned = tree_group(3)
    fresh = TreeSylowGroup(3)
    assert fresh is not interned and fresh == interned
    g, h = interned.from_packed(0b1011001), fresh.from_packed(0b0110110)
    same_h = interned.from_packed(h.packed)
    assert g * h == g * same_h and h * g == same_h * g
    assert h == same_h and hash(h) == hash(same_h)
    assert h.conjugate_by(g) == same_h.conjugate_by(g)


def test_group_methods_accept_elements_of_an_equal_group():
    # One ownership rule: what `*` accepts, the group's own methods accept.
    G, fresh = metacyclic_group(3, 2, 2), MetacyclicGroup(3, 2, 2)
    assert G.conjugacy_class(fresh.a()) == G.conjugacy_class(G.a())
    assert G.index(fresh.b()) == G.index(G.b()) == 1
    H, fresh_h = heisenberg_group(3, 1, 1), HeisenbergGroup(3, 1, 1)
    assert H.conjugacy_class(fresh_h.a()) == H.conjugacy_class(H.a())
    assert H.index(fresh_h.element(0, 0, 1)) == H.index(H.element(0, 0, 1)) == 1
    T, fresh_t = tree_group(3), TreeSylowGroup(3)
    subgroup = T.closure([fresh_t.single(1, 0)])
    assert subgroup.order == T.closure([T.single(1, 0)]).order == 2
    assert fresh_t.single(1, 0) in subgroup and fresh_t.single(0, 0) not in subgroup
    assert T.conjugacy_class(fresh_t.single(2, 0)) == T.conjugacy_class(T.single(2, 0))
    assert T.index(fresh_t.from_packed(5)) == T.index(T.from_packed(5)) == 5
    derived = T.derived_subgroup(fresh_t.generator_elements())
    assert derived.order == T.derived_subgroup(T.generator_elements()).order == 2 ** 4


@pytest.mark.parametrize("refuse", [
    lambda: metacyclic_group(3, 2, 2).conjugacy_class(metacyclic_group(3, 2, 3).a()),
    lambda: metacyclic_group(3, 2, 2).conjugacy_class(heisenberg_group(3, 2, 2).a()),
    lambda: heisenberg_group(3, 1, 1).conjugacy_class(HeisenbergGroup(5, 1, 1).a()),
    lambda: tree_group(3).closure([TreeSylowGroup(4).single(1, 0)]),
    lambda: tree_group(3).closure([metacyclic_group(3, 2, 2).a()]),
    lambda: tree_group(3).single(1, 0) in tree_group(4).closure([tree_group(4).single(1, 0)]),
    lambda: tree_group(3).conjugacy_class(tree_group(2).single(1, 0)),
    lambda: metacyclic_group(3, 2, 2).index(metacyclic_group(3, 2, 3).a()),
    lambda: heisenberg_group(3, 1, 1).index(HeisenbergGroup(5, 1, 1).a()),
    lambda: tree_group(3).index(tree_group(2).single(1, 0)),
    lambda: tree_group(3).index(metacyclic_group(3, 2, 2).a()),
], ids=["mc-params", "mc-platform", "mm-params", "tree-depth", "tree-platform",
        "tree-contains", "tree-class", "mc-index", "mm-index", "tree-index",
        "tree-index-platform"])
def test_group_methods_refuse_elements_of_other_groups(refuse):
    with pytest.raises(ParamMismatchError, match="different group"):
        refuse()


# -------------------------------------------------- mismatches still raise

@pytest.mark.parametrize("other", [
    metacyclic_group(5, 2, 1).a(),
    metacyclic_group(3, 3, 1).a(),
    MetacyclicGroup(3, 2, 1).a(),
])
def test_metacyclic_mismatched_params_raise(other):
    g = metacyclic_group(3, 2, 2).a()  # same exponents as `other`
    with pytest.raises(ParamMismatchError, match="different parameters"):
        g * other
    with pytest.raises(ParamMismatchError, match="different parameters"):
        g.conjugate_by(other)
    assert g != other


@pytest.mark.parametrize("other", [
    heisenberg_group(5, 1, 1).a(),
    heisenberg_group(3, 2, 1).a(),
    HeisenbergGroup(3, 1, 2).a(),
])
def test_heisenberg_mismatched_params_raise(other):
    g = heisenberg_group(3, 1, 1).a()  # same exponents as `other`
    with pytest.raises(ParamMismatchError, match="different parameters"):
        g * other
    with pytest.raises(ParamMismatchError, match="different parameters"):
        g.conjugate_by(other)
    assert g != other


@pytest.mark.parametrize("other", [tree_group(2).identity(), TreeSylowGroup(4).identity()])
def test_tree_depth_mismatch_raises(other):
    g = tree_group(3).identity()  # same packed bits as `other`
    with pytest.raises(DepthMismatchError, match="depth mismatch"):
        g * other
    with pytest.raises(DepthMismatchError, match="depth mismatch"):
        g.conjugate_by(other)
    assert g != other


ONE_PER_PLATFORM = [
    metacyclic_group(3, 2, 1).a(), heisenberg_group(3, 1, 1).a(), tree_group(3).single(0, 0),
]


@pytest.mark.parametrize("g,other", [
    (g, other)
    for g in ONE_PER_PLATFORM
    for other in [3, None, (1, 0), *ONE_PER_PLATFORM]
    if other.__class__ is not g.__class__
])
def test_non_element_operand_raises_type_error(g, other):
    expected = f"expected a {type(g).__name__}"
    with pytest.raises(TypeError, match=expected):
        g * other
    with pytest.raises(TypeError, match=expected):
        g.conjugate_by(other)
    assert g != other


# ------------------------------------ results equal the public constructor's

@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 2, 1), (5, 3, 2), (7, 2, 3), (65537, 2, 1), (2**61 - 1, 3, 2)]),
       EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS)
def test_metacyclic_results_match_public_constructor(params, i1, j1, i2, j2):
    G = metacyclic_group(*params)
    g, h = G.element(i1, j1), G.element(i2, j2)

    def t(j):
        return pow(G.twist, j, G.pm)

    cases = [
        (g * h, G.element(g.i + h.i * t(g.j), g.j + h.j)),
        (g.inverse(), G.element(-g.i * t(-g.j), -g.j)),
        (h.conjugate_by(g), G.element(h.i * t(g.j) + g.i * (1 - t(h.j)), h.j)),
        (h.conjugate_by(g), g * h * g.inverse()),
        (parse_metacyclic(g.canonical()), g),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert type(got) is MetaElement
        assert 0 <= got.i < G.pm and 0 <= got.j < G.pn
        assert got.group is G
        assert_immutable(got, "group", "i", "j")
    assert g * g.inverse() == G.identity() == g.inverse() * g


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 1, 1), (5, 2, 1), (7, 1, 3), (65537, 1, 1)]),
       EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS)
def test_heisenberg_results_match_public_constructor(params, i1, j1, k1, i2, j2, k2):
    G = heisenberg_group(*params)
    g, h = G.element(i1, j1, k1), G.element(i2, j2, k2)
    cases = [
        (g * h, G.element(g.i + h.i, g.j + h.j, g.k + h.k - g.j * h.i)),
        (g.inverse(), G.element(-g.i, -g.j, -g.k - g.i * g.j)),
        (h.conjugate_by(g), conjugate_via_products(h, g)),
        (parse_heisenberg(g.canonical()), g),
    ]
    for got, want in cases:
        assert got == want and hash(got) == hash(want)
        assert type(got) is HeisenbergElement
        assert 0 <= got.i < G.pm and 0 <= got.j < G.pn and 0 <= got.k < G.p
        assert got.group is G
        assert_immutable(got, "group", "i", "j", "k")
    assert g * g.inverse() == G.identity() == g.inverse() * g


@st.composite
def portraits(draw, G):
    # Dense, or labelled on the bottom level only: the shared-zero-mask case.
    bottom = (1 << (G.leaves >> 1)) - 1
    packed = draw(st.integers(min_value=0, max_value=G.order - 1))
    return G.from_packed(packed & draw(st.sampled_from([G.order - 1, bottom])))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=6))
def test_tree_results_match_public_constructor(data, k):
    G = tree_group(k)
    g, h = data.draw(portraits(G)), data.draw(portraits(G))
    pg, ph = g.to_permutation(), h.to_permutation()
    for got in (g * h, g.inverse(), h.conjugate_by(g), parse_tree(g.canonical())):
        want = G.from_packed(got.packed)  # raises if out of range
        assert got == want and hash(got) == hash(want)
        assert type(got) is Portrait
        assert got.group is G
        assert_immutable(got, "group", "packed", "_masks")
    assert (g * h).to_permutation() == compose_perms(pg, ph)
    assert compose_perms(g.inverse().to_permutation(), pg) == tuple(range(G.leaves))
    assert g * g.inverse() == G.identity() == g.inverse() * g


# ------------------------------------------------------------- the contract

@pytest.mark.parametrize("g", ONE_PER_PLATFORM, ids=["metacyclic", "heisenberg", "tree"])
def test_every_platform_answers_the_contract(g):
    G = g.group
    elements = list(G.elements())
    assert G.order == len(elements) == G.p ** G.log_order
    assert {type(w) for w in elements} == {type(g)}
    gens = G.generator_elements()
    center = [w for w in elements if w.is_central()]
    for w in elements:
        assert w.is_central() == all(w * x == x * w for x in gens), w
    indices = range(G.first_private, G.commuting_subgroup_order())
    privates = [G.commuting_conjugator(s) for s in indices]
    rng = SplitMix64(3)
    for _ in range(50):
        assert sample_private(G, rng) in privates
    assert G.identity() in center and len(center) > 1
    for w in [G.identity(), *center, *privates]:
        assert not validate_base(w), w
    assert validate_base(G.default_base())
    # private_log: on every usable base (dense ones too, on the tree), an
    # index whose private moves the base to each drawn public, and a
    # refusal for every element outside the base's orbit.
    every_private = [G.commuting_conjugator(s) for s in range(G.commuting_subgroup_order())]
    for w in filter(validate_base, elements):
        for _ in range(4):
            w_x = w.conjugate_by(sample_private(G, rng))
            assert w.conjugate_by(G.commuting_conjugator(G.private_log(w, w_x))) == w_x
        orbit = {w.conjugate_by(x) for x in every_private}
        for h in elements:
            if h not in orbit:
                with pytest.raises(NoSolutionError):
                    G.private_log(w, h)


@pytest.mark.parametrize("G", [
    metacyclic_group(3, 2, 2), heisenberg_group(3, 1, 2), tree_group(1), tree_group(2), tree_group(3),
], ids=["metacyclic", "heisenberg", "tree-1", "tree-2", "tree-3"])
def test_index_is_the_position_in_elements(G):
    assert [G.index(g) for g in G.elements()] == list(range(G.order))


# ------------------------------------------------------ the shared element base

@pytest.mark.parametrize("g,h", [
    (metacyclic_group(3, 2, 1).element(2, 1), metacyclic_group(3, 2, 1).a()),
    (heisenberg_group(5, 1, 1).element(2, 3, 4), heisenberg_group(5, 1, 1).b()),
    (tree_group(3).from_packed(0b1011001), tree_group(3).single(0, 0)),
], ids=["metacyclic", "heisenberg", "tree"])
def test_shared_base_powers_commutation_and_immutability(g, h):
    G = g.group
    for e in range(1, 4):
        assert power(g, -e) == power(g, e).inverse()
        assert g * power(g, e) == power(g, e) * g
    assert g * G.identity() == g == G.identity() * g
    assert g * h != h * g
    with pytest.raises(AttributeError, match="is immutable"):
        g.group = G
    with pytest.raises(AttributeError):
        g.unknown = 0


@pytest.mark.parametrize("g,text", [
    (metacyclic_group(3, 2, 2).element(4, 5), "<a^4 b^5 | p=3,m=2,n=2>"),
    (heisenberg_group(5, 2, 1).element(7, 3, 2), "<a^7 b^3 c^2 | p=5,m=2,n=1>"),
    (tree_group(3).from_packed(0x40), "Portrait(k=3, bits=0x40)"),
], ids=["metacyclic", "heisenberg", "tree"])
def test_element_repr(g, text):
    assert repr(g) == text


@pytest.mark.parametrize("factory, parse", [
    (metacyclic_group, parse_metacyclic),
    (heisenberg_group, parse_heisenberg),
], ids=["metacyclic", "heisenberg"])
def test_pgroup_text_past_the_digit_limit_raises_package_errors(factory, parse):
    # Python converts ints of at most 4300 decimal digits to and from text.
    G = factory(3, 9000, 1)  # 3^9000 has 4,295 digits, so p^m - 1 fits
    big = G.a(-1)
    assert parse(big.canonical()) == big
    # 3^9100 has 4,342: the group is refused before any element exists.
    with pytest.raises(TooLargeError, match=r"must be below 10\^4300"):
        factory(3, 9100, 1)
    fields = ";".join(["i=" + "9" * 4301, "j=0", "k=0"][: len(G.moduli)])
    with pytest.raises(ParseError, match="a field is too long to read"):
        parse(f"{G.tag};{fields}")


# ------------------------------------------- the p-group element body (PElement)

PGROUP_PLATFORMS = pytest.mark.parametrize(
    "group_class, factory",
    [(MetacyclicGroup, metacyclic_group), (HeisenbergGroup, heisenberg_group)],
    ids=["metacyclic", "heisenberg"],
)

# Equality and hash come from `core.Element` on all three platforms.
ELEMENT_PLATFORMS = pytest.mark.parametrize(
    "group_class, factory, params",
    [
        (MetacyclicGroup, metacyclic_group, (5, 2, 2)),
        (HeisenbergGroup, heisenberg_group, (5, 2, 2)),
        (TreeSylowGroup, tree_group, (4,)),
    ],
    ids=["metacyclic", "heisenberg", "tree"],
)


def sample_element(G):
    if isinstance(G, TreeSylowGroup):
        return G.from_packed(0x5A5A)
    return G.element(*(7, 13, 4)[: len(G.moduli)])


def element_value(g):
    """What `Element` compares and hashes: a portrait's packed labels, a
    p-group element's exponent tuple."""
    if isinstance(g, Portrait):
        return g.packed
    names = type(g).exponent_names
    assert names == type(g).__slots__[1:] == ("i", "j", "k")[: len(g.group.moduli)]
    return tuple(getattr(g, name) for name in names)


@pytest.mark.parametrize("factory", [metacyclic_group, heisenberg_group], ids=["metacyclic", "heisenberg"])
@pytest.mark.parametrize("p,m,n", [(3, 2, 1), (3, 2, 2), (5, 2, 1)])
def test_pgroup_generators_are_a_minimal_generating_set(factory, p, m, n):
    G = factory(p, m, n)
    assert G.generator_elements() == [G.a(), G.b()]
    a, b = G.generator_elements()
    # G is not abelian, so not cyclic: no single element generates it.
    assert a * b != b * a
    span = frontier = {G.identity()}
    while frontier:
        frontier = {x * g for x in frontier for g in (a, b)} - span
        span = span | frontier
    assert len(span) == G.order


@ELEMENT_PLATFORMS
def test_pgroup_elements_hash_as_their_exponent_tuple(group_class, factory, params):
    G = factory(*params)
    for g in [*G.generator_elements(), sample_element(G)]:
        assert hash(g) == hash(element_value(g))


@ELEMENT_PLATFORMS
def test_pgroup_elements_of_equal_distinct_groups_are_equal(group_class, factory, params):
    interned, fresh = factory(*params), group_class(*params)
    assert fresh is not interned
    g, h = sample_element(interned), sample_element(fresh)
    g.inverse()  # builds a portrait's mask cache on g alone: not part of its value
    assert g == h and h == g and hash(g) == hash(h) and len({g, h}) == 1


def test_pgroup_elements_of_other_groups_are_never_equal():
    same_exponents = [
        metacyclic_group(3, 2, 2).element(1, 1),
        metacyclic_group(3, 2, 3).element(1, 1),
        metacyclic_group(5, 2, 2).element(1, 1),
        heisenberg_group(3, 2, 2).element(1, 1, 0),
        heisenberg_group(3, 1, 2).element(1, 1, 0),
        tree_group(3).from_packed(1),
        tree_group(4).from_packed(1),
    ]
    for x in same_exponents:
        for y in same_exponents:
            assert (x == y) is (x is y) and (x != y) is (x is not y)
    assert len(set(same_exponents)) == len(same_exponents)


@PGROUP_PLATFORMS
def test_pgroup_constructor_refuses_the_wrong_arity(group_class, factory):
    G = factory(3, 2, 2)
    arity = len(G.moduli)
    for count in {0, 1, arity - 1, arity + 1}:
        with pytest.raises(TypeError, match=f"takes {arity} exponents"):
            G.element(*range(count))
    # The element class is no constructor, at any arity: only the group builds.
    for count in {0, 1, arity - 1, arity, arity + 1}:
        with pytest.raises(TypeError):
            G.element_class(G, *range(count))


def test_element_classes_refuse_a_call():
    G, H, T = metacyclic_group(3, 2, 2), heisenberg_group(3, 2, 2), tree_group(3)
    for build in (
        lambda: MetaElement(G, 1, 0),
        lambda: HeisenbergElement(H, 1, 0, 0),
        lambda: Portrait(T, 1),
    ):
        with pytest.raises(TypeError):
            build()


@PGROUP_PLATFORMS
@pytest.mark.parametrize("bad", [1.5, "1", None, 2 ** 70 + 0.0], ids=repr)
def test_pgroup_element_refuses_non_int_exponents(group_class, factory, bad):
    G = factory(3, 2, 2)
    zeros = (0,) * (len(G.moduli) - 1)
    for exponents in ((bad, *zeros), (*zeros, bad)):
        with pytest.raises(TypeError, match="exponents must be ints"):
            G.element(*exponents)


@PGROUP_PLATFORMS
def test_pgroup_element_takes_bools_as_ints(group_class, factory):
    G = factory(3, 2, 2)
    zeros = (0,) * (len(G.moduli) - 2)
    g = G.element(True, False, *zeros)
    assert g == G.element(1, 0, *zeros) and g.canonical() == G.a().canonical()
    assert all(type(e) is int for e in g._value(g))


@pytest.mark.parametrize("bad", [1.5, "1", None, 1.0], ids=repr)
def test_tree_from_packed_refuses_non_ints(bad):
    with pytest.raises(TypeError, match="packed value must be an int"):
        tree_group(3).from_packed(bad)


@pytest.mark.parametrize("build, message", [
    (lambda T: T.from_level_masks({2: 1.5}), "mask for level 2 must be an int, not float"),
    (lambda T: T.from_level_masks({1.0: 1}), "level must be an int, not float"),
    (lambda T: T.single(1, 0.0), "position must be an int, not float"),
    (lambda T: T.identity().bit(1, 0.0), "position must be an int, not float"),
], ids=["mask", "level", "single-position", "bit-position"])
def test_tree_refuses_non_int_levels_positions_and_masks(build, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build(tree_group(3))


def test_tree_levels_positions_and_masks_take_bools_as_ints():
    T = tree_group(3)
    g = T.from_level_masks({True: True})
    assert g == T.single(True, False) == T.single(1, 0) and type(g.packed) is int
    assert g.bit(True, False) == 1


def test_tree_refuses_negative_input_as_negative():
    T = tree_group(3)
    for refuse in (lambda: T.from_packed(-1), lambda: T.from_packed(-(1 << 70))):
        with pytest.raises(ValueError, match="packed value -[0-9]+ is negative"):
            refuse()
    for level, mask in ((2, -1), (0, -2), (1, -(1 << 70))):
        with pytest.raises(ValueError, match=f"for level {level} is negative"):
            T.from_level_masks({level: mask})
    # Too wide is still worded as too wide.
    with pytest.raises(ValueError, match="more bits than the tree has vertices"):
        T.from_packed(1 << T.bit_count)
    with pytest.raises(ValueError, match="too wide for level 2"):
        T.from_level_masks({2: 16})


def test_tree_from_packed_takes_bools_as_ints():
    T = tree_group(3)
    g = T.from_packed(True)
    assert g == T.from_packed(1) and type(g.packed) is int
    assert g.canonical() == "tg:k=3;bits=1" and T.from_packed(False) == T.identity()


@PGROUP_PLATFORMS
def test_pgroup_canonical_round_trips_through_parse_element(group_class, factory):
    G = factory(7, 3, 2)
    for exponents in [(0, 0, 0), (1, 2, 3), (-1, -1, -1), (343, 49, 7), (10 ** 9, 3, 5)]:
        g = G.element(*exponents[: len(G.moduli)])
        text = g.canonical()
        back = parse_element(text)
        assert back == g and back.group is G and back.canonical() == text


@pytest.mark.parametrize("refuse", [
    lambda: metacyclic_group(3, 13, 2).elements(),
    lambda: heisenberg_group(3, 13, 2).center_elements(),
    lambda: tree_group(5).elements(),
    lambda: tree_group(6).level_subgroup(5),
    lambda: tree_group(5).closure(tree_group(5).generator_elements()).elements(),
], ids=["pgroup", "pgroup-centre", "tree", "tree-level", "tree-subgroup"])
def test_every_enumeration_refusal_is_a_too_large_error(refuse):
    # One limit, one exception type: `except TooLargeError` catches every
    # platform's refusal, raised at the call.
    with pytest.raises(TooLargeError, match=r" is beyond enumeration$"):
        refuse()


@PGROUP_PLATFORMS
@pytest.mark.parametrize("at_limit, past_limit", [
    ((9012, 1), (9013, 1)),
    ((2, 9012), (2, 9013)),
], ids=["m", "n"])
def test_pgroup_size_limit_is_reachable_and_exact(group_class, factory, at_limit, past_limit):
    # 3^9012 has 4,300 digits, the most Python prints; 3^9013 has 4,301.
    G = group_class(3, *at_limit)
    for g in (G.a(-1), G.b(-1)):
        assert parse_element(g.canonical()) == g
    # |G| itself passes the limit; the refusal names it as a power.
    with pytest.raises(TooLargeError, match=rf"^\|G\| = 3\^{G.log_order} is beyond enumeration$"):
        G.elements()
    with pytest.raises(TooLargeError, match=rf"^\|Z\(G\)\| = 3\^{G.log_order - 2} is beyond"):
        G.center_elements()
    with pytest.raises(TooLargeError, match=r"must be below 10\^4300"):
        group_class(3, *past_limit)
