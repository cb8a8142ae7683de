import hashlib
import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conjkex.cli import main
from conjkex.errors import (
    DepthMismatchError,
    DepthTooLargeError,
    LevelOutOfRangeError,
    NoSolutionError,
    NotAGroupError,
    ParseError,
    TooLargeError,
)
from conjkex.kex import validate_base
from conjkex.treegroup import (
    MAX_DEPTH,
    MAX_SUBGROUP_DEPTH,
    Portrait,
    TreeSylowGroup,
    _reverse,
    parse_canonical,
    tree_group,
)
from oracles import commutator, compose_perms, frattini_by_basis


def perm_parity_even(perm):
    seen = [False] * len(perm)
    transpositions = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        transpositions += length - 1
    return transpositions % 2 == 0


def brute_all_pairs_derived(group, elements):
    seeds = {commutator(x, y) for x in elements for y in elements}
    return scratch_closure(group, seeds)


def scratch_closure(group, gens):
    """Oracle: plain worklist closure, rebuilt from the identity."""
    gens = list(gens)
    els = {group.identity()} | set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return frozenset(els)


def every_element_normal_closure(group, seeds, gens):
    """Oracle: normal closure that conjugates every subgroup element each
    round and rebuilds the closure from scratch."""
    seeds = set(seeds)
    pairs = [(g.inverse(), g) for g in gens]
    subgroup = scratch_closure(group, seeds)
    while True:
        extra = {g_inv * x * g for x in subgroup for g_inv, g in pairs} - subgroup
        if not extra:
            return subgroup
        seeds |= extra
        subgroup = scratch_closure(group, seeds)


def every_element_derived(group, gens):
    seeds = {commutator(x, y) for x, y in combinations(gens, 2)}
    seeds.discard(group.identity())
    return every_element_normal_closure(group, seeds, gens)


# ---------------------------------------------------------------- examples

def test_permutation_examples():
    G = tree_group(2)
    assert G.identity().to_permutation() == (0, 1, 2, 3)
    assert G.single(0, 0).to_permutation() == (2, 3, 0, 1)  # (0 2)(1 3)
    assert G.single(1, 0).to_permutation() == (1, 0, 2, 3)  # (0 1)


def test_compose_examples():
    G = tree_group(2)
    root = G.single(0, 0)
    g = G.from_level_masks({0: 1, 1: 0b10})
    assert g * G.identity() == g
    assert G.identity() * g == g
    assert root * root == G.identity()
    assert G.single(1, 1) * G.single(1, 1) == G.identity()


def test_parity_examples():
    G = tree_group(2)
    assert G.identity().is_even()
    assert not G.single(1, 0).is_even()   # (0 1) is odd
    assert G.single(0, 0).is_even()       # (0 2)(1 3) is even


def test_level_subgroup_examples():
    assert len(tree_group(3).level_subgroup(1)) == 4
    assert sum(g.is_even() for g in tree_group(3).level_subgroup(2)) == 8
    assert len(tree_group(2).level_subgroup(0)) == 2


def test_order_examples():
    assert tree_group(2).order == 8
    assert tree_group(2).order >> 1 == 4
    assert tree_group(3).order >> 1 == 64


def test_derived_subgroup_examples():
    G2 = tree_group(2)
    even4 = [g for g in G2.elements() if g.is_even()]
    assert G2.derived_subgroup(even4).order == 1  # Klein group is abelian
    G3 = tree_group(3)
    derived = G3.derived_subgroup(G3.even_generators())
    assert derived.order == 8  # 2^(8-3-2)
    assert G3.derived_subgroup([G3.identity()]).elements() == frozenset({G3.identity()})


def test_minimal_generating_size_examples():
    G2 = tree_group(2)
    assert G2.minimal_generating_size(G2.closure([G2.identity()])) == 0
    klein = G2.level_subgroup(1)  # elementary abelian of rank 2
    assert G2.minimal_generating_size(G2.closure(klein)) == 2
    assert G2.minimal_generating_size_brute(klein) == 2


# -------------------------------------------------------------- invariants

@pytest.mark.parametrize("k", [2, 3])
def test_to_permutation_is_a_homomorphism(k):
    G = tree_group(k)
    elems = list(G.elements())
    for g, h in product(elems, repeat=2):
        assert (g * h).to_permutation() == compose_perms(
            g.to_permutation(), h.to_permutation()
        )


@pytest.mark.parametrize("k", [2, 3])
def test_parity_rule_exhaustive(k):
    G = tree_group(k)
    for g in G.elements():
        assert g.is_even() == perm_parity_even(g.to_permutation())


def test_parity_rule_random_k4():
    G = tree_group(4)
    rng = random.Random(23)
    for _ in range(10_000):
        g = G.from_packed(rng.randrange(1 << G.bit_count))
        assert g.is_even() == perm_parity_even(g.to_permutation())


@pytest.mark.parametrize("k", [2, 3])
def test_inverse_exhaustive(k):
    G = tree_group(k)
    for g in G.elements():
        assert g * g.inverse() == G.identity()
        assert g.inverse() * g == G.identity()


def test_inverse_random_k4():
    G = tree_group(4)
    rng = random.Random(29)
    for _ in range(2000):
        g = G.from_packed(rng.randrange(1 << G.bit_count))
        assert g * g.inverse() == G.identity()


def test_associativity_random():
    G = tree_group(4)
    rng = random.Random(31)
    for _ in range(2000):
        g, h, k = (G.from_packed(rng.randrange(1 << G.bit_count)) for _ in range(3))
        assert (g * h) * k == g * (h * k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_level_subgroups_commute_and_have_doubling_size(k):
    G = tree_group(k)
    for level in range(k):
        members = G.level_subgroup(level)
        assert len(members) == 1 << (1 << level)
        assert len(members) == G.level_subgroup_order(level)
        for g, h in combinations(members, 2):
            assert g * h == h * g
        # closed under composition: XOR of masks
        member_set = set(members)
        for g, h in combinations(members, 2):
            assert g * h in member_set


def test_enumerated_orders_match_formulas():
    for k in (2, 3, 4):
        G = tree_group(k)
        all_count = sum(1 for _ in G.elements())
        even_count = sum(g.is_even() for g in G.elements())
        assert all_count == G.order == 1 << ((1 << k) - 1)
        assert even_count == G.order >> 1 == 1 << ((1 << k) - 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_generators_generate(k):
    G = tree_group(k)
    assert G.closure(G.generator_elements()).order == G.order
    closure_a = G.closure(G.even_generators())
    assert closure_a.elements() == frozenset(g for g in G.elements() if g.is_even())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_generating_sets_are_minimal(k):
    # Each list has k portraits, and the engine measures the rank of the
    # group they generate as k, so no smaller set generates it.
    G = tree_group(k)
    for gens in (G.generator_elements(), G.even_generators()):
        assert len(gens) == G.minimal_generating_size(G.closure(gens)) == k
    even = G.even_generators()
    assert G.closure(even).order == G.order >> 1
    assert all(g.is_even() for g in even)


def test_even_generators_at_depth_one():
    G = tree_group(1)
    assert G.even_generators() == [G.identity()]
    assert G.closure(G.even_generators()).order == 1


@pytest.mark.parametrize("k", [2, 3])
def test_derived_subgroup_matches_all_pairs_brute_force(k):
    G = tree_group(k)
    even = [g for g in G.elements() if g.is_even()]
    via_generators = G.derived_subgroup(G.even_generators())
    via_all_pairs = brute_all_pairs_derived(G, even)
    assert via_generators.elements() == via_all_pairs
    assert via_generators.order == len(via_all_pairs) == 1 << ((1 << k) - k - 2)


def test_derived_subgroup_of_s_sylow():
    # sanity for the subgroup engine on a second family
    G = tree_group(3)
    derived_s = G.derived_subgroup(G.generator_elements())
    brute = brute_all_pairs_derived(G, list(G.elements()))
    assert derived_s.elements() == brute


def test_min_gen_methods_agree_on_derived_subgroups():
    for k in (2, 3):
        G = tree_group(k)
        derived = G.derived_subgroup(G.even_generators())
        fast = G.minimal_generating_size(derived)
        brute = G.minimal_generating_size_brute(derived.elements())
        assert fast == brute


def test_engine_basis_is_a_polycyclic_sequence():
    # Deepest first, each basis element lies outside the subgroup that
    # the ones before it generate, and that subgroup has 2^i elements:
    # the order 2^|basis| counts the oracle's closure.
    G3 = tree_group(3)
    rng = random.Random(7)
    elements = list(G3.elements())
    groups = [G3.closure(rng.sample(elements, 3)) for _ in range(20)]
    G4 = tree_group(4)
    groups.append(G4.derived_subgroup(G4.even_generators()))
    for H in groups:
        basis = H.basis
        leading = [g.packed.bit_length() for g in basis]
        assert leading == sorted(set(leading))
        for i, g in enumerate(basis):
            below = scratch_closure(H.group, basis[:i])
            assert len(below) == 1 << i
            assert g not in below
        assert scratch_closure(H.group, basis) == H.elements()
        assert len(H.elements()) == H.order


# Generating sets whose commutators close to a subgroup that is not yet
# normal, so the derived subgroup needs the normal-closure step.  The last
# one also needs conjugates of more than one commutator.
NOT_NORMAL_YET = [
    ["tg:k=3;bits=10", "tg:k=3;bits=41"],
    ["tg:k=3;bits=7", "tg:k=3;bits=63", "tg:k=3;bits=6e"],
    ["tg:k=3;bits=72", "tg:k=3;bits=44"],
    ["tg:k=3;bits=1c", "tg:k=3;bits=51", "tg:k=3;bits=3"],
]


@pytest.mark.parametrize("texts", NOT_NORMAL_YET)
def test_derived_subgroup_needs_the_normal_closure(texts):
    G = tree_group(3)
    gens = [parse_canonical(t) for t in texts]
    seeds = {commutator(x, y) for x, y in combinations(gens, 2)}
    derived = G.derived_subgroup(gens)
    assert derived.order > len(scratch_closure(G, seeds))
    assert derived.elements() == brute_all_pairs_derived(G, scratch_closure(G, gens))
    assert derived.elements() == every_element_derived(G, gens)
    brute = G.minimal_generating_size_brute(derived.elements())
    assert G.minimal_generating_size(derived) == brute


@pytest.mark.parametrize("k", [3, 4])
def test_incremental_closure_matches_scratch_closure(k):
    G = tree_group(k)
    rng = random.Random(100 + k)
    for _ in range(8):
        # Each label is set with probability 1/8: thin portraits keep most
        # subgroups proper (one of the k=4 sets still generates all of S).
        draws = [
            G.from_packed(
                rng.getrandbits(G.bit_count)
                & rng.getrandbits(G.bit_count)
                & rng.getrandbits(G.bit_count)
            )
            for _ in range(rng.randint(1, 4))
        ]
        used = []
        while len(used) < len(draws):
            # Grow the generating set by one or two at a time.
            used += draws[len(used):len(used) + rng.randint(1, 2)]
            H = G.closure(used)
            oracle = scratch_closure(G, used)
            assert H.elements() == oracle
            assert H.order == len(oracle)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_derived_subgroup_matches_every_element_normal_closure(k):
    G = tree_group(k)
    gens = G.even_generators()
    assert G.derived_subgroup(gens).elements() == every_element_derived(G, gens)


def test_tree_command_long_reaches_k4_closures(capsys):
    assert main(["tree", "-k", "4", "--long"]) == 0
    facts = json.loads(capsys.readouterr().out)
    assert facts["derived_order"] == "1024"
    assert facts["derived_min_generators"] == "5"


# ------------------------------------------------- the subgroup engine

def thin_portraits(k):
    """Portraits with each label set with probability about 1/8, so most
    subgroups they generate stay proper and small enough to enumerate."""
    bits = st.integers(0, (1 << ((1 << k) - 1)) - 1)
    return st.tuples(bits, bits, bits).map(lambda t: t[0] & t[1] & t[2])


@st.composite
def generator_sets(draw, ks):
    G = tree_group(draw(st.sampled_from(ks)))
    packed = draw(st.lists(thin_portraits(G.k), min_size=1, max_size=3))
    return G, [G.from_packed(p) for p in packed]


@settings(max_examples=60, deadline=None)
@given(generator_sets((2, 3, 4)))
def test_closure_matches_scratch_closure_and_sift_is_membership(case):
    G, gens = case
    H = G.closure(gens)
    oracle = scratch_closure(G, gens)
    assert H.elements() == oracle
    assert H.order == len(oracle)
    if G.k <= 3:
        candidates = list(G.elements())
    else:
        # Members and their neighbours across each generator of S.
        candidates = [g * s for g in oracle for s in (G.identity(), *G.generator_elements())]
    for g in candidates:
        assert (g in H) == (g in oracle)
        assert (H.sift(g).packed == 0) == (g in oracle)


@settings(max_examples=40, deadline=None)
@given(generator_sets((2, 3)))
def test_derived_subgroup_matches_every_element_derived(case):
    G, gens = case
    derived = G.derived_subgroup(gens)
    assert derived.elements() == every_element_derived(G, gens)


@settings(max_examples=40, deadline=None)
@given(generator_sets((3,)))
def test_rank_matches_brute_force_search(case):
    G, gens = case
    H = G.closure(gens)
    assume(H.order <= 16)  # the brute search takes about |H|^(rank+1) products
    brute = G.minimal_generating_size_brute(H.elements())
    assert G.minimal_generating_size(H) == brute
    assert G.minimal_generating_size(G.closure(H.elements())) == brute


# log2 |G'| and the rank of G' for the Sylow 2-subgroup of A_(2^k), past
# where G' can be enumerated: 2^k - k - 2 and 2k - 3 (the paper).
DERIVED_PINS = {5: (25, 7), 6: (56, 9), 7: (119, 11)}


@pytest.mark.parametrize("k", sorted(DERIVED_PINS))
def test_derived_order_and_rank_pinned_beyond_enumeration(k):
    G = tree_group(k)
    gens = G.even_generators()
    derived = G.derived_subgroup(gens)
    log_order, rank = DERIVED_PINS[k]
    assert derived.order == 1 << log_order
    assert G.minimal_generating_size(derived) == rank
    rng = random.Random(k)
    for _ in range(20):
        assert commutator(*rng.sample(gens, 2)) in derived
    assert G.default_base() not in derived  # odd, so outside A


def same_subgroup(H, K):
    """Equal orders and each basis inside the other subgroup."""
    return (H.order == K.order and all(g in K for g in H.basis)
            and all(g in H for g in K.basis))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_frattini_under_the_normalisers_matches_the_basis_route(k):
    G = tree_group(k)
    derived = G.derived_subgroup(G.even_generators())
    assert same_subgroup(derived.frattini(), frattini_by_basis(derived))


@settings(max_examples=40, deadline=None)
@given(generator_sets((3, 4)))
def test_frattini_of_closures_matches_the_basis_route(case):
    G, gens = case
    for H in (G.closure(gens), G.derived_subgroup(gens)):
        assert same_subgroup(H.frattini(), frattini_by_basis(H))


# The engine on fresh generators: k -> (|basis(G')|, |basis(Phi(G'))|,
# products that Phi(G') takes).  G' builds two mask tuples per stored
# element (each basis element and generator, and its inverse), Phi(G')
# two per basis element of its own.
ENGINE_COUNTS = {4: (10, 5, 264), 5: (25, 18, 1926), 6: (56, 47, 10339)}


@pytest.mark.parametrize("k", sorted(ENGINE_COUNTS))
def test_engine_builds_masks_once_per_stored_element(monkeypatch, k):
    counts = {"masks": 0, "products": 0}
    swap_masks, mul = TreeSylowGroup._swap_masks, Portrait.__mul__

    def counted_masks(self, packed):
        counts["masks"] += 1
        return swap_masks(self, packed)

    def counted_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    monkeypatch.setattr(TreeSylowGroup, "_swap_masks", counted_masks)
    monkeypatch.setattr(Portrait, "__mul__", counted_mul)
    G = tree_group(k)
    gens = G.even_generators()
    basis, phi_basis, phi_products = ENGINE_COUNTS[k]
    counts.update(masks=0, products=0)
    derived = G.derived_subgroup(gens)
    assert len(derived.basis) == basis
    assert counts["masks"] == 2 * (basis + k)
    counts.update(masks=0, products=0)
    phi = derived.frattini()
    assert len(phi.basis) == phi_basis
    assert counts == {"masks": 2 * phi_basis, "products": phi_products}


def test_tree_command_long_reaches_the_engine_limit(capsys):
    k = MAX_SUBGROUP_DEPTH
    assert main(["tree", "-k", str(k), "--long"]) == 0
    facts = json.loads(capsys.readouterr().out)
    # 2^246 at k = 8: past what len() can return.
    assert facts["derived_order"] == str(1 << ((1 << k) - k - 2))
    assert facts["derived_min_generators"] == str(2 * k - 3)
    assert main(["tree", "-k", str(k + 1), "--long"]) == 2
    assert capsys.readouterr().err == f"error: subgroup engine limited to k <= {k}\n"


@pytest.mark.parametrize("k", [MAX_SUBGROUP_DEPTH + 1, 16, 20])
def test_tree_command_long_refuses_before_building_generators(capsys, monkeypatch, k):
    # The engine refuses past its limit, after even_generators() has
    # built its k portraits of 2^k bits each (about 2.6 MB at k = 20); a
    # generator list that grew with the tree, 2^(k-1) portraits, would
    # take 64 GB there.
    even_generators = TreeSylowGroup.even_generators

    def k_portraits(self):
        gens = even_generators(self)
        assert len(gens) == self.k
        return gens

    monkeypatch.setattr(TreeSylowGroup, "even_generators", k_portraits)
    assert main(["tree", "-k", str(k), "--long"]) == 2
    assert capsys.readouterr().err == (
        f"error: subgroup engine limited to k <= {MAX_SUBGROUP_DEPTH}\n"
    )


@pytest.mark.parametrize("k", [2, 3])
def test_conjugacy_class_and_center_match_brute_force(k):
    G = tree_group(k)
    elements = list(G.elements())
    for w in elements:
        brute = frozenset(x.inverse() * w * x for x in elements)
        assert G.conjugacy_class(w) == brute
        assert w.is_central() == (len(brute) == 1)
    center = {w for w in elements if w.is_central()}
    all_bottom = G.from_level_masks({k - 1: (1 << (1 << (k - 1))) - 1})
    assert center == {G.identity(), all_bottom}


def commutes_with_generators(G, w):
    """Oracle: w is central iff it commutes with every S-generator."""
    return all(w * g == g * w for g in G.generator_elements())


@pytest.mark.parametrize("k", range(5, 13))
def test_closed_form_center_matches_generator_oracle(k):
    G = tree_group(k)
    rng = random.Random(500 + k)
    bottom = k - 1
    all_bottom = G.from_level_masks({bottom: (1 << (1 << bottom)) - 1})
    cases = [G.identity(), all_bottom]
    for pos in {0, (1 << bottom) - 1, rng.randrange(1 << bottom)}:
        cases.append(G.from_packed(all_bottom.packed ^ (1 << G._shift(bottom, pos))))
    for level in range(k):
        for pos in {0, (1 << level) - 1, rng.randrange(1 << level)}:
            cases.append(G.single(level, pos))
    cases += [random_portrait(G, rng) for _ in range(8)]
    for w in cases:
        assert w.is_central() == commutes_with_generators(G, w), w
    assert all_bottom.is_central() and G.identity().is_central()


@pytest.mark.parametrize("k", [14, MAX_DEPTH])
def test_validate_base_rejects_the_center_at_depth(k):
    G = tree_group(k)
    bottom = k - 1
    all_bottom = G.from_level_masks({bottom: (1 << (1 << bottom)) - 1})
    assert not validate_base(all_bottom)
    assert not validate_base(G.identity())
    assert validate_base(G.default_base())
    assert validate_base(G.from_packed(all_bottom.packed ^ 1))


def string_reverse(bits, width):
    return int(f"{bits:0{width}b}"[::-1], 2)


def test_reverse_matches_string_reversal():
    rng = random.Random(4096)
    for width in list(range(1, (1 << 12) + 1)) + [1 << 18]:
        top = (1 << width) - 1
        for bits in (0, 1, top, 1 << (width - 1), rng.getrandbits(width)):
            assert _reverse(bits, width) == string_reverse(bits, width), (width, bits)


def test_level_masks_roundtrip_at_max_depth():
    G = tree_group(MAX_DEPTH)
    rng = random.Random(20)
    for level in range(MAX_DEPTH):
        width = 1 << level
        # A full `bit` sweep of a 2^19-vertex level is quadratic: sample it.
        positions = {0, width // 2, width - 1, *(rng.randrange(width) for _ in range(32))}
        for mask in (1, (1 << width) - 1, rng.getrandbits(width)):
            g = G.from_level_masks({level: mask})
            assert all(g.bit(level, p) == mask >> p & 1 for p in positions)


@pytest.mark.parametrize("k", [4, 8])
def test_default_base_class_is_every_bottom_swap(k):
    G = tree_group(k)
    bottom = k - 1
    assert G.conjugacy_class(G.default_base()) == frozenset(
        G.single(bottom, pos) for pos in range(1 << bottom)
    )


def test_min_gen_rejects_non_groups():
    G = tree_group(2)
    with pytest.raises(NotAGroupError):
        G.minimal_generating_size_brute([G.single(0, 0), G.single(1, 0)])
    with pytest.raises(NotAGroupError):
        G.minimal_generating_size_brute([G.single(1, 0)])  # missing identity
    assert G.minimal_generating_size_brute([G.identity()]) == 0


def test_depth_and_level_errors():
    with pytest.raises(DepthMismatchError):
        tree_group(2).identity() * tree_group(3).identity()
    with pytest.raises(LevelOutOfRangeError):
        tree_group(3).level_subgroup(3)
    with pytest.raises(DepthTooLargeError):
        list(tree_group(5).elements())
    beyond = tree_group(MAX_SUBGROUP_DEPTH + 1)
    with pytest.raises(DepthTooLargeError):
        beyond.derived_subgroup([beyond.identity()])
    with pytest.raises(DepthTooLargeError):
        beyond.closure([beyond.identity()])
    with pytest.raises(TooLargeError):
        tree_group(5).derived_subgroup(tree_group(5).even_generators()).elements()
    with pytest.raises(ValueError):
        tree_group(0)
    with pytest.raises(ValueError):
        tree_group(21)


def test_enumerations_share_the_one_limit():
    # core.ENUMERATION_CAP = 10^6 elements bounds every enumeration.
    G = tree_group(5)
    with pytest.raises(DepthTooLargeError, match=r"^\|G\| = 2\^31 is beyond enumeration$"):
        G.elements()
    with pytest.raises(DepthTooLargeError, match=r"^\|H\| = 2\^32 is beyond enumeration$"):
        tree_group(6).level_subgroup(5)
    assert len(G.level_subgroup(4)) == 1 << 16
    # The closure of the 16 level-4 generators is that level: 2^16 elements.
    level4 = G.closure(G.single(4, pos) for pos in range(16))
    assert len(level4.elements()) == level4.order == 1 << 16
    # Levels 3 and 4 together generate 2^24 elements, past the limit.
    wide = G.closure(G.single(level, pos) for level in (3, 4) for pos in range(1 << level))
    assert wide.order == 1 << 24
    with pytest.raises(TooLargeError, match=r"^\|H\| = 2\^24 is beyond enumeration$"):
        wide.elements()


def test_deep_tree_arithmetic():
    # pure portrait arithmetic stays exact far beyond enumeration range
    G = tree_group(12)
    rng = random.Random(37)
    g = G.from_packed(rng.randrange(1 << G.bit_count))
    h = G.from_packed(rng.randrange(1 << G.bit_count))
    assert (g * h) * (g * h).inverse() == G.identity()
    assert parse_canonical(g.canonical()) == g


def inverse_perm(perm):
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)


def random_portrait(G, rng):
    return G.from_packed(rng.randrange(1 << G.bit_count))


# Beyond the exhaustive k=2,3 checks: the level-wise kernels against the
# per-leaf oracle `apply`, on dense random portraits.
@pytest.mark.parametrize("k,pairs", [(1, 4), (5, 40), (6, 20), (8, 8), (10, 3), (12, 2)])
def test_product_and_inverse_match_permutation_oracle(k, pairs):
    G = tree_group(k)
    rng = random.Random(100 + k)
    for _ in range(pairs):
        g, h = random_portrait(G, rng), random_portrait(G, rng)
        pg, ph = g.to_permutation(), h.to_permutation()
        assert (g * h).to_permutation() == compose_perms(pg, ph)
        assert g.inverse().to_permutation() == inverse_perm(pg)


def portrait_of(G, perm):
    """Oracle: the portrait acting as `perm`.  The leaf whose path is pos
    then zeros crosses vertex (level, pos) on its 0 side, so the image's
    path bit at that level is the vertex label."""
    k = G.k
    return G.from_level_masks({
        level: sum(
            ((perm[pos << (k - level)] >> (k - 1 - level)) & 1) << pos
            for pos in range(1 << level)
        )
        for level in range(k)
    })


@pytest.mark.parametrize("k", [5, 8, 12])
def test_sparse_products_match_permutation_oracle(k):
    # Left factors labelled on one or two levels, at the field edges,
    # where a mask edge or a stripped span would show.
    G = tree_group(k)
    bottom = k - 1
    last = 1 << ((1 << bottom) - 1)
    masks = [{level: mask} for level in range(k) for mask in (1, 1 << ((1 << level) - 1))]
    masks += [{0: 1, bottom: 1}, {0: 1, bottom: last}]
    masks += [{level: 1 << ((1 << level) - 1), bottom: 1} for level in range(1, bottom)]
    factors = [G.from_level_masks(m) for m in masks]
    perms = {g: g.to_permutation() for g in factors}
    for g, pg in perms.items():
        assert portrait_of(G, pg) == g
        assert g.inverse() == portrait_of(G, inverse_perm(pg))
    for g, h in product(factors, repeat=2):
        assert g * h == portrait_of(G, compose_perms(perms[g], perms[h]))


def reference_swap_masks(G, packed):
    """The full Morton loop: every step at every stage, no shortcuts."""
    k = G.k
    masks = []
    widened = packed
    for j in range(k - 1):
        low = widened >> (G.leaves >> 1)
        for e in range(k - 2, j - 1, -1):
            low = (low | (low << (1 << e))) & G._spread[e]
        masks.append(low)
        widened = low | (low << (1 << j))
    return masks


@pytest.mark.parametrize("k", range(1, 17))
def test_swap_masks_match_full_morton_loop(k):
    G = tree_group(k)
    rng = random.Random(300 + k)

    def random_level(level):
        return {level: rng.getrandbits(1 << level)}

    cases = [G.identity(), G.from_packed((1 << G.bit_count) - 1)]
    cases += [G.single(level, pos) for level in range(k) for pos in (0, (1 << level) - 1)]
    cases += [G.from_level_masks(random_level(level)) for level in range(k)]
    for one, other in product(range(k), repeat=2):
        labels = random_level(other)
        labels[one] = labels.get(one, 0) | 1 << rng.randrange(1 << one)
        cases.append(G.from_level_masks(labels))
    for count in (1, 2, 3):
        for _ in range(5):
            packed = 0
            for _ in range(count):
                packed |= 1 << rng.randrange(G.bit_count)
            cases.append(G.from_packed(packed))
    for g in cases:
        masks = G._swap_masks(g.packed)
        assert len(masks) == k - 1
        assert list(masks) == reference_swap_masks(G, g.packed), g


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_level_masks_roundtrip_every_level(k):
    G = tree_group(k)
    rng = random.Random(200 + k)
    for _ in range(5):
        g = random_portrait(G, rng)
        # bit p of a level mask is the label of vertex p
        masks = {level: sum(g.bit(level, p) << p for p in range(1 << level)) for level in range(k)}
        for level, mask in masks.items():
            single = G.from_level_masks({level: mask})
            for o in range(k):
                labels = sum(single.bit(o, p) << p for p in range(1 << o))
                assert labels == (mask if o == level else 0)
        assert G.from_level_masks(masks) == g


def test_level_field_errors():
    G = tree_group(3)
    with pytest.raises(LevelOutOfRangeError):
        G.from_level_masks({-1: 0})
    with pytest.raises(ValueError):
        G.from_level_masks({1: 0b100})


@pytest.mark.parametrize(
    "level, pos, error",
    [
        (3, 0, LevelOutOfRangeError),   # below the bottom level
        (-1, 0, LevelOutOfRangeError),  # above the root
        (0, 1, ValueError),             # level 1's vertex 0, not a root vertex
        (1, 2, ValueError),
        (2, -1, ValueError),            # outside the level's field
    ],
)
def test_bit_rejects(level, pos, error):
    g = parse_canonical("tg:k=3;bits=20")  # the level-1 generator
    assert g.bit(1, 0) == 1 and g.bit(0, 0) == 0
    with pytest.raises(error):
        g.bit(level, pos)


@pytest.mark.parametrize(
    "level, pos, error, message",
    [
        (3, 0, LevelOutOfRangeError, "level 3 outside [0, 3)"),
        (-1, 0, LevelOutOfRangeError, "level -1 outside [0, 3)"),
        (2, -1, ValueError, "position -1 outside [0, 4)"),
        (2, 4, ValueError, "position 4 outside [0, 4)"),
        (0, 1, ValueError, "position 1 outside [0, 1)"),
    ],
)
def test_single_rejects(level, pos, error, message):
    G = tree_group(3)
    assert G.single(2, 3) == G.from_level_masks({2: 8})
    with pytest.raises(error) as excinfo:
        G.single(level, pos)
    assert str(excinfo.value) == message


# sha256 of the canonical forms of g*h, g^-1 and h^g for portraits drawn
# with random.Random(k): pinned from the per-vertex walk that the
# level-wise kernels replaced.
DENSE_PINS = {
    10: "f7583ba5802fdd78c329450a64bf8e257dfffcb15795d47a778df906f646c874",
    12: "7cf13038a45ec00890534d76f138c13977c75b52e6b8c1ec14223caeb42f0351",
    14: "ce03d4b4b846aae8b6a05cc9668a0c53a2582fbb085e2616d38ba00eb8f0c666",
}


@pytest.mark.parametrize("k", sorted(DENSE_PINS))
def test_dense_products_pinned(k):
    G = tree_group(k)
    rng = random.Random(k)
    g = G.from_packed(rng.getrandbits(G.bit_count))
    h = G.from_packed(rng.getrandbits(G.bit_count))
    text = "\n".join(e.canonical() for e in (g * h, g.inverse(), h.conjugate_by(g)))
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_PINS[k]


def test_max_depth_arithmetic():
    # the advertised limit is reachable; no timing is asserted
    G = tree_group(MAX_DEPTH)
    rng = random.Random(43)
    g, h = random_portrait(G, rng), random_portrait(G, rng)
    gh = g * h
    assert gh.packed >> G.bit_count == 0
    assert gh * gh.inverse() == G.identity()
    assert gh.inverse() * gh == G.identity()
    assert parse_canonical(gh.canonical()) == gh
    # one leaf path through the per-vertex oracle
    leaf = rng.randrange(G.leaves)
    assert gh.apply(leaf) == h.apply(g.apply(leaf))


# ------------------------------------------------- the conjugation kernel

def conjugate_via_products(w, x):
    """x^-1 * w * x by products, on fresh copies: the route that
    `conjugate_by`'s two-pass kernel replaces, kept apart from the
    masks that w and x have cached."""
    G = w.group
    x = G.from_packed(x.packed)
    return x.inverse() * G.from_packed(w.packed) * x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conjugate_by_matches_products_on_all_pairs(k):
    G = tree_group(k)
    elements = list(G.elements())
    for w, x in product(elements, repeat=2):
        assert w.conjugate_by(x) == conjugate_via_products(w, x)


@pytest.mark.parametrize("k", range(1, MAX_DEPTH + 1))
def test_conjugate_by_matches_products_on_dense_pairs(k):
    G = tree_group(k)
    rng = random.Random(700 + k)
    for _ in range(4 if k < 16 else 1):
        w, x = random_portrait(G, rng), random_portrait(G, rng)
        assert w.conjugate_by(x) == conjugate_via_products(w, x)


def sparse_shapes(G):
    """Each single-vertex generator, a level-(k-2) key and the bottom-swap
    base: the left factors whose masks are empty or short."""
    shapes = list(G.generator_elements())
    if G.k >= 2:
        key = G.commuting_conjugator(random.Random(G.k).randrange(G.commuting_subgroup_order()))
        shapes.append(key)
    shapes.append(G.default_base())
    return shapes


@pytest.mark.parametrize("k", [*range(1, 15), 16, 18, MAX_DEPTH])
def test_conjugate_by_matches_products_on_sparse_shapes(k):
    G = tree_group(k)
    rng = random.Random(800 + k)
    shapes = sparse_shapes(G)
    # Every pair of shapes up to k = 14; deeper, each shape meets the
    # protocol's two (key and base), where a pair costs milliseconds.
    partners = [random_portrait(G, rng), *(shapes if k <= 14 else shapes[-2:])]
    for shape, other in product(shapes, partners):
        for w, x in [(shape, other), (other, shape)]:
            assert w.conjugate_by(x) == conjugate_via_products(w, x)


@pytest.mark.parametrize("k", [1, 2, 6, 11])
def test_mask_cache_gives_the_results_of_a_fresh_copy(k):
    # One portrait object as left factor, right factor, inverse,
    # conjugator and conjugated, in every order: each result equals the
    # one a fresh copy (no cached masks) gives.
    G = tree_group(k)
    rng = random.Random(900 + k)
    y = random_portrait(G, rng)
    uses = {
        "left": lambda x: x * y,
        "right": lambda x: y * x,
        "inverse": lambda x: x.inverse(),
        "conjugator": lambda x: y.conjugate_by(x),
        "conjugated": lambda x: x.conjugate_by(y),
    }
    for shape in [random_portrait(G, rng), *sparse_shapes(G)]:
        want = {name: use(G.from_packed(shape.packed)) for name, use in uses.items()}
        for order in permutations(uses):
            x = G.from_packed(shape.packed)
            assert x._masks is None  # built on first use, not by the constructor
            for name in order:
                assert uses[name](x) == want[name], (shape, order, name)
            assert x._masks == G._swap_masks(x.packed)
            assert type(x._masks) is tuple
    # The memory bound the module docstring states.
    dense = G._swap_masks((1 << G.bit_count) - 1)
    assert [mask.bit_length() for mask in dense] == [(1 << k) - 3 * (1 << j) for j in range(k - 1)]
    # The operand checks still hold once the masks are cached.
    x.conjugate_by(y)
    other_k = k % MAX_DEPTH + 1
    for other in [tree_group(other_k).identity(), TreeSylowGroup(other_k).identity()]:
        with pytest.raises(DepthMismatchError, match="depth mismatch"):
            x.conjugate_by(other)
        with pytest.raises(DepthMismatchError, match="depth mismatch"):
            other.conjugate_by(x)
    for other in [3, None, x.packed]:
        with pytest.raises(TypeError, match="expected a Portrait"):
            x.conjugate_by(other)
    # An equal group held in another object passes them.
    assert x.conjugate_by(TreeSylowGroup(k).from_packed(y.packed)) == x.conjugate_by(y)


# ----------------------------------------------------------- private_log

def _orbit(G, w):
    """Oracle: w conjugated by every level-(k-2) private."""
    return {w.conjugate_by(G.commuting_conjugator(s)) for s in range(G.commuting_subgroup_order())}


def _assert_log_matches_orbit(G, w, candidates):
    orbit = _orbit(G, w)
    for h in candidates:
        if h in orbit:
            assert w.conjugate_by(G.commuting_conjugator(G.private_log(w, h))) == h
        else:
            with pytest.raises(NoSolutionError):
                G.private_log(w, h)


@pytest.mark.parametrize("k", [2, 3])
def test_private_log_matches_the_orbit_exhaustively(k):
    # Every usable base against every portrait.
    G = tree_group(k)
    portraits = list(G.elements())
    for w in filter(G.usable_base, portraits):
        _assert_log_matches_orbit(G, w, portraits)


@pytest.mark.parametrize("k", [4, 5])
def test_private_log_matches_the_orbit_on_sampled_bases(k):
    # Random portraits, and the orbit with one label flipped, which lands
    # next to the orbit and mostly outside it.
    G = tree_group(k)
    rng = random.Random(40 + k)
    bases = []
    while len(bases) < 12:
        w = G.from_packed(rng.randrange(G.order))
        if G.usable_base(w):
            bases.append(w)
    for w in bases:
        orbit = _orbit(G, w)
        candidates = [*orbit, *(G.from_packed(rng.randrange(G.order)) for _ in range(20))]
        candidates += [G.from_packed(h.packed ^ 1 << rng.randrange(G.bit_count)) for h in orbit]
        _assert_log_matches_orbit(G, w, candidates)


@pytest.mark.parametrize("k", range(6, MAX_DEPTH + 1))
def test_private_log_solves_random_privates_at_every_depth(k):
    G = tree_group(k)
    rng = random.Random(60 + k)
    half = 1 << (k - 1)
    level = rng.randrange(k - 2)  # above the privates' level, so the base is usable
    bases = {
        "dense": G.from_packed(rng.randrange(G.order)),
        "single-vertex": G.single(level, rng.randrange(1 << level)),
        "default": G.default_base(),
        "bottom-only": G.from_level_masks({k - 1: rng.randrange(1 << half)}),
        # Every bottom pair differs, so every private moves it differently.
        "full-key": G.from_level_masks({k - 1: (1 << half) // 3}),
    }
    for name, w in bases.items():
        assert G.usable_base(w), name
        s = rng.randrange(G.commuting_subgroup_order())
        w_x = w.conjugate_by(G.commuting_conjugator(s))
        found = G.private_log(w, w_x)
        assert w.conjugate_by(G.commuting_conjugator(found)) == w_x, name
        if name == "full-key":
            assert found == s


def test_private_log_conjugates_once(monkeypatch):
    # One conjugation, the check, whether the mask is found or refused,
    # not one per level-(k-2) vertex (2^10 here).
    G = tree_group(12)
    rng = random.Random(12)
    w = G.from_packed(rng.randrange(G.order))
    w_x = w.conjugate_by(G.commuting_conjugator(rng.randrange(G.commuting_subgroup_order())))
    calls = []
    conjugate_by = Portrait.conjugate_by
    monkeypatch.setattr(Portrait, "conjugate_by", lambda g, x: calls.append(x) or conjugate_by(g, x))
    G.private_log(w, w_x)
    assert len(calls) == 1
    with pytest.raises(NoSolutionError):
        G.private_log(w, G.from_packed(w_x.packed ^ 1))
    assert len(calls) == 2


def test_canonical_roundtrip():
    G = tree_group(3)
    assert G.identity().canonical() == "tg:k=3;bits=0"
    root = G.single(0, 0)
    assert root.canonical() == "tg:k=3;bits=40"  # level-order MSB first
    assert parse_canonical("tg:k=3;bits=40") == root
    rng = random.Random(41)
    for _ in range(500):
        g = G.from_packed(rng.randrange(1 << G.bit_count))
        assert parse_canonical(g.canonical()) == g


@pytest.mark.parametrize(
    "bad",
    [
        "tg:k=3;bits=00",     # non-minimal hex
        "tg:k=3;bits=80",     # more bits than vertices
        "tg:k=3;bits=4F",     # uppercase hex
        "tg:k=0;bits=0",      # depth out of range
        "tg:bits=0;k=3",      # wrong field order
        "tg:k=3;bits=0x40",   # 0x prefix
        pytest.param(         # depth past Python's str-to-int limit
            "tg:k=" + "1" * 4301 + ";bits=0", id="tg:k=<4301 digits>;bits=0"
        ),
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_canonical(bad)
