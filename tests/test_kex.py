import hashlib
import inspect
import json
from pathlib import Path

import pytest

from conjkex.errors import (
    LevelOutOfRangeError,
    ParseError,
    PlatformMismatchError,
    TranscriptError,
)
from conjkex.heisenberg import HeisenbergElement, heisenberg_group
from conjkex.kex import (
    PLATFORMS,
    Session,
    Transcript,
    parse_element,
    run_demo,
    sample_private,
    validate_base,
)
from conjkex.metacyclic import MetaElement, metacyclic_group
from conjkex.rng import SplitMix64
from conjkex.treegroup import Portrait, tree_group
from oracles import conjugate_via_products, forced_session

MC = metacyclic_group(3, 2, 2)


# ---------------------------------------------------------------- examples

def test_derive_examples_fixed_privates():
    w = MC.a(1)
    alice = forced_session(w, MC.b(1))
    bob = forced_session(w, MC.b(1))
    key_a = alice.derive(bob.public_value())
    key_b = bob.derive(alice.public_value())
    assert key_a == key_b == MC.a(7).canonical().encode()  # 4^2 mod 9

    alice = forced_session(w, MC.b(1))
    bob = forced_session(w, MC.b(2))
    key_a = alice.derive(bob.public_value())
    key_b = bob.derive(alice.public_value())
    assert key_a == key_b == MC.a(1).canonical().encode()  # twist order 3 wraps

    # x = y^-1 conjugates w by the identity overall
    alice = forced_session(w, MC.b(4))
    bob = forced_session(w, MC.b(1).inverse() * MC.b(-3))
    assert alice.private * bob.private == MC.identity()
    assert alice.derive(bob.public_value()) == w.canonical().encode()


def test_public_value_examples():
    w = MC.a(1)
    session = forced_session(w, MC.b(1))
    assert session.public_value() == MC.a(4)  # the defining relation

    H = heisenberg_group(3, 1, 1)
    hb = forced_session(H.a(), H.b())
    assert hb.public_value() == H.element(1, 0, 1)  # b^-1 a b = ac


def test_validate_base():
    assert validate_base(metacyclic_group(3, 2, 1).a(1))
    assert not validate_base(MC.identity())
    assert not validate_base(MC.a(3))  # central
    assert not validate_base(MC.b(1))  # a base must lie in <a>
    H = heisenberg_group(3, 1, 1)
    assert validate_base(H.a())
    assert not validate_base(H.element(0, 0, 1))
    T = tree_group(3)
    assert validate_base(T.default_base())
    assert not validate_base(T.identity())


@pytest.mark.parametrize("group,central", [
    (metacyclic_group(5, 2, 2), metacyclic_group(5, 2, 2).element(5, 10)),
    (heisenberg_group(5, 2, 1), heisenberg_group(5, 2, 1).element(5, 0, 3)),
    (tree_group(4), tree_group(4).from_packed(tree_group(4)._bottom)),
], ids=["metacyclic", "heisenberg", "tree"])
def test_validate_base_per_platform(group, central):
    assert central != group.identity()
    assert central * group.default_base() == group.default_base() * central
    assert not validate_base(group.identity())
    assert not validate_base(central)
    assert validate_base(group.default_base())
    if group.kind != "tree":
        # Non-central, but outside <a>: b and a*b.
        assert not validate_base(group.b())
        assert not validate_base(group.a() * group.b())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tree_base_rule_matches_the_product_oracle(k):
    # Exhaustive: a base is usable exactly when some level-(k-2)
    # generator moves it under literal x^-1 * w * x.  The fixed ones are
    # the 2^(2^(k-2)) level-(k-2) label sets times as many choices of
    # equal bottom pairs, the 2 central portraits among them.
    G = tree_group(k)
    gens = [G.single(k - 2, pos) for pos in range(1 << (k - 2))]
    fixed = 0
    for w in G.elements():
        moved = any(conjugate_via_products(w, x) != w for x in gens)
        assert validate_base(w) == moved, w
        fixed += not moved
    assert fixed == 4 ** (1 << (k - 2))


@pytest.mark.parametrize(
    "group", [MC, heisenberg_group(3, 1, 1), tree_group(3)], ids=lambda g: g.kind
)
def test_platform_table_factories(group):
    # The CLI asks for one flag per name in the group class's
    # param_names, and passes them to the factory in that order.
    factory = PLATFORMS[group.kind]
    assert factory.__wrapped__ is type(group)
    assert tuple(inspect.signature(factory).parameters) == group.param_names
    assert factory(*(getattr(group, name) for name in group.param_names)) is group


def test_session_state_and_mismatch_errors():
    # Same platform, other parameters: the peer is in another group.
    session = Session(MC.a(1), seed=1)
    for other_group in (metacyclic_group(3, 2, 1), metacyclic_group(5, 2, 2)):
        other = Session(other_group.a(1), seed=2)
        with pytest.raises(PlatformMismatchError, match="^peer value comes from another group "):
            session.derive(other.public_value())
    with pytest.raises(ValueError):
        Session(MC.identity(), seed=1)


# ------------------------------------------------------------- determinism

def test_equal_seeds_equal_privates():
    for group in (MC, heisenberg_group(3, 1, 1), tree_group(3)):
        s1 = Session(group.default_base(), seed=99)
        s2 = Session(group.default_base(), seed=99)
        assert s1.private == s2.private
        # A session is complete once built: its private is the seed's draw.
        assert s1.private == sample_private(group, SplitMix64(99))


def test_private_ranges():
    rng = SplitMix64(5)
    for _ in range(200):
        x = sample_private(MC, rng)
        assert x.i == 0 and 1 <= x.j < MC.pn
    T = tree_group(3)
    level = T.commuting_subgroup_level()
    assert level == 1
    for _ in range(200):
        x = sample_private(T, rng)
        for other_level in range(T.k):
            if other_level != level:
                assert not any(x.bit(other_level, p) for p in range(1 << other_level))


@pytest.mark.parametrize(
    "factory", [metacyclic_group, heisenberg_group], ids=["metacyclic", "heisenberg"]
)
@pytest.mark.parametrize("p", [3, 5])
def test_every_drawn_p_group_private_moves_the_default_base(factory, p):
    # Conjugation by b^s depends only on s mod p, so a draw of s in
    # [1, p^n) with p | s would fix the base and publish it.  The draws
    # cover exactly b^1 .. b^(p-1).
    G = factory(p, 2, 2)
    w = G.default_base()
    rng = SplitMix64(8)
    drawn = {sample_private(G, rng) for _ in range(300)}
    assert drawn == {G.b(s) for s in range(1, p)}
    assert all(w.conjugate_by(x) != w for x in drawn)


def test_transcripts_replay_byte_exactly():
    base = metacyclic_group(1009, 2, 2).a(1)
    first = run_demo(base, 7, 8, debug_key=True)
    second = run_demo(base, 7, 8, debug_key=True)
    assert first.transcript.to_text() == second.transcript.to_text()
    third = run_demo(base, 7, 9, debug_key=True)
    assert third.transcript.to_text() != first.transcript.to_text()


# ------------------------------------------------------------- wire format

def test_wire_format_is_pinned():
    result = run_demo(MC.a(1), 1, 2)
    lines = result.transcript.to_text().splitlines()
    assert lines[0] == '{"type":"header","rng":"splitmix64-rejection"}'
    assert (
        lines[1]
        == '{"type":"params","platform":"metacyclic","p":"3","m":"2","n":"2",'
        '"w":"mc:p=3;m=2;n=2;i=1;j=0"}'
    )
    assert lines[2].startswith('{"type":"public","from":"alice","value":"mc:')
    assert lines[3].startswith('{"type":"public","from":"bob","value":"mc:')
    assert len(lines) == 4  # no debug line without the flag
    for line in lines:
        json.loads(line)


@pytest.mark.parametrize("k", [10, 12, 14])
def test_deep_tree_transcripts_pinned(k):
    # Written by the per-vertex portrait walk that the level-wise kernels
    # replaced; transcripts and keys must stay byte-identical.
    golden = Path(__file__).parent / "data" / f"tree_demo_k{k}.ndjson"
    result = run_demo(tree_group(k).default_base(), 7, 11, debug_key=True)
    assert result.agreed
    assert result.transcript.to_text() == golden.read_text(encoding="ascii")


def test_max_depth_transcript_pinned():
    # sha256 of the k=20 transcript, written by the word-at-a-time draw
    # and the string bit reversal; its 4097-bit key space runs the
    # leading-word rejection, the lane-wise mix and the byte-table
    # reversal end to end.
    result = run_demo(tree_group(20).default_base(), 1, 2, debug_key=True)
    assert result.agreed
    assert hashlib.sha256(result.transcript.to_text().encode("ascii")).hexdigest() == (
        "f26c13864270f21560a8362278a76e64b822a579c3dab2447268968e6287e7c6"
    )


def test_debug_key_flag_controls_embedding():
    plain = run_demo(MC.a(1), 1, 2)
    with pytest.raises(Exception):
        plain.transcript.debug_key()
    debug = run_demo(MC.a(1), 1, 2, debug_key=True)
    assert debug.transcript.debug_key() == debug.key_alice


@pytest.mark.parametrize("marker, lookup", [
    ('"from":"alice"', lambda t: t.public_from("alice")),
    ('"from":"bob"', lambda t: t.public_from("bob")),
    ('"type":"debug"', Transcript.debug_key),
    ('"type":"params"', Transcript.base_element),
], ids=["alice", "bob", "debug", "params"])
def test_transcript_refuses_a_repeated_message(marker, lookup):
    text = run_demo(MC.a(1), 1, 2, debug_key=True).transcript.to_text()
    [line] = [line for line in text.splitlines() if marker in line]
    with pytest.raises(TranscriptError, match="^expected exactly one "):
        lookup(Transcript.from_text(text + line + "\n"))


@pytest.mark.parametrize(
    "line", ["[" * 100000 + "]" * 100000, "1" * 5000], ids=["nested-100000-deep", "5000-digits"]
)
def test_from_text_refuses_lines_json_cannot_decode(line):
    # json raises RecursionError on the first; the decoder refuses the
    # second as a number before Python's str-to-int limit is reached.
    with pytest.raises(TranscriptError, match="^bad transcript line: "):
        Transcript.from_text(line + "\n")


ROUNDTRIP_PRIMES = {"1009": 1009, "2^127-1": 2 ** 127 - 1}
ROUNDTRIP_GROUPS = {
    **{f"metacyclic-{name}": metacyclic_group(p, 2, 2) for name, p in ROUNDTRIP_PRIMES.items()},
    **{f"heisenberg-{name}": heisenberg_group(p, 2, 2) for name, p in ROUNDTRIP_PRIMES.items()},
    **{f"tree-{k}": tree_group(k) for k in (3, 4, 14)},
}


@pytest.mark.parametrize("group", ROUNDTRIP_GROUPS.values(), ids=ROUNDTRIP_GROUPS)
def test_transcript_roundtrip(group):
    base = group.default_base()
    result = run_demo(base, 3, 4, debug_key=True)
    text = result.transcript.to_text()
    parsed = Transcript.from_text(text)
    assert parsed.to_text() == text
    assert parsed.base_element().group == group
    assert parsed.base_element() == base
    assert parsed.debug_key() == result.key_alice


def test_empty_transcript_roundtrip():
    assert Transcript().to_text() == ""
    assert Transcript.from_text("").to_text() == ""
    # Each transcript starts with its own list, not one shared default.
    Transcript().add(type="header")
    assert Transcript().to_text() == ""


# -------------------------------------------------------------- agreement

@pytest.mark.parametrize(
    "base",
    [
        metacyclic_group(3, 2, 2).a(1),
        metacyclic_group(1009, 2, 2).a(1),
        heisenberg_group(3, 1, 1).a(),
        heisenberg_group(7, 1, 1).a(),
        tree_group(3).default_base(),
    ],
)
def test_agreement_on_random_seeds(base):
    for seed in range(100):
        result = run_demo(base, seed * 2 + 1, seed * 7 + 3)
        assert result.agreed


def test_key_lies_in_base_orbit():
    group = metacyclic_group(3, 2, 2)
    w = group.a(1)
    orbit = {e.canonical().encode() for e in group.conjugacy_class(w)}
    assert len(orbit) == group.p
    for seed in range(50):
        result = run_demo(w, seed, seed + 1)
        assert result.key_alice in orbit


M127 = 2 ** 127 - 1

# The benchmark's session shapes: p-groups at m = n = 2, trees with the
# default base.
SESSION_GROUPS = [
    metacyclic_group(1009, 2, 2), metacyclic_group(M127, 2, 2),
    heisenberg_group(1009, 2, 2), heisenberg_group(M127, 2, 2),
    *map(tree_group, (4, 10, 12, 14)),
]


def test_sampled_privates_commute():
    # The only guard of the invariant: sessions do not check it.
    for group in (MC, heisenberg_group(3, 1, 1), *SESSION_GROUPS):
        rng = SplitMix64(11)
        for _ in range(50):
            x = sample_private(group, rng)
            y = sample_private(group, rng)
            assert x * y == y * x, group


def _dense_tree_base():
    G = tree_group(8)
    base = G.from_packed(SplitMix64(5).randbits(G.bit_count))
    # labelled on every level
    assert all(any(base.bit(level, p) for p in range(1 << level)) for level in range(G.k))
    return base


@pytest.mark.parametrize("base", [
    metacyclic_group(M127, 2, 2).default_base(),
    heisenberg_group(M127, 2, 2).default_base(),
    tree_group(4).default_base(),
    tree_group(12).default_base(),
    _dense_tree_base(),
], ids=["metacyclic", "heisenberg", "tree-4", "tree-12", "tree-8-dense"])
def test_a_session_forms_no_group_products(monkeypatch, base):
    calls = []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for cls in (MetaElement, HeisenbergElement, Portrait):
        for name in ("__mul__", "inverse"):
            monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}", getattr(cls, name)))
    result = run_demo(base, 3, 4, debug_key=True)
    assert result.agreed
    assert calls == []
    # The wrappers count: one product is seen.
    base * base
    assert calls == [f"{type(base).__name__}.__mul__"]


def test_tree_depth_one_cannot_run_kex():
    # W_1 is abelian: every base is central, so the session refuses it.
    with pytest.raises(ValueError):
        run_demo(tree_group(1).default_base(), 1, 2)
    with pytest.raises(LevelOutOfRangeError):
        tree_group(1).commuting_subgroup_level()
    assert run_demo(tree_group(2).default_base(), 1, 2).agreed


# ---------------------------------------------------------------- parsing

def test_parse_element_dispatch():
    for text in (
        "mc:p=3;m=2;n=2;i=1;j=0",
        "mm:p=3;m=1;n=1;i=1;j=0;k=0",
        "tg:k=3;bits=40",
    ):
        assert parse_element(text).canonical() == text
    with pytest.raises(ParseError):
        parse_element("zz:p=3")
    with pytest.raises(ParseError):
        parse_element("")
