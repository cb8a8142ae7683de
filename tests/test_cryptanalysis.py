import json
import math
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest

from conjkex.cryptanalysis import bsgs_break, decimal_text, orbit_stats
from conjkex.errors import NoSolutionError, PlatformMismatchError, TooLargeError
from conjkex.heisenberg import heisenberg_group
from conjkex.kex import run_demo
from conjkex.metacyclic import metacyclic_group
from conjkex.treegroup import tree_group
from oracles import NotInOrbitError, brute_conjugacy, forced_session


# ---------------------------------------------------------------- examples

def test_brute_conjugacy_examples():
    G = metacyclic_group(3, 2, 1)
    w = G.a(1)
    assert brute_conjugacy(w, G.a(7), max_iter=10) == 2  # orbit a1 -> a4 -> a7
    assert brute_conjugacy(w, w, max_iter=10) == 0
    with pytest.raises(NotInOrbitError):
        brute_conjugacy(w, G.a(2), max_iter=10)


def test_bsgs_break_example():
    G = metacyclic_group(3, 2, 2)
    w = G.a(1)
    report = bsgs_break(w, G.a(7), G.a(4))
    assert report.exponent == 2
    assert report.recovered_key == G.a(1).canonical().encode()
    # cross-check against the honest parties with x=b^2, y=b^1
    alice = forced_session(w, G.b(2))
    bob = forced_session(w, G.b(1))
    honest = alice.derive(bob.public_value())
    assert bob.derive(alice.public_value()) == honest
    assert report.recovered_key == honest


def test_bsgs_break_trivial_case():
    G = metacyclic_group(3, 2, 2)
    w = G.a(1)
    report = bsgs_break(w, w, G.a(4))
    assert report.exponent == 0
    assert report.recovered_key == G.a(4).canonical().encode()


def test_orbit_stats_examples():
    assert orbit_stats(metacyclic_group(3, 2, 1)) == {1: 3, 3: 8}
    assert orbit_stats(heisenberg_group(3, 1, 1)) == {1: 3, 3: 8}
    assert orbit_stats(tree_group(1)) == {1: 2}  # abelian: singletons only
    # The histogram of the set-and-frozenset route this sweep replaced.
    assert orbit_stats(tree_group(3)) == {1: 2, 2: 1, 4: 9, 8: 5, 16: 3}


# ------------------------------------------------------------- properties

@pytest.mark.parametrize("p", [3, 101, 1009, 10007])
def test_recovered_key_matches_honest_key(p):
    G = metacyclic_group(p, 2, 2)
    w = G.a(1)
    budget = 2 * math.isqrt(p - 1) + 10
    for trial in range(100):
        result = run_demo(w, 1000 * p + trial, 2000 * p + trial)
        transcript = result.transcript
        report = bsgs_break(
            transcript.base_element(),
            transcript.public_from("alice"),
            transcript.public_from("bob"),
        )
        assert report.recovered_key == result.key_alice
        assert report.group_ops <= budget


def test_brute_and_bsgs_agree_modulo_p():
    G = metacyclic_group(101, 2, 2)
    rng = random.Random(43)
    w = G.a(1)
    for _ in range(30):
        v = rng.randrange(1, G.pn)
        w_x = w.conjugate_by(G.b(v))
        s_brute = brute_conjugacy(w, w_x, max_iter=G.p + 1)
        report = bsgs_break(w, w_x, w.conjugate_by(G.b(1)))
        assert s_brute % G.p == report.exponent % G.p
        assert s_brute == report.exponent  # both return the least solution


# The key is two products, w_x * w^-1 * w_y, whatever the size of p.
ATTACK_GROUP_OPS = 2


@pytest.mark.parametrize("p", [101, 999983])
def test_op_count_is_constant_in_p(p):
    G = metacyclic_group(p, 2, 2)
    w = G.a(1)
    w_x = w.conjugate_by(G.b(12345 % G.pn))
    w_y = w.conjugate_by(G.b(54321 % G.pn))
    report = bsgs_break(w, w_x, w_y)
    assert report.group_ops == ATTACK_GROUP_OPS
    assert report.exponent == 12345 % p


@pytest.mark.parametrize("k", range(2, 9))
def test_break_recovers_tree_keys_on_dense_bases(k):
    # The two-product key and the cycle walk, on random dense bases as
    # well as the default one.
    G = tree_group(k)
    rng = random.Random(71 + k)
    bases = [G.default_base()]
    while len(bases) < 8:
        w = G.from_packed(rng.randrange(G.order))
        if G.usable_base(w):
            bases.append(w)
    for w in bases:
        result = run_demo(w, rng.randrange(1 << 32), rng.randrange(1 << 32))
        w_x = result.transcript.public_from("alice")
        report = bsgs_break(w, w_x, result.transcript.public_from("bob"))
        assert report.recovered_key == result.key_alice
        assert report.group_ops == 2
        assert w.conjugate_by(G.commuting_conjugator(report.exponent)) == w_x


@pytest.mark.parametrize("k", [12, 16])
def test_break_recovers_tree_keys_on_bases_labelled_only_high(k):
    # The root generator, a level-1 generator and the root plus one
    # bottom label: every stage of their swap masks spreads a label
    # that sits high in the packed int.
    G = tree_group(k)
    bases = [G.single(0, 0), G.single(1, 1), G.from_level_masks({0: 1, k - 1: 1})]
    for seed, w in enumerate(bases):
        assert G.usable_base(w)
        result = run_demo(w, 2 * seed + 1, 2 * seed + 2, debug_key=True)
        transcript = result.transcript
        w_x = transcript.public_from("alice")
        report = bsgs_break(transcript.base_element(), w_x, transcript.public_from("bob"))
        assert result.agreed
        assert report.recovered_key == transcript.debug_key()
        assert w.conjugate_by(G.commuting_conjugator(report.exponent)) == w_x


def test_bsgs_break_rejects_bad_inputs():
    G = metacyclic_group(3, 2, 2)
    H = heisenberg_group(3, 1, 1)
    T = tree_group(3)
    # Heisenberg values are valid input now: the break reads every platform.
    assert bsgs_break(H.a(), H.a(), H.a()).recovered_key == H.a().canonical().encode()
    for mixed in [(G.a(1), G.a(4), H.a()), (G.a(1), H.a(), G.a(4)),
                  (H.a(), H.a(), T.default_base()), (G.a(1), G.a(4), metacyclic_group(3, 2, 1).a(4))]:
        with pytest.raises(PlatformMismatchError):
            bsgs_break(*mixed)
    with pytest.raises(NoSolutionError):
        bsgs_break(G.a(1), G.b(1), G.a(4))  # public outside the base's orbit
    with pytest.raises(NoSolutionError):
        bsgs_break(G.a(1), G.a(2), G.a(4))  # a2 not in the twist orbit
    with pytest.raises(NoSolutionError):
        bsgs_break(G.a(3), G.a(6), G.a(3))  # every private fixes a central base


def test_brute_conjugacy_on_tree_platform():
    T = tree_group(3)
    w = T.default_base()
    x = T.commuting_conjugator(3)
    w_pub = w.conjugate_by(x)
    s = brute_conjugacy(w, w_pub, max_iter=T.commuting_subgroup_order())
    assert w.conjugate_by(T.commuting_conjugator(s)) == w_pub


def test_histogram_class_equation():
    for group in (metacyclic_group(3, 2, 2), heisenberg_group(3, 2, 1)):
        histogram = orbit_stats(group)
        assert sum(size * count for size, count in histogram.items()) == group.order
        for size in histogram:
            assert group.order % size == 0
        assert set(histogram) == {1, group.p}
        assert histogram[1] == group.center_order()


def traced_peak(run) -> int:
    """Peak bytes that `run()` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_stats_cap():
    # A visited byte per element would be 2^(2^20 - 1) bytes on the tree
    # and about 10^12 on the p-group; elements() refuses first (a peak of
    # about 1 KB here).
    for group in (tree_group(20), metacyclic_group(1009, 2, 2)):
        def run():
            with pytest.raises(TooLargeError, match="is beyond enumeration$"):
                orbit_stats(group)

        assert traced_peak(run) < 1 << 16


def test_orbit_stats_keeps_no_element_set():
    # 3,125 elements: one visited byte each, and a frontier of at most one
    # class.  Measured with tracemalloc (CPython 3.11): a peak of 5,562
    # bytes, where a set of every element plus a frozenset per class took
    # 336,808.
    group = metacyclic_group(5, 3, 2)
    histogram = {}
    assert traced_peak(lambda: histogram.update(orbit_stats(group))) < 1 << 16
    assert histogram == {1: 125, 5: 600}


def test_attack_report_serialization():
    G = metacyclic_group(3, 2, 2)
    report = bsgs_break(G.a(1), G.a(7), G.a(4))
    data = json.loads(report.to_json())
    assert set(data) == {"recovered_key", "exponent", "group_ops", "wall_ms"}
    assert data["exponent"] == "2"
    assert data["recovered_key"] == "mc:p=3;m=2;n=2;i=1;j=0"
    assert int(data["group_ops"]) == report.group_ops


# 0 and 1 bit, both sides of the 4300-digit int-to-str limit, masks of
# 2^16 and 2^18 bits, which are converted by halves, and powers of two
# past the limit (2^14285 is the first), each converted as one power.
@pytest.mark.parametrize("x", [
    0,
    1,
    10 ** 4300 - 1,
    10 ** 4300,
    random.Random(16).getrandbits(1 << 16) | 1 << ((1 << 16) - 1),
    random.Random(18).getrandbits(1 << 18) | 1 << ((1 << 18) - 1),
    2 ** 14285,
    2 ** 65536,
], ids=[
    "0", "1-bit", "4300-digits", "4301-digits", "2^16-bits", "2^18-bits", "2^14285", "2^65536",
])
def test_decimal_text_equals_str_of_decimal(x):
    assert decimal_text(x) == str(Decimal(x))


def test_a_metacyclic_attack_report_imports_no_decimal():
    # Each case runs in a fresh interpreter, which must not load the module
    # named; the CLI's records are plain classes, with no code generator.
    cases = {
        "decimal": (
            "from conjkex.cryptanalysis import bsgs_break\n"
            "from conjkex.kex import run_demo\n"
            "from conjkex.metacyclic import metacyclic_group\n"
            "t = run_demo(metacyclic_group(1000003, 2, 2).default_base(), 1, 2).transcript\n"
            "print(bsgs_break(t.base_element(), t.public_from('alice'), t.public_from('bob')).to_json())\n"
        ),
        "dataclasses": "import conjkex.cli\n",
    }
    for module, code in cases.items():
        code = f"import sys\n{code}assert {module!r} not in sys.modules\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)
