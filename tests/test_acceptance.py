"""Acceptance suite: one test per exit criterion, exact tolerances.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report under `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from itertools import combinations, product

from conjkex.cryptanalysis import bsgs_break
from conjkex.heisenberg import heisenberg_group
from conjkex.kex import parse_element, run_demo
from conjkex.metacyclic import metacyclic_group
from conjkex.treegroup import tree_group
from conjkex.verify import (
    center_claims,
    class_size_claims,
    conjugation_pairs,
    default_param_grid,
    measured_class,
)

from oracles import compose_perms
from test_heisenberg import rewrite_multiply as heisenberg_oracle
from test_metacyclic import rewrite_multiply as metacyclic_oracle


def report(number: int, description: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_conjugacy_class_sizes():
    started = time.perf_counter()
    grid = default_param_grid()
    results = class_size_claims(grid=grid)
    elapsed = time.perf_counter() - started
    ok = len(results) == 12 and all(r.passed for r in results) and elapsed < 60
    report(
        1,
        f"non-central classes have size exactly p on {len(results)} groups "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_center_order_and_generators():
    results = center_claims(grid=default_param_grid())
    order_ok = all(r.passed for r in results if r.claim_id == "center.order")
    subgroup_ok = all(r.passed for r in results if r.claim_id == "center.subgroup")
    report(
        2,
        "measured |Z(G)| = p^(m+n-2) and Z(G) = <a^p, b^p> on the whole grid",
        order_ok and subgroup_ok and len(results) == 24,
    )


def test_criterion_3_key_agreement_1000_sessions():
    configs = [
        metacyclic_group(3, 2, 2).a(1),
        metacyclic_group(1009, 2, 2).a(1),
        heisenberg_group(3, 1, 1).a(),
        heisenberg_group(7, 1, 1).a(),
        tree_group(3).default_base(),
    ]
    agreements = 0
    total = 0
    for base in configs:
        for session in range(1000):
            result = run_demo(base, 2 * session + 1, 9001 + 3 * session)
            total += 1
            agreements += result.agreed
    report(3, f"shared secrets byte-identical in {agreements}/{total} sessions",
           agreements == total == 5000)


def test_criterion_4_heisenberg_orbit():
    ok = True
    for p in (3, 5, 7):
        group = heisenberg_group(p, 1, 1)
        cls = measured_class(group.a(), conjugation_pairs(group.generator_elements()))
        expected = frozenset(group.element(1, 0, r) for r in range(p))
        ok = ok and cls == expected and len(cls) == p
    report(4, "class of a is {a, ac, ..., ac^(p-1)} for p in {3,5,7}", ok)


def test_criterion_5_sylow_and_commutator():
    ok = True
    details = []
    for k in (2, 3, 4):
        group = tree_group(k)
        s_count = sum(1 for _ in group.elements())
        a_count = sum(g.is_even() for g in group.elements())
        ok = ok and s_count == 1 << ((1 << k) - 1)
        ok = ok and a_count == 1 << ((1 << k) - 2)
        derived = group.derived_subgroup(group.even_generators())
        ok = ok and derived.order == 1 << ((1 << k) - k - 2)
        details.append(f"k={k}:|S|={s_count},|A|={a_count},|derived|={derived.order}")
    G3 = tree_group(3)
    derived3 = G3.derived_subgroup(G3.even_generators())
    frattini_rank = G3.minimal_generating_size(derived3)
    brute_rank = G3.minimal_generating_size_brute(derived3.elements())
    ok = ok and frattini_rank == brute_rank
    details.append(f"d(derived,k=3)={frattini_rank}=={brute_rank}")
    report(5, "; ".join(details), ok)


def test_criterion_6_attack_effectiveness():
    ok = True
    for p in (101, 1009, 10007, 999983):
        group = metacyclic_group(p, 2, 2)
        base = group.a(1)
        budget = 2 * (math.isqrt(p - 1) + 1) + 8
        for trial in range(100):
            started = time.perf_counter()
            result = run_demo(base, p + trial, 7 * p + trial)
            transcript = result.transcript
            attack = bsgs_break(
                transcript.base_element(),
                transcript.public_from("alice"),
                transcript.public_from("bob"),
            )
            elapsed = time.perf_counter() - started
            ok = ok and attack.recovered_key == result.key_alice
            ok = ok and attack.group_ops <= budget
            ok = ok and elapsed < 5.0
        if not ok:
            break
    report(6, "public-transcript key recovery 100/100 per prime, "
              "ops within 2*ceil(sqrt(p))+8, runs under 5s", ok)


def test_criterion_7_level_subgroup_commutativity():
    ok = True
    for k in (1, 2, 3, 4):
        group = tree_group(k)
        for level in range(k):
            members = group.level_subgroup(level)
            ok = ok and len(members) == 1 << (1 << level)
            for g, h in combinations(members, 2):
                if g * h != h * g:
                    ok = False
                    break
    report(7, "every level subgroup is elementwise commutative with size 2^(2^l), k <= 4", ok)


def test_criterion_8_oracle_equivalence():
    ok = True
    for params in [(3, 2, 1), (3, 2, 2), (3, 3, 1)]:
        group = metacyclic_group(*params)
        elems = list(group.elements())
        for g, h in product(elems, repeat=2):
            if g * h != metacyclic_oracle(g, h):
                ok = False
    for params in [(3, 1, 1), (3, 2, 1), (3, 1, 2)]:
        group = heisenberg_group(*params)
        elems = list(group.elements())
        for g, h in product(elems, repeat=2):
            if g * h != heisenberg_oracle(g, h):
                ok = False
    for k in (1, 2, 3):
        group = tree_group(k)
        elems = list(group.elements())
        for g, h in product(elems, repeat=2):
            composed = (g * h).to_permutation()
            if composed != compose_perms(g.to_permutation(), h.to_permutation()):
                ok = False
    report(8, "group law matches rewriting oracles (|G| <= 81) and the "
              "permutation oracle (k <= 3) on all pairs", ok)


def test_criterion_9_serialization():
    rng = random.Random(67)
    ok = True

    mc = metacyclic_group(1009, 2, 2)
    for _ in range(100_000):
        e = mc.element(rng.randrange(mc.pm), rng.randrange(mc.pn))
        if parse_element(e.canonical()) != e:
            ok = False
            break

    hh = heisenberg_group(10007, 2, 1)
    for _ in range(100_000):
        e = hh.element(rng.randrange(hh.pm), rng.randrange(hh.pn), rng.randrange(hh.p))
        if parse_element(e.canonical()) != e:
            ok = False
            break

    trees = [tree_group(k) for k in (2, 3, 4, 6, 8)]
    for _ in range(100_000):
        group = rng.choice(trees)
        e = group.from_packed(rng.randrange(1 << group.bit_count))
        if parse_element(e.canonical()) != e:
            ok = False
            break

    for base in (mc.a(1), hh.a(), tree_group(3).default_base()):
        first = run_demo(base, 31, 41, debug_key=True).transcript.to_text()
        second = run_demo(base, 31, 41, debug_key=True).transcript.to_text()
        ok = ok and first == second

    report(9, "canonical round-trip on 100000 random elements per platform; "
              "equal-seed transcripts byte-identical", ok)
