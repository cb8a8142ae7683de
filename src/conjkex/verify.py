"""Runnable checks for every quantitative structural claim.

Each check measures a value by enumeration, orbits or the subgroup
engine (never by the closed forms under test), places it beside the
predicted value, and reports pass/fail.  The sylow suite measures every
order and rank with the subgroup engine (the k = 3 rank again by brute
force over G's elements), the other suites by enumeration and orbits.
The measurement routes deliberately use only element multiplication
and inversion, which the test suite pins against independent
rewriting/permutation oracles.  The metacyclic suites, theorems and
center, cover the 12 groups of `default_param_grid`, none above 7^5
elements.  Each suite's docstring gives its cost in products.
"""

from __future__ import annotations

import json
import time
from array import array
from itertools import product
from typing import Iterable

from .core import conjugation_orbit, conjugation_pairs
from .heisenberg import heisenberg_group
from .metacyclic import metacyclic_group
from .treegroup import tree_group

DEFAULT_PRIMES = (3, 5, 7)
DEFAULT_MS = (2, 3)
DEFAULT_NS = (1, 2)


class ClaimResult:
    def __init__(
        self, claim_id: str, params: str, paper_value: str, measured_value: str,
        passed: bool, elapsed_ms: float,
    ) -> None:
        self.claim_id = claim_id
        self.params = params
        self.paper_value = paper_value
        self.measured_value = measured_value
        self.passed = passed
        self.elapsed_ms = elapsed_ms

    def to_json(self) -> str:
        return json.dumps(
            {
                "claim_id": self.claim_id,
                "params": self.params,
                "paper_value": self.paper_value,
                "measured_value": self.measured_value,
                "pass": self.passed,
                "elapsed_ms": round(self.elapsed_ms, 3),
            },
            separators=(",", ":"),
        )


def default_param_grid() -> list[tuple[int, int, int]]:
    """The 12 metacyclic groups of the theorems and center suites, the
    largest of order 7^5 = 16,807."""
    return list(product(DEFAULT_PRIMES, DEFAULT_MS, DEFAULT_NS))


# ------------------------------------------------- independent measurement

# measured_class(w, conjugation_pairs(generators)) is w's conjugacy
# class, closed under generator conjugation by element products alone.
measured_class = conjugation_orbit


def _conjugation_tables(group) -> list[array]:
    """For each generator x of a metacyclic group, the table of
    h -> x^-1 * h * x over G, by index: entry i * p^n + j is the index
    of the conjugate of a^i b^j.

    Conjugation by x is an automorphism, so it maps a^i b^j to
    A^i * B^j, with A = x^-1 a x and B = x^-1 b x.  A table is filled
    from their powers one row of p^n entries at a time: 4 products for
    A and B, p^m - 1 and p^n - 1 for their powers and one per element,
    so a group's two tables cost 2|G| + 2(p^m + p^n) + 4 products.
    """
    pn = group.pn
    tables = []
    for x, x_inv in conjugation_pairs(group.generator_elements()):
        a_powers = _powers(x_inv * group.a() * x, group.pm)
        b_powers = _powers(x_inv * group.b() * x, pn)
        table = array("l")
        for a_power in a_powers:
            table.extend([(g := a_power * b_power).i * pn + g.j for b_power in b_powers])
        tables.append(table)
    return tables


def _commutation_sides(group, x, x_inv) -> list[list[int]]:
    """The indices of both sides of x^-1 a^i b^j x = a^i b^j, split as
    a^-i A^i = b^j B^-j with A = x^-1 a x and B = x^-1 b x: the left
    side for each i < p^m, then the right side for each j < p^n.

    Conjugation by x is an automorphism, so x^-1 a^i b^j x = A^i B^j,
    and x fixes a^i b^j exactly when the two indices at i and j are
    equal.  Each side grows from the identity as L <- a^-1 L A
    and R <- b R B^-1, so the sides cost 4 products for A and B and
    2(p^m - 1) + 2(p^n - 1) for the steps.
    """
    pn = group.pn
    sides = []
    for u, v, count in (
        (group.a().inverse(), x_inv * group.a() * x, group.pm),
        (group.b(), (x_inv * group.b() * x).inverse(), pn),
    ):
        g = group.identity()
        side = [g.i * pn + g.j]
        for _ in range(count - 1):
            g = u * g * v
            side.append(g.i * pn + g.j)
        sides.append(side)
    return sides


def _powers(g, count: int) -> list:
    """[g^0, g^1, ..., g^(count-1)], in count - 1 products."""
    out = [g.group.identity()]
    for _ in range(count - 1):
        out.append(out[-1] * g)
    return out


def _claim(claim_id, params, paper_value, measured_value, started) -> ClaimResult:
    return ClaimResult(
        claim_id=claim_id,
        params=params,
        paper_value=str(paper_value),
        measured_value=str(measured_value),
        passed=str(paper_value) == str(measured_value),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


# ---------------------------------------------------------------- theorems

def class_size_claims(grid: Iterable[tuple[int, int, int]]) -> list[ClaimResult]:
    """Every non-central class has size exactly p; central classes are
    singletons.  Exhaustive over each group in the grid.

    Both halves are read off `_conjugation_tables`: the classes are
    closed over the two tables, one closure per class, and each member
    is classified where the closure reads its two images: central when
    both tables fix it.  Each class's size is recorded once per kind of
    member it has, central or non-central, so "central => singleton" is
    measured for every element and no centre set is built.  Cost per
    group: 2|G| + 2(p^m + p^n) + 4 products, two inverses, and no
    element sets.
    """
    results = []
    for p, m, n in grid:
        started = time.perf_counter()
        group = metacyclic_group(p, m, n)
        by_a, by_b = _conjugation_tables(group)
        sizes = {True: set(), False: set()}  # central -> observed sizes
        placed = bytearray(group.order)
        for start in range(group.order):
            if placed[start]:
                continue
            placed[start] = 1
            cls = [start]
            kinds = set()  # central or not, for each member
            for index in cls:  # grows while it is read: a breadth-first closure
                image_a = by_a[index]
                image_b = by_b[index]
                kinds.add(image_a == index == image_b)
                if not placed[image_a]:
                    placed[image_a] = 1
                    cls.append(image_a)
                if not placed[image_b]:
                    placed[image_b] = 1
                    cls.append(image_b)
            for central in kinds:
                sizes[central].add(len(cls))
        measured = (
            f"central:{sorted(sizes[True])};noncentral:{sorted(sizes[False])}"
        )
        expected = f"central:[1];noncentral:[{p}]"
        results.append(
            _claim("conjugacy.class-sizes", f"p={p},m={m},n={n}", expected, measured, started)
        )
    return results


def center_claims(grid: Iterable[tuple[int, int, int]]) -> list[ClaimResult]:
    """|Z(G)| = p^(m+n-2), and Z(G) is exactly <a^p, b^p>.

    Z(G) is the set of elements that conjugation by a and by b both fix.
    For each generator, `_commutation_sides` gives the index of both
    sides of the fixed-point equation, and an index h = i * p^n + j is
    kept while its two sides are equal, so no product is formed per
    element: 4(p^m + p^n) products and six inverses per group (5,408
    products over `default_param_grid`).  The centre is then compared
    by index with `center_elements()`.
    """
    results = []
    for p, m, n in grid:
        group = metacyclic_group(p, m, n)
        started = time.perf_counter()
        pn = group.pn
        fixed = range(group.order)
        for x, x_inv in conjugation_pairs(group.generator_elements()):
            lefts, rights = _commutation_sides(group, x, x_inv)
            fixed = [h for h in fixed if lefts[h // pn] == rights[h % pn]]
        center = set(fixed)
        results.append(
            _claim(
                "center.order",
                f"p={p},m={m},n={n}",
                p ** (m + n - 2),
                len(center),
                started,
            )
        )
        started = time.perf_counter()
        generated = {g.i * group.pn + g.j for g in group.center_elements()}
        results.append(
            _claim(
                "center.subgroup",
                f"p={p},m={m},n={n}",
                "Z(G) == <a^p,b^p>",
                "Z(G) == <a^p,b^p>" if center == generated else "Z(G) != <a^p,b^p>",
                started,
            )
        )
    return results


def heisenberg_orbit_claims() -> list[ClaimResult]:
    """Orbit of a under conjugation is {a, ac, ..., ac^(p-1)}: length p,
    for each of `DEFAULT_PRIMES`."""
    results = []
    for p in DEFAULT_PRIMES:
        started = time.perf_counter()
        group = heisenberg_group(p, 1, 1)
        cls = measured_class(group.a(), conjugation_pairs(group.generator_elements()))
        expected_set = frozenset(group.element(1, 0, r) for r in range(p))
        measured = f"size:{len(cls)};sweep:{cls == expected_set}"
        results.append(
            _claim("heisenberg.orbit", f"p={p},m=1,n=1", f"size:{p};sweep:True", measured, started)
        )
    return results


def sylow_claims(ks: Iterable[int] = (2, 3), long: bool = False) -> list[ClaimResult]:
    """Orders of the Sylow subgroups, their commutator subgroup, and the
    minimal generating size of the latter, all by the subgroup engine.

    |Syl2(S)| is the order of the closure of `generator_elements()`,
    |Syl2(A)| that of `even_generators()`, each a minimal generating set
    of k portraits; |Syl2(A)| reads 0 unless every one of them is even.
    """
    results = []
    for k in ks:
        group = tree_group(k)
        started = time.perf_counter()
        s_order = group.closure(group.generator_elements()).order
        results.append(
            _claim("sylow.s-order", f"k={k}", 1 << ((1 << k) - 1), s_order, started)
        )
        started = time.perf_counter()
        gens = group.even_generators()
        a_order = group.closure(gens).order if all(g.is_even() for g in gens) else 0
        results.append(
            _claim("sylow.a-order", f"k={k}", 1 << ((1 << k) - 2), a_order, started)
        )
        if k >= 4 and not long:
            continue
        started = time.perf_counter()
        derived = group.derived_subgroup(gens)
        results.append(
            _claim(
                "sylow.derived-order",
                f"k={k}",
                1 << ((1 << k) - k - 2),
                derived.order,
                started,
            )
        )
        started = time.perf_counter()
        rank = group.minimal_generating_size(derived)
        if k == 3:
            brute = group.minimal_generating_size_brute(derived.elements())
            results.append(
                _claim("sylow.min-gen-agreement", f"k={k}", f"rank:{rank}", f"rank:{brute}", started)
            )
        else:
            # The paper's rank 2k-3 holds from k=3; at k=2 the derived
            # subgroup is trivial, so its rank is 0.
            expected = 2 * k - 3 if k >= 3 else 0
            results.append(
                _claim("sylow.min-gen-rank", f"k={k}", f"rank:{expected}", f"rank:{rank}", started)
            )
    return results


def commuting_growth_claims(k: int) -> list[ClaimResult]:
    """Level subgroups: elementwise commuting, size 2^(2^l), squaring at
    each deeper level.

    Commutation is measured on the 2^l single-vertex generators of the
    level: they must commute pairwise, and their subset products, built
    by doubling, must be exactly the listed members.  Every member is
    then a product of pairwise-commuting generators, so all members
    commute.  A level costs 2^l (2^l - 1) + 2^(2^l) - 1 products (344
    over the four levels at k = 4), against about 2^(2^(l+1)) for every
    pair of members.
    """
    group = tree_group(k)
    results = []
    previous = None
    for level in range(k):
        started = time.perf_counter()
        members = group.level_subgroup(level)
        generators = [group.single(level, pos) for pos in range(1 << level)]
        span = [group.identity()]
        for g in generators:
            span += [s * g for s in span]
        all_commute = all(
            g * h == h * g for i, g in enumerate(generators) for h in generators[i + 1:]
        ) and set(members) == set(span)
        measured = f"size:{len(members)};commute:{all_commute}"
        expected = f"size:{1 << (1 << level)};commute:True"
        results.append(
            _claim("growth.level-subgroup", f"k={k},l={level}", expected, measured, started)
        )
        if previous is not None:
            started = time.perf_counter()
            results.append(
                _claim(
                    "growth.doubling-exponent",
                    f"k={k},l={level}",
                    previous * previous,
                    len(members),
                    started,
                )
            )
        previous = len(members)
    return results


# Each suite by name, as a function of `long`.
SUITES = {
    "theorems": lambda long: class_size_claims(default_param_grid()),
    "center": lambda long: center_claims(default_param_grid()),
    "orbit": lambda long: heisenberg_orbit_claims(),
    "sylow": lambda long: sylow_claims(ks=(2, 3, 4), long=long),
    "growth": lambda long: [
        claim for k in ((2, 3, 4) if long else (2, 3)) for claim in commuting_growth_claims(k)
    ],
}


def run_suites(names: Iterable[str], long: bool = False) -> list[ClaimResult]:
    """Run the named suites and return their claims sorted by id.  The
    metacyclic ones (theorems, center) cover `default_param_grid()`, and
    `long` adds the k = 4 derived-subgroup and growth claims.

    Raises ValueError for an unknown suite.
    """
    results: list[ClaimResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(SUITES[name](long))
    results.sort(key=lambda r: (r.claim_id, r.params))
    return results


def summary_table(results: list[ClaimResult]) -> str:
    lines = []
    width = max(len(r.claim_id) for r in results) if results else 10
    pwidth = max((len(r.params) for r in results), default=6)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.claim_id:<{width}}  {r.params:<{pwidth}}  "
            f"expected={r.paper_value}  measured={r.measured_value}"
        )
    total = len(results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{total - failed}/{total} claims passed")
    return "\n".join(lines)
