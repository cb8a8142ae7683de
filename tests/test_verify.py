import json
import time
from itertools import combinations
from pathlib import Path

import pytest

from conjkex import verify
from conjkex.heisenberg import HeisenbergElement
from conjkex.metacyclic import MetaElement, metacyclic_group
from conjkex.treegroup import Portrait, TreeSylowGroup, tree_group
from conjkex.verify import (
    SUITES,
    ClaimResult,
    center_claims,
    class_size_claims,
    commuting_growth_claims,
    default_param_grid,
    heisenberg_orbit_claims,
    run_suites,
    summary_table,
    sylow_claims,
)

SMALL_GRID = [(3, 2, 1), (3, 2, 2), (5, 2, 1)]
# (3, 2, 3) is the m < n shape that `default_param_grid` lacks.
ORACLE_GRID = [*SMALL_GRID, (3, 3, 2), (7, 2, 1), (3, 2, 3)]
GOLDEN = Path(__file__).parent / "data" / "verify_all_long.ndjson"


def test_default_grid_is_pinned():
    grid = default_param_grid()
    assert grid == [
        (p, m, n)
        for p in (3, 5, 7)
        for m in (2, 3)
        for n in (1, 2)
        if p ** (m + n) <= 10 ** 5
    ]
    assert len(grid) == 12


def test_class_size_claims_pass():
    for result in class_size_claims(grid=SMALL_GRID):
        assert result.passed, result.to_json()


def per_element_class_sizes(p, m, n):
    """The class-size measurement with one closure per element."""
    group = metacyclic_group(p, m, n)
    gens = group.generator_elements()
    pairs = verify.conjugation_pairs(gens)
    sizes = {True: set(), False: set()}
    for g in group.elements():
        cls = verify.measured_class(g, pairs)
        central = all(g * x == x * g for x in gens)
        sizes[central].add(len(cls))
    return f"central:{sorted(sizes[True])};noncentral:{sorted(sizes[False])}"


@pytest.mark.parametrize(
    "suite, params, products",
    [
        pytest.param(class_size_claims, (3, 2, 1), 82, id="class_size_claims-params0-82"),
        pytest.param(class_size_claims, (5, 2, 1), 314, id="class_size_claims-params1-314"),
        pytest.param(center_claims, (3, 2, 1), 48, id="center_claims-params0-48"),
        pytest.param(center_claims, (5, 2, 1), 120, id="center_claims-params1-120"),
    ],
)
def test_metacyclic_suites_fill_conjugation_tables(monkeypatch, suite, params, products):
    # Per generator, both suites take 4 products for the images A and B
    # of a and b.  The theorems suite adds p^m - 1 and p^n - 1 for their
    # powers and conjugates all of G, one product per element.  The
    # center suite adds 2 per step of each side of a^-i A^i = b^j B^-j,
    # p^m - 1 and p^n - 1 steps, and forms no product per element.
    p, m, n = params
    if suite is class_size_claims:
        assert products == 2 * p ** (m + n) + 2 * (p ** m + p ** n) + 4
    else:
        assert products == 4 * (p ** m + p ** n)
    calls = []
    real = MetaElement.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(MetaElement, "__mul__", counting)
    results = suite(grid=[params])
    assert results and all(r.passed for r in results)
    assert len(calls) == products


def test_metacyclic_suites_fail_when_products_break_conjugation(monkeypatch):
    # x^-1 * g returns g for a generator's inverse: the images of a and
    # b under "conjugation" by x become a * x and b * x.  Classes and the
    # central flags come from those tables, and the centre from the sides
    # of the fixed-point equation, whose step a^-1 * L is broken too.
    group = metacyclic_group(3, 2, 1)
    inverses = [x.inverse() for x in group.generator_elements()]
    real = MetaElement.__mul__

    def breaking(self, other):
        return other if self in inverses else real(self, other)

    monkeypatch.setattr(MetaElement, "__mul__", breaking)
    results = class_size_claims(grid=[(3, 2, 1)]) + center_claims(grid=[(3, 2, 1)])
    assert [(r.claim_id, r.measured_value, r.passed) for r in results] == [
        ("conjugacy.class-sizes", "central:[1, 10];noncentral:[1, 2, 3, 5, 10]", False),
        ("center.order", "1", False),
        ("center.subgroup", "Z(G) != <a^p,b^p>", False),
    ]


@pytest.mark.parametrize("params", ORACLE_GRID)
def test_conjugation_tables_match_literal_conjugates(params):
    group = metacyclic_group(*params)
    pairs = verify.conjugation_pairs(group.generator_elements())
    tables = verify._conjugation_tables(group)
    assert len(tables) == len(pairs)
    # Positions are read through `group.index`, the owner of the encoding
    # that verify's hot loops write inline as i * p^n + j.
    # The center suite's two sides of x^-1 * h * x = h, at h = a^i b^j,
    # are equal exactly when x fixes h.
    for table, (x, x_inv) in zip(tables, pairs):
        assert len(table) == group.order
        lefts, rights = verify._commutation_sides(group, x, x_inv)
        assert (len(lefts), len(rights)) == (group.pm, group.pn)
        for h in group.elements():
            assert table[group.index(h)] == group.index(x_inv * h * x)
            i, j = divmod(group.index(h), group.pn)
            assert (lefts[i] == rights[j]) == (x_inv * h * x == h)


RECORDED_SUITES = {
    "theorems": lambda: class_size_claims(SMALL_GRID),
    "center": lambda: center_claims(SMALL_GRID),
    "orbit": heisenberg_orbit_claims,
    "sylow": lambda: sylow_claims(ks=(2, 3, 4), long=True),
    "growth": lambda: commuting_growth_claims(3),
}


@pytest.mark.parametrize("suite", RECORDED_SUITES.values(), ids=RECORDED_SUITES)
def test_each_suite_returns_a_list_of_timed_claims_within_its_call(suite):
    # Each claim is timed from the previous one, or from the call for the
    # first, so the claims' times add up to at most the call's.
    started = time.perf_counter()
    results = suite()
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert type(results) is list and results
    assert all(type(r) is ClaimResult for r in results)
    assert all(r.elapsed_ms >= 0 for r in results)
    assert sum(r.elapsed_ms for r in results) <= wall_ms


@pytest.mark.parametrize(
    "suite, element, products, inverses",
    [
        pytest.param(heisenberg_orbit_claims, HeisenbergElement, 60, 6, id="orbit"),
        pytest.param(lambda: SUITES["sylow"](False), Portrait, 1188, 55, id="sylow"),
        pytest.param(lambda: SUITES["sylow"](True), Portrait, 1791, 74, id="sylow-long"),
    ],
)
def test_orbit_and_sylow_suites_cost_what_their_docstrings_state(
    monkeypatch, suite, element, products, inverses
):
    calls = {"__mul__": 0, "inverse": 0}
    for name in calls:
        real = getattr(element, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(element, name, counting)
    results = suite()
    assert results and all(r.passed for r in results)
    assert calls == {"__mul__": products, "inverse": inverses}


def test_class_size_values_match_per_element_loop():
    results = class_size_claims(grid=ORACLE_GRID)
    assert [r.measured_value for r in results] == [
        per_element_class_sizes(*params) for params in ORACLE_GRID
    ]


def test_all_long_claims_match_the_golden_set():
    # Every claim of `verify --suite all --long`, elapsed_ms dropped: a
    # faster measurement route must keep each id, params, paper value
    # and measured value.
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    measured = []
    for result in run_suites(SUITES, long=True):
        fields = json.loads(result.to_json())
        del fields["elapsed_ms"]
        measured.append(fields)
    assert len(golden) == 66
    assert measured == golden


def test_min_gen_rank_claim_is_checked_against_the_paper(monkeypatch):
    [rank] = [r for r in sylow_claims(ks=(4,), long=True) if r.claim_id == "sylow.min-gen-rank"]
    assert (rank.paper_value, rank.measured_value, rank.passed) == ("rank:5", "rank:5", True)
    monkeypatch.setattr(TreeSylowGroup, "minimal_generating_size", lambda self, elements: 4)
    [rank] = [r for r in sylow_claims(ks=(4,), long=True) if r.claim_id == "sylow.min-gen-rank"]
    assert (rank.paper_value, rank.measured_value, rank.passed) == ("rank:5", "rank:4", False)


def test_engine_measured_sylow_orders_are_checked_against_the_paper(monkeypatch):
    def orders():
        return {r.claim_id: (r.measured_value, r.passed)
                for r in sylow_claims(ks=(3,)) if r.claim_id.endswith("-order")}

    assert orders()["sylow.s-order"] == ("128", True)
    assert orders()["sylow.a-order"] == ("64", True)
    generators, even_generators = TreeSylowGroup.generator_elements, TreeSylowGroup.even_generators
    with monkeypatch.context() as patch:
        # Without the bottom generator the closure is the 8-element D4.
        patch.setattr(TreeSylowGroup, "generator_elements", lambda self: generators(self)[:-1])
        assert orders()["sylow.s-order"] == ("8", False)
    with monkeypatch.context() as patch:
        # The default base, one bottom swap, is odd: |A| reads 0.
        patch.setattr(TreeSylowGroup, "even_generators",
                      lambda self: [*even_generators(self), self.default_base()])
        assert orders()["sylow.a-order"] == ("0", False)


def test_center_claims_pass():
    results = center_claims(grid=ORACLE_GRID)
    assert len(results) == 2 * len(ORACLE_GRID)
    for result in results:
        assert result.passed, result.to_json()
    orders = {r.params: r.measured_value for r in results if r.claim_id == "center.order"}
    assert orders["p=3,m=2,n=1"] == "3"
    assert orders["p=3,m=2,n=2"] == "9"
    assert orders["p=5,m=2,n=1"] == "5"
    assert orders["p=3,m=2,n=3"] == "27"


def test_heisenberg_orbit_claims_pass():
    for result in heisenberg_orbit_claims():
        assert result.passed, result.to_json()


def test_sylow_claims_pass():
    results = sylow_claims(ks=(2, 3))
    for result in results:
        assert result.passed, result.to_json()
    derived = {r.params: r.measured_value for r in results if r.claim_id == "sylow.derived-order"}
    assert derived == {"k=2": "1", "k=3": "8"}
    agreement = [r for r in results if r.claim_id == "sylow.min-gen-agreement"]
    assert len(agreement) == 1 and agreement[0].passed


def test_sylow_k4_orders_without_long():
    results = sylow_claims(ks=(4,), long=False)
    ids = {r.claim_id for r in results}
    assert ids == {"sylow.s-order", "sylow.a-order"}
    for result in results:
        assert result.passed


def test_growth_claims_pass():
    # k=4 is the --long growth suite: its level-3 products take the
    # sparse-mask shortcuts.
    for k in (2, 3, 4):
        for result in commuting_growth_claims(k):
            assert result.passed, result.to_json()


def pairwise_growth_values(k):
    """The level-subgroup measurement with every pair of members
    multiplied both ways."""
    group = tree_group(k)
    values = []
    for level in range(k):
        members = group.level_subgroup(level)
        commute = all(g * h == h * g for g, h in combinations(members, 2))
        values.append(f"size:{len(members)};commute:{commute}")
    return values


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_growth_values_match_pairwise_oracle(k):
    results = [r for r in commuting_growth_claims(k) if r.claim_id == "growth.level-subgroup"]
    assert [r.measured_value for r in results] == pairwise_growth_values(k)


def test_growth_claims_multiply_only_the_level_generators(monkeypatch):
    # Per level l: 2^l (2^l - 1) products for the generator pairs and
    # 2^(2^l) - 1 for the doubled span, so 1 + 5 + 27 + 311 at k = 4.
    calls = []
    real = Portrait.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(Portrait, "__mul__", counting)
    results = commuting_growth_claims(4)
    assert results and all(r.passed for r in results)
    assert len(calls) == 344


def test_growth_claim_fails_when_two_level_generators_do_not_commute(monkeypatch):
    group = tree_group(3)
    g, h = group.single(2, 0), group.single(2, 1)
    real = Portrait.__mul__

    def breaking(self, other):
        return self if (self, other) == (g, h) else real(self, other)

    monkeypatch.setattr(Portrait, "__mul__", breaking)
    failed = [(r.claim_id, r.params, r.measured_value) for r in commuting_growth_claims(3)
              if not r.passed]
    assert failed == [("growth.level-subgroup", "k=3,l=2", "size:16;commute:False")]


def test_growth_claim_fails_when_a_member_is_outside_the_generators_span(monkeypatch):
    # The level-1 generator does not commute with single(2, 0), but the
    # level-2 generators still commute pairwise: only the span check can
    # catch the extra member.
    real = TreeSylowGroup.level_subgroup

    def widened(self, level):
        members = real(self, level)
        return members + [self.single(1, 0)] if level == 2 else members

    monkeypatch.setattr(TreeSylowGroup, "level_subgroup", widened)
    failed = [(r.claim_id, r.params, r.measured_value) for r in commuting_growth_claims(3)
              if not r.passed]
    assert failed == [
        ("growth.level-subgroup", "k=3,l=2", "size:17;commute:False"),
        ("growth.doubling-exponent", "k=3,l=2", "17"),
    ]


def test_run_suites_sorted_and_deterministic():
    first = run_suites(["center", "orbit"])
    second = run_suites(["center", "orbit"])
    strip = lambda rs: [(r.claim_id, r.params, r.paper_value, r.measured_value, r.passed) for r in rs]
    assert strip(first) == strip(second)
    assert strip(first) == sorted(strip(first), key=lambda t: (t[0], t[1]))
    with pytest.raises(ValueError):
        run_suites(["nosuch"])


def test_claim_result_json_shape():
    result = ClaimResult("x.y", "p=3", "1", "1", True, 0.5)
    data = json.loads(result.to_json())
    assert data == {
        "claim_id": "x.y",
        "params": "p=3",
        "paper_value": "1",
        "measured_value": "1",
        "pass": True,
        "elapsed_ms": 0.5,
    }


def test_summary_table_counts_failures():
    results = [
        ClaimResult("a", "p=3", "1", "1", True, 0.1),
        ClaimResult("b", "p=3", "2", "3", False, 0.1),
    ]
    table = summary_table(results)
    assert "1/2 claims passed" in table
    assert "FAIL" in table and "PASS" in table
