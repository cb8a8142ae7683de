import random
from itertools import product

import pytest

from conjkex.errors import ParamMismatchError, ParseError
from conjkex.heisenberg import HeisenbergGroup, heisenberg_group, parse_canonical
from oracles import conjugate_via_products, power


def rewrite_multiply(g, h):
    """Oracle: move a's left past b's one generator at a time.

    Only the relation b a = a b c^-1 (and centrality of c) is used.
    """
    G = g.group
    k = (g.k + h.k) % G.p
    for _ in range(h.i):          # move one a left past all of g's b's
        for _ in range(g.j % G.pn):
            k = (k - 1) % G.p     # each single swap costs one c^-1
    return G.element((g.i + h.i) % G.pm, (g.j + h.j) % G.pn, k)


def brute_class(group, w):
    return frozenset(conjugate_via_products(w, x) for x in group.elements())


SMALL_GROUPS = [(3, 1, 1), (3, 2, 1)]  # orders 27, 81


# ---------------------------------------------------------------- examples

def test_multiply_examples():
    G = heisenberg_group(3, 1, 1)
    assert G.a() * G.b() == G.element(1, 1, 0)
    assert G.b() * G.a() == G.element(1, 1, 2)  # ba = ab c^-1
    g = G.element(2, 1, 1)
    assert g * G.identity() == g
    assert G.identity() * g == g


def test_inverse_examples():
    G = heisenberg_group(3, 1, 1)
    assert G.identity().inverse() == G.identity()
    g = G.element(1, 1, 0)
    assert g.inverse() == G.element(2, 2, 2)
    assert g * g.inverse() == G.identity()
    assert g.inverse() * g == G.identity()
    assert G.element(0, 0, 1).inverse() == G.element(0, 0, 2)


def test_conjugation_examples():
    G = heisenberg_group(3, 1, 1)
    assert G.a().conjugate_by(G.b()) == G.element(1, 0, 1)  # b^-1 a b = ac
    w = G.element(2, 1, 0)
    assert w.conjugate_by(G.element(0, 0, 2)) == w  # c central
    assert G.a().conjugate_by(G.b(2)) == G.element(1, 0, 2)  # relation twice


def test_class_examples():
    G = heisenberg_group(3, 1, 1)
    assert G.conjugacy_class(G.a()) == frozenset(
        {G.a(), G.element(1, 0, 1), G.element(1, 0, 2)}
    )
    assert G.conjugacy_class(G.element(0, 0, 1)) == frozenset({G.element(0, 0, 1)})
    assert len(G.conjugacy_class(G.element(1, 1, 0))) == 3


def test_centrality_examples():
    G = heisenberg_group(3, 1, 1)
    assert G.element(0, 0, 1).is_central()
    assert not G.a().is_central()
    G2 = heisenberg_group(3, 2, 1)
    assert G2.a(3).is_central()  # a^p central once m >= 2


# -------------------------------------------------------------- invariants

@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_multiply_matches_rewriting_oracle(p, m, n):
    G = heisenberg_group(p, m, n)
    elems = list(G.elements())
    for g, h in product(elems, repeat=2):
        assert g * h == rewrite_multiply(g, h)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_associativity_exhaustive(p, m, n):
    G = heisenberg_group(p, m, n)
    elems = list(G.elements())
    for g, h, k in product(elems, repeat=3):
        assert (g * h) * k == g * (h * k)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_enumeration_order(p, m, n):
    G = heisenberg_group(p, m, n)
    assert list(G.elements()) == [
        G.element(i, j, k)
        for i in range(p ** m)
        for j in range(p ** n)
        for k in range(p)
    ]
    assert G.center_elements() == [
        G.element(p * x, p * y, k)
        for x in range(p ** (m - 1))
        for y in range(p ** (n - 1))
        for k in range(p)
    ]


def test_associativity_random():
    G = heisenberg_group(1009, 2, 2)
    rng = random.Random(13)
    for _ in range(5000):
        g, h, k = (
            G.element(rng.randrange(G.pm), rng.randrange(G.pn), rng.randrange(G.p))
            for _ in range(3)
        )
        assert (g * h) * k == g * (h * k)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_conjugate_closed_form_matches_products(p, m, n):
    G = heisenberg_group(p, m, n)
    rng = random.Random(17)
    elems = list(G.elements())
    for _ in range(500):
        w, x = rng.choice(elems), rng.choice(elems)
        assert w.conjugate_by(x) == conjugate_via_products(w, x)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_class_sizes(p, m, n):
    G = heisenberg_group(p, m, n)
    central = 0
    for g in G.elements():
        cls = G.conjugacy_class(g)
        assert cls == brute_class(G, g)
        if g.is_central():
            central += 1
            assert len(cls) == 1
        else:
            assert len(cls) == p
    assert central == G.center_order()


def test_c_commutes_with_everything():
    for p, m, n in SMALL_GROUPS:
        G = heisenberg_group(p, m, n)
        for g in G.elements():
            for k in range(1, G.p):
                assert g * G.element(0, 0, k) == G.element(0, 0, k) * g


def test_conjugation_touches_only_c_exponent():
    G = heisenberg_group(3, 2, 1)
    for w in G.elements():
        for x in G.generator_elements():
            conj = w.conjugate_by(x)
            assert (conj.i, conj.j) == (w.i, w.j)


def test_is_central_matches_enumeration():
    for p, m, n in SMALL_GROUPS:
        G = heisenberg_group(p, m, n)
        elems = list(G.elements())
        by_commutation = {
            g for g in elems if all(g * x == x * g for x in elems)
        }
        assert by_commutation == {g for g in elems if g.is_central()}
        assert by_commutation == set(G.center_elements())


def test_orbit_of_a_examples():
    for p in (3, 5, 7):
        G = heisenberg_group(p, 1, 1)
        cls = G.conjugacy_class(G.a())
        assert cls == frozenset(G.element(1, 0, r) for r in range(p))
        assert len(cls) == p


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS + [(5, 2, 3)])
def test_c_is_the_commutator_of_a_and_b(p, m, n):
    G = heisenberg_group(p, m, n)
    a, b = G.a(), G.b()
    assert G.element(0, 0, 1) == a.inverse() * b.inverse() * a * b


def test_power():
    G = heisenberg_group(3, 1, 1)
    g = G.element(1, 2, 1)
    acc = G.identity()
    for e in range(1, 10):
        acc = acc * g
        assert power(g, e) == acc
    assert power(g, 0) == G.identity() == power(g, 9)
    assert power(g, -2) == g.inverse() * g.inverse() == power(g, 2).inverse()


def test_parameter_validation():
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        HeisenbergGroup(4, 1, 1)
    with pytest.raises(ValueError, match="^presentation requires m >= 1 and n >= 1$"):
        HeisenbergGroup(3, 0, 1)
    with pytest.raises(ValueError, match="^presentation requires m >= 1 and n >= 1$"):
        HeisenbergGroup(3, 1, 0)
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        HeisenbergGroup(2, 1, 1)


def test_param_mismatch():
    g = heisenberg_group(3, 1, 1).a()
    h = heisenberg_group(3, 2, 1).a()
    with pytest.raises(ParamMismatchError):
        g * h


def test_canonical_roundtrip():
    G = heisenberg_group(3, 1, 1)
    assert G.a().canonical() == "mm:p=3;m=1;n=1;i=1;j=0;k=0"
    rng = random.Random(19)
    H = heisenberg_group(1009, 2, 2)
    for _ in range(500):
        e = H.element(rng.randrange(H.pm), rng.randrange(H.pn), rng.randrange(H.p))
        assert parse_canonical(e.canonical()) == e


@pytest.mark.parametrize(
    "bad",
    [
        "mm:p=3;m=1;n=1;i=1;j=0",          # missing field
        "mm:p=3;m=1;n=1;i=1;j=0;k=3",      # k not reduced
        "mm:p=3;m=1;n=1;i=1;j=00;k=0",     # non-minimal decimal
        "mc:p=3;m=1;n=1;i=1;j=0;k=0",      # wrong platform tag
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_canonical(bad)
