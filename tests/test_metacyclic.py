import random
import tracemalloc
from itertools import product

import pytest

from conjkex import metacyclic
from conjkex.arith import bsgs_dlog
from conjkex.cryptanalysis import bsgs_break
from conjkex.errors import NoSolutionError, ParamMismatchError, ParseError
from conjkex.kex import run_demo
from conjkex.metacyclic import MetaElement, MetacyclicGroup, metacyclic_group, parse_canonical
from oracles import power


def rewrite_multiply(g, h):
    """Oracle: multiply by moving the a-block left past one b at a time.

    Uses only the defining relation b a = a^twist b, never a fast power.
    """
    G = g.group
    i2 = h.i
    for _ in range(g.j):
        i2 = i2 * G.twist % G.pm
    return G.element((g.i + i2) % G.pm, (g.j + h.j) % G.pn)


def token_multiply(g, h):
    """Ultra-naive oracle: literal token strings of a's and b's."""
    G = g.group
    tokens = ["a"] * g.i + ["b"] * g.j + ["a"] * h.i + ["b"] * h.j
    changed = True
    while changed:
        changed = False
        for idx in range(len(tokens) - 1):
            if tokens[idx] == "b" and tokens[idx + 1] == "a":
                tokens[idx: idx + 2] = ["a"] * G.twist + ["b"]
                changed = True
                break
    a_count = tokens.count("a")
    return G.element(a_count % G.pm, (len(tokens) - a_count) % G.pn)


def brute_class(group, w):
    """Conjugate w by every single group element; no closure shortcut."""
    return frozenset(w.conjugate_by(x) for x in group.elements())


SMALL_GROUPS = [(3, 2, 1), (3, 2, 2), (3, 3, 1)]  # orders 27, 81, 81


# ---------------------------------------------------------------- examples

def test_multiply_examples():
    G = metacyclic_group(3, 2, 2)
    g, h = G.element(2, 1), G.element(5, 3)
    expected = rewrite_multiply(g, h)
    assert expected == G.element(4, 4)  # 2 + 5*4 = 22 = 4 mod 9
    assert g * h == expected
    assert g * G.identity() == g
    assert G.a(1) * G.b(1) == G.element(1, 1)


def test_inverse_examples():
    G = metacyclic_group(3, 2, 2)
    g = G.element(1, 1)
    assert g.inverse() == G.element(2, 8)
    assert g * g.inverse() == G.identity()
    assert g.inverse() * g == G.identity()
    assert G.identity().inverse() == G.identity()
    assert G.a(3).inverse() == G.a(6)


def test_conjugation_examples():
    G = metacyclic_group(3, 2, 2)
    assert G.a(1).conjugate_by(G.b(1)) == G.a(4)  # the defining relation
    assert G.element(2, 1).conjugate_by(G.identity()) == G.element(2, 1)
    assert G.a(2).conjugate_by(G.b(2)) == G.a(5)  # 2*4^2 = 32 = 5 mod 9


@pytest.mark.parametrize("p", [1009, 2**127 - 1])
def test_conjugation_makes_no_product_or_inverse(p, monkeypatch):
    # x = a^u b^v and w = a^i b^j with u, j != 0, so every term of the
    # closed form is taken; the products x * w * x^-1 are the oracle.
    G = metacyclic_group(p, 2, 2)
    rng = random.Random(p)
    pairs = []
    for _ in range(20):
        x = G.element(rng.randrange(1, G.pm), rng.randrange(1, G.pn))
        w = G.element(rng.randrange(G.pm), rng.randrange(1, G.pn))
        pairs.append((w, x, x * w * x.inverse()))

    def refuse(*_):
        raise AssertionError("conjugation built a product or an inverse")

    monkeypatch.setattr(MetaElement, "__mul__", refuse)
    monkeypatch.setattr(MetaElement, "inverse", refuse)
    for w, x, want in pairs:
        assert w.conjugate_by(x) == want


@pytest.mark.parametrize("p", [1009, 2**127 - 1])
def test_session_makes_no_modular_power(p, monkeypatch):
    # Every twist power is the closed form 1 + (s mod p)*p^(m-1): once the
    # group is built, a session, its attack and each element operation
    # run with `pow` refused in the module.  The oracles here use the
    # builtin pow.
    G = metacyclic_group(p, 2, 2)
    rng = random.Random(p)
    x = G.element(rng.randrange(1, G.pm), rng.randrange(1, G.pn))
    w = G.element(rng.randrange(1, G.pm), rng.randrange(1, G.pn))

    def refuse(*_):
        raise AssertionError("a metacyclic operation took a modular power")

    monkeypatch.setattr(metacyclic, "pow", refuse, raising=False)
    result = run_demo(G.a(1), 1, 2, debug_key=True)
    assert result.agreed
    transcript = result.transcript
    report = bsgs_break(
        transcript.base_element(),
        transcript.public_from("alice"),
        transcript.public_from("bob"),
    )
    assert report.recovered_key == result.key_alice
    t_x, t_w = pow(G.twist, x.j, G.pm), pow(G.twist, w.j, G.pm)
    assert x * w == G.element(x.i + w.i * t_x, x.j + w.j)
    assert x.inverse() == G.element(-x.i * pow(t_x, -1, G.pm), -x.j)
    assert w.conjugate_by(x) == G.element(x.i + w.i * t_x - x.i * t_w, w.j)


def test_demo_near_the_size_limit_keeps_memory_small():
    # p^m is about 10^4287 here, so each a-exponent takes about 1.8 KB;
    # a table of all p = 65521 twist powers would take about 115 MB.
    G = metacyclic_group(65521, 890, 2)
    tracemalloc.start()
    try:
        assert run_demo(G.a(1), 1, 2).agreed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_power_examples():
    G = metacyclic_group(3, 2, 2)
    g = G.element(2, 1)
    assert power(g, 0) == G.identity()
    assert power(G.a(1), 9) == G.identity() != power(G.a(1), 3)
    assert power(G.b(1), 3) == G.b(3) != G.identity()
    assert power(g, 9) == G.identity() and power(g, -1) == g.inverse()
    # (a^2 b)^2 = a^2 (b a^2 b^-1) b^2 = a^(2 + 2*twist) b^2.
    assert power(g, 2) == G.element(2 + 2 * G.twist, 2)


def test_center_examples():
    assert metacyclic_group(3, 2, 2).center_order() == 9
    assert metacyclic_group(3, 2, 1).center_order() == 3
    assert metacyclic_group(5, 2, 1).center_order() == 5
    G = metacyclic_group(3, 2, 2)
    assert G.element(3, 0).is_central()
    assert G.identity().is_central()
    assert not G.a(1).is_central()


def test_class_examples():
    G = metacyclic_group(3, 2, 1)
    assert G.conjugacy_class(G.a(1)) == frozenset({G.a(1), G.a(4), G.a(7)})
    assert G.conjugacy_class(G.identity()) == frozenset({G.identity()})
    G5 = metacyclic_group(5, 2, 1)
    assert len(G5.conjugacy_class(G5.a(1))) == 5


# -------------------------------------------------------------- twist log
# The platform's private_log is the twist log: G.private_log(a, a^u) is
# the least s in [0, p) with twist^s = u (mod p^m), since conjugation by
# b^s multiplies a-exponents by twist^s.

def twist_log(G, u):
    return G.private_log(G.a(1), G.a(u))


def assert_twist_power(G, s):
    """b^s a b^-s = a^(twist^s), by the product and by `conjugate_by`
    (which writes the closed form 1 + (s mod p)*p^(m-1) inline),
    against plain modular exponentiation."""
    a, b_s = G.a(1), G.b(s)
    twisted = G.a(pow(G.twist, s, G.pm))
    assert b_s * a == twisted * b_s
    assert a.conjugate_by(b_s) == twisted


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (7, 4), (101, 2), (1009, 3)])
def test_twist_log_inverts_twist_pow(p, m):
    G = metacyclic_group(p, m, 1)
    for s in range(p):
        assert twist_log(G, pow(G.twist, s, G.pm)) == s


@pytest.mark.parametrize("p,m", [(3, 2), (3, 7), (5, 3), (7, 4), (101, 2), (1009, 3)])
def test_twist_table_matches_modular_powers(p, m):
    # Over two whole cycles of negative and positive s: the twist has
    # order exactly p, so b^p is the first b-power that fixes a.
    G = metacyclic_group(p, m, 1)
    for s in range(-2 * p, 2 * p):
        assert_twist_power(G, s)
    assert pow(G.twist, p, G.pm) == 1 != G.twist % G.pm


@pytest.mark.parametrize("p", [65521, 65537, 2**61 - 1, 2**127 - 1])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_twist_pow_matches_modular_powers_large_p(p, m):
    # Both sides of 2^16 and multi-limb p; s ranges over both signs,
    # past p and past p^n, where a b-exponent is reduced.
    G = metacyclic_group(p, m, 2)
    rng = random.Random(p * m)
    exponents = [0, 1, -1, p - 1, p, -p, G.pn, -G.pn, G.pn * p + 1]
    exponents += [rng.randrange(-p, p) for _ in range(20)]
    exponents += [rng.randrange(-G.pn * p, G.pn * p) for _ in range(20)]
    exponents += [rng.randrange(G.pn, G.pn * p) for _ in range(10)]
    for s in exponents:
        assert_twist_power(G, s)


@pytest.mark.parametrize("m", [2, 3])
def test_twist_log_matches_bsgs(m):
    rng = random.Random(53 + m)
    for p in (3, 101, 10007, 999983):
        G = metacyclic_group(p, m, 1)
        members = [pow(G.twist, rng.randrange(p), G.pm) for _ in range(20)]
        for u in members + [rng.randrange(G.pm) for _ in range(5)]:
            try:
                expected = bsgs_dlog(G.twist, u, G.pm, p)
            except NoSolutionError:
                with pytest.raises(NoSolutionError):
                    twist_log(G, u)
            else:
                assert twist_log(G, u) == expected


def test_twist_log_rejects_targets_outside_the_twist_group():
    G = metacyclic_group(7, 3, 1)  # the twist powers are the u = 1 mod 49
    for u in (2, 48, 51, G.pm - 1):
        with pytest.raises(NoSolutionError):
            twist_log(G, u)
    for u in (0, 7, 49, 7 * 50):  # non-units
        with pytest.raises(NoSolutionError):
            twist_log(G, u)


# -------------------------------------------------------------- invariants

@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_multiply_matches_rewriting_oracle(p, m, n):
    G = metacyclic_group(p, m, n)
    elems = list(G.elements())
    for g, h in product(elems, repeat=2):
        assert g * h == rewrite_multiply(g, h)


def test_multiply_matches_token_oracle():
    G = metacyclic_group(3, 2, 1)
    elems = list(G.elements())
    for g, h in product(elems, repeat=2):
        assert g * h == token_multiply(g, h)


def test_associativity_exhaustive():
    G = metacyclic_group(3, 2, 2)  # |G| = 81 = 3^4
    elems = list(G.elements())
    for g, h, k in product(elems, repeat=3):
        assert (g * h) * k == g * (h * k)


def test_associativity_random_large_params():
    G = metacyclic_group(1009, 2, 2)
    rng = random.Random(11)
    for _ in range(10_000):
        g, h, k = (
            G.element(rng.randrange(G.pm), rng.randrange(G.pn)) for _ in range(3)
        )
        assert (g * h) * k == g * (h * k)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_conjugation_is_an_automorphism(p, m, n):
    G = metacyclic_group(p, m, n)
    rng = random.Random(3)
    elems = list(G.elements())
    for _ in range(300):
        w, h, x = (rng.choice(elems) for _ in range(3))
        assert (w * h).conjugate_by(x) == w.conjugate_by(x) * h.conjugate_by(x)


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS + [(5, 2, 1)])
def test_class_sizes_and_center(p, m, n):
    G = metacyclic_group(p, m, n)
    central = 0
    for g in G.elements():
        cls = G.conjugacy_class(g)
        if g.is_central():
            central += 1
            assert cls == frozenset({g})
        else:
            assert len(cls) == p
    assert central == G.center_order()


@pytest.mark.parametrize("p,m,n", SMALL_GROUPS)
def test_enumeration_order(p, m, n):
    G = metacyclic_group(p, m, n)
    assert list(G.elements()) == [
        G.element(i, j) for i in range(p ** m) for j in range(p ** n)
    ]
    assert G.center_elements() == [
        G.element(p * x, p * y)
        for x in range(p ** (m - 1))
        for y in range(p ** (n - 1))
    ]


def test_center_set_equals_generated_subgroup():
    for p, m, n in SMALL_GROUPS:
        G = metacyclic_group(p, m, n)
        by_commutation = {
            g
            for g in G.elements()
            if all(g * x == x * g for x in G.generator_elements())
        }
        assert by_commutation == set(G.center_elements())
        assert by_commutation == {g for g in G.elements() if g.is_central()}


def test_class_by_brute_conjugators():
    for p, m, n in [(3, 2, 1), (3, 2, 2), (5, 2, 1)]:
        G = metacyclic_group(p, m, n)
        for g in G.elements():
            assert G.conjugacy_class(g) == brute_class(G, g)


def test_orbit_lower_bound_in_a():
    for p, m, n in SMALL_GROUPS:
        G = metacyclic_group(p, m, n)
        for i in range(1, G.pm):
            assert len(G.conjugacy_class(G.a(i))) >= p or G.a(i).is_central()
            if not G.a(i).is_central():
                assert len(G.conjugacy_class(G.a(i))) == p


def test_parameter_validation():
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        MetacyclicGroup(4, 2, 1)  # composite
    with pytest.raises(ValueError, match="^presentation requires m >= 2 and n >= 1$"):
        MetacyclicGroup(3, 1, 1)  # m < 2
    with pytest.raises(ValueError, match="^presentation requires m >= 2 and n >= 1$"):
        MetacyclicGroup(3, 2, 0)  # n < 1
    with pytest.raises(ValueError, match="^p must be an odd prime$"):
        MetacyclicGroup(2, 2, 1)  # p must be odd


def test_param_mismatch():
    g = metacyclic_group(3, 2, 1).a(1)
    h = metacyclic_group(3, 2, 2).a(1)
    with pytest.raises(ParamMismatchError):
        g * h


def test_canonical_roundtrip():
    G = metacyclic_group(3, 2, 2)
    g = G.element(1, 0)
    assert g.canonical() == "mc:p=3;m=2;n=2;i=1;j=0"
    assert parse_canonical(g.canonical()) == g
    rng = random.Random(5)
    H = metacyclic_group(1009, 2, 2)
    for _ in range(500):
        e = H.element(rng.randrange(H.pm), rng.randrange(H.pn))
        assert parse_canonical(e.canonical()) == e


@pytest.mark.parametrize(
    "bad",
    [
        "mc:p=3;m=2;n=2;i=01;j=0",   # non-minimal decimal
        "mc:p=3;m=2;n=2;i=9;j=0",    # exponent not reduced
        "mc:p=4;m=2;n=2;i=1;j=0",    # composite p
        "mc:p=3;m=2;n=2;j=0;i=1",    # wrong field order
        "mc:p=3;m=2;n=2;i=1;j=0 ",   # stray whitespace
        "MC:p=3;m=2;n=2;i=1;j=0",    # wrong case
        "mm:p=3;m=2;n=2;i=1;j=0",    # wrong platform tag
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_canonical(bad)
