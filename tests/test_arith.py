import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjkex.arith import (
    OpCounter,
    Residue,
    bsgs_dlog,
    factorize,
    is_probable_prime,
    mod_inv,
    mod_pow,
    mult_order,
)
from conjkex.errors import (
    BoundExceededError,
    NoSolutionError,
    NotInvertibleError,
    ParamMismatchError,
)


def naive_pow(value: int, exp: int, modulus: int) -> int:
    """Oracle: exponentiation by literal repeated multiplication."""
    out = 1 % modulus
    for _ in range(exp):
        out = out * value % modulus
    return out


def naive_dlog(base: Residue, target: Residue, order: int) -> int | None:
    cur = Residue(1, base.modulus)
    for s in range(order):
        if cur == target:
            return s
        cur = cur * base
    return None


# ---------------------------------------------------------------- examples

def test_mod_pow_examples():
    # 4^2 = 16 = 7 mod 9, then 7*4 = 28 = 1 mod 9
    assert mod_pow(Residue(4, 9), 3) == Residue(1, 9)
    assert mod_pow(Residue(4, 9), 2) == Residue(7, 9)
    assert mod_pow(Residue(5, 11), 0) == Residue(1, 11)


def test_mod_inv_examples():
    assert mod_inv(Residue(4, 9)) == Residue(7, 9)  # 4*7 = 28 = 1 mod 9
    assert mod_inv(Residue(1, 17)) == Residue(1, 17)
    with pytest.raises(NotInvertibleError):
        mod_inv(Residue(3, 9))


def test_mult_order_examples():
    # order of 1 + 3^(2-1) = 4 modulo 3^2 is exactly 3
    assert mult_order(Residue(4, 9), 9) == 3
    assert mult_order(Residue(1, 12), 12) == 1
    # powers of 6 mod 25: 6, 11, 16, 21, 1
    assert mult_order(Residue(6, 25), 25) == 5


def test_mult_order_bound():
    with pytest.raises(BoundExceededError):
        mult_order(Residue(4, 9), 2)
    with pytest.raises(NotInvertibleError):
        mult_order(Residue(3, 9), 9)


def test_bsgs_examples():
    assert bsgs_dlog(Residue(4, 9), Residue(7, 9), 3) == 2
    assert bsgs_dlog(Residue(4, 9), Residue(1, 9), 3) == 0
    with pytest.raises(NoSolutionError):
        bsgs_dlog(Residue(4, 9), Residue(5, 9), 3)  # <4> mod 9 = {1,4,7}


# -------------------------------------------------------------- properties

@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=500), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=1000))
def test_mod_pow_matches_naive_oracle(modulus, value, exp):
    assert mod_pow(Residue(value, modulus), exp).value == naive_pow(value, exp, modulus)


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=1, max_value=2000))
def test_inverse_property(modulus, value):
    x = Residue(value, modulus)
    if math.gcd(x.value, modulus) == 1:
        assert (x * mod_inv(x)).value == 1 % modulus
    else:
        with pytest.raises(NotInvertibleError):
            mod_inv(x)


@settings(max_examples=100)
@given(st.integers(min_value=3, max_value=400), st.integers(min_value=1, max_value=400))
def test_mult_order_is_minimal(modulus, value):
    x = Residue(value, modulus)
    if math.gcd(x.value, modulus) != 1:
        return
    order = mult_order(x, modulus)
    assert mod_pow(x, order).value == 1
    for s in range(1, order):
        assert mod_pow(x, s).value != 1


def test_bsgs_agrees_with_linear_scan():
    rng = random.Random(7)
    for _ in range(200):
        modulus = rng.randrange(3, 4000)
        base = Residue(rng.randrange(1, modulus), modulus)
        if not base.is_unit():
            continue
        order = mult_order(base, modulus)
        target = mod_pow(base, rng.randrange(order))
        s = bsgs_dlog(base, target, order)
        assert s == naive_dlog(base, target, order)
        assert mod_pow(base, s) == target
        assert s < order


def test_bsgs_multiplication_budget():
    p = 10007
    base = Residue(5, p)
    order = mult_order(base, p)
    ops = OpCounter()
    bsgs_dlog(base, mod_pow(base, 9000), order, ops=ops)
    assert ops.count <= 2 * math.isqrt(order - 1) + 3


def test_bsgs_op_count_exact():
    # base 4 mod 9 has order 3, so m = 2 baby steps; the giant stride is
    # ticked once per step taken before the match, m + 1 times without one.
    ops = OpCounter()
    assert bsgs_dlog(Residue(4, 9), Residue(7, 9), 3, ops=ops) == 2
    assert ops.count == 3
    ops = OpCounter()
    assert bsgs_dlog(Residue(4, 9), Residue(4, 9), 3, ops=ops) == 1
    assert ops.count == 2
    ops = OpCounter()
    with pytest.raises(NoSolutionError):
        bsgs_dlog(Residue(4, 9), Residue(5, 9), 3, ops=ops)
    assert ops.count == 5


def test_residue_invariants():
    r = Residue(-1, 9)
    assert 0 <= r.value < 9
    assert r.value == 8
    with pytest.raises(ParamMismatchError):
        Residue(1, 9) * Residue(1, 25)
    with pytest.raises(ValueError):
        Residue(0, 1)
    with pytest.raises(AttributeError):
        r.value = 3


def test_primality_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(2, 3000):
        assert is_probable_prime(n) == trial(n)
    assert is_probable_prime(999983)
    assert not is_probable_prime(999981)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(9) == {3: 2}
    assert factorize(999983 ** 2) == {999983: 2}
    assert factorize(2 * 2 * 3 * 1009) == {2: 2, 3: 1, 1009: 1}
