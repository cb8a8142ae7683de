import math
import random

import pytest

from conjkex.arith import bsgs_dlog, is_probable_prime
from conjkex.errors import NoSolutionError


def naive_order(base: int, modulus: int) -> int:
    """Oracle: least s >= 1 with base**s = 1, by repeated multiplication."""
    cur, s = base % modulus, 1
    while cur != 1:
        cur = cur * base % modulus
        s += 1
    return s


def naive_dlog(base: int, target: int, modulus: int, order: int) -> int | None:
    cur = 1
    for s in range(order):
        if cur == target:
            return s
        cur = cur * base % modulus
    return None


# ---------------------------------------------------------------- examples

def test_bsgs_examples():
    assert bsgs_dlog(4, 7, 9, 3) == 2
    assert bsgs_dlog(4, 1, 9, 3) == 0
    with pytest.raises(NoSolutionError):
        bsgs_dlog(4, 5, 9, 3)  # <4> mod 9 = {1,4,7}
    with pytest.raises(ValueError):
        bsgs_dlog(3, 3, 9, 3)  # 3 is not a unit mod 9
    with pytest.raises(ValueError):
        bsgs_dlog(0, 0, 1, 1)


# -------------------------------------------------------------- properties

def test_bsgs_agrees_with_linear_scan():
    rng = random.Random(7)
    for _ in range(200):
        modulus = rng.randrange(3, 4000)
        base = rng.randrange(1, modulus)
        if math.gcd(base, modulus) != 1:
            continue
        order = naive_order(base, modulus)
        target = pow(base, rng.randrange(order), modulus)
        s = bsgs_dlog(base, target, modulus, order)
        assert s == naive_dlog(base, target, modulus, order)
        assert pow(base, s, modulus) == target
        assert s < order


def test_primality_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(2, 3000):
        assert is_probable_prime(n) == trial(n)
    assert is_probable_prime(999983)
    assert not is_probable_prime(999981)

