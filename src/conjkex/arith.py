"""Number-theoretic primitives on plain Python ints.

`is_probable_prime` validates the odd prime p of the metacyclic and
heisenberg platforms.  `bsgs_dlog`, a generic baby-step giant-step
discrete log, is the independent oracle that the tests and the
attack-cost demo hold the metacyclic platform's closed-form
`private_log` against.  All integers are plain Python ints, so
parameters of any magnitude work without overflow.
"""

from __future__ import annotations

import math

from .errors import NoSolutionError

# Witnesses proving primality for every n < 3.317e24 (deterministic
# Miller-Rabin); beyond that the test is probabilistic with error far
# below 2**-64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bsgs_dlog(base: int, target: int, modulus: int, order: int) -> int:
    """Baby-step giant-step discrete log in the cyclic group <base> mod modulus.

    `order` bounds the order of base.  Returns the least s >= 0 with
    base**s = target, spending at most 2*ceil(sqrt(order)) + 1 modular
    multiplications.  Raises NoSolutionError when target is not a power
    of base, and ValueError when modulus < 2, order < 1 or base is not a
    unit.
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    m = math.isqrt(order)
    if m * m < order:
        m += 1
    b, t = base % modulus, target % modulus
    # Baby steps: base**j for j < m.  Ties cannot occur while j is below
    # the order of base, but setdefault keeps the least j regardless.
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * b % modulus
    # cur is now base**m; invert it once for the giant stride.
    stride = pow(cur, -1, modulus)
    gamma = t
    for i in range(m + 1):
        j = table.get(gamma)
        if j is not None:
            s = i * m + j
            if s < order or pow(b, s, modulus) == t:
                return s
        gamma = gamma * stride % modulus
    raise NoSolutionError(f"{t} is not in the subgroup generated by {b} mod {modulus}")
