"""Exact residue arithmetic and number-theoretic primitives.

The group platforms use only `is_probable_prime`, to validate p, and
reduce their exponents with plain int arithmetic; the attacks use only
`OpCounter`.  The rest (`Residue`, an eagerly reduced integer modulo a
fixed modulus, with `mod_pow`, `mod_inv`, `mult_order`, `factorize` and
`bsgs_dlog`) is a standalone toolkit that the tests and demos use as an
independent oracle.  All integers are plain Python ints, so parameters
of any magnitude work without overflow.
"""

from __future__ import annotations

import math

from .errors import (
    BoundExceededError,
    NoSolutionError,
    NotInvertibleError,
    ParamMismatchError,
)

# Witnesses proving primality for every n < 3.317e24 (deterministic
# Miller-Rabin); beyond that the test is probabilistic with error far
# below 2**-64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_DIVISION_LIMIT = 10_000_000


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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus a prime-cofactor check.

    Raises ValueError when a composite cofactor with no factor below the
    trial-division limit remains; the moduli used by this package are
    prime powers and always factor.
    """
    if n < 1:
        raise ValueError("can only factor positive integers")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= _TRIAL_DIVISION_LIMIT:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        if not is_probable_prime(n):
            raise ValueError(f"cannot factor remaining composite cofactor {n}")
        factors[n] = factors.get(n, 0) + 1
    return factors


class Residue:
    """An integer reduced modulo a fixed modulus >= 2.

    Values are reduced eagerly, so 0 <= value < modulus always holds and
    equality is plain componentwise comparison.  Instances are immutable;
    operations on mismatched moduli raise ParamMismatchError.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value % modulus)

    def __setattr__(self, name, val):
        raise AttributeError("Residue is immutable")

    def _check(self, other: Residue) -> None:
        if self.modulus != other.modulus:
            raise ParamMismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: Residue) -> Residue:
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: Residue) -> Residue:
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __mul__(self, other: Residue) -> Residue:
        self._check(other)
        return Residue(self.value * other.value, self.modulus)

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.modulus)

    def __pow__(self, exp: int) -> Residue:
        """Square-and-multiply power; exp = 0 gives 1 mod modulus."""
        if exp < 0:
            raise ValueError("negative exponent; use inverse() first")
        return Residue(pow(self.value, exp, self.modulus), self.modulus)

    def inverse(self) -> Residue:
        try:
            return Residue(pow(self.value, -1, self.modulus), self.modulus)
        except ValueError:
            raise NotInvertibleError(
                f"{self.value} is not invertible mod {self.modulus}"
            ) from None

    def is_unit(self) -> bool:
        return math.gcd(self.value, self.modulus) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Residue)
            and self.value == other.value
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def __repr__(self) -> str:
        return f"Residue({self.value}, mod={self.modulus})"


def mod_pow(base: Residue, exp: int) -> Residue:
    """base**exp reduced modulo base.modulus in O(log exp) multiplications."""
    return base ** exp


def mod_inv(x: Residue) -> Residue:
    """Multiplicative inverse; NotInvertibleError when gcd(x, modulus) > 1."""
    return x.inverse()


def _group_exponent(modulus: int) -> int:
    """Carmichael function of the modulus, from its factorization."""
    lam = 1
    for p, e in factorize(modulus).items():
        if p == 2:
            block = 1 if e == 1 else (2 if e == 2 else 2 ** (e - 2))
        else:
            block = p ** (e - 1) * (p - 1)
        lam = math.lcm(lam, block)
    return lam


def mult_order(x: Residue, order_bound: int) -> int:
    """Least s >= 1 with x**s = 1, refusing answers above order_bound.

    The order is computed exactly by stripping prime factors from the
    group exponent of the modulus, so the cost is polylogarithmic rather
    than a scan; BoundExceededError reports an order beyond the bound.
    """
    if not x.is_unit():
        raise NotInvertibleError(f"{x.value} is not a unit mod {x.modulus}")
    order = _group_exponent(x.modulus)
    for q in factorize(order):
        while order % q == 0 and pow(x.value, order // q, x.modulus) == 1:
            order //= q
    if order > order_bound:
        raise BoundExceededError(f"order {order} exceeds bound {order_bound}")
    return order


class OpCounter:
    """Mutable counter for the modular multiplications an algorithm spends."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n


def bsgs_dlog(
    base: Residue,
    target: Residue,
    order: int,
    ops: OpCounter | None = None,
) -> int:
    """Baby-step giant-step discrete log in the cyclic group <base>.

    Returns the least s >= 0 with base**s = target, spending at most
    2*ceil(sqrt(order)) + 1 modular multiplications (tracked via `ops`).
    Raises NoSolutionError when target is not a power of base.
    """
    base._check(target)
    if order < 1:
        raise ValueError("order must be >= 1")
    if ops is None:
        ops = OpCounter()
    m = math.isqrt(order)
    if m * m < order:
        m += 1
    # The loops run on plain ints; one multiplication is ticked per step.
    modulus, b, t = base.modulus, base.value, target.value
    # Baby steps: base**j for j < m.  Ties cannot occur while j is below
    # the order of base, but setdefault keeps the least j regardless.
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table.setdefault(cur, j)
        cur = cur * b % modulus
    ops.tick(m)
    # cur is now base**m; invert it once for the giant stride.
    stride = Residue(cur, modulus).inverse().value
    gamma = t
    for i in range(m + 1):
        j = table.get(gamma)
        if j is not None:
            s = i * m + j
            if s < order or pow(b, s, modulus) == t:
                ops.tick(i)
                return s
        gamma = gamma * stride % modulus
    ops.tick(m + 1)
    raise NoSolutionError(
        f"{target.value} is not in the subgroup generated by {base.value}"
    )
