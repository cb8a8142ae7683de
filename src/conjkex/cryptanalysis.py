"""Attacks on the conjugacy exchange, and orbit statistics.

The headline attack recovers the key of a session on any platform from
public data alone.  The displacement d(x) = w^x * w^-1 is a
homomorphism on the private subgroup: on the p-groups [w, <b>] is
central, and on the tree d is GF(2)-linear into an elementary abelian
group (`TreeSylowGroup.private_log` gives its closed form).  So the
key, w moved by both privates, is d(x) d(y) w = w_x * w^-1 * w_y: two
products whatever the size of the group, the degenerate case of the
linear decomposition attack (Myasnikov and Roman'kov, Groups Complexity
Cryptology 7, 2015).  It reads tree transcripts at every depth.
"""

from __future__ import annotations

import json
import time

from .core import _TEXT_BOUND
from .errors import PlatformMismatchError


def decimal_text(x: int) -> str:
    """The decimal digits of a non-negative int of any size, the same
    string as `str(Decimal(x))`: an attack's `exponent` and `conjkex
    tree`'s orders print through it.

    `str` refuses ints of more than 4300 digits (Python's int-to-str
    limit), which a tree mask passes from k = 16 and a tree order from
    k = 14; `Decimal(x)` converts in quadratic time.  So a large x is
    converted in an exact `decimal.Context`, imported only here (it adds
    about 2 ms and 0.3 MB to a process): a power of two as one exact
    power, any other x split at a power of two, x = hi * 2^h + lo, each
    half converted the same way down to that limit and the two
    recombined with decimal's exact (subquadratic) multiply and add."""
    if x < _TEXT_BOUND:
        return str(x)
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    powers = {}

    def convert(y):
        if y < _TEXT_BOUND:
            return ctx.create_decimal(y)
        if not y & (y - 1):
            return ctx.power(2, y.bit_length() - 1)
        h = 1 << ((y.bit_length() - 1).bit_length() - 1)
        if h not in powers:
            powers[h] = ctx.power(2, h)
        return ctx.add(ctx.multiply(convert(y >> h), powers[h]), convert(y & ((1 << h) - 1)))

    return str(convert(x))


class AttackReport:
    """Outcome of one attack run; group_ops counts platform multiplications."""

    def __init__(self, recovered_key: bytes, exponent: int, group_ops: int, wall_ms: float) -> None:
        self.recovered_key = recovered_key
        self.exponent = exponent
        self.group_ops = group_ops
        self.wall_ms = wall_ms

    def to_json(self) -> str:
        return json.dumps(
            {
                "recovered_key": self.recovered_key.decode("ascii"),
                "exponent": decimal_text(self.exponent),
                "group_ops": str(self.group_ops),
                "wall_ms": round(self.wall_ms, 3),
            },
            separators=(",", ":"),
        )


def bsgs_break(w, w_x, w_y) -> AttackReport:
    """Recover the shared key of a session from public data: the base w
    and the two publics.

    The key is w_x * w^-1 * w_y, and `exponent` is the index of a
    private that moves w to w_x, from `group.private_log`: the least
    s in [0, p) with b^s on the p-groups, read by one division, and a
    level-(k-2) label mask on the tree, at every depth.  The name is
    historical: no baby-step giant-step runs here; `arith.bsgs_dlog`
    is the tests' oracle for the metacyclic s.
    """
    group = w.group
    if w_x.group != group or w_y.group != group:
        raise PlatformMismatchError("public values come from another group than the base")
    started = time.perf_counter()
    exponent = group.private_log(w, w_x)
    recovered = w_x * w.inverse() * w_y
    wall_ms = (time.perf_counter() - started) * 1000.0
    return AttackReport(
        recovered_key=recovered.canonical().encode("ascii"),
        exponent=exponent,
        group_ops=2,  # the two products of the key
        wall_ms=wall_ms,
    )


def orbit_stats(group) -> dict[int, int]:
    """Histogram {class size: number of classes} over the whole group,
    which `group.elements()` refuses past `core.ENUMERATION_CAP` before
    anything is allocated.

    One sweep of the enumeration, with a visited byte per element at its
    `group.index`: each unvisited element's class is closed under
    `conjugate_by` every generator, since a set closed under conjugation
    by each generator of a finite group is a conjugacy class.
    """
    elements = group.elements()
    index, generators = group.index, group.generator_elements()
    visited = bytearray(group.order)
    histogram: dict[int, int] = {}
    for position, g in enumerate(elements):
        if not visited[position]:
            visited[position] = 1
            cls = [g]
            for h in cls:  # grows as the closure finds new members
                for x in generators:
                    conj = h.conjugate_by(x)
                    at = index(conj)
                    if not visited[at]:
                        visited[at] = 1
                        cls.append(conj)
            histogram[len(cls)] = histogram.get(len(cls), 0) + 1
    return histogram
