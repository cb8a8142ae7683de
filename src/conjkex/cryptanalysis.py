"""Attacks on the conjugacy exchange, and orbit statistics.

The headline attack recovers the key of a metacyclic session from public
data alone.  The public values multiply the base's a-exponent by a power
of the order-p twist, and twist^s = 1 + s*p^(m-1) (mod p^m) is linear in
s, so the "discrete log" is one division: the eavesdropper spends a
constant number of modular operations whatever the size of p.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .arith import OpCounter
from .errors import NoSolutionError, TooLargeError


@dataclass
class AttackReport:
    """Outcome of one attack run; group_ops counts platform multiplications."""

    recovered_key: bytes
    exponent: int
    group_ops: int
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "recovered_key": self.recovered_key.decode("ascii"),
                "exponent": str(self.exponent),
                "group_ops": str(self.group_ops),
                "wall_ms": round(self.wall_ms, 3),
            },
            separators=(",", ":"),
        )


def bsgs_break(w, w_x, w_y) -> AttackReport:
    """Recover the shared key of a metacyclic session from public data.

    The quotient q = (a-exponent of w_x) / (a-exponent of w) mod p^m is
    Alice's twist power; `MetacyclicGroup.twist_log` reads the least
    exponent s with twist^s = q off it by one division, and the key's
    exponent is w_y's times q.  That is 2 modular multiplications for any
    p.  The name is historical: no baby-step giant-step runs here.  The
    generic O(sqrt(p)) search `arith.bsgs_dlog(group.twist, q, group.pm,
    group.p)` finds the same exponent; the tests hold `twist_log` to it.
    """
    group = w.group
    if group.kind != "metacyclic":
        raise NoSolutionError("twist-log attack applies to the metacyclic platform")
    if w_x.group != group or w_y.group != group:
        raise NoSolutionError("inputs come from different platforms")
    if w.j != 0 or w_x.j != 0 or w_y.j != 0:
        raise NoSolutionError("attack expects base and publics inside <a>")
    if w.i % group.p == 0:
        raise NoSolutionError("base exponent must be a unit mod p")

    started = time.perf_counter()
    ops = OpCounter()
    pm = group.pm
    # twist^s = w_x.i / w.i; the quotient is itself the needed twist power.
    twist_power = w_x.i * pow(w.i, -1, pm) % pm
    ops.tick()
    exponent = group.twist_log(twist_power)
    key_exp = w_y.i * twist_power
    ops.tick()
    recovered = group.element(key_exp, 0)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return AttackReport(
        recovered_key=recovered.canonical().encode("ascii"),
        exponent=exponent,
        group_ops=ops.count,
        wall_ms=wall_ms,
    )


def orbit_stats(group, cap: int = 10 ** 5) -> dict[int, int]:
    """Histogram {class size: number of classes} over the whole group."""
    # The order is named as a power: past 4300 decimal digits, which a
    # tree from k = 14 and a p-group of large m + n reach, `str` refuses it.
    if group.order > cap:
        raise TooLargeError(f"|G| = {group.p}^{group.log_order} exceeds cap {cap}")
    seen = set()
    histogram: dict[int, int] = {}
    for g in group.elements():
        if g not in seen:
            cls = group.conjugacy_class(g)
            seen.update(cls)
            histogram[len(cls)] = histogram.get(len(cls), 0) + 1
    return histogram
