"""Slow reference routes that the tests hold the package to.

They use nothing but the element contract (products, inverses,
conjugation and the group's commuting subgroup), so they stay
independent of each platform's closed forms.  `frattini_by_basis` is
the tree subgroup engine's Phi(H) with H's whole basis as normalisers.
`forced_session` is the one test helper here that is not a route: a
session with a chosen private.
"""

from itertools import combinations

from conjkex.errors import ConjKexError
from conjkex.kex import Session
from conjkex.treegroup import Subgroup


class NotInOrbitError(ConjKexError):
    """Brute-force conjugator scan ran out of candidates."""


def conjugate_via_products(w, x):
    """Literal x^-1 * w * x."""
    w._check(x)
    return x.inverse() * w * x


def commutator(x, y):
    """Literal [x, y] = x^-1 y^-1 x y."""
    return x.inverse() * y.inverse() * x * y


def compose_perms(p, q):
    """Permutation of "p then q" under the package convention."""
    return tuple(q[p[x]] for x in range(len(p)))


def forced_session(base, private):
    session = Session(base, seed=0)
    session.private = private
    return session


def power(g, e: int):
    """g^e by |e| repeated products: of g, or of g^-1 when e < 0."""
    factor = g if e >= 0 else g.inverse()
    out = g.group.identity()
    for _ in range(abs(e)):
        out = out * factor
    return out


def brute_conjugacy(w, w_pub, max_iter: int) -> int:
    """Scan the designated commuting subgroup for the least conjugator
    index s with conjugate(w, subgroup[s]) = w_pub."""
    group = w.group
    bound = min(max_iter + 1, group.commuting_subgroup_order())
    for s in range(bound):
        if w.conjugate_by(group.commuting_conjugator(s)) == w_pub:
            return s
    raise NotInOrbitError(f"no conjugator found within {max_iter} steps")


def frattini_by_basis(H):
    """Phi(H) as the normal closure in H itself: the squares and
    commutators of H's basis, normalised by every basis element."""
    basis = H.basis
    seeds = [r * r for r in basis] + [commutator(x, y) for x, y in combinations(basis, 2)]
    return Subgroup(H.group, seeds, [(r, r.inverse()) for r in basis])
