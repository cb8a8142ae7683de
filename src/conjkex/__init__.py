"""Conjugacy-based key exchange laboratory.

Three exact-arithmetic platform groups (a metacyclic and a non-metacyclic
minimal non-abelian p-group, and Sylow 2-subgroups of S_(2^k) as tree
portraits), a generic conjugacy key-exchange protocol over them, an
attack that recovers the key on every platform from public data in two
group products, and a suite verifying the structural claims the
construction rests on.
"""

from .arith import is_probable_prime
from .cryptanalysis import AttackReport, bsgs_break, orbit_stats
from .heisenberg import HeisenbergElement, HeisenbergGroup, heisenberg_group
from .kex import DemoResult, Session, Transcript, parse_element, run_demo, validate_base
from .metacyclic import MetacyclicGroup, MetaElement, metacyclic_group
from .treegroup import Portrait, TreeSylowGroup, tree_group
from .verify import ClaimResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "ClaimResult",
    "DemoResult",
    "HeisenbergElement",
    "HeisenbergGroup",
    "MetaElement",
    "MetacyclicGroup",
    "Portrait",
    "Session",
    "Transcript",
    "TreeSylowGroup",
    "bsgs_break",
    "heisenberg_group",
    "is_probable_prime",
    "metacyclic_group",
    "orbit_stats",
    "parse_element",
    "run_demo",
    "run_suites",
    "tree_group",
    "validate_base",
]
