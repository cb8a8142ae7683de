"""Tree portraits: Sylow 2-subgroups, level subgroups, commutators.

Run:  python3 demos/tree_group_tour.py
"""

from conjkex import tree_group

print("portraits label every internal vertex of a depth-k binary tree with")
print("swap/keep; they compose like tree automorphisms\n")

G = tree_group(3)
root = G.single(0, 0)
bottom = G.single(2, 1)
print(f"root swap        {root.canonical()}  acts as {root.to_permutation()}")
print(f"one bottom swap  {bottom.canonical()}  acts as {bottom.to_permutation()}")
combo = root * bottom
print(f"their composite  {combo.canonical()}  acts as {combo.to_permutation()}\n")

print(f"{'k':>2} {'|Syl2(S)|':>10} {'|Syl2(A)|':>10} {'|derived|':>10} {'d(derived)':>11}")
for k in (2, 3, 4):
    group = tree_group(k)
    derived = group.derived_subgroup(group.even_generators())
    rank = group.minimal_generating_size(derived)
    print(
        f"{k:>2} {group.order:>10} {group.order >> 1:>10} "
        f"{derived.order:>10} {rank:>11}"
    )

print("\npast enumeration, the subgroup engine (an echelon basis of G') gives")
print("log2|derived| = 2^k-k-2 and d(derived) = 2k-3")
for k in (5, 6, 7):
    group = tree_group(k)
    derived = group.derived_subgroup(group.even_generators())
    rank = group.minimal_generating_size(derived)
    print(f"  k={k}: log2|derived| = {derived.order.bit_length() - 1}, d(derived) = {rank}")

print("\nlevel subgroups (all bits on one level) commute elementwise and")
print("square in size with each level: the commuting families the protocol")
print("draws its private conjugators from")
for k in (3, 4):
    group = tree_group(k)
    sizes = [len(group.level_subgroup(level)) for level in range(k)]
    print(f"  k={k}: level subgroup sizes {sizes}")
