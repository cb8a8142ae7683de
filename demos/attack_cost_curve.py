"""Break metacyclic sessions from public data and chart the cost.

The eavesdropper sees w, w^x, w^y.  Conjugation by b-powers multiplies
a-exponents by powers of the order-p twist, so the quotient of the two
exponents, q = twist^s, is Alice's secret twist power.  Because
twist^s = 1 + s*p^(m-1) (mod p^m), s is read off q by one division,
and the key w_x * w^-1 * w_y costs 2 group products at every p.  For
comparison the demo also solves the same targets by baby-step
giant-step, which spends between sqrt(p) and 2*sqrt(p) multiplications,
depending on the secret.

Run:  python3 demos/attack_cost_curve.py
"""

import time

from conjkex import bsgs_break, metacyclic_group, run_demo
from conjkex.arith import bsgs_dlog

print(
    f"{'p':>10} {'closed-form ops':>15} {'closed ms':>9} "
    f"{'bsgs ms':>8} {'same s':>6} {'recovered':>9}"
)
for p in (101, 1009, 10007, 104729, 999983, 100000007, 2 ** 31 - 1):
    group = metacyclic_group(p, 2, 2)
    result = run_demo(group.a(1), seed_alice=p, seed_bob=3 * p)
    transcript = result.transcript
    w = transcript.base_element()
    w_x = transcript.public_from("alice")
    report = bsgs_break(w, w_x, transcript.public_from("bob"))

    # The same twist target, solved by the generic O(sqrt(p)) search.
    target = w_x.i * pow(w.i, -1, group.pm) % group.pm
    started = time.perf_counter()
    s = bsgs_dlog(group.twist, target, group.pm, p)
    bsgs_ms = (time.perf_counter() - started) * 1000.0

    recovered = report.recovered_key == result.key_alice
    print(
        f"{p:>10} {report.group_ops:>15} {report.wall_ms:>9.3f} "
        f"{bsgs_ms:>8.2f} {str(s == report.exponent):>6} {str(recovered):>9}"
    )

print("\nthe closed form stays at 2 operations while baby-step giant-step")
print("grows like sqrt(p): the twist is linear in its exponent mod p^m, so")
print("the key falls to public data at any size of p")
