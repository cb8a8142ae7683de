"""Command-line entry point.

Subcommands: demo (run a key exchange, optionally writing a replayable
transcript), verify (structural claim suites), attack (recover a demo
transcript's key from public data, on every platform and tree depth),
element (scriptable group arithmetic), tree (Sylow subgroup facts for
one depth), stats (orbit and key-space statistics, by enumerating a
group of at most `core.ENUMERATION_CAP` elements).
Every --platform takes its own group flags only (-p, -m, -n or -k).

Machine-readable output goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 failed claims or failed attack, 2 bad usage or
malformed input, 3 key disagreement in demo.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cryptanalysis, kex, verify
from .core import PGroup
from .errors import ConjKexError, PlatformMismatchError, TranscriptError
from .treegroup import tree_group

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_KEY_MISMATCH = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjkex",
        description="conjugacy key-exchange laboratory over finite non-commutative groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a two-party key exchange")
    _platform_flags(demo)
    demo.add_argument("--base", help="canonical base element (defaults per platform)")
    demo.add_argument("--seed-a", type=int, required=True)
    demo.add_argument("--seed-b", type=int, required=True)
    demo.add_argument("--transcript", help="write the handshake transcript here")
    demo.add_argument(
        "--debug-key",
        action="store_true",
        help="embed the honest shared key in the transcript for self-grading",
    )

    ver = sub.add_parser("verify", help="run structural claim suites")
    ver.add_argument("--suite", default="all", help="|".join((*verify.SUITES, "all")))
    ver.add_argument("--long", action="store_true", help="include the k=4 sylow and growth claims")

    attack = sub.add_parser("attack", help="recover a demo transcript's key from public values")
    attack.add_argument("--transcript", required=True)

    element = sub.add_parser("element", help="arithmetic on canonical element strings")
    op = element.add_mutually_exclusive_group(required=True)
    op.add_argument("--mul", nargs=2, metavar=("G", "H"))
    op.add_argument("--inv", nargs=1, metavar="G")
    op.add_argument("--conj", nargs=2, metavar=("W", "X"))

    tree = sub.add_parser("tree", help="Sylow 2-subgroup facts for one depth")
    tree.add_argument("-k", type=int, required=True)
    tree.add_argument("--long", action="store_true", help="also G' and its rank")

    stats = sub.add_parser("stats", help="orbit and key-space statistics")
    _platform_flags(stats)
    return parser


def _platform_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--platform", required=True, choices=tuple(kex.PLATFORMS))
    sub.add_argument("-p", type=int, help="odd prime (metacyclic/heisenberg)")
    sub.add_argument("-m", type=int, help="a-exponent height")
    sub.add_argument("-n", type=int, help="b-exponent height")
    sub.add_argument("-k", type=int, help="tree depth (tree platform)")


def _group_from_args(args) -> object:
    """The group that --platform and its flags name.  A platform needs
    each of its own flags and refuses another platform's."""
    factory = kex.PLATFORMS[args.platform]
    names = factory.__wrapped__.param_names
    flags = [f"-{name}" for name in names]
    listed = ", ".join(flags[:-1]) + " and " + flags[-1] if flags[1:] else flags[0]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise ValueError(f"{args.platform} platform needs {listed}")
    foreign = [f"-{x}" for x in "pmnk" if x not in names and getattr(args, x) is not None]
    if foreign:
        raise ValueError(f"{args.platform} platform takes only {listed}, not {', '.join(foreign)}")
    return factory(*values)


def _cmd_demo(args) -> int:
    group = _group_from_args(args)
    if args.base is not None:
        base = kex.parse_element(args.base)
        if base.group != group:
            raise ValueError("--base does not match the platform parameters")
    else:
        base = group.default_base()
    result = kex.run_demo(base, args.seed_a, args.seed_b, debug_key=args.debug_key)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(result.transcript.to_text())
    print(
        json.dumps(
            {
                "key_alice": result.key_alice.decode("ascii"),
                "key_bob": result.key_bob.decode("ascii"),
                "match": result.agreed,
            },
            separators=(",", ":"),
        )
    )
    if not result.agreed:
        print("keys disagree", file=sys.stderr)
        return EXIT_KEY_MISMATCH
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(names, long=args.long)
    for r in results:
        print(r.to_json())
    print(verify.summary_table(results), file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _cmd_attack(args) -> int:
    try:
        with open(args.transcript, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TranscriptError(f"transcript is not UTF-8: {exc}") from None
    transcript = kex.Transcript.from_text(text)
    w = transcript.base_element()
    w_x = transcript.public_from("alice")
    w_y = transcript.public_from("bob")
    honest = transcript.debug_key()
    report = cryptanalysis.bsgs_break(w, w_x, w_y)
    print(report.to_json())
    if report.recovered_key != honest:
        print("recovered key does not match the honest key", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_element(args) -> int:
    g, *others = map(kex.parse_element, args.mul or args.inv or args.conj)
    if any(type(h) is not type(g) for h in others):
        raise PlatformMismatchError("elements come from different platforms")
    if args.mul:
        result = g * others[0]
    elif args.inv:
        result = g.inverse()
    else:
        result = g.conjugate_by(others[0])
    print(result.canonical())
    return EXIT_OK


def _decimal(power_of_two: int) -> str:
    """Decimal digits of a power of two.  `str` refuses ints of more
    than 4300 digits (Python's int-to-str limit), which the tree orders
    pass from k = 14.  decimal's exact power has no such limit, and at
    k = 20 it takes 14 ms where converting the int takes a second."""
    exact = cryptanalysis.exact_decimal()
    return str(exact.power(2, power_of_two.bit_length() - 1))


def _cmd_tree(args) -> int:
    group = tree_group(args.k)
    facts = {
        "k": str(args.k),
        "s_order": _decimal(group.order),
        "a_order": _decimal(group.order >> 1),
        "level_subgroup_orders": [
            _decimal(group.level_subgroup_order(level)) for level in range(args.k)
        ],
    }
    if args.k <= 3 or args.long:
        derived = group.derived_subgroup(group.even_generators())
        facts["derived_order"] = _decimal(derived.order)
        facts["derived_min_generators"] = str(group.minimal_generating_size(derived))
    print(json.dumps(facts, separators=(",", ":")))
    return EXIT_OK


def _cmd_stats(args) -> int:
    group = _group_from_args(args)
    histogram = cryptanalysis.orbit_stats(group)
    stats: dict = {
        "platform": args.platform,
        "class_sizes": {str(size): count for size, count in sorted(histogram.items())},
    }
    if isinstance(group, PGroup):
        base = group.default_base()
        orbit = len(group.conjugacy_class(base))
        stats["center_order"] = str(group.center_order())
        stats["base_orbit_size"] = str(orbit)
        stats["note"] = (
            "the derived key ranges over the base's conjugation orbit "
            f"({orbit} values), not over the center-sized key space"
        )
    print(json.dumps(stats, separators=(",", ":")))
    return EXIT_OK


_HANDLERS = {
    "demo": _cmd_demo,
    "verify": _cmd_verify,
    "attack": _cmd_attack,
    "element": _cmd_element,
    "tree": _cmd_tree,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The one error boundary: malformed input, refused parameters and
    # unreadable or unwritable files (open() refuses a path with a NUL
    # byte with a ValueError) are usage errors.
    try:
        return _HANDLERS[args.command](args)
    except (ConjKexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
