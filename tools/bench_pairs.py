"""Compare two checkouts with benchmarks/run.py in alternating pairs and
write the end-to-end section of a BENCH_*.json.

Each pair runs one seed on both sides, one after the other, for the
change's BENCHMARK.json `run_seconds`; the side that goes first swaps
from pair to pair, so that a drift in machine speed does not favour one
side.  Per workload and metric the output
holds each side's median and quartiles (`statistics.quantiles`,
inclusive), `change_wins` (the pairs the change won, by the metric's
direction in the change's BENCHMARK.json; a tie counts for neither),
`relative_change` (change median over parent median, minus one), and
the two verdicts of the pair rule:

- `gain_shown`: the change won at least 9/10 of the pairs, and its
  median beats the parent's by more than the parent's quartile
  distance (IQR);
- `unresolved`: fewer than ten pairs ran, or the parent's IQR exceeds
  the metric's `bound` times the parent median, and not every change
  run beats every parent run, so the runs are too few or spread too
  widely to tell a change within the bound.  A few pairs' IQR misses a
  drift in machine speed that moves one side's whole run.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload handshake:10 --workload attack:10 --seed 301 --out BENCH_N.json
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; its last stdout line, parsed."""
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(pairs: list, declared: dict) -> dict:
    """Aggregate (parent result, change result) pairs of one workload.

    `declared` maps each end-to-end metric to its BENCHMARK.json entry:
    "better" ("lower" or "higher") and "bound"."""
    metrics = {}
    for name, spec in declared.items():
        values = {side: [pair[i]["metrics"][name]["value"] for pair in pairs]
                  for i, side in enumerate(SIDES)}
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (change - parent) > 0
                   for parent, change in zip(values["parent"], values["change"]))
        spreads = {side: spread(values[side]) for side in SIDES}
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        parent_iqr = spreads["parent"]["q3"] - spreads["parent"]["q1"]
        relative = change_median / parent_median - 1 if parent_median else 0.0
        # Every change run beats every parent run.
        every_run_better = (min(sign * v for v in values["change"])
                            > max(sign * v for v in values["parent"]))
        metrics[name] = {
            **spreads,
            "change_wins": wins,
            "relative_change": round(relative, 4),
            "gain_shown": 10 * wins >= 9 * len(pairs)
                          and sign * (change_median - parent_median) > parent_iqr,
            "unresolved": (len(pairs) < 10 or parent_iqr > spec["bound"] * abs(parent_median))
                          and not every_run_better,
        }
    return {
        "correct": all(result["correct"] for pair in pairs for result in pair),
        "failed_ops": {side: sum(pair[i]["failed"] for pair in pairs)
                       for i, side in enumerate(SIDES)},
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS",
                        help="a workload and its number of pairs; repeat for more workloads")
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of each workload's first pair; pair i runs seed + i")
    parser.add_argument("--summary", default="", help="one-paragraph description of the change")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {metric["name"]: metric for metric in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    workloads = {}
    for spec in args.workload:
        name, count = spec.split(":")
        seeds = [args.seed + i for i in range(int(count))]
        pairs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: run_once(checkouts[side], name, seed, seconds) for side in order}
            pairs.append((results["parent"], results["change"]))
            print(f"{name} seed {seed}: wall_s "
                  + ", ".join(f"{side} {results[side]['metrics']['wall_s']['value']:.6g}"
                              for side in SIDES), file=sys.stderr)
        workloads[name] = {"pairs": len(pairs), "seeds": seeds, **summarise(pairs, end_to_end)}
    report = {
        "change": args.summary,
        "environment": f"{platform.python_implementation()} {platform.python_version()}, "
                       f"{platform.system()} {platform.machine()}",
        "end_to_end": {
            "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "method": "alternating parent/change pairs (the side that runs first alternates "
                      "each pair); one seed per pair, the same on both sides; scaled metrics; "
                      "median and quartiles (statistics.quantiles, inclusive) per side; "
                      "change_wins counts pairs the change won, ties for neither; "
                      "gain_shown: at least 9/10 pairs won and the medians differ by more "
                      "than the parent's IQR; unresolved: fewer than ten pairs or the parent's "
                      "IQR exceeds bound x parent median, and not every change run beats "
                      "every parent run",
            "workloads": workloads,
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
