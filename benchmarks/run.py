#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for conjkex (stdlib only).

Run from the repository root:

    python3 benchmarks/run.py --workload handshake --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Load comes from this one process and one thread, closed loop:
the next operation starts when the previous one returns.  A run repeats
the workload's fixed set of operations (one *pass*) until ``--seconds``
have elapsed, always finishing at least one pass, and checks the output
of every operation.  Reported times are scaled to a fixed machine speed
measured by a probe that never calls conjkex (see ``reference_s``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the run first repeats the workload untraced for half
of ``--seconds``, then wraps the public functions of every module and
repeats it traced for the other half; the last line reports per-layer
metrics per traced pass, and the line before it the per-layer records
(totals over the traced set-up and the traced passes).  Earlier lines
describe the run (seed, interpreter, sample counts).  The last line is
always ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9

# Speed probe: REF_LOOPS iterations take about REF_NOMINAL_S at the
# reference speed that reported times are scaled to.
REF_LOOPS = 2_000
REF_NOMINAL_S = 0.003
_REF_BIG = (1 << 4096) - 1
REF_EVERY_S = 0.2

# handshake: both sides of the p <= 2^16 twist-table branch, small and
# multi-limb p, plus a shallow tree where portraits stay cheap.  Sessions
# per configuration per pass; latencies form one cluster per cost level,
# and these counts put p50 inside the metacyclic p=2^31-1 cluster and
# p90 inside the p=2^127-1 one rather than in a gap between clusters.
HANDSHAKE_METACYCLIC = {1009: 16, 2 ** 31 - 1: 20, 2 ** 61 - 1: 20, 2 ** 127 - 1: 40}
HANDSHAKE_HEISENBERG = {1009: 16, 2 ** 31 - 1: 16, 2 ** 61 - 1: 16, 2 ** 127 - 1: 16}
HANDSHAKE_TREE = {4: 20}
HANDSHAKE_POOL = 16              # distinct passes, used in turn

# tree-deep: k >= 16 is left out, one session takes seconds there.
# Session times cluster by k; these counts put p50 in the middle of the
# k=12 cluster and p90 in the middle of the k=14 one, where quantiles
# hang least on which sessions the seed drew.
TREE_DEEP_SESSIONS = {10: 2, 12: 6, 14: 2}
TREE_DEEP_POOL = 16

# attack: BSGS cost grows with sqrt(p); the giant-step count depends on
# the secret, so many transcripts per prime keep the pass time steady.
ATTACK_PRIMES = (1_000_003, 10_000_019, 100_000_007)
ATTACK_TRANSCRIPTS = 64          # per prime per pass
ATTACK_POOL = 1                  # few files: set-up time is mostly I/O

WORKLOADS = ("handshake", "tree-deep", "attack", "verify")

# Traced public functions: metric prefix -> "module:attribute path".
TRACED = {
    "arith.bsgs_dlog": "arith:bsgs_dlog",
    "arith.is_probable_prime": "arith:is_probable_prime",
    "rng.randrange": "rng:SplitMix64.randrange",
    "rng.randbits": "rng:SplitMix64.randbits",
    "metacyclic.mul": "metacyclic:MetaElement.__mul__",
    "metacyclic.inverse": "metacyclic:MetaElement.inverse",
    "metacyclic.conjugate_by": "metacyclic:MetaElement.conjugate_by",
    "metacyclic.canonical": "metacyclic:MetaElement.canonical",
    "metacyclic.parse_canonical": "metacyclic:parse_canonical",
    "heisenberg.mul": "heisenberg:HeisenbergElement.__mul__",
    "heisenberg.inverse": "heisenberg:HeisenbergElement.inverse",
    "heisenberg.conjugate_by": "heisenberg:HeisenbergElement.conjugate_by",
    "heisenberg.canonical": "heisenberg:HeisenbergElement.canonical",
    "heisenberg.parse_canonical": "heisenberg:parse_canonical",
    "treegroup.mul": "treegroup:Portrait.__mul__",
    "treegroup.inverse": "treegroup:Portrait.inverse",
    "treegroup.from_level_masks": "treegroup:TreeSylowGroup.from_level_masks",
    "treegroup.closure": "treegroup:TreeSylowGroup.closure",
    "treegroup.derived_subgroup": "treegroup:TreeSylowGroup.derived_subgroup",
    "kex.sample_private": "kex:sample_private",
    "kex.validate_base": "kex:validate_base",
    "kex.public_value": "kex:Session.public_value",
    "kex.derive": "kex:Session.derive",
    "kex.run_demo": "kex:run_demo",
    "kex.to_text": "kex:Transcript.to_text",
    "kex.from_text": "kex:Transcript.from_text",
    "kex.parse_element": "kex:parse_element",
    "cryptanalysis.bsgs_break": "cryptanalysis:bsgs_break",
    "verify.theorems": "verify:class_size_claims",
    "verify.center": "verify:center_claims",
    "verify.orbit": "verify:heisenberg_orbit_claims",
    "verify.sylow": "verify:sylow_claims",
    "verify.growth": "verify:commuting_growth_claims",
    "verify.measured_class": "verify:measured_class",
    "cli.main": "cli:main",
}

# (work done, outcomes failed) per call, where a call reports them; any
# other call counts as one unit of work, failed if it raises.
def _claim_counts(results):
    return len(results), sum(1 for r in results if not r.passed)


def _check_counts(ok):
    return 1, int(ok is not True)


OP_COUNTS = {
    "cryptanalysis.bsgs_break": lambda report: (report.group_ops, 0),
    "verify.theorems": _claim_counts,
    "verify.center": _claim_counts,
    "verify.orbit": _claim_counts,
    "verify.sylow": _claim_counts,
    "verify.growth": _claim_counts,
}

ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics.  Work and time are per traced pass, so that a
    faster layer, which fits more passes into the phase, does not read
    as more calls; set-up is reported apart."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count/pass"
        units[f"{name}.self_ms"] = "ms/pass"
    units.update({
        "arith.modmul_ops": "count/pass",
        "rng.accept_ratio": "ratio",
        "verify.claims_failed": "count",
        "cli.process_ms": "ms",
        "bench.op.self_ms": "ms/pass",
        "trace.pass_ms": "ms/pass",
        "trace.overhead_ms": "ms/pass",
        "trace.accounted_share": "ratio",
        "setup.is_probable_prime_ms": "ms",
    })
    return units


# ------------------------------------------------------------- the package

def load_conjkex():
    """Import conjkex from this checkout's src/, never from elsewhere."""
    if not (SRC / "conjkex" / "__init__.py").is_file():
        sys.exit(f"error: no conjkex sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    global cli, kex, verify, heisenberg, metacyclic, treegroup
    import conjkex
    from conjkex import cli, heisenberg, kex, metacyclic, treegroup, verify

    if Path(conjkex.__file__).resolve().parent != (SRC / "conjkex").resolve():
        sys.exit(f"error: conjkex was imported from {conjkex.__file__}, not {SRC}")


def params_label(group) -> str:
    if group.kind == "tree":
        return f"tree:k={group.k}"
    return f"{group.kind}:p={group.p},m={group.m},n={group.n}"


# -------------------------------------------------------------- operations

def handshake_op(base, seed_a: int, seed_b: int) -> bool:
    """One session, then the transcript codec round trip."""
    result = kex.run_demo(base, seed_a, seed_b, debug_key=True)
    text = result.transcript.to_text()
    again = kex.Transcript.from_text(text)
    publics = [m["value"] for m in again.messages if m.get("type") == "public"]
    return (
        result.agreed
        and again.to_text() == text
        and again.debug_key() == result.key_alice
        and len(publics) == 2
        and all(kex.parse_element(v).canonical() == v for v in publics)
    )


def session_op(base, seed_a: int, seed_b: int) -> bool:
    return kex.run_demo(base, seed_a, seed_b).agreed


def attack_op(path: str, key: str) -> bool:
    """The CLI contract: exit 0 iff the recovered key is the debug key."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["attack", "--transcript", path])
    return code == 0 and json.loads(out.getvalue())["recovered_key"] == key


def verify_op(suite: str) -> bool:
    """One suite with --long; every claim must measure its paper value."""
    results = verify.run_suites([suite], long=True)
    return bool(results) and all(r.passed and r.measured_value == r.paper_value for r in results)


def setup_passes(workload: str, seed: int, workdir: Path) -> list[list]:
    """Build groups and the seeded inputs: a list of passes, each a list
    of (params label, operation).

    Every pass has the same composition but its own sessions, so that
    latency quantiles do not hang on a few seed-dependent sessions.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "handshake":
        plan = [(metacyclic.metacyclic_group(p, 2, 2), n) for p, n in HANDSHAKE_METACYCLIC.items()]
        plan += [(heisenberg.heisenberg_group(p, 2, 2), n) for p, n in HANDSHAKE_HEISENBERG.items()]
        plan += [(treegroup.tree_group(k), n) for k, n in HANDSHAKE_TREE.items()]
        make, pool = handshake_op, HANDSHAKE_POOL
    elif workload == "tree-deep":
        plan = [(treegroup.tree_group(k), n) for k, n in TREE_DEEP_SESSIONS.items()]
        make, pool = session_op, TREE_DEEP_POOL
    elif workload == "attack":
        plan = [(metacyclic.metacyclic_group(p, 2, 2), ATTACK_TRANSCRIPTS) for p in ATTACK_PRIMES]
        make, pool = None, ATTACK_POOL
    elif workload == "verify":
        # No random input: the claim suites are fixed.  Build their groups.
        for p, m, n in verify.default_param_grid():
            metacyclic.metacyclic_group(p, m, n)
        for p in verify.DEFAULT_PRIMES:
            heisenberg.heisenberg_group(p, 1, 1)
        # One operation per suite: claim times span 0.002 ms to seconds,
        # and speed probes fit between suites.
        return [[(f"suite={name},long", partial(verify_op, name)) for name in verify.SUITES]]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    passes = []
    for index in range(pool):
        tasks = []
        for group, count in plan:
            base = group.default_base()
            for _ in range(count):
                seeds = rng.getrandbits(64), rng.getrandbits(64)
                if make is not None:
                    op = partial(make, base, *seeds)
                else:
                    demo = kex.run_demo(base, *seeds, debug_key=True)
                    path = workdir / f"{index}-{len(tasks)}.ndjson"
                    path.write_text(demo.transcript.to_text(), encoding="utf-8")
                    op = partial(attack_op, str(path), demo.key_alice.decode("ascii"))
                tasks.append((params_label(group), op))
        rng.shuffle(tasks)
        passes.append(tasks)
    # Warm lazy caches (twist tables, BSGS code paths) once per
    # configuration, so the timed phase sees steady state.
    warmed = set()
    for label, op in passes[0]:
        if label not in warmed:
            warmed.add(label)
            call_checked(op)
    return passes


# ------------------------------------------------------------------ runner

_reported_errors = 0


def call_checked(op):
    """Run one operation; an exception is a failed check, never skipped."""
    global _reported_errors
    try:
        return op()
    except Exception:
        if _reported_errors < 3:
            _reported_errors += 1
            traceback.print_exc(file=sys.stderr)
        return False


class _RefElement:
    """Hashable slotted value, like the platforms' element classes."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j

    def __hash__(self) -> int:
        return hash((self.i, self.j))

    def __eq__(self, other) -> bool:
        return self.i == other.i and self.j == other.j


def reference_s() -> float:
    """Time one fixed piece of pure-Python work that never calls conjkex.

    The speed of the shared machine drifts by a fifth or more over tens
    of seconds.  Timing this probe between operations measures that
    drift, so that reported times can be scaled to a fixed machine speed.
    The probe mixes what the workloads do: tuple and list traffic,
    multi-limb shifts, modular arithmetic, dict stores, and small
    objects hashed into a set.  The garbage collector is paused while it
    runs, so that the size of conjkex's heap does not reach the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reference_loop()
    finally:
        if collecting:
            gc.enable()


def _reference_loop() -> float:
    started = time.perf_counter()
    table = {}
    seen = set()
    acc = 0
    stack = [(0, 0)]
    for i in range(REF_LOOPS):
        level, pos = stack.pop()
        bit = (_REF_BIG >> ((i * 37) & 4095)) & 1
        acc = (acc * 31 + i + bit) % 1_000_003
        table[acc & 1023] = (level, pos)
        stack.append((level + 1, (2 * pos + bit) & 1023))
        seen.add(_RefElement(acc & 4095, i & 7))
    return time.perf_counter() - started


def probe_s() -> float:
    """One probe point: the median of three probe runs."""
    return statistics.median(reference_s() for _ in range(3))


class Phase:
    """Outcome of a timed phase: pass walls, op latencies and checks.

    pass_s and op_ms are scaled to reference speed; raw_pass_s is not.
    """

    def __init__(self):
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.op_ms: list[float] = []
        self.probes_s: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_phase(passes, seconds: float, tracer=None) -> Phase:
    """Closed loop over whole passes until `seconds` have elapsed.

    A pass's wall time is the sum of its operations' times; the speed
    probes run between operations and are not part of it.  Each
    operation is scaled by the mean of the probe points either side.
    """
    phase = Phase()
    clock = time.perf_counter
    started = clock()
    for index in itertools.count():
        tasks = passes[index % len(passes)]
        refs = [probe_s()]
        last_ref = clock()
        timed = []  # (index of the probe point before this op, wall seconds)
        for label, op in tasks:
            t0 = clock()
            if tracer:
                ok = tracer.root(ROOT_OP, label, call_checked, op, count=_check_counts)
            else:
                ok = call_checked(op)
            t1 = clock()
            phase.attempted += 1
            phase.failed += ok is not True
            timed.append((len(refs) - 1, t1 - t0))
            if t1 - last_ref >= REF_EVERY_S:
                refs.append(probe_s())
                last_ref = clock()
        refs.append(probe_s())
        scaled = [op_s * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, op_s in timed]
        phase.op_ms.extend(op_s * 1000.0 for op_s in scaled)
        phase.probes_s.extend(refs)
        phase.raw_pass_s.append(sum(op_s for _, op_s in timed))
        phase.pass_s.append(sum(scaled))
        if clock() - started >= seconds:
            return phase


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start until inputs are ready, in fresh interpreters.

    Returns the samples scaled to reference speed by the probes taken
    just before and after each, and the raw samples.  perf_counter is
    the system-wide monotonic clock on Linux, so the child's ready stamp
    and the parent's spawn stamp are comparable.
    """
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    before = probe_s()
    for _ in range(SETUP_SAMPLES):
        spawned = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: setup-only run exited {proc.returncode}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - spawned)
        after = probe_s()
        scaled.append(raw[-1] * 2 * REF_NOMINAL_S / (before + after))
        before = after
    return scaled, raw


# ----------------------------------------------------------------- tracing

class Tracer:
    """Spans (name, start, end, parent) kept in compact arrays in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("H")
        self.label = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.ops: dict[int, int] = {}
        self.failed: dict[int, int] = {}
        self._stack = [-1]
        self._label = 0
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id: int, fn, args, kwargs, count=None):
        idx = len(self.start)
        self.name.append(name_id)
        self.label.append(self._label)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            self.ops[idx], self.failed[idx] = count(result)
        return result

    def root(self, name: str, label: str, fn, *args, count=None):
        """Open a top-level span; nested spans inherit its params label."""
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self._label = self._label_ids[label]
        return self.call(self.name_id(name), fn, args, {}, count)

    def _wrap(self, name: str, fn):
        name_id, count = self.name_id(name), OP_COUNTS.get(name)

        def traced(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs, count)

        return traced

    def install(self) -> list[str]:
        """Wrap every TRACED target; return the names not found."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n == "conjkex" or n.startswith("conjkex.")]
        for name, spec in TRACED.items():
            module_name, _, path = spec.partition(":")
            owner = sys.modules.get(f"conjkex.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                missing.append(name)
            elif cls_path:
                self._wrap_method(name, owner, attr)
            else:
                self._wrap_function(name, getattr(owner, attr), modules)
        return missing

    def _wrap_method(self, name: str, cls, attr: str) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        had_own = attr in cls.__dict__
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, raw if had_own else None))

    def _wrap_function(self, name: str, fn, modules) -> None:
        # Replace every module-level reference, including `from x import f`
        # copies and dispatch tables such as kex._PARSERS.
        traced = self._wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
                    self._restore.append((module, key, fn))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = traced
                            self._restore.append((value, dkey, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            elif original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def self_ns(self) -> array:
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def records(self, self_ns) -> list[dict]:
        """Per (layer, op, params): calls, self time, work and failures."""
        agg: dict[tuple[int, int], list] = {}
        for idx, (name_id, label_id) in enumerate(zip(self.name, self.label)):
            entry = agg.setdefault((name_id, label_id), [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += self_ns[idx]
            entry[2] += self.ops.get(idx, 1)
            entry[3] += self.failed.get(idx, 0)
        records = []
        for (name_id, label_id), (calls, ns, ops, failed) in sorted(agg.items()):
            layer, _, op = self.names[name_id].rpartition(".")
            records.append({
                "layer": layer,
                "op": op,
                "params": self.labels[label_id] if self.labels else "",
                "calls": calls,
                "self_ms": ns / 1e6,
                "ops": ops,
                "failed": failed,
            })
        return records


def traced_run(args, workdir: Path) -> tuple[dict, list[dict], Phase, dict]:
    tracer = Tracer()
    missing = tracer.install()
    try:
        passes = tracer.root(ROOT_SETUP, "setup", setup_passes, args.workload, args.seed, workdir)
    finally:
        tracer.uninstall()
    reference = run_phase(passes, args.seconds / 2)
    first_traced = len(tracer.start)
    tracer.install()
    try:
        traced = run_phase(passes, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()

    self_ns = tracer.self_ns()
    records = tracer.records(self_ns)
    units = per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics["verify.claims_failed"] = 0
    for r in records:
        name = f"{r['layer']}.{r['op']}"
        if r["params"] == "setup":
            if name == "arith.is_probable_prime":
                metrics["setup.is_probable_prime_ms"] += r["self_ms"]
            continue
        if name in TRACED:
            metrics[f"{name}.calls"] += r["calls"]
        if f"{name}.self_ms" in units:
            metrics[f"{name}.self_ms"] += r["self_ms"]
        if name == "cryptanalysis.bsgs_break":
            metrics["arith.modmul_ops"] += r["ops"]
        if r["layer"] == "verify":
            metrics["verify.claims_failed"] += r["failed"]
    draws = metrics["rng.randbits.calls"]
    metrics["rng.accept_ratio"] = metrics["rng.randrange.calls"] / draws if draws else 0.0
    passes = len(traced.pass_s)
    for name, unit in units.items():
        if unit.endswith("/pass"):
            metrics[name] /= passes
    traced_wall = sum(traced.raw_pass_s)
    metrics["trace.pass_ms"] = traced_wall * 1000.0 / passes
    # Self time of the wrapped functions over the phase's time; the
    # bench.op roots' own self time is what the wrappers leave uncovered.
    root_op = tracer.name_id(ROOT_OP)
    covered = sum(ns for ns, name_id in zip(self_ns[first_traced:], tracer.name[first_traced:])
                  if name_id != root_op)
    metrics["trace.accounted_share"] = covered / 1e9 / traced_wall
    # Both means are scaled to reference speed, so drift cancels.
    metrics["trace.overhead_ms"] = (
        statistics.fmean(traced.pass_s) - statistics.fmean(reference.pass_s)) * 1000.0

    extra = {"untraced_pass_s": statistics.fmean(reference.pass_s),
             "traced_pass_s": statistics.fmean(traced.pass_s),
             "traced_passes": passes,
             "spans": len(tracer.start), "missing_targets": missing}
    if args.workload == "attack":
        path = str(min(workdir.glob("*.ndjson")))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "conjkex.cli", "attack", "--transcript", path],
            cwd=ROOT, capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        metrics["cli.process_ms"] = (time.perf_counter() - started) * 1000.0
        traced.attempted += 1
        traced.failed += proc.returncode != 0
    combined = Phase()
    for phase in (reference, traced):
        combined.attempted += phase.attempted
        combined.failed += phase.failed
    return metrics, records, combined, extra


# -------------------------------------------------------------------- main

def end_to_end(phase: Phase, setup_samples: list[float]) -> dict:
    deciles = statistics.quantiles(phase.op_ms, n=10)
    ok = phase.attempted - phase.failed
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(phase.pass_s),
        "ops_per_s": ok / sum(phase.pass_s),
        "op_ms_p50": deciles[4],
        "op_ms_p90": deciles[8],
        "ok_share": ok / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the ready clock stamp and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_conjkex()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        if args.setup_only:
            setup_passes(args.workload, args.seed, workdir)
            print(time.perf_counter())
            return 0
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "load": "closed loop, 1 process, 1 thread",
        }
        if args.trace:
            metrics, records, phase, extra = traced_run(args, workdir)
            units = per_layer_units()
            info.update(extra)
            print(json.dumps({"run": info}))
            print(json.dumps({"per_layer": records}))
        else:
            setup_samples, raw_setup = measure_setup(args.workload, args.seed)
            passes = setup_passes(args.workload, args.seed, workdir)
            phase = run_phase(passes, args.seconds)
            metrics = end_to_end(phase, setup_samples)
            units = END_TO_END_UNITS
            info.update({
                "setup_samples_s": setup_samples,
                "raw_setup_samples_s": raw_setup,
                "raw_wall_s": statistics.median(phase.raw_pass_s),
                "reference_ms": statistics.median(phase.probes_s) * 1000.0,
                "passes": len(phase.pass_s),
                "ops_per_pass": phase.attempted // len(phase.pass_s),
                "latency_samples": len(phase.op_ms),
                "samples_above_p90": len(phase.op_ms) - math.ceil(0.9 * len(phase.op_ms)),
            })
            print(json.dumps({"run": info}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
