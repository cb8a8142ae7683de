import json
import math
import random
import subprocess
import sys
import time
from decimal import Decimal

import pytest

from conjkex.cli import main
from conjkex.kex import Transcript, parse_element
from conjkex.treegroup import tree_group
from conjkex.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- demo

def test_demo_metacyclic(capsys, tmp_path):
    out_path = tmp_path / "handshake.ndjson"
    code, out, _ = run_cli(
        capsys,
        "demo", "--platform", "metacyclic", "-p", "1009", "-m", "2", "-n", "2",
        "--seed-a", "1", "--seed-b", "2", "--transcript", str(out_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["key_alice"] == payload["key_bob"]
    assert payload["key_alice"].startswith("mc:p=1009;")
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4  # header, params, two publics; no debug line


@pytest.mark.parametrize("target", ["missing/t.ndjson", ".", "bad\x00path"])
def test_demo_unwritable_transcript_is_a_usage_error(capsys, tmp_path, target):
    # A path under a directory that does not exist, a directory, and a
    # path with a NUL byte, which open() refuses with a ValueError.
    code, out, err = run_cli(
        capsys,
        "demo", "--platform", "metacyclic", "-p", "1009", "-m", "2", "-n", "2",
        "--seed-a", "1", "--seed-b", "2", "--transcript", str(tmp_path / target),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_demo_rejects_composite_p(capsys):
    code, _, err = run_cli(
        capsys,
        "demo", "--platform", "metacyclic", "-p", "4", "-m", "2", "-n", "2",
        "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 2
    assert "error" in err


def test_demo_missing_params(capsys):
    code, _, err = run_cli(
        capsys,
        "demo", "--platform", "tree", "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 2
    assert err == "error: tree platform needs -k\n"
    code, _, err = run_cli(
        capsys,
        "demo", "--platform", "heisenberg", "-p", "3", "-n", "1",
        "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 2
    assert err == "error: heisenberg platform needs -p, -m and -n\n"


@pytest.mark.parametrize("command", ["demo", "stats"])
@pytest.mark.parametrize(
    "flags, refusal",
    [
        (
            ["--platform", "metacyclic", "-p", "3", "-m", "2", "-n", "2", "-k", "7"],
            "error: metacyclic platform takes only -p, -m and -n, not -k\n",
        ),
        (
            ["--platform", "tree", "-k", "3", "-p", "5"],
            "error: tree platform takes only -k, not -p\n",
        ),
        (
            ["--platform", "tree", "-k", "3", "-p", "5", "-m", "2", "-n", "1"],
            "error: tree platform takes only -k, not -p, -m, -n\n",
        ),
    ],
)
def test_a_flag_of_another_platform_is_a_usage_error(capsys, command, flags, refusal):
    seeds = ["--seed-a", "1", "--seed-b", "2"] if command == "demo" else []
    code, out, err = run_cli(capsys, command, *flags, *seeds)
    assert (code, out, err) == (2, "", refusal)


def test_demo_tree(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo", "--platform", "tree", "-k", "3", "--seed-a", "5", "--seed-b", "6",
    )
    assert code == 0
    assert json.loads(out)["match"] is True


def test_demo_tree_at_max_depth():
    # MAX_DEPTH is reachable end to end, as a process; no timing is asserted
    proc = subprocess.run(
        [sys.executable, "-m", "conjkex.cli", "demo", "--platform", "tree",
         "-k", "20", "--seed-a", "1", "--seed-b", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["match"] is True


def test_demo_heisenberg_custom_base(capsys):
    code, out, _ = run_cli(
        capsys,
        "demo", "--platform", "heisenberg", "-p", "7", "-m", "1", "-n", "1",
        "--base", "mm:p=7;m=1;n=1;i=2;j=0;k=0", "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 0
    assert json.loads(out)["match"] is True


@pytest.mark.parametrize("k", [3, 6, 12])
def test_demo_refuses_a_tree_base_that_every_private_fixes(capsys, k):
    # The level-(k-2) generator lies in the abelian private subgroup, so
    # every key would equal the public base.
    base = tree_group(k).single(k - 2, 0).canonical()
    assert k != 3 or base == "tg:k=3;bits=20"
    code, out, err = run_cli(
        capsys,
        "demo", "--platform", "tree", "-k", str(k), "--base", base,
        "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 2 and out == ""
    assert err == "error: base element is unusable (central or degenerate)\n"


def test_demo_base_platform_mismatch(capsys):
    code, _, _ = run_cli(
        capsys,
        "demo", "--platform", "metacyclic", "-p", "3", "-m", "2", "-n", "2",
        "--base", "mc:p=3;m=2;n=1;i=1;j=0", "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 2


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--platform", "metacyclic", "--bogus", "1"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- verify

def test_verify_theorems_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "theorems")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["pass"] is True
        assert record["claim_id"] == "conjugacy.class-sizes"
    assert "claims passed" in err


def test_verify_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "|".join((*SUITES, "all")) in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["theorems", "center", "all"])
@pytest.mark.parametrize("max_order", ["0", "-5", "26"])
def test_verify_empty_grid_is_a_usage_error(capsys, suite, max_order):
    # The grid suites run on a fixed grid that no option can empty:
    # verify takes no --max-order, and argparse refuses it.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--max-order", max_order])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "error" in err and "--max-order" in err


def test_verify_center_measures_the_whole_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "center")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    params = {f"p={p},m={m},n={n}" for p in (3, 5, 7) for m in (2, 3) for n in (1, 2)}
    assert {r["params"] for r in records} == params
    assert len(records) == 2 * len(params) == 24
    assert all(r["pass"] for r in records)


def test_verify_growth_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "growth")
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nosuch")
    assert code == 2
    assert "error" in err


def test_verify_exit_1_on_failed_claim(capsys, monkeypatch):
    from conjkex import cli
    from conjkex.verify import ClaimResult

    broken = ClaimResult("fabricated.claim", "p=3", "1", "2", False, 0.0)
    monkeypatch.setattr(cli.verify, "run_suites", lambda *a, **k: [broken])
    code, out, err = run_cli(capsys, "verify", "--suite", "theorems")
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "0/1 claims passed" in err


def test_verify_sylow_long_includes_k4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sylow", "--long")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    derived_k4 = [
        r for r in records
        if r["claim_id"] == "sylow.derived-order" and r["params"] == "k=4"
    ]
    assert len(derived_k4) == 1 and derived_k4[0]["pass"]


def test_demo_exit_3_on_key_mismatch(capsys, monkeypatch):
    from conjkex import cli
    from conjkex.kex import DemoResult, Transcript

    fake = DemoResult(Transcript(), b"mc:key-one", b"mc:key-two")
    monkeypatch.setattr(cli.kex, "run_demo", lambda *a, **k: fake)
    code, out, err = run_cli(
        capsys,
        "demo", "--platform", "metacyclic", "-p", "3", "-m", "2", "-n", "2",
        "--seed-a", "1", "--seed-b", "2",
    )
    assert code == 3
    assert json.loads(out)["match"] is False
    assert "disagree" in err


# ------------------------------------------------------------------- attack

def _write_demo_transcript(capsys, tmp_path, *, debug=True, platform_args=None):
    args = platform_args or ["--platform", "metacyclic", "-p", "1009", "-m", "2", "-n", "2"]
    path = tmp_path / "t.ndjson"
    flags = ["demo", *args, "--seed-a", "11", "--seed-b", "22", "--transcript", str(path)]
    if debug:
        flags.append("--debug-key")
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0
    return path, json.loads(out)


def test_attack_end_to_end(capsys, tmp_path):
    path, keys = _write_demo_transcript(capsys, tmp_path)
    code, out, _ = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["recovered_key"] == keys["key_alice"]
    assert int(report["group_ops"]) <= 2 * (math.isqrt(1008) + 1) + 8


def test_attack_requires_debug_key(capsys, tmp_path):
    path, _ = _write_demo_transcript(capsys, tmp_path, debug=False)
    code, _, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2
    assert "error" in err


def _dense_tree_base(k):
    """A usable tree base labelled at random on every level."""
    G = tree_group(k)
    rng = random.Random(k)
    w = G.from_packed(rng.randrange(G.order))
    while not G.usable_base(w):
        w = G.from_packed(rng.randrange(G.order))
    return w.canonical()


# The tree at every depth past the subgroup engine's too, up to
# MAX_DEPTH, on the default and a dense base: from k = 16 a dense base's
# mask passes the 4300-digit int-to-str limit, and the exponent prints.
PLATFORM_ARGS = {
    "metacyclic": ["--platform", "metacyclic", "-p", "1009", "-m", "2", "-n", "2"],
    "heisenberg": ["--platform", "heisenberg", "-p", "1009", "-m", "2", "-n", "2"],
    **{f"tree-{k}": ["--platform", "tree", "-k", str(k)] for k in (*range(2, 10), 12, 16, 20)},
    **{
        f"tree-{k}-dense": ["--platform", "tree", "-k", str(k), "--base", _dense_tree_base(k)]
        for k in (9, 12, 16, 20)
    },
}


@pytest.mark.parametrize("platform", PLATFORM_ARGS)
def test_attack_recovers_the_key_on_every_platform(capsys, tmp_path, platform):
    path, keys = _write_demo_transcript(capsys, tmp_path, platform_args=PLATFORM_ARGS[platform])
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["recovered_key"] == keys["key_alice"]
    assert report["group_ops"] == "2"
    # The exponent indexes a private that moves the base to Alice's public.
    transcript = Transcript.from_text(path.read_text())
    w, w_x = transcript.base_element(), transcript.public_from("alice")
    s = int(Decimal(report["exponent"]))
    assert w.conjugate_by(w.group.commuting_conjugator(s)) == w_x


def test_attack_refuses_a_tree_public_outside_the_orbit(capsys, tmp_path):
    # One flipped label in Alice's public at k = 12: the walk's one check
    # fails, and the refusal is a usage error, not a traceback.
    path, _ = _write_demo_transcript(capsys, tmp_path, platform_args=["--platform", "tree", "-k", "12"])
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    alice = next(line for line in lines if line.get("from") == "alice")
    public = parse_element(alice["value"])
    alice["value"] = public.group.from_packed(public.packed ^ 1 << 700).canonical()
    path.write_text("".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines))
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert (code, out) == (2, "")
    assert err == "error: no level-(k-2) private conjugates the base to this value\n"


@pytest.mark.parametrize("other", [
    ["--platform", "heisenberg", "-p", "1009", "-m", "2", "-n", "2"],
    ["--platform", "metacyclic", "-p", "1013", "-m", "2", "-n", "2"],
    ["--platform", "metacyclic", "-p", "1009", "-m", "3", "-n", "2"],
    ["--platform", "tree", "-k", "4"],
], ids=["other-platform", "other-p", "other-m", "tree"])
def test_attack_refuses_a_public_from_another_group(capsys, tmp_path, other):
    path, _ = _write_demo_transcript(capsys, tmp_path)
    (tmp_path / "other").mkdir()
    foreign, _ = _write_demo_transcript(capsys, tmp_path / "other", platform_args=other)
    bob = [line for line in foreign.read_text().splitlines() if '"from":"bob"' in line]
    lines = [bob[0] if '"from":"bob"' in line else line for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_attack_refuses_a_second_public_line_from_alice(capsys, tmp_path):
    # Bob's value, relabelled as Alice's and placed first: a reader that
    # took the first match would break the wrong pair and report a key
    # mismatch (exit 1).
    path, _ = _write_demo_transcript(capsys, tmp_path)
    lines = path.read_text().splitlines()
    [bob] = [line for line in lines if '"from":"bob"' in line]
    path.write_text("\n".join([bob.replace('"bob"', '"alice"'), *lines]) + "\n")
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: expected exactly one 'public' message") and "Traceback" not in err


def test_attack_rejects_truncated_transcript(capsys, tmp_path):
    path, _ = _write_demo_transcript(capsys, tmp_path)
    text = path.read_text().splitlines()[:2]
    path.write_text("\n".join(text) + "\n")
    code, _, _ = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2


def test_attack_rejects_garbage_file(capsys, tmp_path):
    path = tmp_path / "junk.ndjson"
    path.write_text("{not json\n")
    code, _, _ = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2
    code, _, _ = run_cli(capsys, "attack", "--transcript", str(tmp_path / "missing"))
    assert code == 2


@pytest.mark.parametrize(
    "line",
    ["[1]", '"text"', "5", "null", '{"type":"params","platform":"metacyclic","w":5}',
     # Lines json cannot decode: too deep to recurse into, and a number
     # past Python's 4300-digit limit.
     pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep"),
     pytest.param("1" * 5000, id="number-of-5000-digits")],
)
def test_attack_rejects_non_object_lines(capsys, tmp_path, line):
    path = tmp_path / "odd.ndjson"
    path.write_text(line + "\n")
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "old,new",
    [('"p":"1009"', '"p":"7"'), ('"m":"2"', '"m":"3"'),
     ('"platform":"metacyclic"', '"platform":"heisenberg"')],
)
def test_attack_rejects_params_that_contradict_the_base(capsys, tmp_path, old, new):
    path, _ = _write_demo_transcript(capsys, tmp_path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_attack_repeated_in_process_gives_the_same_report(capsys, tmp_path):
    path, _ = _write_demo_transcript(capsys, tmp_path)
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "attack", "--transcript", str(path))
        assert code == 0
        report = json.loads(out)
        del report["wall_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["group_ops"] == "2"


def test_attack_rejects_a_path_with_a_nul_byte(capsys):
    code, out, err = run_cli(capsys, "attack", "--transcript", "bad\x00path")
    assert (code, out) == (2, "")
    assert err == "error: embedded null byte\n"


def test_attack_rejects_non_utf8_file(capsys, tmp_path):
    path, _ = _write_demo_transcript(capsys, tmp_path)
    path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
    code, out, err = run_cli(capsys, "attack", "--transcript", str(path))
    assert code == 2
    assert out == ""
    assert "UTF-8" in err


# ------------------------------------------------------------------ element

def test_element_conj(capsys):
    code, out, _ = run_cli(
        capsys,
        "element", "--conj", "mc:p=3;m=2;n=2;i=1;j=0", "mc:p=3;m=2;n=2;i=0;j=1",
    )
    assert code == 0
    assert out.strip() == "mc:p=3;m=2;n=2;i=4;j=0"


def test_element_mul_identity(capsys):
    code, out, _ = run_cli(
        capsys,
        "element", "--mul", "mc:p=3;m=2;n=2;i=2;j=1", "mc:p=3;m=2;n=2;i=0;j=0",
    )
    assert code == 0
    assert out.strip() == "mc:p=3;m=2;n=2;i=2;j=1"


def test_element_inv(capsys):
    code, out, _ = run_cli(capsys, "element", "--inv", "mc:p=3;m=2;n=2;i=1;j=1")
    assert code == 0
    assert out.strip() == "mc:p=3;m=2;n=2;i=2;j=8"


def test_element_parse_error(capsys):
    code, _, err = run_cli(capsys, "element", "--inv", "mc:p=3;m=2;n=2;i=9;j=0")
    assert code == 2
    assert "error" in err


def test_element_platform_mismatch(capsys):
    code, _, _ = run_cli(
        capsys,
        "element", "--mul", "mc:p=3;m=2;n=2;i=1;j=0", "tg:k=3;bits=40",
    )
    assert code == 2


def test_element_roundtrip_property(capsys):
    import random

    from conjkex.heisenberg import heisenberg_group

    rng = random.Random(47)
    H = heisenberg_group(7, 2, 1)
    for _ in range(25):
        e = H.element(rng.randrange(H.pm), rng.randrange(H.pn), rng.randrange(H.p))
        code, out, _ = run_cli(capsys, "element", "--mul", e.canonical(), H.identity().canonical())
        assert code == 0
        assert parse_element(out.strip()) == e


# Python refuses to convert ints of more than 4300 decimal digits to or
# from text.  A p-group exponent could pass that in a canonical string,
# and a group whose p^m or p^n reaches 10^4300 is refused before any
# element is built, so every exponent of a group that exists prints.
LONG_FIELD = "1" * 5000
TOO_LARGE = "p^m and p^n must be below 10^4300, so that every exponent prints"


@pytest.mark.parametrize("text", [
    "mc:p=3;m=99999;n=2;i=1;j=0",
    "mm:p=3;m=99999;n=2;i=1;j=0;k=0",
], ids=["metacyclic", "heisenberg"])
def test_element_too_long_to_print_is_a_usage_error(capsys, text):
    # 3^99999 has 47,712 digits: the group is refused as it is parsed.
    code, out, err = run_cli(capsys, "element", "--inv", text)
    assert (code, out) == (2, "")
    assert err == f"error: {TOO_LARGE}\n"


@pytest.mark.parametrize("argv", [
    ("element", "--inv", "mc:p=3;m=100000000;n=1;i=0;j=0"),
    ("demo", "--platform", "metacyclic", "-p", str(2 ** 127 - 1), "-m", "10000",
     "-n", "10000", "--seed-a", "1", "--seed-b", "2"),
], ids=["element", "demo"])
def test_huge_pgroup_is_refused_before_its_powers_are_built(capsys, argv):
    # Both ran for minutes when p^m was built whole before any bound.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", f"error: {TOO_LARGE}\n")


@pytest.mark.parametrize("text", [
    f"mc:p=3;m=2;n=2;i={LONG_FIELD};j=0",
    f"mm:p=3;m=2;n=2;i={LONG_FIELD};j=0;k=0",
    f"mc:p={LONG_FIELD};m=2;n=2;i=0;j=0",
    f"mm:p=3;m={LONG_FIELD};n=1;i=0;j=0;k=0",
    f"tg:k={LONG_FIELD};bits=0",
], ids=["mc-i", "mm-i", "mc-p", "mm-m", "tg-k"])
def test_element_field_too_long_to_read_is_a_usage_error(capsys, text):
    code, out, err = run_cli(capsys, "element", "--inv", text)
    assert (code, out) == (2, "")
    kind = {"mc": "metacyclic", "mm": "heisenberg", "tg": "tree"}[text[:2]]
    assert err == f"error: not a canonical {kind} element: a field is too long to read\n"


@pytest.mark.parametrize("flags, message", [
    (("--platform", "metacyclic", "-p", "3", "-m", "10000", "-n", "2"), TOO_LARGE),
    (
        ("--platform", "heisenberg", "-p", "3", "-m", "2", "-n", "2",
         "--base", f"mm:p=3;m=2;n=2;i={LONG_FIELD};j=0;k=0"),
        "not a canonical heisenberg element: a field is too long to read",
    ),
], ids=["metacyclic-key", "heisenberg-base"])
def test_demo_past_the_digit_limit_is_a_usage_error(capsys, flags, message):
    code, out, err = run_cli(capsys, "demo", *flags, "--seed-a", "1", "--seed-b", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# --------------------------------------------------------------- tree/stats

def test_tree_command(capsys):
    code, out, _ = run_cli(capsys, "tree", "-k", "3")
    assert code == 0
    facts = json.loads(out)
    assert facts["s_order"] == "128"
    assert facts["a_order"] == "64"
    assert facts["derived_order"] == "8"
    assert facts["level_subgroup_orders"] == ["2", "4", "16"]


def test_tree_command_rejects_bad_depth(capsys):
    code, _, _ = run_cli(capsys, "tree", "-k", "0")
    assert code == 2


def from_decimal(text):
    """int(text), read in chunks below Python's 4300-digit limit on
    converting a decimal string to an int."""
    value = 0
    for start in range(0, len(text), 4000):
        chunk = text[start:start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("k", [13, 14, 20])
def test_tree_command_prints_exact_orders_past_the_digit_limit(capsys, k):
    # From k = 14, |S| = 2^(2^k - 1) has more than 4300 decimal digits.
    code, out, err = run_cli(capsys, "tree", "-k", str(k))
    assert (code, err) == (0, "")
    facts = json.loads(out)
    texts = [facts["s_order"], facts["a_order"], *facts["level_subgroup_orders"]]
    exponents = [(1 << k) - 1, (1 << k) - 2, *(1 << level for level in range(k))]
    assert [from_decimal(text) for text in texts] == [1 << e for e in exponents]
    # int() also reads spaces, underscores and non-ASCII digits.
    assert all(text.isascii() and text.isdigit() for text in texts)


@pytest.mark.parametrize("k, exponent", [(5, 31), (14, 16383), (20, 1048575)])
def test_stats_tree_cap_names_the_order_as_a_power(capsys, k, exponent):
    code, out, err = run_cli(capsys, "stats", "--platform", "tree", "-k", str(k))
    assert (code, out) == (2, "")
    assert err == f"error: |G| = 2^{exponent} is beyond enumeration\n"


@pytest.mark.parametrize(
    "platform, params, power",
    [
        ("heisenberg", ("1009", "1400", "1400"), "1009^2801"),
        ("metacyclic", ("3", "2000", "2000"), "3^4000"),
        ("heisenberg", ("5", "4", "4"), "5^9"),
        ("metacyclic", ("3", "11", "2"), "3^13"),
    ],
)
def test_stats_pgroup_cap_names_the_order_as_a_power(capsys, platform, params, power):
    # 1009^2801 has over 8000 decimal digits, past what `str` converts,
    # while 1009^1400 has 4,206, inside the p-group limit.
    flags = [arg for flag, value in zip(("-p", "-m", "-n"), params) for arg in (flag, value)]
    code, out, err = run_cli(capsys, "stats", "--platform", platform, *flags)
    assert (code, out) == (2, "")
    assert err == f"error: |G| = {power} is beyond enumeration\n"


def test_stats_metacyclic(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--platform", "metacyclic", "-p", "3", "-m", "2", "-n", "1"
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["class_sizes"] == {"1": 3, "3": 8}
    assert stats["center_order"] == "3"
    assert stats["base_orbit_size"] == "3"
    assert "note" in stats


def test_stats_heisenberg(capsys):
    code, out, _ = run_cli(
        capsys, "stats", "--platform", "heisenberg", "-p", "3", "-m", "1", "-n", "1"
    )
    assert code == 0
    assert json.loads(out)["class_sizes"] == {"1": 3, "3": 8}


def test_stats_cap(capsys):
    code, _, _ = run_cli(
        capsys,
        "stats", "--platform", "metacyclic", "-p", "1009", "-m", "2", "-n", "2",
    )
    assert code == 2


def test_stats_runs_up_to_the_enumeration_limit(capsys):
    # 7^6 = 117,649 elements, inside the 10^6-element limit.
    code, out, err = run_cli(
        capsys, "stats", "--platform", "heisenberg", "-p", "7", "-m", "3", "-n", "2"
    )
    assert (code, err) == (0, "")
    stats = json.loads(out)
    assert stats["class_sizes"] == {"1": 2401, "7": 16464}
    assert stats["center_order"] == "2401"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conjkex.cli", "tree", "-k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["s_order"] == "8"
