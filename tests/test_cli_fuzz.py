"""Boundary fuzzing of `cli.main`: malformed and extreme argv for every
subcommand must end in a documented exit code, never in an exception.

Exit codes: 0 success, 1 failed claims or attack, 2 bad usage or
malformed input (argparse's own SystemExit(2) included), 3 key
disagreement.  Every example is kept cheap: no `verify` with a suite that
runs, no `tree --long` at k = 7 or 8 (the engine's slow depths), and no
tree depth between 17 and 20.  Exponent heights m, n reach past the
p-group limit (p^m and p^n below 10^4300: m, n <= 9012 at p = 3), which
is refused before p^m is built.

Half the `demo`, `stats`, `element` and attack-transcript examples name a
valid small p-group (p <= 7, at most 7^6 elements), so that the command
runs real group arithmetic; there the outcome is pinned: a handshake
agrees, an element operation succeeds, stats answers (every such group
fits the 10^6-element enumeration limit), and the attack recovers the
key of a whole transcript on either p-group platform.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjkex.cli import main
from conjkex.verify import SUITES

FUZZ = settings(max_examples=60, derandomize=True, deadline=None)

LONG = "9" * 5000  # past Python's 4300-digit str-to-int limit
NEAR_LIMIT = "9" * 4300

# Text that argparse's int() refuses: no decimal digits at all.
NOT_INTS = st.text(
    alphabet=st.characters(exclude_categories=("Nd", "Cs")), max_size=6
)
# Small heights, and heights up to and past the limit at p = 3.
HEIGHT_INTS = st.one_of(
    st.integers(min_value=-3, max_value=12), st.integers(min_value=13, max_value=9100)
).map(str)
HEIGHTS = st.one_of(
    HEIGHT_INTS, NOT_INTS, st.sampled_from(["+2", " 3", "1_0", "3.0", "9012", "9013", LONG])
)
PRIMES = st.one_of(
    st.integers(min_value=-5, max_value=60).map(str),
    NOT_INTS,
    st.sampled_from([
        "1009", "65537", str(2 ** 61 - 1), str(2 ** 127 - 1),
        str(10 ** 30), "1" + "0" * 4000, LONG,
    ]),
)
DEPTHS = st.one_of(
    st.integers(min_value=-3, max_value=16).map(str),
    NOT_INTS,
    st.sampled_from(["21", str(10 ** 30), NEAR_LIMIT, LONG]),
)
INT_SEEDS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70).map(str)
SEEDS = st.one_of(INT_SEEDS, NOT_INTS, st.just(LONG))
# Valid (p, m, n) for both p-group platforms, at most 7^6 elements, so a
# command that gets one runs real group arithmetic and stays cheap.
SMALL_PGROUPS = st.tuples(
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
)
PGROUP_PLATFORMS = st.sampled_from(["metacyclic", "heisenberg"])


@st.composite
def canonical_texts(draw):
    """Near-canonical element strings: right or wrong prefixes, fields
    that are minimal, padded, signed, empty or past the digit limit."""
    exponent = st.one_of(
        st.integers(min_value=0, max_value=40).map(str),
        st.sampled_from(["", "00", "01", "-1", "a", NEAR_LIMIT, LONG, str(2 ** 127 - 1)]),
    )
    kind = draw(st.sampled_from(["mc", "mm", "tg", "xx", "raw"]))
    if kind == "raw":
        return draw(st.text(max_size=30))
    if kind == "tg":
        bits = draw(st.one_of(
            st.integers(min_value=0, max_value=1 << 40).map(lambda b: f"{b:x}"),
            st.sampled_from(["", "0f", "F", "-1", "f" * 300]),
        ))
        return f"tg:k={draw(DEPTHS.filter(lambda k: k != NEAR_LIMIT))};bits={bits}"
    heights = st.one_of(
        st.integers(min_value=0, max_value=12).map(str),
        st.integers(min_value=13, max_value=9100).map(str),
        st.sampled_from(["9012", "9013", LONG]),
    )
    names = ["i", "j", "k"][: 2 if kind == "mc" else 3]
    fields = [
        f"p={draw(PRIMES)}", f"m={draw(heights)}", f"n={draw(heights)}",
        *(f"{name}={draw(exponent)}" for name in names),
    ]
    return f"{kind}:" + ";".join(fields)


@st.composite
def small_pgroup_texts(draw, count):
    """`count` canonical strings of elements of one valid small p-group."""
    prefix = draw(st.sampled_from(["mc", "mm"]))
    p, m, n = draw(SMALL_PGROUPS)
    moduli = (p ** m, p ** n, p)[: 2 if prefix == "mc" else 3]
    texts = []
    for _ in range(count):
        exponents = [f"{name}={draw(st.integers(0, modulus - 1))}"
                     for name, modulus in zip("ijk", moduli)]
        texts.append(f"{prefix}:p={p};m={m};n={n};" + ";".join(exponents))
    return texts


def small_pgroup_flags(draw):
    """Platform flags of a valid small p-group."""
    platform = draw(PGROUP_PLATFORMS)
    p, m, n = draw(SMALL_PGROUPS)
    return ["--platform", platform, "-p", str(p), "-m", str(m), "-n", str(n)]


def small_pgroup_demo(draw):
    """A `demo` argv that runs a handshake: a valid small p-group and
    integer seeds, maybe with --debug-key."""
    flags = small_pgroup_flags(draw)
    argv = ["demo", *flags, "--seed-a", draw(INT_SEEDS), "--seed-b", draw(INT_SEEDS)]
    return argv + ["--debug-key"] if draw(st.booleans()) else argv


def platform_flags(draw):
    flags = ["--platform", draw(st.sampled_from(["metacyclic", "heisenberg", "tree", "nope"]))]
    for flag, values in (("-p", PRIMES), ("-m", HEIGHTS), ("-n", HEIGHTS), ("-k", DEPTHS)):
        if draw(st.booleans()):
            flags += [flag, draw(values)]
    return flags


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    """Exit code and stderr of `cli.main(argv)`, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 on bad usage, 0 on --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def transcript_paths(workdir):
    return st.sampled_from([
        str(workdir / "t.ndjson"),
        str(workdir / "missing" / "t.ndjson"),
        str(workdir),
        "",
        "bad\x00path",
    ])


@FUZZ
@given(data=st.data())
def test_demo_argv(workdir, data):
    draw = data.draw
    # Half the examples run a handshake, which must agree; the rest draw
    # each flag apart, mostly invalid.
    if draw(st.booleans()):
        argv = small_pgroup_demo(draw)
        code, err = run(argv)
        assert code == 0, (argv, err)
        return
    argv = ["demo", *platform_flags(draw)]
    if draw(st.booleans()):
        argv += ["--base", draw(canonical_texts())]
    argv += ["--seed-a", draw(SEEDS), "--seed-b", draw(SEEDS)]
    if draw(st.booleans()):
        argv += ["--transcript", draw(transcript_paths(workdir))]
    if draw(st.booleans()):
        argv.append("--debug-key")
    run(argv)


@FUZZ
@given(
    suite=st.one_of(
        st.text(max_size=12).filter(lambda s: s not in (*SUITES, "all")),
        st.sampled_from(["theorems", "center"]),
    ),
    max_order=st.one_of(st.integers(min_value=-10, max_value=26).map(str), NOT_INTS),
    long=st.booleans(),
)
def test_verify_argv(suite, max_order, long):
    # An unknown suite, or --max-order, which verify does not take.
    argv = ["verify", "--suite", suite, "--max-order", max_order]
    code, _ = run(argv + ["--long"] if long else argv)
    assert code == 2


@st.composite
def transcript_texts(draw):
    keys = ["type", "platform", "p", "m", "n", "w", "from", "value", "key", "rng"]
    values = st.one_of(
        canonical_texts(),
        st.sampled_from(["header", "params", "public", "debug", "alice", "bob", "metacyclic"]),
    )
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if draw(st.booleans()):
            message = draw(st.dictionaries(st.sampled_from(keys), values, max_size=6))
            lines.append(json.dumps(message))
        else:
            lines.append(draw(st.text(max_size=30)))
    return "\n".join(lines)


def write_genuine_transcript(draw, path):
    """Write the transcript of a small p-group handshake, with the debug
    key the attack checks against, to `path`, maybe with one line
    replaced; True when it is left whole, so that the attack must break it."""
    argv = [*small_pgroup_demo(draw), "--transcript", str(path)]
    if "--debug-key" not in argv:
        argv.append("--debug-key")
    code, err = run(argv)
    assert code == 0, (argv, err)
    if not draw(st.booleans()):
        return True
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[draw(st.integers(0, len(lines) - 1))] = draw(transcript_texts())
    path.write_text("\n".join(lines), encoding="utf-8")
    return False


@FUZZ
@given(data=st.data())
def test_attack_argv(workdir, data):
    path = data.draw(transcript_paths(workdir))
    breakable = False
    if path.endswith("t.ndjson") and "missing" not in path:
        if data.draw(st.booleans()):
            breakable = write_genuine_transcript(data.draw, workdir / "t.ndjson")
        else:
            body = data.draw(st.one_of(transcript_texts(), st.binary(max_size=40)))
            if isinstance(body, str):
                (workdir / "t.ndjson").write_text(body, encoding="utf-8")
            else:
                (workdir / "t.ndjson").write_bytes(body)
    code, err = run(["attack", "--transcript", path])
    if breakable:
        assert code == 0, err


@FUZZ
@given(op=st.sampled_from(["--mul", "--inv", "--conj"]), data=st.data())
def test_element_argv(op, data):
    # Half the examples give the operation's arity of elements of one
    # valid small group, which must succeed.
    if data.draw(st.booleans()):
        texts = data.draw(small_pgroup_texts(1 if op == "--inv" else 2))
        code, err = run(["element", op, *texts])
        assert code == 0, (texts, err)
    else:
        run(["element", op, *data.draw(st.lists(canonical_texts(), min_size=0, max_size=3))])


@FUZZ
@given(
    platform=st.sampled_from(["metacyclic", "heisenberg"]),
    p=st.sampled_from([3, 5, 7]),
    m=st.one_of(st.integers(min_value=2, max_value=9100), st.sampled_from([9012, 9013])),
    n=st.one_of(st.integers(min_value=1, max_value=9100), st.sampled_from([9012, 9013])),
    command=st.sampled_from(["demo", "element"]),
)
def test_pgroup_heights_up_to_and_past_the_limit(platform, p, m, n, command):
    # A group exists, and its elements print, exactly when p^m and p^n
    # are below 10^4300.
    if command == "demo":
        argv = ["demo", "--platform", platform, "-p", str(p), "-m", str(m), "-n", str(n),
                "--seed-a", "1", "--seed-b", "2"]
    else:
        text = f"p={p};m={m};n={n};i=1;j=1"
        argv = ["element", "--inv", f"mc:{text}" if platform == "metacyclic" else f"mm:{text};k=1"]
    code, err = run(argv)
    fits = max(p ** m, p ** n) < 10 ** 4300
    assert code == (0 if fits else 2), (argv, err)


@FUZZ
@given(depth=DEPTHS, long=st.booleans())
def test_tree_argv(depth, long):
    if long and depth in ("7", "8"):
        return  # the subgroup engine takes seconds there
    run(["tree", "-k", depth, "--long"] if long else ["tree", "-k", depth])


@FUZZ
@given(data=st.data())
def test_stats_argv(data):
    draw = data.draw
    # Half the examples name a valid small p-group, whose class histogram
    # is built.
    if draw(st.booleans()):
        flags = small_pgroup_flags(draw)
        code, err = run(["stats", *flags])
        assert code == 0, (flags, err)
        return
    run(["stats", *platform_flags(draw)])


@FUZZ
@given(
    argv=st.one_of(
        st.lists(st.text(max_size=10), max_size=4),
        st.tuples(
            st.sampled_from(["demo", "attack", "element", "tree", "stats", "-h", "--help"]),
            st.lists(st.text(max_size=10), max_size=4),
        ).map(lambda t: [t[0], *t[1]]),
    )
)
def test_arbitrary_argv(argv):
    run(argv)
