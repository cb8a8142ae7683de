"""Round-trip and strictness checks for the canonical element grammars
and the transcript line writer."""

import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conjkex.errors import ParseError
from conjkex.heisenberg import heisenberg_group
from conjkex.kex import Transcript, _dump, parse_element
from conjkex.metacyclic import metacyclic_group
from conjkex.treegroup import tree_group


def random_metacyclic(rng):
    group = metacyclic_group(*rng.choice([(3, 2, 2), (7, 3, 1), (1009, 2, 2)]))
    return group.element(rng.randrange(group.pm), rng.randrange(group.pn))


def random_heisenberg(rng):
    group = heisenberg_group(*rng.choice([(3, 1, 1), (5, 2, 2), (10007, 2, 1)]))
    return group.element(
        rng.randrange(group.pm), rng.randrange(group.pn), rng.randrange(group.p)
    )


def random_portrait(rng):
    group = tree_group(rng.choice([1, 2, 3, 4, 6, 8]))
    return group.from_packed(rng.randrange(1 << group.bit_count))


@pytest.mark.parametrize(
    "sampler", [random_metacyclic, random_heisenberg, random_portrait]
)
def test_roundtrip_random_sample(sampler):
    rng = random.Random(53)
    for _ in range(2000):
        element = sampler(rng)
        text = element.canonical()
        again = parse_element(text)
        assert again == element
        assert again.canonical() == text


def test_minimal_hex_edges():
    G = tree_group(4)
    assert G.identity().canonical() == "tg:k=4;bits=0"
    assert parse_element("tg:k=4;bits=0") == G.identity()
    full = G.from_packed((1 << G.bit_count) - 1)
    assert full.canonical() == "tg:k=4;bits=7fff"
    assert parse_element(full.canonical()) == full


def test_deep_portrait_roundtrip():
    G = tree_group(20)
    rng = random.Random(59)
    g = G.from_packed(rng.randrange(1 << G.bit_count))
    assert parse_element(g.canonical()) == g


def test_ascii_only_and_no_whitespace():
    rng = random.Random(61)
    for sampler in (random_metacyclic, random_heisenberg, random_portrait):
        for _ in range(100):
            text = sampler(rng).canonical()
            assert text == text.strip()
            assert " " not in text and "\t" not in text
            assert text.encode("ascii").decode("ascii") == text
            assert text == text.lower()


@pytest.mark.parametrize(
    "bad",
    [
        "mc:p=3;m=2;n=2;i=+1;j=0",
        "mc:p=3;m=2;n=2;i=1;j=0;k=0",
        "mm:p=3;m=1;n=1;i=1;j=0;k=0x1",
        "mm:p=03;m=1;n=1;i=1;j=0;k=0",
        "tg:k=3;bits=",
        "tg:k=3;bits=g1",
        "tg:k=3",
        "mc:",
        "i=1;j=0",
        "mc:p=3;m=2;n=2;i=1;j=0\n",
        "mm:p=3;m=1;n=1;i=1;j=0;k=0\n",
        "tg:k=3;bits=40\n",
        # Non-ASCII decimal digits (Arabic-Indic three and zero).
        "mc:p=1\u0663;m=2;n=2;i=1;j=0",
        "mm:p=1\u0663;m=1;n=1;i=1;j=0;k=0",
        "tg:k=1\u0660;bits=40",
    ],
)
def test_strict_grammar_rejections(bad):
    with pytest.raises(ParseError):
        parse_element(bad)


# ------------------------------------------------------- transcript lines

# Every code point, lone surrogates included; quotes, backslashes,
# control, non-ASCII, astral and surrogate characters are drawn more often.
WIRE_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\u2028\ufeff\ud800\udfff\U0001f600'),
))


@given(st.dictionaries(WIRE_TEXT, WIRE_TEXT))
@example({})
@example({"type": "public", "from": "alice", "value": "mc:p=3;m=2;n=2;i=1;j=0"})
@example({'"\\': "\x00\x1f\u00e9\U0001f600\ud800", "": "\udfff"})
def test_dump_is_compact_json_dumps(message):
    line = _dump(message)
    assert line == json.dumps(message, separators=(",", ":"))
    assert line.isascii()


@pytest.mark.parametrize("value", [5, None, b"bytes", ["list"], 1.5])
def test_a_non_string_value_is_refused_when_written(value):
    transcript = Transcript()
    transcript.add(type="params", w=value)
    with pytest.raises(TypeError):
        transcript.to_text()
