"""Conjugacy key exchange over any of the three group platforms.

Both parties share a base element w.  Each draws a private element from
a designated elementwise-commuting subgroup, publishes the conjugate of
w under it, and conjugates the peer's public value with its own private;
because the privates commute, both arrive at the same group element.
That they commute is a property of the designated subgroup, which each
group states once (`commuting_conjugator`), so a session checks it no
further and forms no group product; `DemoResult.agreed` reports the
outcome.  The shared secret is the canonical text form of that element,
as bytes.

This module states no platform policy; each group class states its own
(the contract in `core`):

- the commuting subgroup and its first private index: `PGroup` draws
  b^s for s in [1, p) from the cyclic <b>, the p - 1 privates that act,
  since conjugation by b^s depends only on s mod p; `TreeSylowGroup`
  draws the whole level k-2, identity included
  (`commuting_subgroup_order`, `commuting_conjugator`, `first_private`);
- the base rule, `usable_base`: a non-central power of a on the
  p-groups, and a portrait that some private moves on the tree.  A base
  that every private fixes would make every key equal to it.

A `Session` is one party: it draws its private when it is built, from
its own seed, and then only publishes and derives.

Wire format: newline-delimited JSON objects of strings, on both sides:
keys and values are strings when written and a reader refuses any other
line.  Keys are lowercase; integers travel as minimal decimal strings,
elements as their canonical text forms.  Each line is written with
json's ASCII string quoter on every key and value, the same bytes as
compact `json.dumps` (no extra whitespace, non-ASCII escaped).  A
reader looks each message up by its type (and, for a public value, its
sender) and refuses a transcript in which that message is missing or
repeated.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from . import heisenberg, metacyclic, treegroup
from .errors import ParseError, PlatformMismatchError, TranscriptError
from .rng import ALGORITHM_ID, SplitMix64

# Each platform's interned group factory, whose parameters are the
# group's `param_names`.
PLATFORMS = {
    "metacyclic": metacyclic.metacyclic_group,
    "heisenberg": heisenberg.heisenberg_group,
    "tree": treegroup.tree_group,
}

_PARSERS = {
    "mc": metacyclic.parse_canonical,
    "mm": heisenberg.parse_canonical,
    "tg": treegroup.parse_canonical,
}


def parse_element(text: str):
    """Parse any platform's canonical element string."""
    prefix, _, _ = text.partition(":")
    parser = _PARSERS.get(prefix)
    if parser is None:
        raise ParseError(f"unknown element prefix {prefix!r}")
    return parser(text)


def validate_base(w) -> bool:
    """Whether w is a usable base, by its group's rule."""
    return w.group.usable_base(w)


def sample_private(group, rng: SplitMix64):
    """Uniform draw from the designated commuting subgroup, from its
    group's first private index on."""
    first = group.first_private
    bound = group.commuting_subgroup_order() - first
    return group.commuting_conjugator(first + rng.randrange(bound))


class Session:
    """One party of an exchange, complete once built: its private is
    `sample_private`'s draw from its own SplitMix64, seeded with `seed`,
    so the parties' draws do not depend on each other or on the order
    they are built in."""

    def __init__(self, base, seed: int):
        if not validate_base(base):
            raise ValueError("base element is unusable (central or degenerate)")
        self.base = base
        self.private = sample_private(base.group, SplitMix64(seed))

    def public_value(self):
        return self.base.conjugate_by(self.private)

    def derive(self, peer_value) -> bytes:
        if peer_value.group != self.base.group:
            raise PlatformMismatchError("peer value comes from another group than the base")
        return peer_value.conjugate_by(self.private).canonical().encode("ascii")


def _refuse_int(text: str):
    """json's hook for every integer of a transcript line: it refuses the
    number before an int is built, so none meets Python's digit limit."""
    raise ValueError("a number, where every value must be a string")


_DECODER = json.JSONDecoder(parse_int=_refuse_int)  # the one transcript decoder


def _dump(message: dict) -> str:
    """One transcript line.  On an object of strings, compact `json.dumps`
    quotes every key and value with json's ASCII string quoter, so this
    writes the same bytes without building a `JSONEncoder` per line.  A
    non-string raises TypeError instead of writing a line that
    `from_text` would refuse."""
    return "{" + ",".join([_quote(k) + ":" + _quote(v) for k, v in message.items()]) + "}"


class Transcript:
    """Replayable record of the public handshake messages."""

    def __init__(self, messages: list | None = None) -> None:
        self.messages = [] if messages is None else messages

    def add(self, **fields) -> None:
        self.messages.append(fields)

    def to_text(self) -> str:
        return "".join(_dump(m) + "\n" for m in self.messages)

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        messages = []
        # Lines end at "\n" alone: str.splitlines() would also break at
        # U+2028, U+0085 and the like, which a JSON string may hold raw.
        # A "\r\n" ending leaves "\r", which the decoder skips as whitespace.
        for line in text.split("\n"):
            if not line.strip():
                continue
            try:
                message = _DECODER.decode(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
                raise TranscriptError(f"bad transcript line: {exc}") from None
            if not isinstance(message, dict) or not all(
                isinstance(value, str) for value in message.values()
            ):
                raise TranscriptError("transcript line is not an object of strings")
            messages.append(message)
        return cls(messages)

    def _only(self, kind: str, **match: str) -> dict:
        """The one message of type `kind` whose fields equal `match`; a
        missing or repeated one is refused."""
        found = [
            m for m in self.messages
            if m.get("type") == kind and all(m.get(key) == value for key, value in match.items())
        ]
        if len(found) != 1:
            where = "".join(f", {key} {value!r}" for key, value in match.items())
            raise TranscriptError(f"expected exactly one {kind!r} message{where}")
        return found[0]

    @staticmethod
    def _field(message: dict, key: str) -> str:
        try:
            return message[key]
        except KeyError:
            raise TranscriptError(f"{message['type']} message lacks the {key!r} field") from None

    def base_element(self):
        """The base w, checked against the platform and parameters that
        the params message states beside it."""
        params = self._only("params")
        w = parse_element(self._field(params, "w"))
        for key, value in {"platform": w.group.kind, **w.group.wire_params()}.items():
            if params.get(key) != value:
                raise TranscriptError(
                    f"params field {key!r} is {params.get(key)!r}, "
                    f"but the base element says {value!r}"
                )
        return w

    def public_from(self, role: str):
        return parse_element(self._field(self._only("public", **{"from": role}), "value"))

    def debug_key(self) -> bytes:
        return self._field(self._only("debug"), "key").encode("ascii")


class DemoResult:
    def __init__(self, transcript: Transcript, key_alice: bytes, key_bob: bytes) -> None:
        self.transcript = transcript
        self.key_alice = key_alice
        self.key_bob = key_bob

    @property
    def agreed(self) -> bool:
        return self.key_alice == self.key_bob


def run_demo(base, seed_alice: int, seed_bob: int, debug_key: bool = False) -> DemoResult:
    """Full two-party exchange; keys must agree for honest runs."""
    group = base.group
    alice = Session(base, seed_alice)
    bob = Session(base, seed_bob)

    transcript = Transcript()
    transcript.add(type="header", rng=ALGORITHM_ID)
    transcript.add(
        type="params",
        platform=group.kind,
        **group.wire_params(),
        w=base.canonical(),
    )
    pub_a = alice.public_value()
    pub_b = bob.public_value()
    transcript.add(type="public", **{"from": "alice"}, value=pub_a.canonical())
    transcript.add(type="public", **{"from": "bob"}, value=pub_b.canonical())

    key_a = alice.derive(pub_b)
    key_b = bob.derive(pub_a)
    if debug_key:
        transcript.add(type="debug", key=key_a.decode("ascii"))
    return DemoResult(transcript, key_a, key_b)
