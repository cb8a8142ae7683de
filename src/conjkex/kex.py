"""Conjugacy key exchange over any of the three group platforms.

Both parties share a base element w.  Each draws a private element from
a designated elementwise-commuting subgroup, publishes the conjugate of
w under it, and conjugates the peer's public value with its own private;
because the privates commute, both arrive at the same group element.
The shared secret is the canonical text form of that element, as bytes.

This module states no platform policy; each group class states its own
(the contract in `core`):

- the commuting subgroup and its first private index: `PGroup` draws
  b^s for s >= 1 from the cyclic <b>, `TreeSylowGroup` the whole level
  k-2, identity included (`commuting_subgroup_order`,
  `commuting_conjugator`, `first_private`);
- the base rule, `usable_base`: a non-central power of a on the
  p-groups, and a portrait that some private moves on the tree.  A base
  that every private fixes would make every key equal to it.

Wire format: newline-delimited JSON messages with lowercase keys and no
extra whitespace; integers travel as minimal decimal strings, elements
as their canonical text forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import heisenberg, metacyclic, treegroup
from .errors import (
    ParseError,
    PlatformMismatchError,
    SessionStateError,
    TranscriptError,
)
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
    """One party's view of an in-progress exchange."""

    def __init__(self, role: str, base, seed: int):
        if role not in ("alice", "bob"):
            raise ValueError("role must be 'alice' or 'bob'")
        if not validate_base(base):
            raise ValueError("base element is unusable (central or degenerate)")
        self.role = role
        self.group = base.group
        self.base = base
        self.seed = seed
        self.private = None
        self.peer_public = None
        self.shared_key: bytes | None = None

    def gen_private(self):
        self.private = sample_private(self.group, SplitMix64(self.seed))
        return self.private

    def public_value(self):
        if self.private is None:
            raise SessionStateError("generate the private element first")
        return self.base.conjugate_by(self.private)

    def derive(self, peer_public) -> bytes:
        if self.private is None:
            raise SessionStateError("generate the private element first")
        if peer_public.group != self.group:
            raise PlatformMismatchError("peer value comes from a different platform")
        self.peer_public = peer_public
        shared = peer_public.conjugate_by(self.private)
        self.shared_key = shared.canonical().encode("ascii")
        return self.shared_key


def _dump(message: dict) -> str:
    return json.dumps(message, separators=(",", ":"))


@dataclass
class Transcript:
    """Replayable record of the public handshake messages."""

    messages: list = field(default_factory=list)

    def add(self, **fields) -> None:
        self.messages.append(dict(fields))

    def to_text(self) -> str:
        return "".join(_dump(m) + "\n" for m in self.messages)

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        messages = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                message = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TranscriptError(f"bad transcript line: {exc}") from None
            if not isinstance(message, dict) or not all(
                isinstance(value, str) for value in message.values()
            ):
                raise TranscriptError("transcript line is not an object of strings")
            messages.append(message)
        return cls(messages)

    def _only(self, kind: str) -> dict:
        found = [m for m in self.messages if m.get("type") == kind]
        if len(found) != 1:
            raise TranscriptError(f"expected exactly one {kind!r} message")
        return found[0]

    def base_element(self):
        """The base w, checked against the platform and parameters that
        the params message states beside it."""
        params = self._only("params")
        try:
            w = parse_element(params["w"])
        except KeyError:
            raise TranscriptError("params message lacks the base element") from None
        for key, value in {"platform": w.group.kind, **w.group.wire_params()}.items():
            if params.get(key) != value:
                raise TranscriptError(
                    f"params field {key!r} is {params.get(key)!r}, "
                    f"but the base element says {value!r}"
                )
        return w

    def public_from(self, role: str):
        for m in self.messages:
            if m.get("type") == "public" and m.get("from") == role:
                try:
                    return parse_element(m["value"])
                except KeyError:
                    raise TranscriptError("public message lacks a value") from None
        raise TranscriptError(f"no public value from {role!r}")

    def debug_key(self) -> bytes:
        for m in self.messages:
            if m.get("type") == "debug":
                try:
                    return m["key"].encode("ascii")
                except KeyError:
                    raise TranscriptError("debug message lacks the key") from None
        raise TranscriptError("transcript carries no debug key")


@dataclass
class DemoResult:
    transcript: Transcript
    key_alice: bytes
    key_bob: bytes

    @property
    def agreed(self) -> bool:
        return self.key_alice == self.key_bob


def run_demo(base, seed_alice: int, seed_bob: int, debug_key: bool = False) -> DemoResult:
    """Full two-party exchange; keys must agree for honest runs."""
    group = base.group
    alice = Session("alice", base, seed_alice)
    bob = Session("bob", base, seed_bob)
    x = alice.gen_private()
    y = bob.gen_private()
    # The algebra needs commuting privates; cheap to check outright.
    if not x.commutes_with(y):
        raise SessionStateError("sampled privates do not commute")

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
