"""Seeded deterministic randomness for protocol sessions.

SplitMix64 is used instead of the stdlib Mersenne Twister so that the
generator is fully specified by this file: transcripts must replay
byte-exactly regardless of interpreter version.  Uniform ranges are drawn
by rejection sampling, which keeps the draw unbiased for arbitrary-precision
bounds.
"""

import struct

_MASK64 = (1 << 64) - 1

# Identifier written into transcript headers.
ALGORITHM_ID = "splitmix64-rejection"


class SplitMix64:
    """SplitMix64 pseudo-random generator over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbits(self, bits: int) -> int:
        """The next ceil(bits/64) words, first word most significant,
        cut to the low `bits` bits."""
        if bits <= 256:
            # Protocol-sized draws: shifting in place beats packing.
            out = 0
            for _ in range((bits + 63) // 64):
                out = (out << 64) | self.next64()
        else:
            # Shifting in place copies the value once per word, which is
            # quadratic; pack the words and convert once instead.
            words = (bits + 63) // 64
            drawn = [self.next64() for _ in range(words)]
            out = int.from_bytes(struct.pack(f">{words}Q", *drawn), "big")
        return out & ((1 << bits) - 1)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            value = self.randbits(bits)
            if value < bound:
                return value
