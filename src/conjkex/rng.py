"""Seeded deterministic randomness for protocol sessions.

SplitMix64 (Steele, Lea, Flood, OOPSLA 2014) is used instead of the
stdlib Mersenne Twister so that the generator is fully specified by this
file: transcripts must replay byte-exactly regardless of interpreter
version.  Uniform ranges are drawn by rejection sampling, which keeps the
draw unbiased for arbitrary-precision bounds.

The stream is the plain word-at-a-time one: word t of a draw is the
SplitMix64 mix of `state + t*GAMMA`, the first word most significant.
Two shortcuts leave every value and state unchanged.  A candidate's
leading word alone decides its rejection whenever it differs from the
bound's leading bits, and a rejected candidate advances the state past
its other words without mixing them.  Draws of three or more words mix
all words at once, one word per 128-bit lane of a single int.
"""

from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Identifier written into transcript headers.
ALGORITHM_ID = "splitmix64-rejection"


@lru_cache(maxsize=32)
def _lanes(words: int) -> tuple[int, int, int]:
    """Constants for a lane-wise draw of `words` words, first word in the
    most significant 128-bit lane: a 1 in every lane, t*GAMMA in lane t,
    and the low 64 bits of every lane."""
    ones = int.from_bytes(bytes(15).join([b"\x01"] * words), "big")
    steps = int.from_bytes(
        b"".join((t * _GAMMA).to_bytes(16, "big") for t in range(1, words + 1)),
        "big",
    )
    low = int.from_bytes((bytes(8) + b"\xff" * 8) * words, "big")
    return ones, steps, low


class SplitMix64:
    """SplitMix64 pseudo-random generator over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _words(self, words: int) -> int:
        """The next `words` words, first word most significant."""
        # One or two words are cheaper through next64; from three words on
        # the lane-wise mix is as fast or faster.
        if words < 3:
            out = 0
            for _ in range(words):
                out = (out << 64) | self.next64()
            return out
        # A 64x64-bit product fits its 128-bit lane, so each step of the
        # mix runs on every lane at once; the mask clears what a shift
        # carried in from the lane above and the high half of a product.
        ones, steps, low = _lanes(words)
        z = (self._state * ones + steps) & low
        self._state = (self._state + words * _GAMMA) & _MASK64
        z = (((z ^ (z >> 30)) & low) * _MIX1) & low
        z = (((z ^ (z >> 27)) & low) * _MIX2) & low
        z ^= z >> 31
        # Keep the low 8 bytes of each lane.  Only whole 8-byte items are
        # selected and copied back, so the native byte order never shows.
        lanes = memoryview(z.to_bytes(16 * words, "little")).cast("Q")
        return int.from_bytes(lanes[0::2].tobytes(), "little")

    def randbits(self, bits: int) -> int:
        """The next ceil(bits/64) words, first word most significant,
        cut to the low `bits` bits."""
        return self._words((bits + 63) // 64) & ((1 << bits) - 1)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling.

        A candidate is randbits(bound.bit_length()).  Its leading word is
        drawn first: a value above the bound's leading bits, or equal to
        them when the rest of the bound is 0, rejects the candidate
        whatever its other words are, so those are skipped by advancing
        the state.  Values and states equal the plain draw-and-compare.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        rest_words = (bits - 1) // 64
        rest_bits = 64 * rest_words
        lead_bound = bound >> rest_bits
        rest_bound = bound & ((1 << rest_bits) - 1)
        skip = rest_words * _GAMMA
        while True:
            lead = self.randbits(bits - rest_bits)
            if lead < lead_bound:
                return (lead << rest_bits) | self._words(rest_words)
            if lead == lead_bound and rest_bound:
                rest = self._words(rest_words)
                if rest < rest_bound:
                    return (lead << rest_bits) | rest
            else:
                self._state = (self._state + skip) & _MASK64
