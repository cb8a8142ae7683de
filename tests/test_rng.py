import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjkex import rng as rng_module
from conjkex.rng import SplitMix64

_MASK64 = (1 << 64) - 1


class WordAtATime:
    """Reference: SplitMix64 one word at a time, and rejection sampling
    that draws every word of every candidate before comparing it."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbits(self, bits):
        out = 0
        for _ in range((bits + 63) // 64):
            out = (out << 64) | self.next64()
        return out & ((1 << bits) - 1)

    def randrange(self, bound):
        bits = bound.bit_length()
        while True:
            value = self.randbits(bits)
            if value < bound:
                return value

# sha256 of randbits(bits) as big-endian bytes, and the state after the
# draw, for SplitMix64(2020): written by the word-at-a-time shift loop.
RANDBITS_PINS = {
    1: ("6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d", 0x9E3779B97F4A83F9),
    63: ("c5185c58e40ef1f2773a5c0d8ce4f35c3c08022e9c940c5e5d54aa580b8ed44f", 0x9E3779B97F4A83F9),
    64: ("1f4c0828217887aac9aadd7fee0a3ccf9b4978d0e81be06fa5d7881ec4ac2e56", 0x9E3779B97F4A83F9),
    65: ("187c876b8a8acc2df77886bb80609037f6975bb66d21871d713d0295a8adf59d", 0x3C6EF372FE95000E),
    4096: ("7d5adb3b69992f8a1dabca26804a16abf78a8e0285725f86823f2a68a0dc5e5a", 0x8DDE6E5FD29F0D24),
    1 << 18: ("96d753f66a5a8546fe7ed441b8ab2d5e5b511b0096e3415519e4dad4c772c895", 0x779B97F4A7C157E4),
}


@pytest.mark.parametrize("bits", sorted(RANDBITS_PINS))
def test_randbits_pinned(bits):
    rng = SplitMix64(2020)
    value = rng.randbits(bits)
    digest, state = RANDBITS_PINS[bits]
    assert value >> bits == 0
    assert hashlib.sha256(value.to_bytes((bits + 7) // 8, "big")).hexdigest() == digest
    assert rng._state == state


def _shake_bound(bits):
    """A fixed bound of exactly `bits` bits."""
    label = b"conjkex-randrange-%d" % bits
    value = int.from_bytes(hashlib.shake_256(label).digest((bits + 7) // 8), "big")
    return (value >> (-bits % 8)) | (1 << (bits - 1))


def _pinned_bound(case):
    if case[0] == "pow":
        _, level, delta = case
        return (1 << (1 << level)) + delta
    return _shake_bound(case[1])


# sha256 of randrange(bound) as big-endian bytes of the bound's length,
# and the state after the draw, for SplitMix64(2020): written by the
# draw-every-word loop.  ("pow", l, d) is the bound 2^(2^l) + d, the tree
# key space at l = k - 2; ("shake", n) is a fixed n-bit bound.
RANDRANGE_PINS = {
    ("pow", 0, -1): ("6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d", 0x9E3779B97F4A83F9),
    ("pow", 0, 0): ("4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a", 0x3C6EF372FE95000E),
    ("pow", 0, 1): ("dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986", 0x9E3779B97F4A83F9),
    ("pow", 1, -1): ("dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986", 0x9E3779B97F4A83F9),
    ("pow", 1, 0): ("084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5", 0x8FF34785799E64A1),
    ("pow", 1, 1): ("e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71", 0xDAA66D2C7DDF7C23),
    ("pow", 2, -1): ("4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47", 0x9E3779B97F4A83F9),
    ("pow", 2, 0): ("4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47", 0x9E3779B97F4A83F9),
    ("pow", 2, 1): ("4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47", 0x9E3779B97F4A83F9),
    ("pow", 3, -1): ("4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47", 0x9E3779B97F4A83F9),
    ("pow", 3, 0): ("9f4917386c45e2c0da0d9b475f1a19cf2db1e929195c6a9f4966ca0d2105b196", 0x9E3779B97F4A83F9),
    ("pow", 3, 1): ("9f4917386c45e2c0da0d9b475f1a19cf2db1e929195c6a9f4966ca0d2105b196", 0x9E3779B97F4A83F9),
    ("pow", 4, -1): ("85a133fb5d745cadde76a9766fc6c3acb18d71d24fb51045f6e7918fec0ee7cc", 0x9E3779B97F4A83F9),
    ("pow", 4, 0): ("65b1681dbd577a3a1cb324967fbc15b6c8d284848a02b8887e90ee59c59f9a78", 0x3C6EF372FE95000E),
    ("pow", 4, 1): ("65b1681dbd577a3a1cb324967fbc15b6c8d284848a02b8887e90ee59c59f9a78", 0x3C6EF372FE95000E),
    ("pow", 5, -1): ("ee33773569fffa88b2a6af7fdd80aa4ae1baccfea4122f27b8ed87f09b31ebde", 0x9E3779B97F4A83F9),
    ("pow", 5, 0): ("b8290d4b80ad16120b004ac1dc8f65a9c211e497877ab50c5ee4dff348af5b1d", 0x9E3779B97F4A83F9),
    ("pow", 5, 1): ("b8290d4b80ad16120b004ac1dc8f65a9c211e497877ab50c5ee4dff348af5b1d", 0x9E3779B97F4A83F9),
    ("pow", 6, -1): ("1f4c0828217887aac9aadd7fee0a3ccf9b4978d0e81be06fa5d7881ec4ac2e56", 0x9E3779B97F4A83F9),
    ("pow", 6, 0): ("187c876b8a8acc2df77886bb80609037f6975bb66d21871d713d0295a8adf59d", 0x3C6EF372FE95000E),
    ("pow", 6, 1): ("187c876b8a8acc2df77886bb80609037f6975bb66d21871d713d0295a8adf59d", 0x3C6EF372FE95000E),
    ("pow", 7, -1): ("c5d274fef75ff7a3454d293c95a1257ac6c44009e02484ad3c3df319c6ec2433", 0x3C6EF372FE95000E),
    ("pow", 7, 0): ("8ba2dbeaf962e6350168c03d8f2d457e3d618b7b032ff84a47a79afce791dd52", 0xDAA66D2C7DDF7C23),
    ("pow", 7, 1): ("8ba2dbeaf962e6350168c03d8f2d457e3d618b7b032ff84a47a79afce791dd52", 0xDAA66D2C7DDF7C23),
    ("pow", 8, -1): ("dbdda01064edcccd02ea50c255dc304cf2cfefc2d34bab592daeb83859a56b23", 0x78DDE6E5FD29F838),
    ("pow", 8, 0): ("41af76ca3aedbdcfc9a1ee0a182a623e41a64fce999d91394bdbd21e691f22b8", 0x1715609F7C74744D),
    ("pow", 8, 1): ("41af76ca3aedbdcfc9a1ee0a182a623e41a64fce999d91394bdbd21e691f22b8", 0x1715609F7C74744D),
    ("pow", 9, -1): ("3667fbf8093a4dadee734bd60496db0b0f912ea9af987951095307184b0d5276", 0xF1BBCDCBFA53E88C),
    ("pow", 9, 0): ("52f9ebc44d2f039da3f22a052d79c55edb374c1ec15ae2f18c2ff2e8272873b1", 0x8FF34785799E64A1),
    ("pow", 9, 1): ("52f9ebc44d2f039da3f22a052d79c55edb374c1ec15ae2f18c2ff2e8272873b1", 0x8FF34785799E64A1),
    ("pow", 10, -1): ("f4d86f34890abd6dda4d55f774c288b4853d33fc809b19be87e5427bdba586da", 0xE3779B97F4A7C934),
    ("pow", 10, 0): ("50d8edb1291623479272dc77461911974436d18a06653b07abcee9812dc65977", 0x81AF155173F24549),
    ("pow", 10, 1): ("50d8edb1291623479272dc77461911974436d18a06653b07abcee9812dc65977", 0x81AF155173F24549),
    ("pow", 11, -1): ("c6454e6e84247368278f6edd0b1689ad472476402591cafeabac26c3314e006f", 0xC6EF372FE94F8A84),
    ("pow", 11, 0): ("5c0afa39b80b4ac14aed7ac128d650a6367eb7feb563b11263f5653e779ece4d", 0x6526B0E9689A0699),
    ("pow", 11, 1): ("5c0afa39b80b4ac14aed7ac128d650a6367eb7feb563b11263f5653e779ece4d", 0x6526B0E9689A0699),
    ("pow", 12, -1): ("7d5adb3b69992f8a1dabca26804a16abf78a8e0285725f86823f2a68a0dc5e5a", 0x8DDE6E5FD29F0D24),
    ("pow", 12, 0): ("f2340339a3282b3572b1d04c5e5d62d7a311a5105f40fabe0c3ee0d249e17860", 0x2C15E81951E98939),
    ("pow", 12, 1): ("f2340339a3282b3572b1d04c5e5d62d7a311a5105f40fabe0c3ee0d249e17860", 0x2C15E81951E98939),
    ("pow", 13, -1): ("192f3f7aa83fb273ccfdfdaa9dd2e17dcc1336a6edf915cdeaa4c802b997500f", 0x1BBCDCBFA53E1264),
    ("pow", 13, 0): ("483a9c3fd506ab5426564b46d94bb93164359989a38df0b748e4cb664cbd2724", 0xB9F4567924888E79),
    ("pow", 13, 1): ("483a9c3fd506ab5426564b46d94bb93164359989a38df0b748e4cb664cbd2724", 0xB9F4567924888E79),
    ("pow", 14, -1): ("77a494fd5b4fb18c8c5884d96e126b60ee7c08961ba3a581cff6417978f5ae80", 0x3779B97F4A7C1CE4),
    ("pow", 14, 0): ("e0cc4cba1aa6dc64418cfc3572cba6a3aa24fa0e8e7585f6466f23be9f90599a", 0xD5B13338C9C698F9),
    ("pow", 14, 1): ("e0cc4cba1aa6dc64418cfc3572cba6a3aa24fa0e8e7585f6466f23be9f90599a", 0xD5B13338C9C698F9),
    ("pow", 15, -1): ("8979b717a48d3257400172f82cdf65d312f92c4f1f48c2ec37ecb03ac0b538d7", 0x6EF372FE94F831E4),
    ("pow", 15, 0): ("d2a092847a01d0e0a9008aac50788070d204fe30b3867ce8a119989ccf6fb496", 0x0D2AECB81442ADF9),
    ("pow", 15, 1): ("d2a092847a01d0e0a9008aac50788070d204fe30b3867ce8a119989ccf6fb496", 0x0D2AECB81442ADF9),
    ("pow", 16, -1): ("8b78e866445e324374918063e6c4f2ef8386a61337e3dc91cf433f83fc81b317", 0xDDE6E5FD29F05BE4),
    ("pow", 16, 0): ("53d66997fad7703bf6318de6dae08797d68e278824e086ede55114961874a380", 0x7C1E5FB6A93AD7F9),
    ("pow", 16, 1): ("53d66997fad7703bf6318de6dae08797d68e278824e086ede55114961874a380", 0x7C1E5FB6A93AD7F9),
    ("pow", 17, -1): ("c395ceda1ac2c2116793be72084372e63753f262e7e15fb3277477914b02daff", 0xBBCDCBFA53E0AFE4),
    ("pow", 17, 0): ("1ea16e33898c9a12261828359b8aaf32ad47978211ce3e1e85b72391e9c9e99c", 0x5A0545B3D32B2BF9),
    ("pow", 17, 1): ("1ea16e33898c9a12261828359b8aaf32ad47978211ce3e1e85b72391e9c9e99c", 0x5A0545B3D32B2BF9),
    ("pow", 18, -1): ("96d753f66a5a8546fe7ed441b8ab2d5e5b511b0096e3415519e4dad4c772c895", 0x779B97F4A7C157E4),
    ("pow", 18, 0): ("090f9cc5afa5ce89764a3f584a7565b9f73c8c233319d3a0cc8bd176710483be", 0x15D311AE270BD3F9),
    ("pow", 18, 1): ("090f9cc5afa5ce89764a3f584a7565b9f73c8c233319d3a0cc8bd176710483be", 0x15D311AE270BD3F9),
    ("shake", 40): ("d01abd950616049ac1f480de1aeeaba975a316093c08b968f642ce724227109a", 0x9E3779B97F4A83F9),
    ("shake", 64): ("1f4c0828217887aac9aadd7fee0a3ccf9b4978d0e81be06fa5d7881ec4ac2e56", 0x9E3779B97F4A83F9),
    ("shake", 100): ("b07872c016e3489480e78312516d1780314ca2090f3b1874741bed68a6a05640", 0x3C6EF372FE95000E),
    ("shake", 128): ("c5d274fef75ff7a3454d293c95a1257ac6c44009e02484ad3c3df319c6ec2433", 0x3C6EF372FE95000E),
    ("shake", 170): ("d64049bed5d21416f797ca3b4cb828205659dd4e4f88b925d8a677c1fb8a844b", 0xB54CDA58FBBEF062),
    ("shake", 192): ("38b463bb88deeaa091dde783ce5ec11d308ec01af0daac4ed2e2ed3ef5f8cf53", 0xDAA66D2C7DDF7C23),
    ("shake", 230): ("80a3964a885a445665c1a05ae4a6a233f11c705c68f9fa305b84de836451fc48", 0x78DDE6E5FD29F838),
    ("shake", 256): ("129224fb1f8f30ee9dd832ed322b2d6c3ab6c8ede957e2bb6ee6f926f4f58cad", 0xF1BBCDCBFA53E88C),
    ("shake", 4000): ("12db4e4f4e1a45e41ce2855c3652d06cbaafe679a87f935635e9c07fe2a62e3f", 0xDF4DE94CA6A91A3A),
}


@pytest.mark.parametrize("case", list(RANDRANGE_PINS), ids=str)
def test_randrange_pinned(case):
    bound = _pinned_bound(case)
    rng = SplitMix64(2020)
    value = rng.randrange(bound)
    digest, state = RANDRANGE_PINS[case]
    assert 0 <= value < bound
    size = (bound.bit_length() + 7) // 8
    assert hashlib.sha256(value.to_bytes(size, "big")).hexdigest() == digest
    assert rng._state == state


def _structured_bounds():
    """Bounds whose leading word decides often: a small leading part over
    a zero, tiny or random rest, and powers of two with their neighbours."""
    lead = st.integers(1, 7)
    rest_words = st.integers(1, 40)

    def over(lead, words, rest):
        return (lead << (64 * words)) + rest % (1 << (64 * words))

    return st.one_of(
        st.builds(over, lead, rest_words, st.sampled_from([0, 1, 2])),
        st.builds(over, lead, rest_words, st.integers(0, (1 << 2560) - 1)),
        st.builds(lambda e, d: max(1, (1 << e) + d), st.integers(0, 3000), st.integers(-1, 1)),
        st.integers(1, 1 << 3000),
    )


_DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("range"), _structured_bounds()),
        st.tuples(st.just("bits"), st.integers(0, 3000)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, _MASK64), draws=_DRAWS)
def test_draws_match_word_at_a_time_reference(seed, draws):
    rng, ref = SplitMix64(seed), WordAtATime(seed)
    for kind, arg in draws:
        if kind == "range":
            assert rng.randrange(arg) == ref.randrange(arg)
        else:
            assert rng.randbits(arg) == ref.randbits(arg)
        assert rng._state == ref._state


def test_lane_draws_every_width_and_bounded_cache():
    # Every word count from 1 to 300, through the two-word loop and the
    # lane-wise mix; more widths than the lane-constant cache holds.
    rng, ref = SplitMix64(77), WordAtATime(77)
    for words in range(1, 301):
        assert rng.randbits(64 * words - 3) == ref.randbits(64 * words - 3)
        assert rng._state == ref._state
    info = rng_module._lanes.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_randrange_rejects_non_positive_bounds():
    for bound in (0, -1, -(1 << 70)):
        with pytest.raises(ValueError):
            SplitMix64(1).randrange(bound)
