import hashlib

import pytest

from conjkex.rng import SplitMix64

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
