"""Counter-mode keystream and MAC primitives.

The AES reference in aes_reference.py is proven against published
known-answer vectors (FIPS-197 App. C.1 and NIST SP 800-38A F.1.1/F.5.1)
before it is trusted as the second route for the keystream tests, so the
implementation under test and its oracle never validate each other
circularly.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aes_reference import aes128_encrypt_block, ctr_keystream
from mgxsim.crypto import (
    _NUMPY_CUTOVER_PER_LINE,
    _XOR_CUTOVER,
    CIPHER_BLOCK,
    MAC_BYTES,
    EncryptionKey,
    MacKey,
    compute_mac,
    keystream_xor,
    keystream_xor_at,
)
from mgxsim.errors import AlignmentError

# -- published known-answer vectors (frozen) --------------------------------

FIPS197_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS197_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_PT = [
    bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"),
    bytes.fromhex("ae2d8a571e03ac9c9eb76fac45af8e51"),
    bytes.fromhex("30c81c46a35ce411e5fbc1191a0a52ef"),
    bytes.fromhex("f69f2445df4f9b17ad2b417be66c3710"),
]
SP800_38A_ECB_CT = [
    bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97"),
    bytes.fromhex("f5d3d58503b9699de785895a96fdbaaf"),
    bytes.fromhex("43b1cd7f598ece23881b00e3ed030688"),
    bytes.fromhex("7b0c785e27e8ad3f8223207104725dd4"),
]
SP800_38A_CTR_INIT = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
SP800_38A_CTR_CT = [
    bytes.fromhex("874d6191b620e3261bef6864990db6ce"),
    bytes.fromhex("9806f66b7970fdff8617187bb9fffdff"),
    bytes.fromhex("5ae4df3edbd5d35e5b4f09020db03eab"),
    bytes.fromhex("1e031dda2fbe03d1792170a0f3009cee"),
]


def _ctr_add(block: bytes, n: int) -> bytes:
    return (int.from_bytes(block, "big") + n).to_bytes(16, "big")


class TestReferenceKnownAnswers:
    def test_fips197_c1(self):
        assert aes128_encrypt_block(FIPS197_KEY, FIPS197_PT) == FIPS197_CT

    def test_sp800_38a_ecb(self):
        for pt, ct in zip(SP800_38A_PT, SP800_38A_ECB_CT):
            assert aes128_encrypt_block(SP800_38A_KEY, pt) == ct

    def test_sp800_38a_ctr(self):
        # CT_i = PT_i xor E(ctr + i): checks both the cipher and the
        # reference's counter-block helper.
        counters = [_ctr_add(SP800_38A_CTR_INIT, i) for i in range(4)]
        stream = ctr_keystream(SP800_38A_KEY, counters)
        got = bytes(a ^ b for a, b in zip(stream, b"".join(SP800_38A_PT)))
        assert got == b"".join(SP800_38A_CTR_CT)


# -- keystream vs the proven reference --------------------------------------


def _reference_stream(key: bytes, base_pa: int, vn: int, nblocks: int) -> bytes:
    counters = [struct.pack(">QQ", base_pa + CIPHER_BLOCK * i, vn) for i in range(nblocks)]
    return ctr_keystream(key, counters)


class TestKeystreamAgainstReference:
    KEY = bytes(range(16))

    def test_zero_data_exposes_raw_keystream(self):
        ek = EncryptionKey(self.KEY)
        got = keystream_xor(ek, 0x4000, 9, bytes(5 * CIPHER_BLOCK))
        assert got == _reference_stream(self.KEY, 0x4000, 9, 5)

    def test_xor_of_payload(self):
        ek = EncryptionKey(self.KEY)
        data = bytes(range(64))
        ct = keystream_xor(ek, 0x10, 1, data)
        stream = _reference_stream(self.KEY, 0x10, 1, 4)
        assert ct == bytes(a ^ b for a, b in zip(data, stream))

    def test_offset_slices_block_grid_anchored_at_base(self):
        ek = EncryptionKey(self.KEY)
        stream = _reference_stream(self.KEY, 0x200, 3, 8)
        for offset, length in [(0, 16), (5, 20), (16, 16), (31, 33), (127, 1)]:
            got = keystream_xor_at(ek, 0x200, 3, offset, bytes(length))
            assert got == stream[offset : offset + length]

    def test_large_buffer_matches_blockwise(self):
        # Covers the vectorized bulk path as well as the short path: the
        # stream for one big buffer equals the per-block reference.
        ek = EncryptionKey(self.KEY)
        n = 70  # above any internal cutover
        got = keystream_xor(ek, 0, 2, bytes(n * CIPHER_BLOCK))
        assert got == _reference_stream(self.KEY, 0, 2, n)

    def test_counter_layout_pa_then_vn_big_endian(self):
        # One block, explicit counter bytes: pa and vn land in the
        # documented 64-bit halves.
        ek = EncryptionKey(self.KEY)
        pa, vn = 0xDEAD0, 0x1122334455
        got = keystream_xor(ek, pa, vn, bytes(16))
        assert got == aes128_encrypt_block(self.KEY, pa.to_bytes(8, "big") + vn.to_bytes(8, "big"))

    @pytest.mark.parametrize("lines", [1, 7, 8, 9, 64])
    def test_per_line_vns(self, lines):
        # One VN per 64-byte line: cipher block i uses (base_pa + 16i) ||
        # vn[i // 4]. The line counts span the switch to the numpy counter
        # path; the result equals the reference and one single-VN call per
        # line, concatenated.
        ek = EncryptionKey(self.KEY)
        base = 0x7C0
        vns = [(1 << 40) + 3 * j for j in range(lines)]
        data = bytes(i * 7 % 256 for i in range(64 * lines))
        got = keystream_xor(ek, base, vns, data)
        ref = b"".join(
            _reference_stream(self.KEY, base + 64 * j, vn, 4) for j, vn in enumerate(vns)
        )
        assert got == bytes(a ^ b for a, b in zip(data, ref))
        per_line = [
            keystream_xor(ek, base + 64 * j, vn, data[64 * j : 64 * (j + 1)])
            for j, vn in enumerate(vns)
        ]
        assert got == b"".join(per_line)
        # per-line VNs count lines from base_pa, at any offset
        assert keystream_xor_at(ek, base, vns, 40, bytes(64 * lines - 48)) == ref[40:-8]

    def test_per_line_vns_must_cover_the_data(self):
        ek = EncryptionKey(self.KEY)
        with pytest.raises(ValueError, match="per-line"):
            keystream_xor(ek, 0, [1, 2], bytes(129))


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _line_reference(key: bytes, base_pa: int, vns) -> bytes:
    """The reference stream of whole lines, one VN each, with addresses
    taken modulo 2**64."""
    counters = [
        struct.pack(">QQ", (base_pa + 64 * j + CIPHER_BLOCK * b) % 2**64, vn)
        for j, vn in enumerate(vns)
        for b in range(4)
    ]
    return ctr_keystream(key, counters)


class TestCutovers:
    """Both sides of every switch between a pure-Python path and a numpy one
    (XOR, and counters with per-line VNs) against the reference AES."""

    KEY = bytes(range(16))
    EK = EncryptionKey(KEY)

    @pytest.mark.parametrize("offset", [0, 5, 16, 37])
    @pytest.mark.parametrize("length", [_XOR_CUTOVER - 1, _XOR_CUTOVER, _XOR_CUTOVER + 1])
    def test_xor_lengths_around_the_cutover(self, length, offset):
        # 255 and 257 bytes end in a partial cipher block; a nonzero offset
        # starts inside one.
        data = bytes(i * 13 % 251 for i in range(length))
        nblocks = (offset + length + CIPHER_BLOCK - 1) // CIPHER_BLOCK
        stream = _reference_stream(self.KEY, 0x9000, 11, nblocks)[offset : offset + length]
        got = keystream_xor_at(self.EK, 0x9000, 11, offset, data)
        assert type(got) is bytes and got == _xor(data, stream)

    def test_one_mebibyte_span(self):
        # The reference AES takes ~0.2 ms a block, so it checks a sample of
        # blocks; the whole span must equal 128-byte calls, which take the
        # integer XOR the tests above check against the reference.
        n = 1 << 20
        data = bytes(range(256)) * (n // 256)
        got = keystream_xor_at(self.EK, 0x100000, 3, 8, data)
        assert type(got) is bytes and len(got) == n
        pieces = [
            keystream_xor_at(self.EK, 0x100000, 3, 8 + pos, data[pos : pos + 128])
            for pos in range(0, n, 128)
        ]
        assert got == b"".join(pieces)
        for b in (0, 1, 2, 4095, 4096, 40000, n // CIPHER_BLOCK - 1):
            want = _reference_stream(self.KEY, 0x100000 + CIPHER_BLOCK * b, 3, 1)
            pos = b * CIPHER_BLOCK - 8  # the span starts 8 bytes into block 0
            lo, hi = max(pos, 0), pos + CIPHER_BLOCK
            assert got[lo:hi] == _xor(data[lo:hi], want[lo - pos :])

    @pytest.mark.parametrize("lines", range(1, _NUMPY_CUTOVER_PER_LINE // 4 + 1))
    def test_per_line_vns_line_aligned(self, lines):
        vns = [(7 << 48) + 5 * j for j in range(lines)]
        data = bytes(i * 29 % 256 for i in range(64 * lines))
        got = keystream_xor(self.EK, 0x3C0, vns, data)
        assert got == _xor(data, _line_reference(self.KEY, 0x3C0, vns))

    def test_per_line_vns_first_block_not_line_aligned(self):
        # Blocks 3..21 of a six-line run: it starts in the last block of line
        # 0 and ends inside line 5.
        vns = [100 + j for j in range(6)]
        data = bytes(i % 256 for i in range(300))
        got = keystream_xor_at(self.EK, 0x1000, vns, 3 * CIPHER_BLOCK + 4, data)
        ref = _line_reference(self.KEY, 0x1000, vns)[3 * CIPHER_BLOCK + 4 :]
        assert got == _xor(data, ref)

    @pytest.mark.parametrize("lines", [2, _NUMPY_CUTOVER_PER_LINE // 4])
    def test_per_line_addresses_wrap_at_2_to_the_64(self, lines):
        base = 2**64 - 48  # the first line's last three blocks wrap to 0, 16, 32
        vns = list(range(1, lines + 1))
        got = keystream_xor(self.EK, base, vns, bytes(64 * lines))
        assert got == _line_reference(self.KEY, base, vns)

    @pytest.mark.parametrize("length", [64, _XOR_CUTOVER + 64])
    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_bytes_like_input_unmutated(self, kind, length):
        raw = bytes(i * 7 % 256 for i in range(length))
        buf = bytearray(raw)
        data = buf if kind is bytearray else memoryview(buf)
        want = keystream_xor_at(self.EK, 0x40, 9, 16, raw)
        for vn in (9, [9] * (length // 64 + 1)):
            got = keystream_xor_at(self.EK, 0x40, vn, 16, data)
            assert type(got) is bytes and got == want
            assert buf == raw


class TestKeystreamProperties:
    KEY = EncryptionKey(bytes(range(16)))

    @given(
        data=st.binary(min_size=1, max_size=200),
        pa=st.integers(min_value=0, max_value=2**40).map(lambda v: v & ~0xF),
        vn=st.integers(min_value=0, max_value=2**56 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_involution(self, data, pa, vn):
        once = keystream_xor(self.KEY, pa, vn, data)
        assert keystream_xor(self.KEY, pa, vn, once) == data

    @given(
        offset=st.integers(min_value=0, max_value=300),
        length=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_slice_coherence(self, offset, length):
        # Encrypting a slice in place equals slicing the whole-object stream.
        whole = keystream_xor(self.KEY, 0x8000, 5, bytes(512))
        got = keystream_xor_at(self.KEY, 0x8000, 5, offset, bytes(length))
        assert got == whole[offset : offset + length]

    def test_distinct_pa_vn_pairs_distinct_streams(self):
        seen = {}
        for pa in (0, 16, 32, 4096):
            for vn in (1, 2, 3, 1 << 40):
                s = keystream_xor(self.KEY, pa, vn, bytes(16))
                assert s not in seen, f"stream collision {(pa, vn)} vs {seen.get(s)}"
                seen[s] = (pa, vn)

    def test_consecutive_blocks_differ(self):
        two = keystream_xor(self.KEY, 0, 1, bytes(32))
        assert two[:16] != two[16:]

    def test_unaligned_base_rejected(self):
        with pytest.raises(AlignmentError):
            keystream_xor(self.KEY, 8, 1, bytes(16))
        with pytest.raises(AlignmentError):
            keystream_xor_at(self.KEY, 24, 1, 0, bytes(16))

    def test_empty_data(self):
        assert keystream_xor(self.KEY, 0, 1, b"") == b""


# -- MAC ---------------------------------------------------------------------


class TestMac:
    KEY = MacKey(b"k" * 32)

    def test_deterministic_and_sized(self):
        t1 = compute_mac(self.KEY, b"ciphertext", 0x40, 7)
        t2 = compute_mac(self.KEY, b"ciphertext", 0x40, 7)
        assert t1 == t2
        assert len(t1) == MAC_BYTES == 8

    def test_verify_roundtrip(self):
        # verifying is recomputing: only the same (ct, pa, vn) gives the tag
        tag = compute_mac(self.KEY, b"abc", 16, 2)
        assert compute_mac(self.KEY, b"abc", 16, 2) == tag
        assert compute_mac(self.KEY, b"abd", 16, 2) != tag
        assert compute_mac(self.KEY, b"abc", 32, 2) != tag
        assert compute_mac(self.KEY, b"abc", 16, 3) != tag

    def test_key_separation(self):
        other = MacKey(b"K" * 32)
        assert compute_mac(self.KEY, b"x", 0, 1) != compute_mac(other, b"x", 0, 1)

    def test_length_prefix_prevents_field_sliding(self):
        # Moving bytes between the ciphertext and the (pa, vn) fields must
        # change the tag; a naive concatenation would collide.
        a = compute_mac(self.KEY, b"\x00\x01", 2, 3)
        b = compute_mac(self.KEY, b"\x00", 0x0102, 3)
        c = compute_mac(self.KEY, b"", 0x000102, 3)
        assert len({a, b, c}) == 3

    def test_known_answer(self):
        # BLAKE2b-64 keyed with the MAC key over len(ct) || ct || pa || vn,
        # each integer 64-bit big-endian
        key = b"k" * 32
        cases = [(b"", 0, 0), (bytes(range(64)), 0x40C0, 7), (b"\xff" * 1024, 2**48, 2**56 - 1)]
        for ct, pa, vn in cases:
            want = hashlib.blake2b(
                struct.pack(">Q", len(ct)) + ct + struct.pack(">QQ", pa, vn),
                key=key,
                digest_size=8,
            ).digest()
            assert compute_mac(MacKey(key), ct, pa, vn) == want

    def test_exhaustive_single_bit_flip_changes_tag(self):
        ct = bytes(range(16))
        base = compute_mac(self.KEY, ct, 0x80, 5)
        for byte in range(16):
            for bit in range(8):
                mutated = bytearray(ct)
                mutated[byte] ^= 1 << bit
                assert compute_mac(self.KEY, bytes(mutated), 0x80, 5) != base

    @given(
        ct=st.binary(max_size=64),
        pa=st.integers(min_value=0, max_value=2**48),
        vn=st.integers(min_value=0, max_value=2**56 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_verify_accepts_own_tag(self, ct, pa, vn):
        tag = compute_mac(self.KEY, ct, pa, vn)
        assert compute_mac(self.KEY, ct, pa, vn) == tag
        # the tag binds the address and the VN, not just the ciphertext
        assert compute_mac(self.KEY, ct, pa + 16, vn) != tag
        assert compute_mac(self.KEY, ct, pa, vn + 1) != tag


# -- value objects -----------------------------------------------------------


class TestValueObjects:
    def test_encryption_key_must_be_16_bytes(self):
        EncryptionKey(bytes(16))
        for bad in (b"", bytes(15), bytes(17), bytes(32)):
            with pytest.raises(ValueError):
                EncryptionKey(bad)

    def test_mac_key_size_bounds(self):
        MacKey(bytes(8))
        MacKey(bytes(64))
        for bad in (bytes(7), bytes(65), b""):
            with pytest.raises(ValueError):
                MacKey(bad)


# -- imports on first encryption ---------------------------------------------

# Runs in a fresh interpreter, since the suite's own has long loaded both.
_LAZY_IMPORTS = """
import json, sys
from mgxsim.cli import entry

def loaded():
    return [m for m in ("numpy", "cryptography") if m in sys.modules]

codes = [entry(["run", "--workload", "micro", "--scheme", s]) for s in ("none", "mgx", "baseline")]
codes.append(entry(["run", "--workload", "micro", "--scheme", "none", "--payload-mode", "verify"]))
before = loaded()
verify = [entry(["verify", "--workload", "micro", "--scheme", s]) for s in ("mgx", "baseline")]
print(json.dumps({"codes": codes, "before": before, "verify": verify, "after": loaded()}))
"""


def test_only_encryption_loads_numpy_and_cryptography():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0]
    assert out["before"] == []  # fast mode under every scheme, and `none` in verify mode
    assert out["verify"] == [0, 0]
    assert out["after"] == ["numpy", "cryptography"]
