"""Counter-mode encryption and keyed MACs shared by both protection schemes.

Ciphertext is produced by XORing data with an AES-128 keystream. The 128-bit
counter for a 16-byte cipher block is the concatenation of the 64-bit physical
address of that block (high half) and the 64-bit version number (low half), so
the counter of block i within a write is (base_pa + 16*i) || vn. A write of
several 64-byte lines may instead carry one VN per line, so that block i uses
(base_pa + 16*i) || vn[i // 4]. Reusing a (pa, vn) pair under one key would
reuse keystream; the schemes above this layer are responsible for never doing
that.

MACs are keyed BLAKE2b digests over a length-prefixed (ciphertext, pa, vn)
tuple, truncated to 64 bits. Callers that store 56-bit tags truncate further.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .errors import AlignmentError

CIPHER_BLOCK = 16
MAC_BYTES = 8
_MASK64 = (1 << 64) - 1
_BLOCKS_PER_LINE = 4  # cipher blocks per 64-byte line of a per-line VN
_CTR = struct.Struct(">QQ")  # one counter block; also the MAC's (pa, vn) tail
_LINE_CTRS = struct.Struct(">8Q")  # the four counter blocks of one per-line-VN line
_LEN = struct.Struct(">Q")  # the MAC's ciphertext length prefix

# A VN for the whole range, or one per 64-byte line of it.
Vn = Union[int, Sequence[int]]

# Cutovers between a pure-Python path and a numpy one, each set where the two
# cost the same (measured on a 2-vCPU Xeon, Python 3.11, numpy 2.4). numpy
# pays a fixed cost of about 7 us to build a counter array and 1.3 us for
# any XOR.
# - Counters under one VN: from 32 blocks on, numpy; below it one struct
#   call per block.
# - Counters with per-line VNs: from 64 blocks (16 lines) on, numpy; below it
#   one struct call per line: 1.3 us for one line and 4.5 us for eight,
#   against 7-8 us through numpy. The baseline encrypts each write run of up
#   to tree_arity lines (8 by default) with one call.
# - XOR: from 256 bytes on, numpy views of the data and the pad; below it
#   three Python integers, which cost 0.7 us for a 64-byte line but about
#   3.5 us more per KiB: 350 us for a 100 KB H.264 frame, against 9 us.
# The first call at or above a cutover also imports numpy: about 0.1 s and
# 14-19 MiB of peak RSS. Fast-mode and `none` replays never encrypt, so they
# never reach a cutover. numpy is imported there, not at the top of this
# module, so that a process that never encrypts never pays for it.
_NUMPY_CUTOVER = 32
_NUMPY_CUTOVER_PER_LINE = 64
_XOR_CUTOVER = 256


@dataclass(frozen=True)
class EncryptionKey:
    """128-bit key for the counter-mode keystream."""

    key_bytes: bytes

    def __post_init__(self):
        if len(self.key_bytes) != 16:
            raise ValueError(f"encryption key must be 16 bytes, got {len(self.key_bytes)}")

    @cached_property
    def _ecb(self):
        """The key's one AES-ECB context. ECB carries no state from one block
        to the next, so every keystream call update()s it; it is never
        finalized. `cryptography` is imported here, by the first keystream
        call, so that a process that never encrypts (fast mode, `none`)
        never loads it."""
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        return Cipher(algorithms.AES(self.key_bytes), modes.ECB()).encryptor()


@dataclass(frozen=True)
class MacKey:
    """Key for the integrity MAC. Independent of the encryption key."""

    key_bytes: bytes

    def __post_init__(self):
        if not 8 <= len(self.key_bytes) <= 64:
            raise ValueError("MAC key must be 8..64 bytes (BLAKE2b keyed-hash limit)")

    @cached_property
    def _blake2b(self):
        """Pre-keyed BLAKE2b state; each MAC starts from a copy of it."""
        return hashlib.blake2b(key=self.key_bytes, digest_size=MAC_BYTES)


def _raw_keystream(key: EncryptionKey, base_pa: int, vn: Vn, first: int, nblocks: int) -> bytes:
    """AES-ECB over the counters of cipher blocks first, first + 1, ... of the
    grid anchored at base_pa: block i's counter is (base_pa + 16*i) || vn, or
    || vn[i // 4] with one VN per line."""
    per_line = not isinstance(vn, int)
    if per_line and len(vn) * _BLOCKS_PER_LINE < first + nblocks:
        raise ValueError("per-line VNs must cover every 64-byte line of the data")
    if nblocks >= (_NUMPY_CUTOVER_PER_LINE if per_line else _NUMPY_CUTOVER):
        import numpy as np

        idx = np.arange(first, first + nblocks, dtype=np.uint64)
        ctrs = np.empty((nblocks, 2), dtype=">u8")
        ctrs[:, 0] = (base_pa + 16 * idx) & _MASK64
        ctrs[:, 1] = np.asarray(vn, dtype=np.uint64)[idx // _BLOCKS_PER_LINE] if per_line else vn
        material = ctrs.tobytes()
    elif per_line:
        # One pack per line, over the whole lines the run touches; a run that
        # starts or ends inside a line is cut out of them.
        lo, hi = first // _BLOCKS_PER_LINE, -(-(first + nblocks) // _BLOCKS_PER_LINE)
        a, pack, parts = base_pa + 64 * lo, _LINE_CTRS.pack, []
        for v in vn[lo:hi]:
            a1, a2, a3 = (a + 16) & _MASK64, (a + 32) & _MASK64, (a + 48) & _MASK64
            parts.append(pack(a & _MASK64, v, a1, v, a2, v, a3, v))
            a += 64
        material = b"".join(parts)
        if len(material) != nblocks * CIPHER_BLOCK:
            cut = first % _BLOCKS_PER_LINE * CIPHER_BLOCK
            material = material[cut : cut + nblocks * CIPHER_BLOCK]
    else:
        material = b"".join(
            _CTR.pack((base_pa + 16 * i) & _MASK64, vn) for i in range(first, first + nblocks)
        )
    return key._ecb.update(material)


def _xor(data: bytes, pad: bytes, skip: int) -> bytes:
    """`data` XOR pad[skip : skip + len(data)], as bytes."""
    n = len(data)
    if n < _XOR_CUTOVER:
        x = int.from_bytes(data, "big") ^ int.from_bytes(pad[skip : skip + n], "big")
        return x.to_bytes(n, "big")
    import numpy as np

    return (np.frombuffer(data, np.uint8) ^ np.frombuffer(pad, np.uint8, n, skip)).tobytes()


def keystream_xor(key: EncryptionKey, base_pa: int, vn: Vn, data: bytes) -> bytes:
    """Encrypt or decrypt `data` located at 16-byte-aligned address `base_pa`,
    under one VN or under one VN per 64-byte line of `data`.

    XOR is an involution, so the same call performs both directions. A trailing
    partial block consumes a truncated keystream block. Empty input is allowed.
    """
    return keystream_xor_at(key, base_pa, vn, 0, data)


def keystream_xor_at(key: EncryptionKey, base_pa: int, vn: Vn, offset: int, data: bytes) -> bytes:
    """Like keystream_xor, but for data at byte `offset` from `base_pa`.

    The cipher-block grid is anchored at base_pa, so any sub-range of a region
    encrypted as a whole decrypts consistently regardless of how reads and
    writes are split up. Per-line VNs count lines from base_pa too.
    """
    if base_pa % CIPHER_BLOCK:
        raise AlignmentError(f"base_pa 0x{base_pa:x} not {CIPHER_BLOCK}-byte aligned")
    if offset < 0:
        raise ValueError("negative offset")
    if not data:
        return b""
    first = offset // CIPHER_BLOCK
    skip = offset % CIPHER_BLOCK
    nblocks = (skip + len(data) + CIPHER_BLOCK - 1) // CIPHER_BLOCK
    return _xor(data, _raw_keystream(key, base_pa, vn, first, nblocks), skip)


def compute_mac(key: MacKey, ciphertext: bytes, pa: int, vn: int) -> bytes:
    """64-bit MAC binding ciphertext to its address and version number.

    The ciphertext is length-prefixed so (ct="ab", pa) and (ct="a", pa) can
    never collide through concatenation ambiguity.
    """
    h = key._blake2b.copy()
    h.update(_LEN.pack(len(ciphertext)) + ciphertext + _CTR.pack(pa & _MASK64, vn & _MASK64))
    return h.digest()

