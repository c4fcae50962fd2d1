"""Deterministic pseudo-random payloads for round-trip verification.

The byte at offset o of object `obj_id` written under version number `vn` is
byte o of SHAKE-256(obj_id | vn). Any later load can therefore recompute what
it should see from the identifiers alone, with no recorded plaintext.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

_CACHE_ENTRIES = 64
_cache: OrderedDict[tuple[str, int], bytes] = OrderedDict()


def _stream(obj_id: str, vn: int, upto: int) -> bytes:
    key = (obj_id, vn)
    blob = _cache.get(key)
    if blob is None or len(blob) < upto:
        blob = hashlib.shake_256(f"{obj_id}|{vn}".encode()).digest(max(upto, 256))
        _cache[key] = blob
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_ENTRIES:
            _cache.popitem(last=False)
    else:
        _cache.move_to_end(key)
    return blob


def payload_for(obj_id: str, vn: int, offset: int, length: int) -> bytes:
    """Expected plaintext of object `obj_id`'s bytes [offset, offset+length)
    for a write under vn."""
    if length <= 0:
        return b""
    return _stream(obj_id, vn, offset + length)[offset : offset + length]
