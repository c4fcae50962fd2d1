"""Object-granularity protection with on-chip version number generation.

Version numbers are never stored off-chip: a handful of on-chip counters plus
a static 8-bit ID per producer vertex regenerate the VN of any object on
demand, so there is no VN storage, no VN traffic and no integrity tree. The
only metadata is one 64-bit MAC per k-byte chunk of each object, written next
to the object. The VN layouts are:

    weights                ctr_w                      (64-bit)
    feature edge vid       ctr_i << 8 | vid           (56 || 8)
    frame buffer, frame F  ctr_i << 8 | F             (56 || 8)
    genome tables          ctr_genome                 (32-bit)
    queries / traceback    ctr_genome << 32 | ctr_query

Counters only ever move forward, and an 8-bit vID is unique per producer, so
two writes to one address can share a VN only if the schedule is broken; the
write ledger asserts that at cipher-block granularity.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Callable

from .crypto import MAC_BYTES, EncryptionKey, MacKey, compute_mac, keystream_xor_at
from .dram import DATA, MAC_LINE, PhysicalMemory
from .errors import ConfigError, SecurityInvariantFault, TamperDetected

CTR_I_LIMIT = 1 << 56
CTR_32_LIMIT = 1 << 32


def _align16(x: int) -> int:
    return (x + 15) & ~15


# Update op -> (counter field it advances, first value the field cannot hold).
COUNTERS = {
    "update_i": ("ctr_i", CTR_I_LIMIT),
    "update_w": ("ctr_w", 1 << 64),
    "update_genome": ("ctr_genome", CTR_32_LIMIT),
    "update_query": ("ctr_query", CTR_32_LIMIT),
}
UPDATE_OPS = tuple(COUNTERS)


@dataclass(frozen=True)
class MgxState:
    """The complete on-chip state a re-instantiated accelerator would need."""

    ctr_i: int = 0
    ctr_w: int = 0
    ctr_genome: int = 0
    ctr_query: int = 0

    def advance(self, op: str) -> tuple["MgxState", bool]:
        """Apply one update op. A counter that reaches its limit restarts at 1
        and `wrapped` is true: the keys must change before the next write."""
        name, limit = COUNTERS[op]
        value = getattr(self, name) + 1
        wrapped = value >= limit
        return replace(self, **{name: 1 if wrapped else value}), wrapped


def get_vn_weights(state: MgxState) -> int:
    return state.ctr_w


def get_vn_feature(state: MgxState, vid: int) -> int:
    if not 1 <= vid < 256:
        raise ConfigError(f"vID {vid} outside 1..255 (8-bit, 0 reserved)")
    return (state.ctr_i << 8) | vid


def get_vn_frame(state: MgxState, frame: int) -> int:
    if not 0 <= frame < 256:
        raise ConfigError(f"frame number {frame} does not fit the 8-bit field")
    return (state.ctr_i << 8) | frame


def get_vn_genome(state: MgxState) -> int:
    return state.ctr_genome


def get_vn_query(state: MgxState) -> int:
    return (state.ctr_genome << 32) | state.ctr_query


@dataclass(frozen=True)
class ObjectDescriptor:
    """A contiguous protected object and the location of its MAC shadow."""

    obj_id: str
    base: int
    size: int
    mac_granularity: int = 1024
    mac_base: int | None = None

    def __post_init__(self):
        if self.size < 0 or self.base < 0:
            raise ConfigError("object base/size must be non-negative")
        if self.mac_granularity < 1:
            raise ConfigError("mac granularity must be at least 1 byte")
        if self.base % 16:
            raise ConfigError("object base must be 16-byte aligned (cipher-block grid)")

    @property
    def mac_start(self) -> int:
        return self.mac_base if self.mac_base is not None else _align16(self.base + self.size)

    @property
    def num_chunks(self) -> int:
        k = self.mac_granularity
        return (self.size + k - 1) // k

    @property
    def end(self) -> int:
        """One past the last byte this object occupies, MAC shadow included."""
        return self.mac_start + MAC_BYTES * self.num_chunks

    def chunk_extent(self, c: int) -> tuple[int, int]:
        k = self.mac_granularity
        return c * k, min((c + 1) * k, self.size)

    def covering_chunks(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0)
        k = self.mac_granularity
        return range(offset // k, (offset + length - 1) // k + 1)

    def mac_addr(self, c: int) -> int:
        return self.mac_start + MAC_BYTES * c


class WriteLedger:
    """Record of every (cipher-block, VN) write pair within a key epoch.

    Per VN, the written blocks are kept as a sorted flat list of boundaries
    [s0, e0, s1, e1, ...] of disjoint, merged half-open intervals, so a record
    costs O(log n) in the intervals of its VN, not O(blocks).
    """

    def __init__(self):
        self._bounds: dict[int, list[int]] = {}

    def record(self, first_block: int, last_block: int, vn: int):
        lo, hi = first_block, last_block + 1
        bounds = self._bounds.setdefault(vn, [])
        i = bisect_right(bounds, lo)
        if i % 2:
            repeated = lo  # lo falls inside a written interval
        elif i < len(bounds) and bounds[i] < hi:
            repeated = bounds[i]  # a written interval starts inside [lo, hi)
        else:
            repeated = None
        if repeated is not None:
            raise SecurityInvariantFault(
                f"counter reuse: cipher block 0x{repeated * 16:x} written twice under VN {vn}"
            )
        joins_left = i > 0 and bounds[i - 1] == lo
        joins_right = i < len(bounds) and bounds[i] == hi
        if joins_left and joins_right:
            del bounds[i - 1 : i + 1]
        elif joins_left:
            bounds[i - 1] = hi
        elif joins_right:
            bounds[i] = lo
        else:
            bounds[i:i] = (lo, hi)

    def clear(self):
        self._bounds.clear()

    def copy(self) -> "WriteLedger":
        twin = WriteLedger()
        twin._bounds = {vn: bounds[:] for vn, bounds in self._bounds.items()}
        return twin


class MgxMee:
    """Encryption and integrity engine for accelerator-managed objects."""

    def __init__(
        self,
        memory: PhysicalMemory,
        enc_key: EncryptionKey,
        mac_key: MacKey,
        *,
        crypto: bool = True,
    ):
        self.mem = memory
        self.enc_key = enc_key
        self.mac_key = mac_key
        self.crypto = crypto
        self.ledger = WriteLedger()
        # obj_id -> sorted, disjoint (start, end, vn) byte ranges, each under
        # the VN of its most recent write; adjacent same-VN ranges are merged
        self._shadow: dict[str, list[tuple[int, int, int]]] = {}
        self.rekey_events = 0

    def rekey(self):
        """An on-chip counter wrapped: count a key change and start a new
        ledger epoch."""
        self.rekey_events += 1
        self.ledger.clear()

    def fork(self, memory: PhysicalMemory) -> "MgxMee":
        """A copy of this engine over `memory`, with its own ledger and read
        shadow. The keys are shared: they hold no state between calls."""
        twin = MgxMee(memory, self.enc_key, self.mac_key, crypto=self.crypto)
        twin.ledger = self.ledger.copy()
        twin._shadow = {obj_id: ranges[:] for obj_id, ranges in self._shadow.items()}
        twin.rekey_events = self.rekey_events
        return twin

    # -- data path ----------------------------------------------------------

    def store(
        self,
        obj: ObjectDescriptor,
        vn: int,
        offset: int,
        length: int,
        plaintext: Callable[[int, int], bytes],
    ) -> None:
        """Encrypt and write obj[offset:offset+length] under one VN, taking
        the bytes from `plaintext(offset, length)`, and refresh the MAC of
        every chunk the write touches.

        Chunk MACs always cover the chunk's full current extent; a store that
        covers a chunk only partially fetches the missing bytes back (counted
        as data reads) so the stored MAC stays the MAC of what is in memory.
        """
        end = offset + length
        if offset < 0 or length < 0 or end > obj.size:
            raise ConfigError(
                f"store [{offset},{end}) outside object {obj.obj_id} of size {obj.size}"
            )
        if not length:
            return
        self.ledger.record((obj.base + offset) // 16, (obj.base + end - 1) // 16, vn)
        self._overwrite_shadow(self._shadow.setdefault(obj.obj_id, []), offset, end, vn)
        if self.crypto:
            ct = keystream_xor_at(self.enc_key, obj.base, vn, offset, plaintext(offset, length))
        else:
            ct = bytes(length)
        self.mem.write(obj.base + offset, ct, DATA)
        for c in obj.covering_chunks(offset, length):
            cs, ce = obj.chunk_extent(c)
            before = b""
            after = b""
            if cs < offset:
                before = self.mem.read(obj.base + cs, offset - cs, DATA)
            if ce > end:
                after = self.mem.read(obj.base + end, ce - end, DATA)
            if self.crypto:
                chunk_ct = before + ct[max(cs - offset, 0) : ce - offset] + after
                tag = compute_mac(self.mac_key, chunk_ct, obj.base + cs, vn)
            else:
                tag = bytes(MAC_BYTES)
            self.mem.write(obj.mac_addr(c), tag, MAC_LINE)

    def load(self, obj: ObjectDescriptor, vn: int, offset: int, length: int) -> bytes:
        """Fetch the chunks covering obj[offset:offset+length], verify each
        chunk MAC under the caller-regenerated VN, and return the decrypted
        requested bytes.

        Any MAC mismatch raises TamperDetected. Before that, asserts that
        every requested byte was most recently written under exactly this VN.
        """
        end = offset + length
        if offset < 0 or length < 0 or end > obj.size:
            raise ConfigError(
                f"load [{offset},{end}) outside object {obj.obj_id} of size {obj.size}"
            )
        if length == 0:
            return b""
        self._check_shadow(obj, vn, offset, end)
        chunks = obj.covering_chunks(offset, length)
        span_start, _ = obj.chunk_extent(chunks[0])
        _, span_end = obj.chunk_extent(chunks[-1])
        span_ct = self.mem.read(obj.base + span_start, span_end - span_start, DATA)
        for c in chunks:
            cs, ce = obj.chunk_extent(c)
            stored = self.mem.read(obj.mac_addr(c), MAC_BYTES, MAC_LINE)
            if self.crypto:
                want = compute_mac(
                    self.mac_key, span_ct[cs - span_start : ce - span_start], obj.base + cs, vn
                )
                if want != stored:
                    raise TamperDetected(
                        f"chunk MAC mismatch in object {obj.obj_id}", obj.base + cs
                    )
        if not self.crypto:
            return bytes(length)
        pt = keystream_xor_at(self.enc_key, obj.base, vn, span_start, span_ct)
        return pt[offset - span_start : end - span_start]

    # -- schedule bookkeeping -----------------------------------------------

    @staticmethod
    def _overwrite_shadow(ranges: list[tuple[int, int, int]], start: int, end: int, vn: int):
        """Make [start, end) one range under `vn`, trimming what it overlaps
        and merging with same-VN neighbours it touches."""
        lo = bisect_left(ranges, (start,))
        if lo and ranges[lo - 1][1] >= start:
            lo -= 1
        hi = bisect_left(ranges, (end + 1,), lo)
        keep = []
        if lo < hi:
            ls, _, lvn = ranges[lo]
            if ls < start:
                if lvn == vn:
                    start = ls
                else:
                    keep.append((ls, start, lvn))
        keep.append((start, end, vn))
        if lo < hi:
            _, re, rvn = ranges[hi - 1]
            if re > end:
                if rvn == vn:
                    keep[-1] = (start, re, vn)
                else:
                    keep.append((end, re, rvn))
        ranges[lo:hi] = keep

    def _check_shadow(self, obj: ObjectDescriptor, vn: int, start: int, end: int):
        """Every byte in [start, end) must have been written, most recently
        under `vn`. Walks only the ranges the read overlaps, in address
        order, and reports the lowest-address fault."""
        ranges = self._shadow.get(obj.obj_id, [])
        i = bisect_left(ranges, (start,))
        if i and ranges[i - 1][1] > start:
            i -= 1
        pos = start
        while pos < end:
            if i == len(ranges) or ranges[i][0] > pos:
                gap_end = end if i == len(ranges) else min(ranges[i][0], end)
                raise SecurityInvariantFault(
                    f"read of never-written bytes {obj.obj_id}[{pos}:{gap_end}]"
                )
            _, we, wvn = ranges[i]
            if wvn != vn:
                raise SecurityInvariantFault(
                    f"read of {obj.obj_id}[{pos}:{min(end, we)}] under VN {vn}, "
                    f"but most recent write used VN {wvn}"
                )
            pos = we
            i += 1
