"""Object-granularity protection with on-chip version number generation.

Version numbers are never stored off-chip: a handful of on-chip counters plus
a static 8-bit ID per producer vertex regenerate the VN of any object on
demand, so there is no VN storage, no VN traffic and no integrity tree. The
only metadata is one 64-bit MAC per k-byte chunk of each object, written next
to the object. The VN layouts (`MgxState.vn`) are:

    weights                ctr_w                      (64-bit)
    feature edge vid       ctr_i << 8 | vid           (56 || 8)
    frame buffer, frame F  ctr_i << 8 | F             (56 || 8)
    genome tables          ctr_genome                 (32-bit)
    queries / traceback    ctr_genome << 32 | ctr_query

A trace advances the counters in-band, so every event's VN depends on the
trace alone: `resolve_vns` walks the counters once and returns each event's
VN and the update ops where a counter wrapped. Counters only ever move
forward, and an 8-bit vID is unique per producer, so two writes to one
address can share a VN only if the schedule is broken; `check_schedule`
asserts that per cipher block, once per trace.
"""

from __future__ import annotations

from bisect import bisect_left
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
READ, WRITE = "read", "write"  # the trace's data ops
# VN source kind -> whether it takes an argument; one that does prints and
# parses as "kind:arg". The layouts are `MgxState.vn`'s.
VN_KINDS = {"weights": False, "feature": True, "frame": True, "genome": False, "query": False}


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

    def vn(self, kind: str, arg: int = 0) -> int:
        """The VN of a `kind` source (one of VN_KINDS) with argument `arg`."""
        if kind == "feature":
            if not 1 <= arg < 256:
                raise ConfigError(f"vID {arg} outside 1..255 (8-bit, 0 reserved)")
            return (self.ctr_i << 8) | arg
        if kind == "frame":
            if not 0 <= arg < 256:
                raise ConfigError(f"frame number {arg} does not fit the 8-bit field")
            return (self.ctr_i << 8) | arg
        if arg and not VN_KINDS.get(kind, True):  # a kind VN_KINDS marks as taking none
            raise ConfigError(f"VN source kind {kind!r} takes no argument, got {arg}")
        if kind == "weights":
            return self.ctr_w
        if kind == "genome":
            return self.ctr_genome
        if kind == "query":
            return (self.ctr_genome << 32) | self.ctr_query
        raise ConfigError(f"unknown VN source kind {kind!r}")


def resolve_vns(trace) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
    """Walk the on-chip counters over `trace` once: the VN of every event
    (None at an update op) and the indices of the update ops whose counter
    wrapped, each of which starts a new key epoch. A source whose kind is
    unknown or whose argument does not fit its field raises ConfigError
    naming its event."""
    state = MgxState()
    vns: list[int | None] = []
    wraps = []
    try:
        for i, ev in enumerate(trace.events):
            if ev.op in COUNTERS:
                state, wrapped = state.advance(ev.op)
                if wrapped:
                    wraps.append(i)
                vns.append(None)
            else:
                vns.append(state.vn(*ev.vn_source))
    except ConfigError as exc:
        raise ConfigError(f"event {i}: {exc}") from None
    return tuple(vns), tuple(wraps)


@dataclass(frozen=True)
class ObjectDescriptor:
    """A contiguous protected object and the location of its MAC shadow."""

    obj_id: str
    base: int
    size: int
    mac_granularity: int = 1024
    mac_base: int | None = None

    def __post_init__(self):
        mac_base = 0 if self.mac_base is None else self.mac_base
        if any(type(v) is not int for v in (self.base, self.size, self.mac_granularity, mac_base)):
            raise ConfigError(f"object {self.obj_id}: base, size and MAC layout must be integers")
        if self.size < 0 or self.base < 0 or mac_base < 0:
            raise ConfigError("object base/size/mac_base must be non-negative")
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
        return max(self.base + self.size, self.mac_addr(self.num_chunks))

    def chunk_extent(self, c: int) -> tuple[int, int]:
        k = self.mac_granularity
        return c * k, min((c + 1) * k, self.size)

    def check_range(self, op: str, offset: int, length: int) -> None:
        """Reject an access to [offset, offset + length) that leaves the
        object; every engine checks this before it moves a byte."""
        if offset < 0 or length < 0 or offset + length > self.size:
            raise ConfigError(
                f"{op} [{offset},{offset + length}) outside object {self.obj_id} "
                f"of size {self.size}"
            )

    def covering_chunks(self, offset: int, length: int) -> range:
        if length <= 0:
            return range(0)
        k = self.mac_granularity
        return range(offset // k, (offset + length - 1) // k + 1)

    def mac_addr(self, c: int) -> int:
        return self.mac_start + MAC_BYTES * c


class WriteLedger:
    """Record of every (cipher-block, VN) write pair within a key epoch.

    Per VN, the written blocks are kept as sorted, disjoint, merged
    (start, end, vn) block ranges, the read shadow's form, so a record costs
    O(log n) in the ranges of its VN, not O(blocks).
    """

    def __init__(self):
        self._ranges: dict[int, list[tuple[int, int, int]]] = {}

    def record(self, first_block: int, last_block: int, vn: int):
        lo, hi = first_block, last_block + 1
        ranges = self._ranges.setdefault(vn, [])
        i = _first_ending_after(ranges, lo)
        if i < len(ranges) and ranges[i][0] < hi:
            raise SecurityInvariantFault(
                f"counter reuse: cipher block 0x{max(lo, ranges[i][0]) * 16:x} "
                f"written twice under VN {vn}"
            )
        _overwrite_shadow(ranges, lo, hi, vn)


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

    def fork(self, memory: PhysicalMemory) -> "MgxMee":
        """A copy of this engine over `memory`. The keys are shared: they
        hold no state between calls."""
        return MgxMee(memory, self.enc_key, self.mac_key, crypto=self.crypto)

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
        The tags move as one access per event, logged as one MAC_BYTES record
        per chunk: the data write, the first chunk's head, the tags of every
        chunk but the last, the last chunk's tail, then the last tag.
        """
        obj.check_range("store", offset, length)
        if not length:
            return
        end = offset + length
        if self.crypto:
            ct = keystream_xor_at(self.enc_key, obj.base, vn, offset, plaintext(offset, length))
        else:
            ct = bytes(length)
        mem, k = self.mem, obj.mac_granularity
        mem.write(obj.base + offset, ct, DATA)
        if not self.crypto:
            ct = b""  # the tags are zeros: the fetches below are only logged
        first, last = offset // k, (end - 1) // k
        span_start, span_end = first * k, min((last + 1) * k, obj.size)
        if span_start < offset:
            ct = mem.read(obj.base + span_start, offset - span_start, DATA) + ct
        if last > first:
            tags = self._tags(obj, vn, span_start, ct, first, last)
            mem.write(obj.mac_addr(first), tags, MAC_LINE, MAC_BYTES)
        if span_end > end:
            ct += mem.read(obj.base + end, span_end - end, DATA)
        mem.write(obj.mac_addr(last), self._tags(obj, vn, span_start, ct, last, last + 1), MAC_LINE)

    def load(self, obj: ObjectDescriptor, vn: int, offset: int, length: int) -> bytes:
        """Fetch the chunks covering obj[offset:offset+length], verify each
        chunk MAC under the caller-regenerated VN, and return the decrypted
        requested bytes. The tags move as one access per event, logged as one
        MAC_BYTES record per chunk.

        Any MAC mismatch raises TamperDetected, after logging the tags up to
        and including the bad chunk's, as a chunk-by-chunk fetch would. That
        each byte was last written under `vn` is the schedule's to ensure
        (`check_schedule`).
        """
        obj.check_range("load", offset, length)
        if length == 0:
            return b""
        end = offset + length
        k = obj.mac_granularity
        first, last = offset // k, (end - 1) // k
        span_start, span_end = first * k, min((last + 1) * k, obj.size)
        span_ct = self.mem.read(obj.base + span_start, span_end - span_start, DATA)
        tags_at, tags_len = obj.mac_addr(first), (last + 1 - first) * MAC_BYTES
        if not self.crypto:
            del span_ct  # logged only; freed before the zeros are built
            self.mem.read(tags_at, tags_len, MAC_LINE, MAC_BYTES)
            return bytes(length)
        if first == last:
            # One chunk logs its one tag whatever the check finds, so the
            # check takes the tag from the logged read. The loop below gives
            # the same result, but every load of the two-stream H.264 tamper
            # trace is single-chunk, and its `mgx` campaigns ran 4-6 % slower
            # through the loop (2-core x86 host, min of 40 blocks, 4 of 4
            # alternations).
            stored = self.mem.read(tags_at, MAC_BYTES, MAC_LINE, MAC_BYTES)
            if compute_mac(self.mac_key, span_ct, obj.base + span_start, vn) != stored:
                raise TamperDetected(
                    f"chunk MAC mismatch in object {obj.obj_id}", obj.base + span_start
                )
        else:
            stored = self.mem.peek(tags_at, tags_len)
            for i, cs in enumerate(range(span_start, span_end, k)):
                pos = cs - span_start
                tag = compute_mac(self.mac_key, span_ct[pos : pos + k], obj.base + cs, vn)
                if tag != stored[i * MAC_BYTES : (i + 1) * MAC_BYTES]:
                    self.mem.read(tags_at, (i + 1) * MAC_BYTES, MAC_LINE, MAC_BYTES)
                    raise TamperDetected(
                        f"chunk MAC mismatch in object {obj.obj_id}", obj.base + cs
                    )
            self.mem.read(tags_at, tags_len, MAC_LINE, MAC_BYTES)
        ct = span_ct[offset - span_start : end - span_start]  # the tags covered the span
        return keystream_xor_at(self.enc_key, obj.base, vn, offset, ct)

    def _tags(
        self, obj: ObjectDescriptor, vn: int, start: int, ct: bytes, c0: int, c1: int
    ) -> bytes:
        """The tags of chunks c0..c1-1, given `ct`, the object's ciphertext
        from offset `start` on through the end of chunk c1 - 1; zeros with
        crypto off."""
        if not self.crypto:
            return bytes(MAC_BYTES * (c1 - c0))
        k, key, base = obj.mac_granularity, self.mac_key, obj.base
        if c1 - c0 == 1:
            return compute_mac(key, ct[c0 * k - start : c1 * k - start], base + c0 * k, vn)
        return b"".join(
            compute_mac(key, ct[c * k - start : (c + 1) * k - start], base + c * k, vn)
            for c in range(c0, c1)
        )


def check_schedule(trace) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
    """Validate `trace` and return what its `validate()` returns, the walk
    `(vns, wraps)` of `resolve_vns`. Raise SecurityInvariantFault, naming the
    event, at the first event that writes a (cipher block, VN) pair twice in
    one key epoch (a counter wrap starts the next) or reads bytes not last
    written under its VN."""
    vns, wraps = trace.validate()
    ledger = WriteLedger()
    # obj_id -> sorted, disjoint (start, end, vn) ranges under each byte's last VN
    shadow: dict[str, list[tuple[int, int, int]]] = {}
    try:
        for i, (ev, vn) in enumerate(zip(trace.events, vns)):
            if vn is None:
                if i in wraps:
                    ledger = WriteLedger()
                continue
            ranges = shadow.setdefault(ev.obj_id, [])
            end = ev.offset + ev.length
            if ev.op == READ:
                _check_shadow(ev.obj_id, ranges, vn, ev.offset, end)
            elif ev.length:
                base = trace.objects[ev.obj_id].base
                ledger.record((base + ev.offset) // 16, (base + end - 1) // 16, vn)
                _overwrite_shadow(ranges, ev.offset, end, vn)
    except SecurityInvariantFault as fault:
        raise SecurityInvariantFault(f"event {i}: {fault}") from None
    return vns, wraps


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


def _first_ending_after(ranges: list[tuple[int, int, int]], start: int) -> int:
    """Index of the first of the sorted, disjoint `ranges` that ends after
    `start`; len(ranges) if none does."""
    i = bisect_left(ranges, (start,))
    return i - 1 if i and ranges[i - 1][1] > start else i


def _check_shadow(obj_id: str, ranges: list[tuple[int, int, int]], vn: int, start: int, end: int):
    """Every byte in [start, end) must have been written, most recently
    under `vn`. Walks only the ranges the read overlaps, in address order,
    and reports the lowest-address fault."""
    i = _first_ending_after(ranges, start)
    pos = start
    while pos < end:
        if i == len(ranges) or ranges[i][0] > pos:
            gap_end = end if i == len(ranges) else min(ranges[i][0], end)
            raise SecurityInvariantFault(f"read of never-written bytes {obj_id}[{pos}:{gap_end}]")
        _, we, wvn = ranges[i]
        if wvn != vn:
            raise SecurityInvariantFault(
                f"read of {obj_id}[{pos}:{min(end, we)}] under VN {vn}, "
                f"but most recent write used VN {wvn}"
            )
        pos = we
        i += 1
