"""General-purpose protection scheme: stored per-block version numbers, block
MACs, and a counter tree rooted on-chip.

Layout conventions (all metadata lives in untrusted memory directly after the
protected region):

    data region:  64-byte blocks at [0, region_size)
    mac region:   one 56-bit tag per data block, packed 8 per 64-byte line
    level 0:      counter lines, `arity` 56-bit VNs (one per data block) plus a
                  56-bit embedded MAC per 64-byte line
    level i+1:    counter lines whose `arity` counters guard level-i lines
    root:         a single on-chip counter array guarding the top stored level

A counter line's embedded MAC binds its counters to the line address and to the
counter its parent holds for it, so replaying a stale line fails against the
parent. A write bumps only the leaf VN in the cached copy; the parent counter
is bumped when a dirty line is evicted and written back (the written-back MAC
must differ from every previously written-back version of that line, and the
parent bump is exactly what guarantees that). Verification on a miss walks up
only until it finds a line already in the cache: cached lines were verified
when they were filled and cannot be altered from off chip.

A counter line whose parent counter is still 0 has never been written back; it
verifies only if it is bytewise the 0x00 fill. Data blocks with VN 0 have never
been written and reject on read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from .crypto import EncryptionKey, MacKey, compute_mac, keystream_xor
from .dram import DATA, LINE, MAC_LINE, TREE_NODE, VN_LINE, PhysicalMemory
from .errors import ConfigError, TamperDetected
from .mgx import ObjectDescriptor

VN_LIMIT = 1 << 56  # counters are 56-bit; reaching the limit forces a re-key
CTR_W = 7  # packed width of one counter / one stored tag, bytes
_MAC_OFF = 56  # embedded MAC offset inside a counter line
_MAC_SLOTS = 8  # data MAC tags per 64-byte line, independent of tree arity


@dataclass(frozen=True)
class BaselineConfig:
    region_size: int = 128 << 20
    arity: int = 8
    cache_bytes: int = 4096

    def __post_init__(self):
        if self.arity not in (2, 4, 8):
            raise ConfigError(f"tree arity must be 2, 4 or 8, got {self.arity}")
        if self.region_size <= 0 or self.region_size % (LINE * _MAC_SLOTS):
            raise ConfigError("region size must be a positive multiple of 512 bytes")
        if self.cache_bytes < LINE:
            raise ConfigError("cache must hold at least one 64-byte line")


class BaselineGeometry:
    """Address arithmetic for the metadata layout derived from a config."""

    def __init__(self, cfg: BaselineConfig):
        self.cfg = cfg
        self.blocks = cfg.region_size // LINE
        if self.blocks % cfg.arity:
            raise ConfigError("block count must divide by the tree arity")
        self.mac_lines = self.blocks // _MAC_SLOTS
        # level_counts[0] is the leaf (VN) level; successive levels shrink by
        # `arity` until one root line's worth of children remains.
        counts = [self.blocks // cfg.arity]
        while counts[-1] > cfg.arity:
            if counts[-1] % cfg.arity:
                raise ConfigError(
                    f"region size {cfg.region_size} is not a power-of-{cfg.arity} "
                    "multiple of the leaf coverage"
                )
            counts.append(counts[-1] // cfg.arity)
        self.level_counts = counts
        self.mac_base = cfg.region_size
        bases = []
        cursor = self.mac_base + self.mac_lines * LINE
        for n in counts:
            bases.append(cursor)
            cursor += n * LINE
        self.level_bases = bases
        self.meta_end = cursor
        self.root_fanout = counts[-1]

    def contains(self, addr: int) -> bool:
        return 0 <= addr < self.cfg.region_size

    def block_index(self, pa: int) -> int:
        return pa // LINE

    def mac_slot(self, block: int) -> tuple[int, int]:
        return self.mac_base + (block // _MAC_SLOTS) * LINE, block % _MAC_SLOTS

    def level_line_addr(self, level: int, index: int) -> int:
        return self.level_bases[level] + index * LINE


def pack_counter_line(counters: list[int], mac7: bytes) -> bytes:
    out = bytearray(LINE)
    for i, c in enumerate(counters):
        out[i * CTR_W : (i + 1) * CTR_W] = c.to_bytes(CTR_W, "big")
    out[_MAC_OFF : _MAC_OFF + CTR_W] = mac7
    return bytes(out)


def unpack_counter_line(raw: bytes, arity: int) -> tuple[list[int], bytes]:
    counters = [
        int.from_bytes(raw[i * CTR_W : (i + 1) * CTR_W], "big") for i in range(arity)
    ]
    return counters, raw[_MAC_OFF : _MAC_OFF + CTR_W]


class _CounterLine:
    __slots__ = ("level", "index", "counters", "dirty")

    def __init__(self, level, index, counters, dirty=False):
        self.level = level
        self.index = index
        self.counters = counters
        self.dirty = dirty


class _MacLine:
    __slots__ = ("index", "slots", "dirty")

    def __init__(self, index, slots, dirty=False):
        self.index = index
        self.slots = slots  # list of 7-byte tags
        self.dirty = dirty


class BaselineMee:
    """Memory encryption and integrity engine over one protected region.

    All DRAM traffic it generates is visible in memory.log. With crypto=False
    the engine moves zero payloads and skips cipher/MAC arithmetic while
    producing the identical access stream; integrity checks are meaningful only
    with crypto=True. Every object in `objects` must start on a 64-byte line,
    since the object interface widens each access to whole lines.
    """

    def __init__(
        self,
        config: BaselineConfig,
        memory: PhysicalMemory,
        enc_key: EncryptionKey,
        mac_key: MacKey,
        *,
        crypto: bool = True,
        objects: Iterable[ObjectDescriptor] = (),
    ):
        self.geom = BaselineGeometry(config)
        if self.geom.meta_end > memory.capacity:
            raise ConfigError(
                f"metadata ends at 0x{self.geom.meta_end:x}, beyond memory capacity"
            )
        for obj in objects:
            if obj.base % LINE:
                raise ConfigError(
                    f"object {obj.obj_id} base 0x{obj.base:x} not 64-byte aligned"
                )
        self.mem = memory
        self.enc_key = enc_key
        self.mac_key = mac_key
        self.crypto = crypto
        self._cache: OrderedDict[int, _CounterLine | _MacLine] = OrderedDict()
        self._capacity = config.cache_bytes // LINE
        # Write-back generation per counter-line address; lets a miss in
        # flight notice that the line it is resolving was filled, modified
        # and evicted again by its own eviction cascade.
        self._wb_gen: dict[int, int] = {}
        # Counter lines whose write-back is still executing (the parent bump
        # can recurse into arbitrary evictions before the line lands in
        # memory). A fill during that window must not trust the stale memory
        # copy; it gets the live in-flight line instead. Value is
        # [refcount, entry] — re-eviction of a resurrected line nests.
        self._wb_inflight: dict[int, list] = {}
        self.root = [0] * self.geom.root_fanout
        self.rekey_events = 0

    # -- cache internals ----------------------------------------------------

    def _bump(self, counters: list[int], slot: int) -> int:
        nv = counters[slot] + 1
        if nv >= VN_LIMIT:
            # Overflow would reuse counter values under the current key; count
            # a re-key of the region and restart the counter. Re-encryption is
            # a statistic, not replayed traffic.
            self.rekey_events += 1
            nv = 1
        counters[slot] = nv
        return nv

    def _parent_counter(self, level: int, index: int) -> int:
        if level == len(self.geom.level_counts) - 1:
            return self.root[index]
        parent = self._ensure_counter(level + 1, index // self.geom.cfg.arity)
        return parent.counters[index % self.geom.cfg.arity]

    def _bump_parent(self, level: int, index: int) -> int:
        if level == len(self.geom.level_counts) - 1:
            return self._bump(self.root, index)
        parent = self._ensure_counter(level + 1, index // self.geom.cfg.arity)
        nv = self._bump(parent.counters, index % self.geom.cfg.arity)
        parent.dirty = True
        return nv

    def _writeback(self, addr: int, entry: _CounterLine | _MacLine):
        if isinstance(entry, _CounterLine):
            slot = self._wb_inflight.setdefault(addr, [0, entry])
            slot[0] += 1
            try:
                pctr = self._bump_parent(entry.level, entry.index)
                self._wb_gen[addr] = self._wb_gen.get(addr, 0) + 1
                if self.crypto:
                    mac7 = compute_mac(
                        self.mac_key, self._counters_bytes(entry.counters), addr, pctr
                    ).tag[:CTR_W]
                else:
                    mac7 = bytes(CTR_W)
                klass = VN_LINE if entry.level == 0 else TREE_NODE
                self.mem.write(addr, pack_counter_line(entry.counters, mac7), klass)
            finally:
                slot[0] -= 1
                if slot[0] == 0:
                    del self._wb_inflight[addr]
        else:
            out = bytearray(LINE)
            for i, tag in enumerate(entry.slots):
                out[i * CTR_W : (i + 1) * CTR_W] = tag
            self.mem.write(addr, bytes(out), MAC_LINE)

    def _make_room(self):
        while len(self._cache) >= self._capacity:
            victim, entry = next(iter(self._cache.items()))
            del self._cache[victim]
            if entry.dirty:
                self._writeback(victim, entry)

    @staticmethod
    def _counters_bytes(counters: list[int]) -> bytes:
        return b"".join(c.to_bytes(CTR_W, "big") for c in counters)

    def _ensure_counter(self, level: int, index: int) -> _CounterLine:
        addr = self.geom.level_line_addr(level, index)
        while True:
            entry = self._cache.get(addr)
            if entry is not None:
                self._cache.move_to_end(addr)
                return entry
            # Capture the parent counter before making room: making room may
            # evict the parent line, but the captured value only goes stale if
            # this very line is written back meanwhile — caught below.
            gen = self._wb_gen.get(addr, 0)
            pctr = self._parent_counter(level, index)
            self._make_room()
            entry = self._cache.get(addr)
            if entry is not None:
                # A victim's write-back cascade resolved this line on our
                # behalf; it is verified and may already carry a counter bump.
                self._cache.move_to_end(addr)
                return entry
            if self._wb_gen.get(addr, 0) != gen:
                # Filled, modified and evicted again while room was being
                # made; the captured parent counter is stale. Start over.
                continue
            infl = self._wb_inflight.get(addr)
            if infl is not None:
                # The line is mid write-back: memory does not hold it yet,
                # so the fill (traffic still issued) returns the live copy.
                self.mem.read(addr, LINE, VN_LINE if level == 0 else TREE_NODE)
                entry = infl[1]
                entry.dirty = False
                self._cache[addr] = entry
                return entry
            raw = self.mem.read(addr, LINE, VN_LINE if level == 0 else TREE_NODE)
            counters, stored = unpack_counter_line(raw, self.geom.cfg.arity)
            if self.crypto:
                if pctr == 0:
                    if raw != bytes(LINE):
                        raise TamperDetected(
                            "counter line modified before first writeback", addr
                        )
                else:
                    want = compute_mac(
                        self.mac_key, self._counters_bytes(counters), addr, pctr
                    ).tag[:CTR_W]
                    if want != stored:
                        raise TamperDetected("counter line MAC mismatch", addr)
            entry = _CounterLine(level, index, counters)
            self._cache[addr] = entry
            return entry

    def _ensure_mac_line(self, line_index: int) -> _MacLine:
        addr = self.geom.mac_base + line_index * LINE
        entry = self._cache.get(addr)
        if entry is not None:
            self._cache.move_to_end(addr)
            return entry
        self._make_room()
        raw = self.mem.read(addr, LINE, MAC_LINE)
        slots = [bytes(raw[i * CTR_W : (i + 1) * CTR_W]) for i in range(_MAC_SLOTS)]
        entry = _MacLine(line_index, slots)
        self._cache[addr] = entry
        return entry

    def flush(self):
        """Write back every dirty cached line (end-of-run bookkeeping)."""
        while self._cache:
            addr, entry = self._cache.popitem(last=False)
            if entry.dirty:
                self._writeback(addr, entry)

    # -- block interface ----------------------------------------------------

    def write_block(self, pa: int, plaintext: bytes | None = None) -> None:
        """Encrypt and store one 64-byte block."""
        if pa % LINE:
            raise ConfigError(f"block address 0x{pa:x} not 64-byte aligned")
        if not self.geom.contains(pa):
            self.mem.write(pa, plaintext if plaintext is not None else bytes(LINE), DATA)
            return
        if plaintext is not None and len(plaintext) != LINE:
            raise ValueError("block writes take exactly 64 bytes")
        block = self.geom.block_index(pa)
        leaf = self._ensure_counter(0, block // self.geom.cfg.arity)
        vn = self._bump(leaf.counters, block % self.geom.cfg.arity)
        leaf.dirty = True
        if self.crypto:
            ct = keystream_xor(self.enc_key, pa, vn, plaintext or bytes(LINE))
        else:
            ct = bytes(LINE)
        self.mem.write(pa, ct, DATA)
        mac_line_addr, slot = self.geom.mac_slot(block)
        mline = self._ensure_mac_line((mac_line_addr - self.geom.mac_base) // LINE)
        if self.crypto:
            mline.slots[slot] = compute_mac(self.mac_key, ct, pa, vn).tag[:CTR_W]
        mline.dirty = True

    def read_block(self, pa: int) -> bytes:
        """Fetch, authenticate and decrypt one block. Every integrity failure
        raises TamperDetected."""
        if pa % LINE:
            raise ConfigError(f"block address 0x{pa:x} not 64-byte aligned")
        if not self.geom.contains(pa):
            return self.mem.read(pa, LINE, DATA)
        block = self.geom.block_index(pa)
        leaf = self._ensure_counter(0, block // self.geom.cfg.arity)
        vn = leaf.counters[block % self.geom.cfg.arity]
        if vn == 0:
            raise TamperDetected("read of never-written block", pa)
        ct = self.mem.read(pa, LINE, DATA)
        mac_line_addr, slot = self.geom.mac_slot(block)
        mline = self._ensure_mac_line((mac_line_addr - self.geom.mac_base) // LINE)
        if not self.crypto:
            return bytes(LINE)
        want = compute_mac(self.mac_key, ct, pa, vn).tag[:CTR_W]
        if want != mline.slots[slot]:
            raise TamperDetected("data block MAC mismatch", pa)
        return keystream_xor(self.enc_key, pa, vn, ct)

    # -- object interface (used by the trace replayer) ----------------------
    #
    # Accesses widen to the whole 64-byte lines of the object that hold the
    # requested range. `vn` is unused: this scheme keeps a stored VN per block.

    def rekey(self):
        """Stored VNs do not depend on the accelerator's on-chip counters, so
        a wrap of one of those needs no key change here."""

    def store(
        self,
        obj: ObjectDescriptor,
        vn: int,
        offset: int,
        length: int,
        plaintext: Callable[[int, int], bytes],
    ) -> None:
        """Write the lines holding obj[offset:offset+length], filled whole from
        `plaintext` over the widened range (no read-modify-write)."""
        a0, a1 = _line_range(offset, length)
        data = plaintext(a0, a1 - a0)
        for off in range(0, a1 - a0, LINE):
            self.write_block(obj.base + a0 + off, data[off : off + LINE])

    def load(self, obj: ObjectDescriptor, vn: int, offset: int, length: int) -> bytes:
        a0, a1 = _line_range(offset, length)
        pt = b"".join([self.read_block(obj.base + a) for a in range(a0, a1, LINE)])
        return pt[offset - a0 : offset - a0 + length]


def _line_range(offset: int, length: int) -> tuple[int, int]:
    return offset // LINE * LINE, -(-(offset + length) // LINE) * LINE
