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

import copy
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
_MAC = -1  # cache level of a data-MAC line; counter lines use tree levels 0..
_ZERO_LINE = bytes(LINE)  # what a crypto-off engine stores


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


def pack_counter_line(counters: list[int]) -> bytearray:
    """A counter line with its embedded MAC field still zero."""
    out = bytearray(LINE)
    for i, c in enumerate(counters):
        out[i * CTR_W : (i + 1) * CTR_W] = c.to_bytes(CTR_W, "big")
    return out


def unpack_counter_line(raw: bytes, arity: int) -> tuple[list[int], bytes]:
    counters = [
        int.from_bytes(raw[i * CTR_W : (i + 1) * CTR_W], "big") for i in range(arity)
    ]
    return counters, raw[_MAC_OFF : _MAC_OFF + CTR_W]


def _klass(level: int) -> str:
    return MAC_LINE if level == _MAC else VN_LINE if level == 0 else TREE_NODE


class _Line:
    """One cached metadata line. A counter line (tree level >= 0) keeps its
    counters as ints in `body`; a data-MAC line (level _MAC) keeps its packed
    64 bytes as a bytearray."""

    __slots__ = ("level", "index", "body", "dirty")

    def __init__(self, level, index, body):
        self.level = level
        self.index = index
        self.body = body
        self.dirty = False


class BaselineMee:
    """Memory encryption and integrity engine over one protected region.

    All DRAM traffic it generates is visible in memory.log. With crypto=False
    the engine moves zero payloads and skips cipher/MAC arithmetic while
    producing the identical access stream; integrity checks are meaningful only
    with crypto=True. Every object in `objects` must start on a 64-byte line,
    since the object interface widens each access to whole lines, and must lie
    inside the region: nothing outside it is protected.
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
            if obj.base + obj.size > config.region_size:
                raise ConfigError(
                    f"object {obj.obj_id} ends at 0x{obj.base + obj.size:x}, "
                    f"past the 0x{config.region_size:x}-byte protected region"
                )
        self.mem = memory
        self.enc_key = enc_key
        self.mac_key = mac_key
        self.crypto = crypto
        self._cache: OrderedDict[int, _Line] = OrderedDict()
        self._capacity = config.cache_bytes // LINE
        # First line address per cache level; index _MAC (-1) is the MAC region.
        self._bases = [*self.geom.level_bases, self.geom.mac_base]
        self._ctr_bytes = config.arity * CTR_W
        # Write-back generation per counter-line address; lets a miss in
        # flight notice that the line it is resolving was filled, modified
        # and evicted again by its own eviction cascade.
        self._wb_gen: dict[int, int] = {}
        # Counter lines whose write-back is still executing (the parent bump
        # can recurse into arbitrary evictions before the line lands in
        # memory). A fill during that window must not trust the stale memory
        # copy; it gets the live in-flight line instead. Value is
        # [refcount, line] — re-eviction of a resurrected line nests.
        self._wb_inflight: dict[int, list] = {}
        self.root = [0] * self.geom.root_fanout
        self.rekey_events = 0

    def fork(self, memory: PhysicalMemory) -> "BaselineMee":
        """A copy of this engine over `memory`, taken between two accesses:
        its own cached lines (bodies, dirty bits and LRU order), root and
        write-back generations. No write-back is in flight between accesses.
        Geometry and keys are shared: neither changes after construction."""
        twin = copy.copy(self)
        twin.mem = memory
        twin._cache = OrderedDict()
        for addr, line in self._cache.items():
            twin._cache[addr] = copied = _Line(line.level, line.index, line.body[:])
            copied.dirty = line.dirty
        twin._wb_gen = dict(self._wb_gen)
        twin._wb_inflight = {}
        twin.root = self.root[:]
        return twin

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
        parent = self._line(level + 1, index // self.geom.cfg.arity)
        return parent.body[index % self.geom.cfg.arity]

    def _bump_parent(self, level: int, index: int) -> int:
        if level == len(self.geom.level_counts) - 1:
            return self._bump(self.root, index)
        parent = self._line(level + 1, index // self.geom.cfg.arity)
        nv = self._bump(parent.body, index % self.geom.cfg.arity)
        parent.dirty = True
        return nv

    def _line_mac(self, raw: bytes, addr: int, pctr: int) -> bytes:
        """Embedded MAC of a packed counter line under its parent counter."""
        return compute_mac(self.mac_key, raw[: self._ctr_bytes], addr, pctr)[:CTR_W]

    def _writeback(self, addr: int, line: _Line):
        if line.level == _MAC:
            self.mem.write(addr, line.body, MAC_LINE)
            return
        slot = self._wb_inflight.setdefault(addr, [0, line])
        slot[0] += 1
        try:
            pctr = self._bump_parent(line.level, line.index)
            self._wb_gen[addr] = self._wb_gen.get(addr, 0) + 1
            raw = pack_counter_line(line.body)
            if self.crypto:
                raw[_MAC_OFF : _MAC_OFF + CTR_W] = self._line_mac(raw, addr, pctr)
            self.mem.write(addr, raw, _klass(line.level))
        finally:
            slot[0] -= 1
            if slot[0] == 0:
                del self._wb_inflight[addr]

    def _make_room(self):
        while len(self._cache) >= self._capacity:
            victim, line = next(iter(self._cache.items()))
            del self._cache[victim]
            if line.dirty:
                self._writeback(victim, line)

    def _line(self, level: int, index: int) -> _Line:
        """The cached line `index` of a tree level or of the MAC region
        (_MAC), read from memory and verified on a miss."""
        addr = self._bases[level] + index * LINE
        while True:
            line = self._cache.get(addr)
            if line is not None:
                self._cache.move_to_end(addr)
                return line
            # Capture the parent counter before making room: making room may
            # evict the parent line, but the captured value only goes stale if
            # this very line is written back meanwhile — caught below.
            gen = self._wb_gen.get(addr, 0)
            pctr = 0 if level == _MAC else self._parent_counter(level, index)
            self._make_room()
            line = self._cache.get(addr)
            if line is not None:
                # A victim's write-back cascade resolved this line on our
                # behalf; it is verified and may already carry a counter bump.
                self._cache.move_to_end(addr)
                return line
            if self._wb_gen.get(addr, 0) != gen:
                # Filled, modified and evicted again while room was being
                # made; the captured parent counter is stale. Start over.
                continue
            raw = self.mem.read(addr, LINE, _klass(level))
            infl = self._wb_inflight.get(addr)
            if infl is not None:
                # The line is mid write-back: memory does not hold it yet,
                # so the fill (traffic still issued) takes the live copy.
                line = infl[1]
                line.dirty = False
            elif level == _MAC:
                line = _Line(level, index, bytearray(raw))
            else:
                counters, stored = unpack_counter_line(raw, self.geom.cfg.arity)
                if self.crypto:
                    if pctr == 0:
                        if raw != bytes(LINE):
                            raise TamperDetected(
                                "counter line modified before first writeback", addr
                            )
                    elif self._line_mac(raw, addr, pctr) != stored:
                        raise TamperDetected("counter line MAC mismatch", addr)
                line = _Line(level, index, counters)
            self._cache[addr] = line
            return line

    def flush(self):
        """Write back every dirty cached line (end-of-run bookkeeping)."""
        while self._cache:
            addr, line = self._cache.popitem(last=False)
            if line.dirty:
                self._writeback(addr, line)

    # -- block interface ----------------------------------------------------
    #
    # Blocks move in runs that share one leaf counter line, `arity` blocks
    # long; since the arity divides 8, a run also shares one MAC line. The
    # run's first block resolves both lines through the cache. If that
    # block's eviction cascade left both resident, they are touched once, leaf
    # then MAC line, exactly as the rest of the run's per-block hits would
    # leave the LRU order, and the rest of the run moves with no cache calls.
    # Otherwise every block takes the cache path.

    def _block(self, pa: int) -> int:
        if pa % LINE or not self.geom.contains(pa):
            raise ConfigError(
                f"block address 0x{pa:x} is not a 64-byte aligned address "
                "inside the protected region"
            )
        return pa // LINE

    def _runs(self, first: int, count: int):
        """(block, blocks in run, leaf line index, MAC line index) of every
        run covering blocks [first, first + count)."""
        arity = self.geom.cfg.arity
        end = first + count
        while first < end:
            leaf_i = first // arity
            stop = min(end, (leaf_i + 1) * arity)
            yield first, stop - first, leaf_i, first // _MAC_SLOTS
            first = stop

    def _resident(self, leaf_i: int, mac_i: int):
        """The leaf and MAC lines, touched in that order, if both are still
        cached; else None."""
        cache = self._cache
        leaf_a = self._bases[0] + leaf_i * LINE
        mac_a = self._bases[_MAC] + mac_i * LINE
        leaf, mline = cache.get(leaf_a), cache.get(mac_a)
        if leaf is None or mline is None:
            return None
        cache.move_to_end(leaf_a)
        cache.move_to_end(mac_a)
        return leaf, mline

    def _write(self, first: int, data: bytes):
        """Encrypt and store whole blocks from `first` on."""
        arity = self.geom.cfg.arity
        crypto, mem = self.crypto, self.mem
        pos = 0
        for block, n, leaf_i, mac_i in self._runs(first, len(data) // LINE):
            held = None
            for b in range(block, block + n):
                pa = b * LINE
                leaf = self._line(0, leaf_i) if held is None else held[0]
                vn = self._bump(leaf.body, b % arity)
                leaf.dirty = True
                if crypto:
                    ct = keystream_xor(self.enc_key, pa, vn, data[pos : pos + LINE])
                else:
                    ct = _ZERO_LINE
                pos += LINE
                mem.write(pa, ct, DATA)
                mline = self._line(_MAC, mac_i) if held is None else held[1]
                if crypto:
                    s = b % _MAC_SLOTS * CTR_W
                    mline.body[s : s + CTR_W] = compute_mac(self.mac_key, ct, pa, vn)[:CTR_W]
                mline.dirty = True
                if b == block and n > 1:
                    held = self._resident(leaf_i, mac_i)

    def _read(self, first: int, count: int) -> bytes:
        """Fetch, authenticate and decrypt `count` blocks from `first` on."""
        arity = self.geom.cfg.arity
        crypto, mem = self.crypto, self.mem
        out = []
        for block, n, leaf_i, mac_i in self._runs(first, count):
            held = None
            for b in range(block, block + n):
                pa = b * LINE
                leaf = self._line(0, leaf_i) if held is None else held[0]
                vn = leaf.body[b % arity]
                if vn == 0:
                    if held is not None:
                        self._line(0, leaf_i)  # the touch a per-block hit makes
                    raise TamperDetected("read of never-written block", pa)
                ct = mem.read(pa, LINE, DATA)
                mline = self._line(_MAC, mac_i) if held is None else held[1]
                if crypto:
                    s = b % _MAC_SLOTS * CTR_W
                    tag = compute_mac(self.mac_key, ct, pa, vn)[:CTR_W]
                    if tag != mline.body[s : s + CTR_W]:
                        raise TamperDetected("data block MAC mismatch", pa)
                    out.append(keystream_xor(self.enc_key, pa, vn, ct))
                if b == block and n > 1:
                    held = self._resident(leaf_i, mac_i)
        return b"".join(out) if crypto else bytes(count * LINE)

    def write_block(self, pa: int, plaintext: bytes) -> None:
        """Encrypt and store one 64-byte block."""
        block = self._block(pa)
        if len(plaintext) != LINE:
            raise ValueError("block writes take exactly 64 bytes")
        self._write(block, plaintext)

    def read_block(self, pa: int) -> bytes:
        """Fetch, authenticate and decrypt one block. Every integrity failure
        raises TamperDetected."""
        return self._read(self._block(pa), 1)

    # -- object interface (used by the trace replayer) ----------------------
    #
    # Accesses widen to the whole 64-byte lines of the object that hold the
    # requested range. `vn` is unused: this scheme keeps a stored VN per block.

    def rekey(self):
        """Stored VNs do not depend on the accelerator's on-chip counters, so
        a wrap of one of those needs no key change here."""

    def _blocks(self, obj: ObjectDescriptor, a0: int, a1: int) -> tuple[int, int]:
        """First block and block count of obj[a0:a1], a line-aligned range,
        checked before any traffic."""
        if a1 == a0:
            return 0, 0
        self._block(obj.base + a1 - LINE)
        return self._block(obj.base + a0), (a1 - a0) // LINE

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
        first, _ = self._blocks(obj, a0, a1)
        self._write(first, plaintext(a0, a1 - a0))

    def load(self, obj: ObjectDescriptor, vn: int, offset: int, length: int) -> bytes:
        a0, a1 = _line_range(offset, length)
        pt = self._read(*self._blocks(obj, a0, a1))
        return pt[offset - a0 : offset - a0 + length]


def _line_range(offset: int, length: int) -> tuple[int, int]:
    return offset // LINE * LINE, -(-(offset + length) // LINE) * LINE
