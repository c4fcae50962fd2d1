"""General-purpose protection scheme: stored per-block version numbers, block
MACs, and a counter tree rooted on-chip.

Layout conventions (all metadata lives in untrusted memory directly after the
protected region):

    data region:  64-byte blocks at [0, region_size)
    mac region:   one 56-bit tag per data block, packed 8 per 64-byte line
    level 0:      counter lines, `arity` 56-bit VNs (one per data block) plus a
                  56-bit embedded MAC per 64-byte line
    level i+1:    counter lines whose `arity` counters guard level-i lines
    root:         one on-chip counter line guarding the top stored level

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
been written. A read of one is a schedule fault (SecurityInvariantFault), not
tampering: a tampered counter line fails its MAC or zero-fill check first.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable

from .crypto import EncryptionKey, MacKey, compute_mac, keystream_xor
from .dram import ADDRESS_LIMIT, DATA, LINE, MAC_LINE, TREE_NODE, VN_LINE, PhysicalMemory
from .errors import ConfigError, SecurityInvariantFault, TamperDetected
from .mgx import ObjectDescriptor

VN_LIMIT = 1 << 56  # counters are 56-bit; reaching the limit forces a re-key
CTR_W = 7  # packed width of one counter / one stored tag, bytes
_MAC_OFF = 56  # embedded MAC offset inside a counter line
_MAC_SLOTS = 8  # data MAC tags per 64-byte line, independent of tree arity
_MAC = -1  # cache level of a data-MAC line; counter lines use tree levels 0..
TREE_ARITIES = (2, 4, 8)  # counters per counter line; each divides _MAC_SLOTS


@dataclass(frozen=True)
class BaselineConfig:
    region_size: int = 128 << 20
    arity: int = 8
    cache_bytes: int = 4096

    def __post_init__(self):
        if self.arity not in TREE_ARITIES:
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
        if cursor > ADDRESS_LIMIT:
            raise ConfigError(f"a {cfg.region_size}-byte region puts metadata past 2**64")

    def mac_slot(self, block: int) -> tuple[int, int]:
        return self.mac_base + (block // _MAC_SLOTS) * LINE, block % _MAC_SLOTS

    def level_line_addr(self, level: int, index: int) -> int:
        return self.level_bases[level] + index * LINE


def _ctr(body: bytearray, slot: int) -> int:
    """Counter `slot` of a counter line."""
    return int.from_bytes(body[slot * CTR_W : (slot + 1) * CTR_W], "big")


_NEVER = bytes(CTR_W)  # a counter slot that was never bumped
# _ONES[n] adds 1 to each of n packed counters at once, carry-free as long
# as none of them is at VN_LIMIT - 1.
_ONES = [sum(1 << (8 * CTR_W * i) for i in range(n)) for n in range(_MAC_SLOTS + 1)]


class _Line:
    """One on-chip metadata line: a counter line (tree level >= 0, or the
    root above the top stored level) or a data-MAC line (level _MAC). `body`
    is its 64 bytes as memory holds them; counter i of a counter line is the
    7-byte big-endian slot [7i, 7i+7), read and bumped in place."""

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
        levels = len(self.geom.level_counts)
        self._klass = [VN_LINE] + [TREE_NODE] * (levels - 1) + [MAC_LINE]
        self._top = levels - 1  # the root holds this level's counters
        self._arity = config.arity
        self._ctr_bytes = config.arity * CTR_W
        # Bytes a fill keeps per cache level: the counters, or a whole MAC line.
        self._kept = [self._ctr_bytes] * levels + [LINE]
        # Write-back generation per counter-line address; lets a miss in
        # flight notice that the line it is resolving was filled, modified
        # and evicted again by its own eviction cascade.
        self._wb_gen: dict[int, int] = {}
        # Counter lines whose write-back is filling its parent (the fill can
        # recurse into arbitrary evictions before the line lands in memory).
        # A fill during that window must not trust the stale memory copy; it
        # gets the live in-flight line instead. Value is [refcount, line] —
        # re-eviction of a resurrected line nests.
        self._wb_inflight: dict[int, list] = {}
        self.root = _Line(levels, 0, bytearray(LINE))
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
        twin.root = _Line(self.root.level, 0, self.root.body[:])
        return twin

    # -- cache internals ----------------------------------------------------

    def _bump(self, body: bytearray, slot: int) -> int:
        nv = _ctr(body, slot) + 1
        if nv >= VN_LIMIT:
            # Overflow would reuse counter values under the current key; count
            # a re-key of the region and restart the counter. Re-encryption is
            # a statistic, not replayed traffic.
            self.rekey_events += 1
            nv = 1
        body[slot * CTR_W : (slot + 1) * CTR_W] = nv.to_bytes(CTR_W, "big")
        return nv

    def _bump_run(self, body: bytearray, slot: int, n: int) -> list[int] | None:
        """Bump counters slot..slot+n-1 of a counter line with one add and
        return their new values, or None when crypto does not need them. A
        run with a counter whose top byte is 0xff (any that could reach
        VN_LIMIT) is bumped slot by slot, so that a wrap counts its re-key."""
        lo, hi = slot * CTR_W, (slot + n) * CTR_W
        if 0xFF in body[lo:hi:CTR_W]:
            return [self._bump(body, s) for s in range(slot, slot + n)]
        body[lo:hi] = raw = (int.from_bytes(body[lo:hi], "big") + _ONES[n]).to_bytes(hi - lo, "big")
        if self.crypto:
            return [int.from_bytes(raw[i : i + CTR_W], "big") for i in range(0, hi - lo, CTR_W)]
        return None

    def _parent(self, level: int, index: int) -> _Line | None:
        """The line holding the counter of line `index` at `level`, in slot
        index % arity, if it is on chip: the root above the top stored level,
        or the cached line above it, touched. None if it must be filled."""
        if level == self._top:
            return self.root
        addr = self._bases[level + 1] + index // self._arity * LINE
        line = self._cache.get(addr)
        if line is not None:
            self._cache.move_to_end(addr)
        return line

    def _line_mac(self, raw: bytes, addr: int, pctr: int) -> bytes:
        """Embedded MAC of a counter line under its parent counter."""
        return compute_mac(self.mac_key, raw[: self._ctr_bytes], addr, pctr)[:CTR_W]

    def _writeback(self, addr: int, line: _Line):
        level, index = line.level, line.index
        if level == _MAC:
            self.mem.write(addr, line.body, MAC_LINE)
            return
        parent = self._parent(level, index)
        if parent is None:
            # Filling the parent can evict lines whose write-backs fill this
            # very line, which memory does not hold until the write below:
            # while the fill runs, such a fill takes the live copy.
            slot = self._wb_inflight.setdefault(addr, [0, line])
            slot[0] += 1
            try:
                parent = self._line(level + 1, index // self._arity)
            finally:
                slot[0] -= 1
                if slot[0] == 0:
                    del self._wb_inflight[addr]
        pctr = self._bump(parent.body, index % self._arity)
        parent.dirty = True
        self._wb_gen[addr] = self._wb_gen.get(addr, 0) + 1
        if self.crypto:
            line.body[_MAC_OFF : _MAC_OFF + CTR_W] = self._line_mac(line.body, addr, pctr)
        self.mem.write(addr, line.body, self._klass[level])

    def _line(self, level: int, index: int) -> _Line:
        """The cached line `index` of a tree level or of the MAC region
        (_MAC), read from memory and verified on a miss."""
        cache = self._cache
        addr = self._bases[level] + index * LINE
        line = cache.get(addr)
        if line is not None:
            cache.move_to_end(addr)
            return line
        while True:
            # Capture the parent counter before making room: making room may
            # evict the parent line, but the captured value only goes stale if
            # this very line is written back meanwhile — caught below.
            gen = self._wb_gen.get(addr, 0)
            pctr = 0
            if level != _MAC:
                parent = self._parent(level, index)
                if parent is None:
                    parent = self._line(level + 1, index // self._arity)
                if self.crypto:
                    pctr = _ctr(parent.body, index % self._arity)
            while len(cache) >= self._capacity:
                victim, old = cache.popitem(last=False)
                if old.dirty:
                    self._writeback(victim, old)
            line = cache.get(addr)
            if line is not None:
                # A victim's write-back cascade resolved this line on our
                # behalf; it is verified and may already carry a counter bump.
                cache.move_to_end(addr)
                return line
            if self._wb_gen.get(addr, 0) != gen:
                # Filled, modified and evicted again while room was being
                # made; the captured parent counter is stale. Start over.
                continue
            raw = self.mem.read(addr, LINE, self._klass[level])
            infl = self._wb_inflight.get(addr)
            if infl is not None:
                # The line is mid write-back: memory does not hold it yet,
                # so the fill (traffic still issued) takes the live copy.
                line = infl[1]
                line.dirty = False
            else:
                if self.crypto and level != _MAC:
                    if pctr == 0:
                        if raw != bytes(LINE):
                            raise TamperDetected(
                                "counter line modified before first writeback", addr
                            )
                    elif self._line_mac(raw, addr, pctr) != raw[_MAC_OFF : _MAC_OFF + CTR_W]:
                        raise TamperDetected("counter line MAC mismatch", addr)
                line = _Line(level, index, bytearray(raw[: self._kept[level]]).ljust(LINE, b"\0"))
            cache[addr] = line
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
    # long; since the arity divides 8, a run also shares one MAC line. At
    # each block b the loops look up the leaf line of b's run once; if it
    # is cached they touch it and ask whether the run's MAC line is cached
    # too. If both are, the rest of the run moves as one access: the two
    # lines are hit once each, leaf then MAC line, which leaves the LRU
    # order that the run's per-block hits would leave; its counters are
    # bumped with one add, or searched for a never-written one with one
    # find, in the held leaf line; its data crosses memory in one call that
    # logs one record per block, and a write encrypts it with one keystream
    # call. Otherwise block b alone moves through the cache (leaf line,
    # data, MAC line) and the question is asked again at b + 1. Counter
    # values are decoded only for crypto. A read decrypts all of its blocks
    # with one keystream call at its end.

    def _tag(self, b: int, ct: bytes, vn: int) -> bytes:
        """The stored MAC tag of data block `b`."""
        return compute_mac(self.mac_key, ct, b * LINE, vn)[:CTR_W]

    def _write(self, first: int, data: bytes):
        """Encrypt and store whole blocks from `first` on."""
        arity, cache, crypto = self._arity, self._cache, self.crypto
        leaf_base, mac_base = self._bases[0], self._bases[_MAC]
        b, end = first, first + len(data) // LINE
        while b < end:
            leaf_i, mac_i, pa = b // arity, b // _MAC_SLOTS, b * LINE
            leaf_a, n = leaf_base + leaf_i * LINE, 1
            leaf = cache.get(leaf_a)
            if leaf is None:
                leaf = self._line(0, leaf_i)
            else:
                cache.move_to_end(leaf_a)
                if mac_base + mac_i * LINE in cache:
                    n = min(end, (leaf_i + 1) * arity) - b
            vns = self._bump_run(leaf.body, b % arity, n)
            leaf.dirty = True
            if crypto:
                pos = (b - first) * LINE
                ct = keystream_xor(self.enc_key, pa, vns, data[pos : pos + n * LINE])
            else:
                ct = bytes(n * LINE)
            self.mem.write(pa, ct, DATA, lines=LINE)
            mline = self._line(_MAC, mac_i)
            if crypto:
                s = b % _MAC_SLOTS * CTR_W
                for i, vn in enumerate(vns):
                    tag = self._tag(b + i, ct[i * LINE : (i + 1) * LINE], vn)
                    mline.body[s + i * CTR_W : s + (i + 1) * CTR_W] = tag
            mline.dirty = True
            b += n

    def _read(self, first: int, count: int) -> bytes:
        """Fetch, authenticate and decrypt `count` blocks from `first` on.
        Every integrity failure raises TamperDetected; a never-written block
        SecurityInvariantFault. The log gets what block-by-block reads log:
        every block up to and including a MAC mismatch, none from a
        never-written one on. So the blocks of a held run are checked on a
        peek first, and its logged fetch stops where block-by-block reads
        would have stopped."""
        arity, cache, mem, crypto = self._arity, self._cache, self.mem, self.crypto
        leaf_base, mac_base = self._bases[0], self._bases[_MAC]
        cts, vns = [], []  # ciphertext and VN of each verified block, in order
        b, end = first, first + count
        try:
            while b < end:
                leaf_i, mac_i, pa = b // arity, b // _MAC_SLOTS, b * LINE
                leaf_a, n = leaf_base + leaf_i * LINE, 1
                leaf = cache.get(leaf_a)
                if leaf is None:
                    leaf = self._line(0, leaf_i)
                else:
                    cache.move_to_end(leaf_a)
                    if mac_base + mac_i * LINE in cache:
                        n = min(end, (leaf_i + 1) * arity) - b
                # The first never-written counter of the run: a zero slot,
                # not seven zero bytes that straddle two slots.
                body, lo = leaf.body, b % arity * CTR_W
                hi = lo + n * CTR_W
                z = body.find(_NEVER, lo, hi)
                while z >= 0 and z % CTR_W:
                    z = body.find(_NEVER, z - z % CTR_W + CTR_W, hi)
                written = n if z < 0 else (z - lo) // CTR_W
                if written:
                    if n == 1:
                        ct = mem.read(pa, LINE, DATA)
                        mline = self._line(_MAC, mac_i)
                    else:
                        mline = self._line(_MAC, mac_i)
                        ct = mem.peek(pa, written * LINE) if crypto else None
                    good = written
                    if crypto:
                        run = [
                            int.from_bytes(body[s : s + CTR_W], "big")
                            for s in range(lo, lo + written * CTR_W, CTR_W)
                        ]
                        s = b % _MAC_SLOTS * CTR_W
                        for i in range(written):
                            tag = self._tag(b + i, ct[i * LINE : (i + 1) * LINE], run[i])
                            if tag != mline.body[s + i * CTR_W : s + (i + 1) * CTR_W]:
                                good = i
                                break
                        cts.append(ct[: good * LINE])
                        vns.extend(run[:good])
                    if n > 1:
                        mem.read(pa, min(good + 1, written) * LINE, DATA, lines=LINE)
                    if good < written:
                        raise TamperDetected("data block MAC mismatch", pa + good * LINE)
                if written < n:
                    self._line(0, leaf_i)  # its leaf hit; it never reaches its MAC line
                    pa += written * LINE
                    raise SecurityInvariantFault(f"read of never-written block (addr=0x{pa:x})")
                b += n
        finally:
            # Decrypt every block verified so far in one call, also when a
            # check stops the read: an engine that decrypts each block as it
            # arrives has decrypted those already.
            pt = keystream_xor(self.enc_key, first * LINE, vns, b"".join(cts)) if cts else b""
        return pt if crypto else bytes(count * LINE)

    # -- object interface (used by the trace replayer) ----------------------
    #
    # Accesses widen to the whole 64-byte lines of the object that hold the
    # requested range. `vn` is unused: this scheme keeps a stored VN per block.

    def _blocks(
        self, obj: ObjectDescriptor, op: str, offset: int, length: int
    ) -> tuple[int, int, int]:
        """Offset, first block and block count of the whole lines holding
        obj[offset:offset+length], checked before any traffic: against the
        protected region, then against the object."""
        a0 = offset // LINE * LINE
        a1 = -(-(offset + length) // LINE) * LINE
        lo, hi = obj.base + a0, obj.base + a1
        if lo % LINE or lo < 0 or hi > self.geom.cfg.region_size:
            raise ConfigError(
                f"[0x{lo:x}, 0x{hi:x}) is not a range of whole 64-byte blocks "
                "inside the protected region"
            )
        obj.check_range(op, offset, length)
        return a0, lo // LINE, (a1 - a0) // LINE

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
        a0, first, n = self._blocks(obj, "store", offset, length)
        if length:
            self._write(first, plaintext(a0, n * LINE))

    def load(self, obj: ObjectDescriptor, vn: int, offset: int, length: int) -> bytes:
        a0, first, n = self._blocks(obj, "load", offset, length)
        if not length:
            return b""
        return self._read(first, n)[offset - a0 : offset - a0 + length]
