"""Simulated untrusted off-chip memory: sparse byte store, access log, tamper API.

Everything stored here is adversary-visible and adversary-writable. The tamper
API mutates contents without appearing in the access log, because the log
models traffic generated by the accelerator side only. On-chip state (cache
contents, tree root, scheme counters) lives in the scheme objects and is out of
reach of tampering by construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import AddressError

LINE = 64
# Physical addresses are 64-bit: the log stores them in 64 bits, and so does
# a keystream counter block.
ADDRESS_LIMIT = 1 << 64
# Granularity of the sparse byte store (not of any modeled access).
PAGE = 4096
# Zeros that written data is compared against, a long span one stride at a
# time (256 KiB read faster than 64 KiB or 1 MiB in fast-mode replays).
_ZEROS = bytes(64 * PAGE)

# Access classes. Schemes tag every access they issue with one of these.
DATA = "data"
VN_LINE = "vn_line"
MAC_LINE = "mac_line"
TREE_NODE = "tree_node"
META_CLASSES = (VN_LINE, MAC_LINE, TREE_NODE)


class AccessRecord(NamedTuple):
    op: str  # "read" | "write"
    klass: str  # DATA | VN_LINE | MAC_LINE | TREE_NODE
    addr: int
    length: int


# (op, class) of each record kind; a kind's index is its one-byte code in the
# log. Reads come first.
RECORD_KINDS = tuple((op, k) for op in ("read", "write") for k in (DATA, *META_CLASSES))
_READ_CODE = {k: i for i, (op, k) in enumerate(RECORD_KINDS) if op == "read"}
_WRITE_CODE = {k: i for i, (op, k) in enumerate(RECORD_KINDS) if op == "write"}
# What `AccessLog.add_lines` repeats per record: each code's byte, and each
# record size's one-entry length column (filled on first use).
_CODE_BYTE = [bytes((code,)) for code in range(len(RECORD_KINDS))]
_ONE_LENGTH: dict[int, array] = {}


class AccessLog:
    """The access log: a sequence of AccessRecord, in issue order (the index
    is the time), stored as three columns: a one-byte kind code, addresses
    and lengths. Lengths are 64-bit, since an unprotected access may exceed
    4 GiB.

    `byte_totals[code]` is the running byte count of every record kind, kept
    as records are added and deleted.
    """

    __slots__ = ("codes", "addrs", "lengths", "byte_totals")

    def __init__(self):
        self.codes = bytearray()
        self.addrs = array("Q")
        self.lengths = array("Q")
        self.byte_totals = [0] * len(RECORD_KINDS)

    def add(self, code: int, addr: int, length: int):
        self.codes.append(code)
        self.addrs.append(addr)
        self.lengths.append(length)
        self.byte_totals[code] += length

    def add_lines(self, code: int, addr: int, length: int, size: int):
        """One `size`-byte record per `size` bytes of [addr, addr + length),
        in address order; `length` is a whole number of records."""
        n, rest = divmod(length, size)
        if rest:
            raise ValueError(f"{length} bytes is not a whole number of {size}-byte records")
        self.codes.extend(_CODE_BYTE[code] * n)
        self.addrs.extend(range(addr, addr + length, size))
        one = _ONE_LENGTH.get(size) or _ONE_LENGTH.setdefault(size, array("Q", (size,)))
        self.lengths.extend(one * n)
        self.byte_totals[code] += length

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [
                AccessRecord(*RECORD_KINDS[c], a, n)
                for c, a, n in zip(self.codes[i], self.addrs[i], self.lengths[i])
            ]
        return AccessRecord(*RECORD_KINDS[self.codes[i]], self.addrs[i], self.lengths[i])

    def __iter__(self):
        for c, a, n in zip(self.codes, self.addrs, self.lengths):
            yield AccessRecord(*RECORD_KINDS[c], a, n)

    def __delitem__(self, i):
        picked = range(len(self))[i]  # an index, or a range for a slice
        for j in picked if isinstance(picked, range) else (picked,):
            self.byte_totals[self.codes[j]] -= self.lengths[j]
        del self.codes[i], self.addrs[i], self.lengths[i]

    def __eq__(self, other):
        if isinstance(other, (AccessLog, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class BitFlip:
    addr: int
    bit: int  # 0..7 within the byte


@dataclass(frozen=True)
class Relocate:
    """Copy `length` bytes from src to dst, leaving src untouched."""

    src: int
    dst: int
    length: int


@dataclass(frozen=True)
class Splice:
    """Overwrite a range with attacker-chosen bytes."""

    addr: int
    data: bytes


TamperAction = Union[BitFlip, Relocate, Splice]


def _all_zero(data) -> bool:
    """Whether `data` holds only zero bytes: one memcmp per stride."""
    view, step = memoryview(data), len(_ZEROS)
    return all(_ZEROS.startswith(view[i : i + step]) for i in range(0, len(view), step))


class PhysicalMemory:
    """Sparse page-backed memory with a 0x00 fill for never-written bytes.

    Bytes live in PAGE-sized bytearrays allocated on first non-zero write, so
    a peek or poke copies one slice per page it touches, whatever its length.
    A longer span that touches no page reads as one zero buffer, and zeros
    poked over it are dropped after one memcmp per 256 KiB: neither walks its
    pages.
    """

    def __init__(self, capacity: int = 8 << 30):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._pages: dict[int, bytearray] = {}
        self.log = AccessLog()

    def fork(self) -> "PhysicalMemory":
        """A copy with its own pages and log."""
        twin = PhysicalMemory(self.capacity)
        twin._pages = {n: page[:] for n, page in self._pages.items()}
        log, src = twin.log, self.log
        log.codes.extend(src.codes)
        log.addrs.extend(src.addrs)
        log.lengths.extend(src.lengths)
        log.byte_totals[:] = src.byte_totals
        return twin

    # -- raw access ---------------------------------------------------------

    def _check(self, addr: int, length: int):
        if addr < 0 or length < 0 or addr + length > self.capacity:
            raise AddressError(f"[0x{addr:x}, +{length}) outside capacity 0x{self.capacity:x}")

    def _absent(self, addr: int, length: int) -> bool:
        """Whether no page of [addr, addr + length) exists: the first page
        is looked up on its own, since a span over allocated pages (verify
        mode) usually starts on one, and the rest are checked in C."""
        first, pages = addr // PAGE, self._pages
        if first in pages:
            return False
        return pages.keys().isdisjoint(range(first + 1, (addr + length - 1) // PAGE + 1))

    def peek(self, addr: int, length: int) -> bytes:
        """Read without logging (tamper/test plumbing)."""
        self._check(addr, length)
        page, off = divmod(addr, PAGE)
        if off + length <= PAGE:
            buf = self._pages.get(page)
            return bytes(length) if buf is None else bytes(buf[off : off + length])
        if self._absent(addr, length):
            return bytes(length)
        parts = []
        while length:
            take = min(PAGE - off, length)
            buf = self._pages.get(page)
            parts.append(bytes(take) if buf is None else buf[off : off + take])
            page += 1
            off = 0
            length -= take
        return b"".join(parts)

    def poke(self, addr: int, data: bytes):
        """Write without logging (tamper/test plumbing). Zeros that land where
        no page exists allocate none: that page already reads as zeros."""
        self._check(addr, len(data))
        page, off = divmod(addr, PAGE)
        if off + len(data) <= PAGE:
            buf = self._pages.get(page)
            if buf is not None:
                buf[off : off + len(data)] = data
            elif not _ZEROS.startswith(data):
                buf = self._pages[page] = bytearray(PAGE)
                buf[off : off + len(data)] = data
            return
        if self._absent(addr, len(data)) and _all_zero(data):
            return
        view = memoryview(data)
        pos = 0
        while pos < len(view):
            take = min(PAGE - off, len(view) - pos)
            chunk = view[pos : pos + take]
            buf = self._pages.get(page)
            if buf is None and not _ZEROS.startswith(chunk):
                buf = self._pages[page] = bytearray(PAGE)
            if buf is not None:
                buf[off : off + take] = chunk
            pos += take
            page += 1
            off = 0

    # -- logged access (the accelerator-side interface) ---------------------

    # With lines=n an access is logged as one n-byte record per n bytes, as
    # if each had been accessed on its own (LINE for 64-byte lines, MAC_BYTES
    # for chunk tags); with lines=0, as one record. An access inside capacity
    # and one page, logged as one record, is served inline (the common 64-byte
    # line); every other goes through peek/poke.

    def read(self, addr: int, length: int, klass: str = DATA, lines: int = 0) -> bytes:
        off = addr % PAGE
        if (
            off + length <= PAGE
            and (not lines or lines == length)
            and 0 <= addr <= addr + length <= self.capacity
        ):
            buf = self._pages.get(addr // PAGE)
            out = bytes(length) if buf is None else bytes(buf[off : off + length])
            code, log = _READ_CODE[klass], self.log
            log.codes.append(code)
            log.addrs.append(addr)
            log.lengths.append(length)
            log.byte_totals[code] += length
            return out
        out = self.peek(addr, length)
        if lines:
            self.log.add_lines(_READ_CODE[klass], addr, length, lines)
        else:
            self.log.add(_READ_CODE[klass], addr, length)
        return out

    def write(self, addr: int, data: bytes, klass: str = DATA, lines: int = 0):
        length, off = len(data), addr % PAGE
        if (
            off + length <= PAGE
            and (not lines or lines == length)
            and 0 <= addr <= addr + length <= self.capacity
        ):
            buf = self._pages.get(addr // PAGE)
            if buf is not None:
                buf[off : off + length] = data
            elif not _ZEROS.startswith(data):
                buf = self._pages[addr // PAGE] = bytearray(PAGE)
                buf[off : off + length] = data
            code, log = _WRITE_CODE[klass], self.log
            log.codes.append(code)
            log.addrs.append(addr)
            log.lengths.append(length)
            log.byte_totals[code] += length
            return
        self.poke(addr, data)
        if lines:
            self.log.add_lines(_WRITE_CODE[klass], addr, length, lines)
        else:
            self.log.add(_WRITE_CODE[klass], addr, length)

    # -- tamper API ---------------------------------------------------------

    def inject(self, action: TamperAction):
        if isinstance(action, BitFlip):
            if not 0 <= action.bit < 8:
                raise ValueError("bit index must be 0..7")
            cur = self.peek(action.addr, 1)
            self.poke(action.addr, bytes([cur[0] ^ (1 << action.bit)]))
        elif isinstance(action, Relocate):
            self.poke(action.dst, self.peek(action.src, action.length))
        elif isinstance(action, Splice):
            self.poke(action.addr, action.data)
        else:
            raise TypeError(f"not a tamper action: {action!r}")

