"""Untrusted memory model: sparse store, access log, tamper primitives."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgxsim.dram import (
    DATA,
    LINE,
    MAC_LINE,
    META_CLASSES,
    PAGE,
    RECORD_KINDS,
    TREE_NODE,
    VN_LINE,
    AccessLog,
    AccessRecord,
    BitFlip,
    PhysicalMemory,
    Relocate,
    Splice,
    _ZEROS,
)
from mgxsim.errors import AddressError

STRIDE = len(_ZEROS)  # what the byte store's zero check compares at once


class TestStore:
    def test_zero_fill_for_never_written(self):
        mem = PhysicalMemory()
        assert mem.peek(0, 16) == bytes(16)
        assert mem.peek(123, 200) == bytes(200)

    def test_roundtrip_within_line(self):
        mem = PhysicalMemory()
        mem.poke(10, b"hello")
        assert mem.peek(10, 5) == b"hello"
        assert mem.peek(9, 7) == b"\x00hello\x00"

    def test_roundtrip_across_lines(self):
        mem = PhysicalMemory()
        blob = bytes(range(200))
        mem.poke(LINE - 13, blob)
        assert mem.peek(LINE - 13, 200) == blob

    def test_last_writer_wins(self):
        mem = PhysicalMemory()
        mem.poke(0, b"a" * 32)
        mem.poke(8, b"b" * 8)
        assert mem.peek(0, 32) == b"a" * 8 + b"b" * 8 + b"a" * 16

    @given(
        capacity=st.sampled_from([1024, 5 * PAGE + 100]),
        writes=st.lists(
            st.tuples(
                st.floats(0, 1),
                st.binary(min_size=1, max_size=150)
                | st.integers(PAGE - 50, 2 * PAGE + 50).map(lambda n: bytes([n % 251]) * n)
                | st.integers(1, 2 * PAGE + 50).map(bytes),  # zeros, allocating no page
            ),
            max_size=20,
        ),
        reads=st.lists(
            st.tuples(st.integers(0, 6 * PAGE), st.integers(0, 2 * PAGE + 50)), max_size=8
        ),
    )
    # a read that ends one byte past a page boundary
    @example(capacity=5 * PAGE + 100, writes=[(0.0, b"\x01" * 2 * PAGE)], reads=[(PAGE - 10, 11)])
    @settings(max_examples=50, deadline=None)
    def test_matches_flat_shadow(self, capacity, writes, reads):
        mem = PhysicalMemory(capacity=capacity)
        shadow = bytearray(capacity)
        for frac, data in writes:
            addr = int(frac * capacity)
            if addr + len(data) > capacity:
                continue
            mem.poke(addr, data)
            shadow[addr : addr + len(data)] = data
        assert mem.peek(0, capacity) == bytes(shadow)
        for start, length in reads:
            lo = start % capacity
            hi = min(capacity, lo + length)
            assert mem.peek(lo, hi - lo) == bytes(shadow[lo:hi])

    def test_zeros_allocate_no_page_and_still_overwrite(self):
        mem = PhysicalMemory(capacity=4 * PAGE)
        shadow = bytearray(4 * PAGE)

        def poke(addr, data):
            mem.poke(addr, data)
            shadow[addr : addr + len(data)] = data
            assert mem.peek(0, 4 * PAGE) == bytes(shadow)

        poke(PAGE + 100, bytes(2 * PAGE))  # zeros into absent pages
        assert mem._pages == {}
        poke(PAGE + 200, b"\x07" * 300)  # a partial non-zero write over them
        poke(PAGE + 250, bytes(100))  # zeros over an existing page
        poke(PAGE - 10, bytes(PAGE))  # zeros across an absent and an existing page
        assert sorted(mem._pages) == [1]

    # A span of two zero-check strides and more that starts inside a page,
    # over absent pages; each case is checked against a flat shadow.
    SPAN_AT, SPAN_LEN = PAGE - 30, 2 * STRIDE + 100
    SPAN_PAGES = range(SPAN_AT // PAGE, (SPAN_AT + SPAN_LEN - 1) // PAGE + 1)

    @staticmethod
    def _poke_both(mem, shadow, addr, data):
        mem.poke(addr, data)
        shadow[addr : addr + len(data)] = data
        assert mem.peek(0, len(shadow)) == bytes(shadow)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize(
        "pos",
        [SPAN_LEN - 1, 0, STRIDE - 1, STRIDE, STRIDE + 1, 30],
        ids=["last", "first", "stride-end", "past-stride", "past-stride+1", "page-start"],
    )
    def test_zero_span_with_one_nonzero_byte(self, kind, pos):
        # The one byte allocates its page, and only it.
        mem, shadow = PhysicalMemory(capacity=3 * STRIDE), bytearray(3 * STRIDE)
        data = bytearray(self.SPAN_LEN)
        data[pos] = 0x5A
        self._poke_both(mem, shadow, self.SPAN_AT, kind(data))
        assert sorted(mem._pages) == [(self.SPAN_AT + pos) // PAGE]
        self._poke_both(mem, shadow, self.SPAN_AT, kind(bytes(self.SPAN_LEN)))

    @pytest.mark.parametrize("where", [0, len(SPAN_PAGES) // 2, -1], ids=["first", "middle", "last"])
    def test_zeros_over_a_span_with_one_allocated_page(self, where):
        page = self.SPAN_PAGES[where]
        mem, shadow = PhysicalMemory(capacity=3 * STRIDE), bytearray(3 * STRIDE)
        self._poke_both(mem, shadow, page * PAGE, b"\xff" * PAGE)
        self._poke_both(mem, shadow, self.SPAN_AT, bytes(self.SPAN_LEN))
        assert sorted(mem._pages) == [page]

    def test_peek_whose_only_allocated_page_is_the_last(self):
        mem, shadow = PhysicalMemory(capacity=3 * STRIDE), bytearray(3 * STRIDE)
        end = self.SPAN_AT + self.SPAN_LEN
        self._poke_both(mem, shadow, end - 7, b"tail!!!")
        assert sorted(mem._pages) == [self.SPAN_PAGES[-1]]
        for lo in (self.SPAN_AT, 0, PAGE, end - PAGE - 1):
            assert mem.peek(lo, end - lo) == bytes(shadow[lo:end])
        assert mem.peek(self.SPAN_AT, self.SPAN_LEN - 7) == bytes(self.SPAN_LEN - 7)

    def test_capacity_enforced(self):
        mem = PhysicalMemory(capacity=128)
        mem.poke(64, bytes(64))
        with pytest.raises(AddressError):
            mem.poke(65, bytes(64))
        with pytest.raises(AddressError):
            mem.peek(128, 1)
        with pytest.raises(AddressError):
            mem.peek(-1, 1)
        with pytest.raises(ValueError):
            PhysicalMemory(capacity=0)

    def test_zero_length_peek(self):
        assert PhysicalMemory().peek(5, 0) == b""

    @pytest.mark.parametrize(
        "addr,length",
        [
            (PAGE - 64, 64),  # ends exactly at a page end
            (PAGE, 64),  # starts at a page start
            (2 * PAGE - 1, 1),  # one byte, the last of its page
            (PAGE + 5, 1),  # one byte
            (PAGE - 3, 6),  # crosses into the next page
            (PAGE - 63, 64),  # ends one byte past a page end
        ],
    )
    def test_poke_page_edges(self, addr, length):
        mem = PhysicalMemory(capacity=4 * PAGE)
        mem.poke(0, b"\x11" * (4 * PAGE))
        data = bytes(range(1, length + 1))
        mem.poke(addr, data)
        want = bytearray(b"\x11" * (4 * PAGE))
        want[addr : addr + length] = data
        assert mem.peek(0, 4 * PAGE) == bytes(want)


class TestLogging:
    def test_read_write_logged_with_class_and_timestamp(self):
        # a record's timestamp is its index in the log
        mem = PhysicalMemory()
        mem.write(0, bytes(64), VN_LINE)
        mem.read(64, 64, DATA)
        mem.read(128, 8, MAC_LINE)
        assert mem.log == [
            AccessRecord("write", VN_LINE, 0, 64),
            AccessRecord("read", DATA, 64, 64),
            AccessRecord("read", MAC_LINE, 128, 8),
        ]

    @staticmethod
    def filled():
        mem = PhysicalMemory(capacity=1 << 41)
        mem.write(0, bytes(64), VN_LINE)
        mem.read(64, 64, DATA)
        mem.read(128, 8, MAC_LINE)
        mem.write(1 << 40, bytes(16), TREE_NODE)
        return mem, [
            AccessRecord("write", VN_LINE, 0, 64),
            AccessRecord("read", DATA, 64, 64),
            AccessRecord("read", MAC_LINE, 128, 8),
            AccessRecord("write", TREE_NODE, 1 << 40, 16),
        ]

    def test_log_is_a_sequence_of_records(self):
        mem, want = self.filled()
        log = mem.log
        assert len(log) == 4
        assert log == want and want == log and log != want[:3]
        assert list(log) == want
        assert [log[i] for i in range(-4, 4)] == want + want
        assert log[1:3] == want[1:3] and log[::-2] == want[::-2] and log[9:] == []
        with pytest.raises(IndexError):
            log[4]
        with pytest.raises(IndexError):
            log[-5]

    def test_log_totals_follow_adds_and_deletes(self):
        mem, want = self.filled()
        log = mem.log
        by_kind = {kind: 0 for kind in RECORD_KINDS}
        for rec in want:
            by_kind[rec.op, rec.klass] += rec.length
        assert log.byte_totals == list(by_kind.values())
        del log[-3]
        del want[-3]
        assert log == want
        by_kind["read", DATA] = 0
        assert log.byte_totals == list(by_kind.values())
        with pytest.raises(IndexError):
            del log[3]

    def test_lengths_beyond_4_gib(self):
        log = AccessLog()
        log.add(0, 0, 5 << 32)
        assert log[0] == AccessRecord("read", DATA, 0, 5 << 32)
        assert log.byte_totals[0] == 5 << 32

    def test_peek_poke_and_tampering_unlogged(self):
        mem = PhysicalMemory()
        mem.poke(0, b"x")
        mem.peek(0, 1)
        mem.inject(BitFlip(0, 0))
        mem.inject(Splice(0, mem.peek(0, 64)))
        assert mem.log == []

    def test_write_returns_data_via_read(self):
        mem = PhysicalMemory()
        mem.write(100, b"payload", DATA)
        assert mem.read(100, 7, DATA) == b"payload"

    @pytest.mark.parametrize("addr", [-64, -1, 4 * PAGE - 63, 4 * PAGE])
    def test_access_outside_capacity_raises_and_logs_nothing(self, addr):
        mem = PhysicalMemory(capacity=4 * PAGE)
        with pytest.raises(AddressError):
            mem.read(addr, 64, VN_LINE)
        with pytest.raises(AddressError):
            mem.write(addr, b"\x01" * 64, VN_LINE)
        with pytest.raises(AddressError):
            mem.read(64, -1)
        assert mem.log == [] and mem.log.byte_totals == [0] * len(RECORD_KINDS)
        assert mem._pages == {}

    def test_zero_write_to_absent_page_allocates_none(self):
        mem = PhysicalMemory(capacity=4 * PAGE)
        mem.write(PAGE + 64, bytes(64), DATA)
        assert mem._pages == {}
        mem.write(PAGE + 128, b"\x05" * 64, MAC_LINE)
        mem.write(PAGE + 128, bytes(64), MAC_LINE)  # zeros over a page still land
        assert sorted(mem._pages) == [1] and mem.peek(PAGE, PAGE) == bytes(PAGE)
        assert mem.log == [
            AccessRecord("write", DATA, PAGE + 64, 64),
            AccessRecord("write", MAC_LINE, PAGE + 128, 64),
            AccessRecord("write", MAC_LINE, PAGE + 128, 64),
        ]

    def test_page_straddling_and_per_line_accesses(self):
        mem = PhysicalMemory(capacity=4 * PAGE)
        data = bytes(range(256))
        mem.write(PAGE - 64, data[:128], DATA)  # straddles a page boundary
        mem.write(2 * PAGE, data, TREE_NODE, lines=LINE)  # one page, four lines
        assert mem.read(PAGE - 64, 128, DATA) == data[:128]
        assert mem.read(2 * PAGE - 64, 128, VN_LINE, lines=LINE) == bytes(64) + data[:64]
        mem.write(3 * PAGE - 8, data[:24], MAC_LINE, lines=8)  # three 8-byte tags
        assert mem.read(3 * PAGE - 8, 16, MAC_LINE, lines=8) == data[:16]
        assert mem.log == [
            AccessRecord("write", DATA, PAGE - 64, 128),
            *(AccessRecord("write", TREE_NODE, 2 * PAGE + i * 64, 64) for i in range(4)),
            AccessRecord("read", DATA, PAGE - 64, 128),
            AccessRecord("read", VN_LINE, 2 * PAGE - 64, 64),
            AccessRecord("read", VN_LINE, 2 * PAGE, 64),
            *(AccessRecord("write", MAC_LINE, 3 * PAGE + i * 8, 8) for i in (-1, 0, 1)),
            *(AccessRecord("read", MAC_LINE, 3 * PAGE + i * 8, 8) for i in (-1, 0)),
        ]
        with pytest.raises(ValueError, match="whole number of 8-byte records"):
            mem.read(0, 12, MAC_LINE, lines=8)

    def test_meta_classes(self):
        assert set(META_CLASSES) == {VN_LINE, MAC_LINE, TREE_NODE}
        assert DATA not in META_CLASSES


class TestTamper:
    def test_bitflip_flips_exactly_one_bit(self):
        mem = PhysicalMemory()
        mem.poke(7, b"\x00")
        mem.inject(BitFlip(7, 5))
        assert mem.peek(7, 1) == bytes([1 << 5])
        mem.inject(BitFlip(7, 5))
        assert mem.peek(7, 1) == b"\x00"
        # neighbours untouched
        assert mem.peek(6, 1) == b"\x00" and mem.peek(8, 1) == b"\x00"

    def test_bitflip_bit_range(self):
        with pytest.raises(ValueError):
            PhysicalMemory().inject(BitFlip(0, 8))

    def test_relocate_copies_and_preserves_source(self):
        mem = PhysicalMemory()
        mem.poke(0, b"ABCD")
        mem.inject(Relocate(src=0, dst=100, length=4))
        assert mem.peek(100, 4) == b"ABCD"
        assert mem.peek(0, 4) == b"ABCD"

    def test_splice_overwrites_range(self):
        mem = PhysicalMemory()
        mem.poke(50, b"xxxx")
        mem.inject(Splice(50, b"YZ"))
        assert mem.peek(50, 4) == b"YZxx"

    def test_unknown_action_type(self):
        with pytest.raises(TypeError):
            PhysicalMemory().inject("not an action")
