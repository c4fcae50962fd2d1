"""Object-granularity engine: VN algebra, chunk MACs, schedule invariants.

Frozen expected values below were computed by hand from the VN layouts
(shift-or of independent counter fields) and from the descriptor's
16-byte-alignment rule, before the assertions were first run.
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgxsim.crypto import compute_mac, keystream_xor_at
from mgxsim.dram import (
    DATA,
    MAC_LINE,
    META_CLASSES,
    BitFlip,
    PhysicalMemory,
    Relocate,
    Splice,
)
from mgxsim.errors import ConfigError, SecurityInvariantFault, TamperDetected
from mgxsim.mgx import (
    COUNTERS,
    CTR_32_LIMIT,
    CTR_I_LIMIT,
    MAC_BYTES,
    UPDATE_OPS,
    MgxMee,
    MgxState,
    ObjectDescriptor,
    WriteLedger,
    check_schedule,
)
from mgxsim.replay import replay
from mgxsim.workloads.trace import READ, WRITE, TraceBuilder, VnSource


def make_engine(keys, *, crypto=True, capacity=1 << 20):
    enc_key, mac_key = keys
    mem = PhysicalMemory(capacity)
    eng = MgxMee(mem, enc_key, mac_key, crypto=crypto)
    return eng, mem


def records(recs):
    return [(r.op, r.klass, r.addr, r.length) for r in recs]


def store(eng, obj, vn, data, offset=0):
    """Store `data` at `offset` through the engine's plaintext callback."""
    eng.store(obj, vn, offset, len(data), lambda o, n: data[o - offset : o - offset + n])


def one_object_trace(size, k, ops):
    """A trace over one object `x` of `size` bytes with MAC chunks of `k`
    bytes, where `ops` are (READ or WRITE, v, offset, length) under VN source
    feature:v. No update op runs, so ctr_i is 0 and the VN is v itself."""
    b = TraceBuilder("schedule", mac_granularity=k)
    x = b.alloc("x", size)
    b.new_group()
    for op, v, offset, length in ops:
        (b.write if op == WRITE else b.read)(x, VnSource("feature", v), offset, length)
    return b.trace


class TestVnAlgebra:
    def test_weights_vn_is_weight_counter(self):
        assert MgxState(ctr_w=0).vn("weights") == 0
        assert MgxState(ctr_w=41).vn("weights") == 41

    def test_feature_vn_frozen_value(self):
        # 5 << 8 | 3
        assert MgxState(ctr_i=5).vn("feature", 3) == 1283

    def test_frame_vn_frozen_value(self):
        # 2 << 8 | 255
        assert MgxState(ctr_i=2).vn("frame", 255) == 767
        assert MgxState(ctr_i=0).vn("frame", 0) == 0

    def test_genome_vn(self):
        assert MgxState(ctr_genome=9).vn("genome") == 9

    def test_query_vn_frozen_values(self):
        # 1 << 32 | 1  and  3 << 32 | 7
        assert MgxState(ctr_genome=1, ctr_query=1).vn("query") == 4294967297
        assert MgxState(ctr_genome=3, ctr_query=7).vn("query") == 12884901895

    def test_vid_zero_reserved(self):
        with pytest.raises(ConfigError):
            MgxState().vn("feature", 0)

    def test_vid_must_fit_eight_bits(self):
        with pytest.raises(ConfigError):
            MgxState().vn("feature", 256)
        assert MgxState(ctr_i=1).vn("feature", 255) == 511

    def test_frame_must_fit_eight_bits(self):
        with pytest.raises(ConfigError):
            MgxState().vn("frame", 256)
        with pytest.raises(ConfigError):
            MgxState().vn("frame", -1)

    def test_pure_updates_do_not_mutate(self):
        s0 = MgxState(ctr_i=5, ctr_w=6, ctr_genome=7, ctr_query=8)
        for op, (field, _) in COUNTERS.items():
            s1, wrapped = s0.advance(op)
            assert not wrapped
            # each update steps exactly its own field and leaves s0 alone
            assert s1 == replace(s0, **{field: getattr(s0, field) + 1})
        assert s0 == MgxState(ctr_i=5, ctr_w=6, ctr_genome=7, ctr_query=8)
        assert UPDATE_OPS == ("update_i", "update_w", "update_genome", "update_query")

    @given(
        c1=st.integers(0, CTR_I_LIMIT - 1),
        v1=st.integers(1, 255),
        c2=st.integers(0, CTR_I_LIMIT - 1),
        v2=st.integers(1, 255),
    )
    def test_feature_vn_injective(self, c1, v1, c2, v2):
        vn1 = MgxState(ctr_i=c1).vn("feature", v1)
        vn2 = MgxState(ctr_i=c2).vn("feature", v2)
        assert (vn1 == vn2) == (c1 == c2 and v1 == v2)

    @given(
        g1=st.integers(0, CTR_32_LIMIT - 1),
        q1=st.integers(0, CTR_32_LIMIT - 1),
        g2=st.integers(0, CTR_32_LIMIT - 1),
        q2=st.integers(0, CTR_32_LIMIT - 1),
    )
    def test_query_vn_injective(self, g1, q1, g2, q2):
        vn1 = MgxState(ctr_genome=g1, ctr_query=q1).vn("query")
        vn2 = MgxState(ctr_genome=g2, ctr_query=q2).vn("query")
        assert (vn1 == vn2) == (g1 == g2 and q1 == q2)


class TestCounterWrap:
    def test_plain_increment_is_not_a_rekey(self):
        s, wrapped_i = MgxState().advance("update_i")
        s, wrapped_w = s.advance("update_w")
        assert s == MgxState(ctr_i=1, ctr_w=1)
        assert not wrapped_i and not wrapped_w

    @pytest.mark.parametrize(
        "field,limit,op",
        [
            ("ctr_i", CTR_I_LIMIT, "update_i"),
            ("ctr_w", 1 << 64, "update_w"),
            ("ctr_genome", CTR_32_LIMIT, "update_genome"),
            ("ctr_query", CTR_32_LIMIT, "update_query"),
        ],
    )
    def test_wrap_rekeys_and_restarts_at_one(self, field, limit, op):
        assert COUNTERS[op] == (field, limit)
        before = MgxState(**{field: limit - 1})
        after, wrapped = before.advance(op)
        assert wrapped
        assert after == replace(before, **{field: 1})

    def test_wrap_clears_ledger_epoch(self, monkeypatch):
        monkeypatch.setitem(COUNTERS, "update_i", ("ctr_i", 2))
        b = TraceBuilder("wrap", mac_granularity=64)
        obj = b.alloc("x", 64)
        src = VnSource("feature", 7)
        b.update("update_i")
        b.write(obj, src)
        b.write(obj, src)  # same blocks, same VN, same epoch
        with pytest.raises(SecurityInvariantFault):
            check_schedule(b.trace)
        del b.trace.events[-1]
        b.update("update_i")  # ctr_i wraps back to 1: a new epoch, the same VN
        b.write(obj, src)  # now fine
        check_schedule(b.trace)
        assert replay(b.trace, "mgx").rekey_events == 1

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a counter wrap reuses a (key, address, VN) keystream",
    )
    def test_wrap_never_repeats_a_keystream(self, monkeypatch):
        monkeypatch.setitem(COUNTERS, "update_i", ("ctr_i", 2))
        b = TraceBuilder("wrap", mac_granularity=64)
        obj = b.alloc("x", 64)
        src = VnSource("feature", 1)
        b.update("update_i")
        b.write(obj, src)
        b.update("update_i")  # ctr_i wraps back to 1: the same VN comes again
        b.write(obj, src)
        before = []
        hooks = {2: lambda mem: before.append(mem.peek(obj.base, obj.size))}
        res = replay(b.trace, "mgx", payload_mode="verify", hooks=hooks)
        assert res.clean and res.rekey_events == 1
        assert res.memory.peek(obj.base, obj.size) != before[0]


class TestDescriptor:
    def test_frozen_layout_math(self):
        d = ObjectDescriptor("a", 0x1000, 2500, mac_granularity=1024)
        assert d.num_chunks == 3
        # align16(0x1000 + 2500) = align16(6596) = 6608
        assert d.mac_start == 6608
        assert d.end == 6608 + 3 * MAC_BYTES == 6632
        assert d.chunk_extent(0) == (0, 1024)
        assert d.chunk_extent(1) == (1024, 2048)
        assert d.chunk_extent(2) == (2048, 2500)
        assert d.mac_addr(0) == 6608
        assert d.mac_addr(1) == 6616
        assert d.mac_addr(2) == 6624

    def test_covering_chunks(self):
        d = ObjectDescriptor("a", 0, 4096, mac_granularity=1024)
        assert list(d.covering_chunks(0, 1)) == [0]
        assert list(d.covering_chunks(1023, 2)) == [0, 1]
        assert list(d.covering_chunks(1024, 1)) == [1]
        assert list(d.covering_chunks(0, 4096)) == [0, 1, 2, 3]
        assert list(d.covering_chunks(500, 0)) == []

    def test_explicit_mac_base(self):
        d = ObjectDescriptor("a", 0, 100, mac_granularity=64, mac_base=0x8000)
        assert d.mac_start == 0x8000
        assert d.mac_addr(1) == 0x8008
        assert d.end == 0x8000 + 2 * MAC_BYTES

    def test_zero_size_object(self):
        d = ObjectDescriptor("a", 0x20, 0)
        assert d.num_chunks == 0
        assert d.end == d.mac_start == 0x20

    def test_validation(self):
        with pytest.raises(ConfigError):
            ObjectDescriptor("a", -16, 64)
        with pytest.raises(ConfigError):
            ObjectDescriptor("a", 0, -1)
        with pytest.raises(ConfigError):
            ObjectDescriptor("a", 8, 64)  # base off the cipher-block grid
        with pytest.raises(ConfigError):
            ObjectDescriptor("a", 0, 64, mac_granularity=0)

    @pytest.mark.parametrize(
        "kw", [{"base": 0.0}, {"size": 64.0}, {"mac_granularity": True}, {"mac_base": "0"}]
    )
    def test_layout_fields_must_be_integers(self, kw):
        fields = {"base": 0, "size": 64, "mac_granularity": 64, "mac_base": None, **kw}
        with pytest.raises(ConfigError, match="must be integers"):
            ObjectDescriptor("a", **fields)

    def test_negative_mac_base_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            ObjectDescriptor("a", 0, 64, mac_base=-64)

    def test_end_covers_data_after_an_explicit_mac_base(self):
        d = ObjectDescriptor("a", 0x1000, 100, mac_granularity=64, mac_base=0x100)
        assert d.end == 0x1000 + 100

    def test_byte_granularity_allowed(self):
        d = ObjectDescriptor("a", 0, 4, mac_granularity=1)
        assert d.num_chunks == 4
        assert d.chunk_extent(3) == (3, 4)


class TestRoundTrip:
    def test_full_store_load(self, keys):
        eng, _ = make_engine(keys)
        obj = ObjectDescriptor("w", 0x1000, 2500)
        data = random.Random(1).randbytes(2500)
        store(eng, obj, 11, data)
        out = eng.load(obj, 11, 0, obj.size)
        assert out == data

    def test_subrange_load(self, keys):
        eng, _ = make_engine(keys)
        obj = ObjectDescriptor("w", 0, 4096)
        data = random.Random(2).randbytes(4096)
        store(eng, obj, 3, data)
        out = eng.load(obj, 3, offset=100, length=50)
        assert out == data[100:150]
        out = eng.load(obj, 3, offset=1020, length=8)  # chunk straddle
        assert out == data[1020:1028]

    def test_piecewise_store_same_vn(self, keys):
        """Streaming writes land in 16-byte-disjoint pieces under one VN; the
        chunk MAC must always cover the chunk's full current extent."""
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("f", 0x2000, 128, mac_granularity=64)
        data = random.Random(3).randbytes(128)
        store(eng, obj, 5, data[:32])
        mark = len(mem.log)
        store(eng, obj, 5, data[32:64], offset=32)
        # second piece completes chunk 0: write ct, fetch the earlier 32 bytes
        # back, then refresh the chunk MAC
        assert records(mem.log[mark:]) == [
            ("write", DATA, 0x2020, 32),
            ("read", DATA, 0x2000, 32),
            ("write", MAC_LINE, obj.mac_addr(0), MAC_BYTES),
        ]
        store(eng, obj, 5, data[64:], offset=64)
        out = eng.load(obj, 5, 0, obj.size)
        assert out == data

    def test_store_access_records_frozen(self, keys):
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0x1000, 2500)
        store(eng, obj, 1, bytes(2500))
        assert records(mem.log) == [
            ("write", DATA, 0x1000, 2500),
            ("write", MAC_LINE, 6608, 8),
            ("write", MAC_LINE, 6616, 8),
            ("write", MAC_LINE, 6624, 8),
        ]

    def test_load_access_records_frozen(self, keys):
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0x1000, 2500)
        store(eng, obj, 1, bytes(2500))
        mark = len(mem.log)
        eng.load(obj, 1, offset=1500, length=600)
        # chunks 1..2 cover [1024, 2500): one span read plus two MAC reads
        assert records(mem.log[mark:]) == [
            ("read", DATA, 0x1000 + 1024, 2500 - 1024),
            ("read", MAC_LINE, 6616, 8),
            ("read", MAC_LINE, 6624, 8),
        ]

    def test_zero_length_ops(self, keys):
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0, 64)
        store(eng, obj, 1, b"")
        assert mem.log == []
        store(eng, obj, 1, bytes(64))
        mark = len(mem.log)
        assert eng.load(obj, 1, offset=10, length=0) == b""
        assert len(mem.log) == mark

    def test_bounds_rejected(self, keys):
        eng, _ = make_engine(keys)
        obj = ObjectDescriptor("w", 0, 64)
        with pytest.raises(ConfigError):
            store(eng, obj, 1, bytes(65))
        with pytest.raises(ConfigError):
            store(eng, obj, 1, bytes(16), offset=-16)
        with pytest.raises(ConfigError):
            eng.load(obj, 1, offset=0, length=65)
        with pytest.raises(ConfigError):
            eng.load(obj, 1, offset=-1, length=4)

    def test_meta_overhead_frozen_ratio(self, keys):
        """One store plus one load of a k-sized object moves 16 meta bytes per
        2k data bytes: 0.78125% at the 1024-byte default granularity."""
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0, 1024)
        store(eng, obj, 1, bytes(1024))
        eng.load(obj, 1, 0, obj.size)
        data = sum(r.length for r in mem.log if r.klass == DATA)
        meta = sum(r.length for r in mem.log if r.klass in META_CLASSES)
        assert (data, meta) == (2048, 16)
        assert meta / data == 0.0078125

    def test_no_tree_or_vn_classes_ever(self, keys):
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0, 3000, mac_granularity=512)
        store(eng, obj, 1, bytes(3000))
        store(eng, obj, 2, bytes(100), offset=40)
        eng.load(obj, 2, offset=50, length=10)
        assert {r.klass for r in mem.log} == {DATA, MAC_LINE}

    def test_ciphertext_and_mac_placement(self, keys):
        """What lands in memory is exactly the counter-mode ciphertext and a
        MAC over that ciphertext bound to the chunk address and VN."""
        enc_key, mac_key = keys
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("w", 0x4000, 96, mac_granularity=64)
        data = random.Random(4).randbytes(96)
        store(eng, obj, 9, data)
        ct = mem.peek(0x4000, 96)
        assert ct == keystream_xor_at(enc_key, 0x4000, 9, 0, data)
        assert ct != data
        for c in range(2):
            cs, ce = obj.chunk_extent(c)
            want = compute_mac(mac_key, ct[cs:ce], 0x4000 + cs, 9)
            assert mem.peek(obj.mac_addr(c), MAC_BYTES) == want

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_roundtrip_property(self, keys, data):
        rng = data.draw(st.randoms(use_true_random=False))
        size = data.draw(st.integers(1, 192))
        off16 = data.draw(st.integers(0, 12)) * 16
        length = data.draw(st.integers(1, max(1, size - off16))) if off16 < size else 0
        eng, _ = make_engine(keys)
        obj = ObjectDescriptor("p", 0x800, size, mac_granularity=64)
        payload = bytes(rng.randrange(256) for _ in range(size))
        store(eng, obj, 6, payload)
        out = eng.load(obj, 6, 0, obj.size)
        assert out == payload
        if length and off16 + length <= size:
            sub = eng.load(obj, 6, offset=off16, length=length)
            assert sub == payload[off16 : off16 + length]


class TestLedgerShadow:
    def test_ledger_rejects_same_block_same_vn(self):
        # block 0 again under VN 2
        trace = one_object_trace(64, 64, [(WRITE, 2, 0, 16), (WRITE, 2, 8, 4)])
        with pytest.raises(
            SecurityInvariantFault, match=r"^event 1: counter reuse: cipher block 0x0 written"
        ):
            check_schedule(trace)

    def test_ledger_allows_new_vn_or_disjoint_blocks(self):
        ops = [
            (WRITE, 2, 0, 16),
            (WRITE, 2, 16, 16),  # next cipher block
            (WRITE, 3, 0, 16),  # same block, advanced VN
        ]
        check_schedule(one_object_trace(64, 64, ops))

    def test_ledger_direct(self):
        led = WriteLedger()
        led.record(0, 3, 7)
        led.record(4, 4, 7)
        led.record(0, 3, 8)
        with pytest.raises(SecurityInvariantFault):
            led.record(3, 5, 7)
        led = WriteLedger()
        led.record(3, 5, 7)

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 8), st.integers(1, 3)), max_size=30
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ledger_matches_pair_set(self, ops):
        led, pairs = WriteLedger(), set()
        for first, extra, vn in ops:
            blocks = range(first, first + extra + 1)
            repeated = next((b for b in blocks if (b, vn) in pairs), None)
            if repeated is None:
                led.record(first, first + extra, vn)
                pairs.update((b, vn) for b in blocks)
            else:
                with pytest.raises(
                    SecurityInvariantFault, match=f"block 0x{repeated * 16:x} written twice"
                ):
                    led.record(first, first + extra, vn)

    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 15), st.integers(1, 16), st.integers(1, 3)
            ),
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_shadow_matches_per_byte_vns(self, ops):
        b = TraceBuilder("shadow", mac_granularity=16)
        obj = b.alloc("x", 16)
        byte_vns = [None] * obj.size
        # Every update_i wraps ctr_i, which stays 1, so each write gets a
        # fresh ledger epoch and a VN may repeat: VN v is 256 | v.
        with patch.dict(COUNTERS, {"update_i": ("ctr_i", 1)}):
            b.update("update_i")
            for is_store, offset, length, v in ops:
                length = min(length, obj.size - offset)
                if is_store:
                    b.update("update_i")
                    b.write(obj, VnSource("feature", v), offset, length)
                    byte_vns[offset : offset + length] = [v] * length
                    continue
                b.read(obj, VnSource("feature", v), offset, length)
                end = offset + length
                bad = next((i for i in range(offset, end) if byte_vns[i] != v), None)
                if bad is None:
                    continue
                # the fault names the read and the lowest run of bytes that
                # share one wrong VN (None: never written)
                run_end = bad
                while run_end < end and byte_vns[run_end] == byte_vns[bad]:
                    run_end += 1
                at = len(b.trace.events) - 1
                with pytest.raises(
                    SecurityInvariantFault, match=rf"^event {at}: read of .*x\[{bad}:{run_end}\]"
                ):
                    check_schedule(b.trace)
                del b.trace.events[-1]
            check_schedule(b.trace)

    def test_shadow_rejects_stale_vn_read(self):
        trace = one_object_trace(64, 64, [(WRITE, 1, 0, 64), (WRITE, 2, 0, 64), (READ, 1, 0, 64)])
        with pytest.raises(
            SecurityInvariantFault,
            match=r"^event 2: read of x\[0:64\] under VN 1, but most recent write used VN 2",
        ):
            check_schedule(trace)

    def test_shadow_rejects_never_written(self):
        written = [(WRITE, 1, 0, 64)]
        with pytest.raises(SecurityInvariantFault, match=r"never-written bytes x\[64:128\]"):
            check_schedule(one_object_trace(128, 64, [*written, (READ, 1, 64, 64)]))
        with pytest.raises(SecurityInvariantFault, match=r"never-written bytes x\[64:128\]"):
            # spans written + unwritten
            check_schedule(one_object_trace(128, 64, [*written, (READ, 1, 0, 128)]))

    def test_shadow_partial_overwrite_history(self):
        history = [(WRITE, 1, 0, 128), (WRITE, 2, 48, 32)]
        # overwritten middle reads only under the new VN
        with pytest.raises(SecurityInvariantFault):
            check_schedule(one_object_trace(128, 16, [*history, (READ, 1, 48, 32)]))
        reads = [
            (READ, 2, 48, 32),
            # chunk-aligned epochs: untouched head/tail still read under VN 1
            (READ, 1, 0, 48),
            (READ, 1, 80, 48),
        ]
        check_schedule(one_object_trace(128, 16, [*history, *reads]))
        with pytest.raises(SecurityInvariantFault, match="^event 5: "):
            # mixed-VN span
            check_schedule(one_object_trace(128, 16, [*history, *reads, (READ, 2, 0, 128)]))

    def test_mixed_vn_chunk_retired_from_old_vn(self, keys):
        """A chunk MAC covers the whole chunk under its newest writer's VN, so
        a sub-chunk overwrite under a new VN makes even the surviving old
        bytes unverifiable under the old VN; per-range VN epochs must fall on
        chunk boundaries to stay independently readable."""
        eng, _ = make_engine(keys)
        obj = ObjectDescriptor("x", 0, 128, mac_granularity=128)
        store(eng, obj, 1, bytes(128))
        store(eng, obj, 2, bytes(32), offset=48)
        with pytest.raises(TamperDetected):
            eng.load(obj, 1, offset=0, length=48)


class TestDetection:
    def _stored(self, keys, size=128, k=64):
        eng, mem = make_engine(keys)
        obj = ObjectDescriptor("t", 0x3000, size, mac_granularity=k)
        data = random.Random(7).randbytes(size)
        store(eng, obj, 4, data)
        return eng, mem, obj, data

    def test_data_bitflip_detected(self, keys):
        eng, mem, obj, _ = self._stored(keys)
        mem.inject(BitFlip(0x3000 + 70, 5))
        with pytest.raises(TamperDetected) as exc:
            eng.load(obj, 4, 0, obj.size)
        assert exc.value.addr == 0x3000 + 64  # chunk base is reported

    def test_mac_bitflip_detected(self, keys):
        eng, mem, obj, _ = self._stored(keys)
        mem.inject(BitFlip(obj.mac_addr(0), 0))
        with pytest.raises(TamperDetected):
            eng.load(obj, 4, offset=0, length=64)

    def test_replay_detected(self, keys):
        eng, mem, obj, data = self._stored(keys)
        stale = mem.peek(obj.base, obj.end - obj.base)
        store(eng, obj, 5, data)  # fresh epoch of the same object
        mem.inject(Splice(obj.base, stale))
        with pytest.raises(TamperDetected):
            eng.load(obj, 5, 0, obj.size)

    def test_relocate_within_object_detected(self, keys):
        eng, mem, obj, _ = self._stored(keys)
        mem.inject(Relocate(obj.base, obj.base + 64, 64))
        mem.inject(Relocate(obj.mac_addr(0), obj.mac_addr(1), MAC_BYTES))
        with pytest.raises(TamperDetected):
            eng.load(obj, 4, offset=64, length=64)

    def test_splice_across_objects_detected(self, keys):
        eng, mem = make_engine(keys)
        a = ObjectDescriptor("a", 0x0, 64, mac_granularity=64)
        b = ObjectDescriptor("b", 0x10000, 64, mac_granularity=64)
        da = random.Random(8).randbytes(64)
        db = random.Random(9).randbytes(64)
        store(eng, a, 6, da)
        store(eng, b, 6, db)
        # graft a's ciphertext and MAC into b's slots: same VN, wrong address
        mem.inject(Splice(b.base, mem.peek(a.base, 64)))
        mem.inject(Splice(b.mac_addr(0), mem.peek(a.mac_addr(0), MAC_BYTES)))
        with pytest.raises(TamperDetected):
            eng.load(b, 6, 0, b.size)

    @pytest.mark.parametrize("flip_at", ["tag of chunk 1", "data of chunk 2"])
    def test_tampered_multi_chunk_load_stops_at_the_bad_chunk(self, keys, flip_at):
        """A load over four 64-byte chunks logs its span read, then one tag
        record per chunk up to and including the first bad one (none after
        it), computes one MAC per chunk checked and reports that chunk's base."""
        eng, mem, obj, _ = self._stored(keys, size=256)
        j = 1 if flip_at.startswith("tag") else 2
        at = obj.mac_addr(1) + 3 if j == 1 else obj.base + 2 * 64 + 9
        mem.inject(BitFlip(at, 6))
        mark = len(mem.log)
        with patch("mgxsim.mgx.compute_mac", wraps=compute_mac) as mac:
            with pytest.raises(TamperDetected) as exc:
                eng.load(obj, 4, offset=10, length=230)
        assert exc.value.addr == obj.base + j * 64
        assert mac.call_count == j + 1
        assert records(mem.log[mark:]) == [
            ("read", DATA, obj.base, 256),
            *(("read", MAC_LINE, obj.mac_addr(c), MAC_BYTES) for c in range(j + 1)),
        ]

    def test_untampered_loads_still_pass(self, keys):
        eng, mem, obj, data = self._stored(keys)
        out = eng.load(obj, 4, 0, obj.size)
        assert out == data


class TestCryptoOffIdentity:
    def test_access_streams_identical(self, keys):
        logs = []
        for crypto in (True, False):
            eng, mem = make_engine(keys, crypto=crypto)
            obj = ObjectDescriptor("w", 0x1000, 3000, mac_granularity=512)
            other = ObjectDescriptor("f", 0x8000, 700, mac_granularity=256)
            store(eng, obj, 1, bytes(3000))
            store(eng, other, 1, bytes(700))
            store(eng, obj, 2, bytes(600), offset=16)
            eng.load(obj, 2, offset=16, length=600)
            eng.load(other, 1, offset=128, length=300)
            logs.append([(r.op, r.klass, r.addr, r.length) for r in mem.log])
        assert logs[0] == logs[1]

    def test_crypto_off_payload_is_zeros(self, keys):
        eng, _ = make_engine(keys, crypto=False)
        obj = ObjectDescriptor("w", 0, 64, mac_granularity=64)
        store(eng, obj, 1, b"\xff" * 64)
        out = eng.load(obj, 1, 0, obj.size)
        assert out == bytes(64)
