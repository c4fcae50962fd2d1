"""Stored-VN scheme: geometry, cached counter tree, detection, oracle parity."""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

import mgxsim.baseline as baseline_module
import mgxsim.replay as replay_module
from baseline_oracle import BaselineOracle, oracle_for_trace
from mgxsim.baseline import (
    VN_LIMIT,
    BaselineConfig,
    BaselineGeometry,
    BaselineMee,
)
from mgxsim.crypto import compute_mac
from mgxsim.dram import BitFlip, PhysicalMemory, Splice
from mgxsim.errors import ConfigError, SecurityInvariantFault, TamperDetected
from mgxsim.mgx import ObjectDescriptor
from mgxsim.replay import replay
from mgxsim.workloads import cnn_inference_trace, cnn_training_trace, gact_trace, h264_trace

MB = 1 << 20


def make_engine(region_size=128 * MB, arity=8, cache=4096, *, crypto=True, mem=None):
    mem = mem or PhysicalMemory(capacity=1 << 40)
    eng = BaselineMee(
        BaselineConfig(region_size, arity, cache),
        mem,
        pytest.enc_key,
        pytest.mac_key,
        crypto=crypto,
    )
    return eng, mem


def _whole_region(eng):
    return ObjectDescriptor("region", 0, eng.geom.cfg.region_size, 64)


def write_block(eng, pa, plaintext):
    """Store the 64-byte block at `pa` through a region-wide object."""
    eng.store(_whole_region(eng), 0, pa, 64, lambda off, n: plaintext)


def read_block(eng, pa):
    """Load the 64-byte block at `pa` through a region-wide object."""
    return eng.load(_whole_region(eng), 0, pa, 64)


@pytest.fixture(autouse=True, scope="module")
def _stash_keys(enc_key, mac_key):
    pytest.enc_key = enc_key
    pytest.mac_key = mac_key
    yield
    del pytest.enc_key, pytest.mac_key


class TestConfigValidation:
    def test_arity_whitelist(self):
        with pytest.raises(ConfigError):
            BaselineConfig(arity=3)
        with pytest.raises(ConfigError):
            BaselineConfig(arity=16)

    def test_region_size_multiple_of_512(self):
        with pytest.raises(ConfigError):
            BaselineConfig(region_size=500)
        with pytest.raises(ConfigError):
            BaselineConfig(region_size=0)
        BaselineConfig(region_size=512)

    def test_cache_minimum(self):
        with pytest.raises(ConfigError):
            BaselineConfig(cache_bytes=32)

    def test_level_divisibility(self):
        # 96 blocks -> leaf count 12, not reducible by 8.
        with pytest.raises(ConfigError):
            BaselineGeometry(BaselineConfig(region_size=96 * 64))

    def test_metadata_must_fit_memory(self):
        with pytest.raises(ConfigError):
            make_engine(region_size=128 * MB, mem=PhysicalMemory(capacity=128 * MB))

    def test_metadata_inside_64_bit_addresses(self):
        # the log and the keystream counter block hold 64-bit addresses
        BaselineGeometry(BaselineConfig(region_size=1 << 63))
        with pytest.raises(ConfigError, match="past 2\\*\\*64"):
            BaselineGeometry(BaselineConfig(region_size=1 << 64))


class TestGeometryFrozen:
    """Hand-computed layout for the default 128 MiB / 8-ary configuration."""

    def test_128mb_layout(self):
        g = BaselineGeometry(BaselineConfig(128 * MB, 8, 4096))
        assert g.blocks == 2**21
        assert g.mac_lines == 2**18
        assert g.mac_base == 0x08000000
        assert g.level_counts == [262144, 32768, 4096, 512, 64, 8]
        assert g.level_bases == [
            0x09000000,
            0x0A000000,
            0x0A200000,
            0x0A240000,
            0x0A248000,
            0x0A249000,
        ]
        assert g.meta_end == 0x0A249200
        assert g.level_counts[-1] == 8

    def test_small_region_layout(self):
        g = BaselineGeometry(BaselineConfig(32768, 8, 1024))
        assert g.blocks == 512
        assert g.mac_base == 32768
        assert g.level_counts == [64, 8]
        assert g.level_bases == [32768 + 64 * 64, 32768 + 64 * 64 + 64 * 64]
        assert g.level_counts[-1] == 8

    def test_address_helpers(self):
        g = BaselineGeometry(BaselineConfig(128 * MB, 8, 4096))
        assert g.mac_slot(0) == (0x08000000, 0)
        assert g.mac_slot(13) == (0x08000000 + 64, 5)
        assert g.level_line_addr(0, 3) == 0x09000000 + 3 * 64

    @pytest.mark.parametrize("crypto", [True, False], ids=["crypto", "fast"])
    @pytest.mark.parametrize("arity", [4, 8])
    def test_counter_line_stored_format(self, arity, crypto):
        # After a flush, counter i of a leaf line sits big-endian at
        # [7i, 7i+7), the bytes up to 56 are zero, the line's MAC under its
        # parent counter is at [56, 63) (zero in fast mode) and byte 63 is
        # zero. Padding is not covered by the MAC: a padding byte flipped in
        # memory passes the next fill and is written back as zero.
        eng, mem = make_engine(region_size=32768, arity=arity, crypto=crypto)
        for b in range(arity):
            for _ in range(b):
                write_block(eng, b * 64, bytes(64))
        eng.flush()
        addr = eng.geom.level_line_addr(0, 0)

        def check(counters, pctr):
            raw = mem.peek(addr, 64)
            assert [raw[7 * i : 7 * i + 7] for i in range(arity)] == [
                c.to_bytes(7, "big") for c in counters
            ]
            assert raw[7 * arity : 56] == bytes(56 - 7 * arity) and raw[63] == 0
            mac = compute_mac(pytest.mac_key, raw[: 7 * arity], addr, pctr)[:7]
            assert raw[56:63] == (mac if crypto else bytes(7))

        check(list(range(arity)), pctr=1)
        for pad in [*range(7 * arity, 56), 63]:
            mem.inject(BitFlip(addr + pad, pad % 8))
        write_block(eng, 0, bytes(64))  # fills and verifies the leaf line
        eng.flush()
        check([1, *range(1, arity)], pctr=2)


class TestAccessPatterns:
    def test_cold_write_access_list_frozen(self):
        eng, mem = make_engine()
        write_block(eng, 0, bytes(64))
        got = [(r.op, r.klass, r.addr) for r in mem.log]
        assert got == [
            ("read", "tree_node", 0x0A249000),
            ("read", "tree_node", 0x0A248000),
            ("read", "tree_node", 0x0A240000),
            ("read", "tree_node", 0x0A200000),
            ("read", "tree_node", 0x0A000000),
            ("read", "vn_line", 0x09000000),
            ("write", "data", 0x00000000),
            ("read", "mac_line", 0x08000000),
        ]

    def test_warm_write_is_data_only(self):
        eng, mem = make_engine()
        write_block(eng, 0, bytes(64))
        mark = len(mem.log)
        write_block(eng, 0, bytes(64))
        assert [(r.op, r.klass) for r in mem.log[mark:]] == [("write", "data")]

    def test_warm_read_is_data_only(self):
        eng, mem = make_engine()
        write_block(eng, 0, bytes(64))
        mark = len(mem.log)
        read_block(eng, 0)
        assert [(r.op, r.klass) for r in mem.log[mark:]] == [("read", "data")]

    def test_neighbour_block_shares_leaf_and_mac_line(self):
        eng, mem = make_engine()
        write_block(eng, 0, bytes(64))
        mark = len(mem.log)
        write_block(eng, 64, bytes(64))  # same leaf line, same MAC line
        assert [(r.op, r.klass) for r in mem.log[mark:]] == [("write", "data")]

    def test_block_outside_region_rejected(self):
        # nothing outside the region is protected, so nothing passes there
        eng, mem = make_engine(region_size=32768)
        for base, size in ((32768, 64), (1 << 30, 64), (32768 - 64, 128)):
            obj = ObjectDescriptor("o", base, size, 64)
            with pytest.raises(ConfigError, match="inside the protected region"):
                eng.store(obj, 0, 0, size, lambda off, n: b"z" * n)
            with pytest.raises(ConfigError, match="inside the protected region"):
                eng.load(obj, 0, 0, size)
        # an offset of -64 from base 0 is a whole, aligned block below the
        # region; a write there would bump the line below the counter lines
        obj = ObjectDescriptor("o", 0, 64, 64)
        with pytest.raises(ConfigError, match="inside the protected region"):
            eng.store(obj, 0, -64, 64, lambda off, n: b"z" * n)
        with pytest.raises(ConfigError, match="inside the protected region"):
            eng.load(obj, 0, -64, 64)
        assert mem.log == []

    def test_unaligned_object_rejected(self):
        eng, mem = make_engine()
        obj = ObjectDescriptor("o", 16, 64, 64)
        with pytest.raises(ConfigError):
            eng.store(obj, 0, 0, 64, lambda off, n: bytes(n))
        with pytest.raises(ConfigError):
            eng.load(obj, 0, 0, 64)
        assert mem.log == []

    def test_cache_never_exceeds_capacity(self):
        eng, _ = make_engine(region_size=65536, arity=4, cache=512)
        cap = 512 // 64
        rng = random.Random(3)
        for _ in range(500):
            write_block(eng, rng.randrange(1024) * 64, bytes(64))
            assert len(eng._cache) <= cap
        eng.flush()
        assert len(eng._cache) == 0

    def test_flush_writes_back_all_dirty_state(self):
        eng, mem = make_engine(region_size=32768, cache=1 << 20)
        for blk in range(16):
            write_block(eng, blk * 64, bytes(64))
        mark = len(mem.log)
        eng.flush()
        wrote = {(r.klass, r.addr) for r in mem.log[mark:] if r.op == "write"}
        # two leaf lines (16 blocks / 8), their parent chain and two MAC lines
        assert ("vn_line", 32768 + 64 * 64) in wrote
        assert ("mac_line", 32768) in wrote
        assert any(k == "tree_node" for k, _ in wrote)
        assert all(r.op == "write" for r in mem.log[mark:])


class TestObjectInterface:
    def test_partial_line_store_writes_whole_lines_of_payload(self):
        eng, mem = make_engine(region_size=32768)
        obj = ObjectDescriptor("o", 128, 256, 64)
        payload = random.Random(4).randbytes(256)
        asked = []

        def plaintext(off, n):
            asked.append((off, n))
            return payload[off : off + n]

        eng.store(obj, 0, 70, 20, plaintext)  # bytes 70..89 sit in line 64..127
        assert asked == [(64, 64)]
        assert [(r.op, r.klass, r.addr) for r in mem.log if r.klass == "data"] == [
            ("write", "data", 128 + 64)
        ]
        assert eng.load(obj, 0, 70, 20) == payload[70:90]
        assert eng.load(obj, 0, 64, 64) == payload[64:128]

    def test_objects_must_be_line_aligned(self):
        with pytest.raises(ConfigError):
            BaselineMee(
                BaselineConfig(32768),
                PhysicalMemory(capacity=1 << 20),
                pytest.enc_key,
                pytest.mac_key,
                objects=[ObjectDescriptor("o", 16, 64, 64)],
            )

    def test_objects_must_lie_in_region(self):
        def engine(base, size):
            return BaselineMee(
                BaselineConfig(32768),
                PhysicalMemory(capacity=1 << 20),
                pytest.enc_key,
                pytest.mac_key,
                objects=[ObjectDescriptor("o", base, size, 64)],
            )

        engine(32768 - 128, 128)  # ends exactly at the region's end
        for base, size in ((32768 - 64, 128), (32768, 64), (1 << 30, 64)):
            with pytest.raises(ConfigError, match="past the"):
                engine(base, size)


class TestDetection:
    def _flushed_engine(self, region=32768, arity=8, cache=1024):
        eng, mem = make_engine(region_size=region, arity=arity, cache=cache)
        self.data = bytes(range(256)) * 0  # placeholder, set below
        payload = random.Random(0).randbytes(64)
        write_block(eng, 0, payload)
        eng.flush()
        eng2, _ = make_engine(region_size=region, arity=arity, cache=cache, mem=mem)
        eng2.root.body[:] = eng.root.body
        return eng2, mem, payload

    def test_read_of_never_written_block(self):
        # VN 0 on a read comes from the schedule, not from tampering: a
        # tampered counter line fails its own check before its VN is used
        eng, _, _ = self._flushed_engine()
        with pytest.raises(SecurityInvariantFault, match=r"never-written block \(addr=0x240\)"):
            read_block(eng, 64 * 9)  # different leaf line, VN still 0

    def test_data_bitflip_detected(self):
        eng, mem, _ = self._flushed_engine()
        mem.inject(BitFlip(0, 3))
        with pytest.raises(TamperDetected, match="data block MAC"):
            read_block(eng, 0)

    def test_mac_line_bitflip_detected(self):
        eng, mem, _ = self._flushed_engine()
        mem.inject(BitFlip(32768, 0))  # first data-MAC tag byte
        with pytest.raises(TamperDetected, match="data block MAC"):
            read_block(eng, 0)

    def test_counter_line_bitflip_detected(self):
        eng, mem, _ = self._flushed_engine()
        leaf_addr = eng.geom.level_line_addr(0, 0)
        mem.inject(BitFlip(leaf_addr, 1))
        with pytest.raises(TamperDetected, match="counter line MAC"):
            read_block(eng, 0)

    def test_counter_line_replay_detected(self):
        region, arity, cache = 32768, 8, 1024
        eng, mem = make_engine(region_size=region, arity=arity, cache=cache)
        write_block(eng, 0, b"v1" * 32)
        eng.flush()
        leaf_addr = eng.geom.level_line_addr(0, 0)
        stale = mem.peek(leaf_addr, 64)
        write_block(eng, 0, b"v2" * 32)
        eng.flush()
        mem.inject(Splice(leaf_addr, stale))
        eng2, _ = make_engine(region_size=region, arity=arity, cache=cache, mem=mem)
        eng2.root.body[:] = eng.root.body
        with pytest.raises(TamperDetected, match="counter line MAC"):
            read_block(eng2, 0)

    def test_stale_root_rejects_written_back_lines(self):
        # A fresh engine with an all-zero root must refuse any metadata that
        # claims to be the 0x00 cold fill but is not.
        eng, mem, _ = self._flushed_engine()
        eng.root.body[:] = bytes(64)
        with pytest.raises(TamperDetected, match="before first writeback"):
            read_block(eng, 0)

    def test_cold_line_garbage_rejected(self):
        eng, mem = make_engine(region_size=32768)
        leaf_addr = eng.geom.level_line_addr(0, 0)
        mem.poke(leaf_addr, b"\x01" + bytes(63))
        with pytest.raises(TamperDetected, match="before first writeback"):
            write_block(eng, 0, bytes(64))

    @pytest.mark.parametrize(
        "case,message",
        [
            ("flipped", "data block MAC"),
            ("unwritten", "never-written"),
            ("unwritten_first", "never-written"),
        ],
    )
    def test_detection_inside_a_run_leaves_the_per_block_log(self, case, message, monkeypatch):
        # A load moves a run whose leaf and MAC lines are both cached as one
        # access. A check failing inside it must leave the log (and the
        # cache order) that block-by-block reads leave: every block up to and
        # including a MAC mismatch; none from a never-written block on, which
        # still gets the leaf-line touch of its per-block hit and no more. So
        # a never-written block that opens a run leaves the MAC line where it
        # was. The blocks verified before the failure are decrypted, as block
        # by block.
        obj = ObjectDescriptor("o", 0, 24 * 64)  # three runs of eight blocks
        bad = {"flipped": 11, "unwritten": 13, "unwritten_first": 8}[case]
        engines = []
        for _ in range(2):
            eng, mem = make_engine(region_size=32768, arity=8, cache=4096)
            for b in range(24):
                if case == "flipped" or b != bad:
                    write_block(eng, b * 64, random.Random(b).randbytes(64))
            if case == "flipped":
                mem.inject(BitFlip(bad * 64 + 17, 2))
            engines.append((eng, mem))
        (whole, whole_mem), (single, single_mem) = engines
        decrypted = []
        xor = baseline_module.keystream_xor
        monkeypatch.setattr(
            baseline_module,
            "keystream_xor",
            lambda key, pa, vn, data: decrypted.append(len(data)) or xor(key, pa, vn, data),
        )
        error = TamperDetected if case == "flipped" else SecurityInvariantFault
        where = rf"\(addr=0x{bad * 64:x}\)"
        with pytest.raises(error, match=message + ".*" + where):
            whole.load(obj, 0, 0, obj.size)
        by_load_bytes = sum(decrypted)
        decrypted.clear()
        with pytest.raises(error, match=message + ".*" + where):
            for b in range(24):
                read_block(single, b * 64)
        assert by_load_bytes == sum(decrypted) == bad * 64  # the blocks before `bad`
        assert list(whole_mem.log) == list(single_mem.log)
        assert list(whole._cache) == list(single._cache)

    def test_run_after_a_fault_moves_as_blocks_do(self):
        # A read of a never-written block touches only its leaf line, so the
        # leaf can outlive the MAC line of its own run. A later load of that
        # run must still fill the MAC line after the first block's data, as
        # block-by-block reads do, not move the run as one access.
        seen = []
        for whole in (True, False):
            eng, mem = make_engine(region_size=32768, arity=8, cache=256)
            for b in (1, 2, 3):
                write_block(eng, b * 64, bytes(64))
            with pytest.raises(SecurityInvariantFault):
                read_block(eng, 0)
            write_block(eng, 4096, bytes(64))  # evicts the MAC line, not the leaf
            assert eng.geom.level_line_addr(0, 0) in eng._cache
            assert eng.geom.mac_slot(0)[0] not in eng._cache
            mark = len(mem.log)
            if whole:
                assert eng.load(_whole_region(eng), 0, 64, 3 * 64) == bytes(3 * 64)
            else:
                for b in (1, 2, 3):
                    read_block(eng, b * 64)
            seen.append((mem.log[mark:], list(eng._cache)))
        assert seen[0] == seen[1]

    def test_engine_rejection_names_the_address(self):
        eng, mem, _ = self._flushed_engine()
        mem.inject(BitFlip(0, 3))
        with pytest.raises(TamperDetected) as exc:
            read_block(eng, 0)
        assert exc.value.addr == 0


class TestRekey:
    LAST = (VN_LIMIT - 1).to_bytes(7, "big")
    ONE = (1).to_bytes(7, "big")

    def test_leaf_counter_wrap_counts_rekey(self):
        eng, _ = make_engine(region_size=32768)
        write_block(eng, 0, bytes(64))
        leaf = eng._cache[eng.geom.level_line_addr(0, 0)]
        leaf.body[0:7] = self.LAST
        write_block(eng, 0, bytes(64))
        assert eng.rekey_events == 1
        assert leaf.body[0:7] == self.ONE

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a counter wrap reuses a (key, address, VN) keystream",
    )
    def test_leaf_wrap_never_repeats_a_keystream(self):
        eng, mem = make_engine(region_size=32768)
        write_block(eng, 0, b"p" * 64)
        before = mem.peek(0, 64)
        eng._cache[eng.geom.level_line_addr(0, 0)].body[0:7] = self.LAST
        write_block(eng, 0, b"p" * 64)  # the slot wraps back to VN 1
        assert eng.rekey_events == 1
        assert mem.peek(0, 64) != before

    def test_parent_counter_wrap_on_writeback(self):
        eng, _ = make_engine(region_size=32768)
        write_block(eng, 0, bytes(64))
        # pretend the leaf line has been written back VN_LIMIT-1 times, then
        # write it back once more
        addr = eng.geom.level_line_addr(0, 0)
        parent = eng._cache[eng.geom.level_line_addr(1, 0)]
        assert eng._parent(0, 0) is parent and not parent.dirty
        parent.body[0:7] = self.LAST
        eng._writeback(addr, eng._cache.pop(addr))
        assert eng.rekey_events == 1
        assert parent.body[0:7] == self.ONE and parent.dirty

    def test_root_counter_wrap(self):
        # region 32768 has stored levels [64, 8]; level 1 is topmost stored,
        # so its parent is the on-chip root line
        eng, _ = make_engine(region_size=32768)
        assert eng._parent(1, 0) is eng.root
        eng.root.body[0:7] = self.LAST
        assert eng._bump(eng._parent(1, 0).body, 0) == 1
        assert eng.root.body[0:7] == self.ONE
        assert eng.rekey_events == 1


class TestCryptoOffIdentity:
    def test_fast_mode_issues_identical_stream(self):
        ops = []
        rng = random.Random(11)
        written = set()
        for _ in range(300):
            blk = rng.randrange(512)
            if blk in written and rng.random() < 0.5:
                ops.append(("r", blk * 64))
            else:
                ops.append(("w", blk * 64))
                written.add(blk)
        streams = []
        for crypto in (True, False):
            eng, mem = make_engine(region_size=32768, cache=512, crypto=crypto)
            for op, pa in ops:
                if op == "w":
                    write_block(eng, pa, bytes(64))
                else:
                    read_block(eng, pa)
            eng.flush()
            streams.append([(r.op, r.klass, r.addr, r.length) for r in mem.log])
        assert streams[0] == streams[1]


class TestOracleParity:
    """The engine's access stream must match the independent cache model on
    arbitrary op mixes, not just the streaming shapes the acceptance run uses."""

    CONFIGS = [
        (32 << 10, 8, 1024),
        (64 << 10, 4, 512),
        (16 << 10, 2, 256),
        (1 << 20, 8, 4096),
        (32 << 10, 8, 64),  # single-line cache: maximal churn
    ]

    @pytest.mark.parametrize("region,arity,cache", CONFIGS)
    def test_random_mix_exact_match(self, region, arity, cache):
        for seed in range(3):
            rng = random.Random(seed)
            nblk = region // 64
            written = set()
            ops = []
            for _ in range(300):
                blk = rng.randrange(nblk)
                if blk in written and rng.random() < 0.5:
                    ops.append(("r", blk * 64))
                else:
                    ops.append(("w", blk * 64))
                    written.add(blk)
            eng, mem = make_engine(region_size=region, arity=arity, cache=cache, crypto=False)
            oracle = BaselineOracle(region, arity, cache)
            for op, pa in ops:
                if op == "w":
                    write_block(eng, pa, bytes(64))
                    oracle.write(pa)
                else:
                    read_block(eng, pa)
                    oracle.read(pa)
            eng.flush()
            oracle.flush()
            got = [(r.op, r.klass, r.addr, r.length) for r in mem.log]
            want = [tuple(a) for a in oracle.accesses]
            assert got == want, f"divergence for seed {seed}"


class TestObjectOracleParity:
    """store/load move whole runs of blocks that share their metadata lines;
    the stream must still equal the oracle's, block by block as in
    `oracle_for_trace`. With the 64-byte cache every run falls back to the
    per-block path. With the 256-byte arity-2 and the 192-byte arity-4
    caches, a run's first MAC fill sometimes evicts the leaf line the block
    just used, and only that run falls back. In these op mixes the 128-byte
    cache never drops either line."""

    CONFIGS = TestOracleParity.CONFIGS + [(32 << 10, 8, 128), (1 << 20, 4, 192)]

    @staticmethod
    def ops(region, seed):
        """Random store/load ranges over three objects, unaligned and up to
        48 lines long; a load stays inside an earlier store's lines."""
        q = region // 4
        objs = [
            ObjectDescriptor("a", 0, q + 37),
            ObjectDescriptor("b", 2 * q, q - 5),
            ObjectDescriptor("c", 3 * q, q),
        ]
        rng = random.Random(seed)
        stored, out = [], []
        for _ in range(120):
            if stored and rng.random() < 0.5:
                obj, a0, a1 = rng.choice(stored)
                off = rng.randrange(a0, min(a1, obj.size))
                n = rng.randrange(1, min(a1, obj.size) - off + 1)
                out.append(("load", obj, off, n))
            else:
                obj = rng.choice(objs)
                off = rng.randrange(obj.size)
                n = rng.randrange(1, min(obj.size - off, 48 * 64) + 1)
                out.append(("store", obj, off, n))
                stored.append((obj, off // 64 * 64, -(-(off + n) // 64) * 64))
        return objs, out

    @pytest.mark.parametrize("region,arity,cache", CONFIGS)
    def test_random_ranges_exact_match(self, region, arity, cache):
        for seed in range(3):
            objs, ops = self.ops(region, seed)
            eng, mem = make_engine(region_size=region, arity=arity, cache=cache, crypto=False)
            oracle = BaselineOracle(region, arity, cache)
            for op, obj, off, n in ops:
                first = obj.base + off // 64 * 64
                for pa in range(first, obj.base + off + n, 64):
                    (oracle.write if op == "store" else oracle.read)(pa)
                if op == "store":
                    eng.store(obj, 0, off, n, lambda o, k: bytes(k))
                else:
                    assert eng.load(obj, 0, off, n) == bytes(n)
            eng.flush()
            oracle.flush()
            got = [(r.op, r.klass, r.addr, r.length) for r in mem.log]
            assert got == [tuple(a) for a in oracle.accesses], f"divergence for seed {seed}"

    @pytest.mark.parametrize("region,arity,cache", CONFIGS)
    def test_random_ranges_round_trip(self, region, arity, cache):
        objs, ops = self.ops(region, 7)
        eng, mem = make_engine(region_size=region, arity=arity, cache=cache)
        rng = random.Random(8)
        shadow = {o.obj_id: bytearray(-(-o.size // 64) * 64) for o in objs}

        def plaintext(obj, off, k):
            data = rng.randbytes(k)
            shadow[obj.obj_id][off : off + k] = data
            return data

        for op, obj, off, n in ops:
            if op == "store":
                eng.store(obj, 0, off, n, lambda o, k, obj=obj: plaintext(obj, o, k))
            else:
                assert eng.load(obj, 0, off, n) == shadow[obj.obj_id][off : off + n]
        eng.flush()
        # the crypto-off engine issues the same stream
        off_eng, off_mem = make_engine(region_size=region, arity=arity, cache=cache, crypto=False)
        for op, obj, off, n in ops:
            if op == "store":
                off_eng.store(obj, 0, off, n, lambda o, k: bytes(k))
            else:
                off_eng.load(obj, 0, off, n)
        off_eng.flush()
        assert off_mem.log == list(mem.log)


class TestWritebackParentFill:
    """A write-back whose parent line is not cached fills it, with the line
    registered as in flight. On ResNet-50 nearly every write-back finds its
    parent cached, so this replays an H.264 trace under a two-line arity-2
    cache, where the parent fill is the common case."""

    def test_stream_and_data_with_parent_fills(self, monkeypatch):
        trace = h264_trace("IBPB" * 2, frame_bytes=4096)
        cfg = BaselineConfig(1 << 14, 2, 128)
        monkeypatch.setattr(replay_module, "baseline_config", lambda *args: cfg)
        in_fill = []  # _line calls made while a write-back fills its parent
        line = BaselineMee._line

        def counting_line(self, level, index):
            if self._wb_inflight:
                in_fill.append(level)
            return line(self, level, index)

        monkeypatch.setattr(BaselineMee, "_line", counting_line)
        res = replay(trace, "baseline", payload_mode="verify")
        assert res.clean
        assert in_fill
        want = oracle_for_trace(trace, cfg.region_size, cfg.arity, cfg.cache_bytes)
        assert list(res.log) == [tuple(a) for a in want]


class TestRunCounters:
    """A held run's counters are bumped with one add over their packed
    bytes, and searched for a never-written one with one find."""

    @pytest.mark.parametrize("crypto", [True, False], ids=["crypto", "fast"])
    @pytest.mark.parametrize(
        "preset",
        [
            {3: VN_LIMIT - 1, 5: VN_LIMIT - 2, 6: 0xFF << 48},  # slot 3 wraps
            {0: (1 << 48) - 1, 4: (1 << 55) - 1, 7: 12345},  # carries inside slots
        ],
        ids=["wrap", "no-wrap"],
    )
    def test_run_bump_matches_per_slot_bumps(self, crypto, preset):
        eng, _ = make_engine(region_size=32768, crypto=crypto)
        region = _whole_region(eng)
        eng.store(region, 0, 0, 8 * 64, lambda o, n: bytes(n))
        leaf = eng._cache[eng.geom.level_line_addr(0, 0)]
        for slot, value in preset.items():
            leaf.body[slot * 7 : slot * 7 + 7] = value.to_bytes(7, "big")
        want, ref = leaf.body[:], make_engine(region_size=32768, crypto=crypto)[0]
        for slot in range(8):
            ref._bump(want, slot)
        data = random.Random(3).randbytes(8 * 64)
        eng.store(region, 0, 0, 8 * 64, lambda o, n: data)  # one held run of 8
        assert leaf.body == want
        assert eng.rekey_events == ref.rekey_events == (VN_LIMIT - 1 in preset.values())
        assert eng.load(region, 0, 0, 8 * 64) == (data if crypto else bytes(8 * 64))

    def test_unaligned_zero_bytes_are_not_a_never_written_counter(self):
        eng, _ = make_engine(region_size=32768, crypto=False)
        region = _whole_region(eng)
        eng.store(region, 0, 0, 2 * 64, lambda o, n: bytes(n))
        leaf = eng._cache[eng.geom.level_line_addr(0, 0)]
        # counters 256 and 1: seven zero bytes from byte 6 to byte 12
        leaf.body[0:14] = (256).to_bytes(7, "big") + (1).to_bytes(7, "big")
        assert eng.load(region, 0, 0, 2 * 64) == bytes(128)  # one held run of 2
        leaf.body[7:14] = bytes(7)
        with pytest.raises(SecurityInvariantFault, match="addr=0x40"):
            eng.load(region, 0, 0, 2 * 64)


class TestRoundTrip:
    @pytest.mark.parametrize("region,arity,cache", TestOracleParity.CONFIGS)
    def test_write_read_many_blocks_with_eviction_and_restart(self, region, arity, cache):
        # with crypto on, every read checks the counter values and MACs that
        # the shared line fill and write-back carried through memory
        eng, mem = make_engine(region_size=region, arity=arity, cache=cache)
        rng = random.Random(5)
        shadow = {}
        for _ in range(800):
            blk = rng.randrange(region // 64)
            if blk in shadow and rng.random() < 0.5:
                pt = read_block(eng, blk * 64)
                assert pt == shadow[blk]
            else:
                data = rng.randbytes(64)
                write_block(eng, blk * 64, data)
                shadow[blk] = data
        eng.flush()
        # Cold restart on the same memory: only the on-chip root carries over.
        eng2, _ = make_engine(region_size=region, arity=arity, cache=cache, mem=mem)
        eng2.root.body[:] = eng.root.body
        for blk, data in shadow.items():
            pt = read_block(eng2, blk * 64)
            assert pt == data

    def test_ciphertext_differs_from_plaintext_and_across_rewrites(self):
        eng, mem = make_engine(region_size=32768)
        data = b"\xAA" * 64
        write_block(eng, 0, data)
        ct1 = mem.peek(0, 64)
        write_block(eng, 0, data)
        ct2 = mem.peek(0, 64)
        assert ct1 != data and ct2 != data
        assert ct1 != ct2  # VN bump refreshes the keystream


class TestFrozenBytes:
    """The access log and memory contents after four small replays under
    `baseline` and four under `mgx`, as sha256 digests frozen from a
    known-good build: a change to how an engine holds its metadata or moves
    its tags must leave both byte for byte. Each record is hashed packed
    `>BQQ` (kind code, address, length) and each non-zero page with its
    number, so page allocation order does not matter."""

    DIGESTS = {
        "h264": "0bb671c846694338fe51249522002ab6a631bdcb5265bf793e6586146d8fd3f0",
        "gact": "45a9d390247e233ce71b293985f11aa73d04d489e6a0eff8d5122bd2ce52fa14",
        "lenet-training": "2adf9c9f414b8813c1170fe027224fcd6e4e6a0a23ee91fa23607340742b8720",
        "micro": "b705b6b6224f2d4863825b1d657af1e157b9fbb67b92aa367b4981d290e8829f",
        "mgx-h264": "4c7138524c204cb4c2805f6f041ddd67aa0213664472ed8be3a43e00b1736a5a",
        "mgx-gact": "1f1b3576116c559fe2b3baeb4b57bbfce36dc44d89a5146add4ec1bed0b7e2ba",
        "mgx-lenet-training": "a35735eda97b7706995fb8eb5c91160b59f001c957440c9ec8441475b09059c6",
        "mgx-micro": "19f6cb5b59fc5ffa1da50ac48a69f4e7022588cd91b695402b25a81a21ed4920",
    }

    @staticmethod
    def digest(res) -> str:
        h = hashlib.sha256()
        log = res.log
        for code, addr, length in zip(log.codes, log.addrs, log.lengths):
            h.update(struct.pack(">BQQ", code, addr, length))
        for n, page in sorted(res.memory._pages.items()):
            if any(page):
                h.update(struct.pack(">Q", n) + page)
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_replay_bytes_frozen(self, case, micro_graph, lenet_graph):
        small_gact = dict(
            batches=1, queries_per_batch=2, reference_bytes=1 << 14,
            seed_table_bytes=1 << 12, pos_table_bytes=1 << 13,
        )
        scheme = "mgx" if case.startswith("mgx-") else "baseline"
        res = {
            "h264": lambda: replay(h264_trace("IBPB" * 2, frame_bytes=4096), scheme,
                                   payload_mode="verify", cache_kb=1, tree_arity=4),
            "gact": lambda: replay(gact_trace(**small_gact), scheme,
                                   payload_mode="verify", cache_kb=1, tree_arity=2),
            "lenet-training": lambda: replay(cnn_training_trace(lenet_graph), scheme,
                                             payload_mode="verify", tree_arity=2),
            "micro": lambda: replay(cnn_inference_trace(micro_graph, 2), scheme),
        }[case.removeprefix("mgx-")]()
        assert res.clean
        assert self.digest(res) == self.DIGESTS[case]
