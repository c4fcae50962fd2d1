"""Performance model: per-group cost arithmetic, orderings, CSV output.

The synthetic fixture's expected cycle counts were computed by hand from the
two published group formulas before the assertions were first run:

    background:  t = max(c/mpc, (r+w)/BW + L)
    synchronous: t = max(c/mpc, r/BW + L) + w/BW

with BW = 8 B/cycle (one channel), L = 100, mpc = 2048.
"""

from __future__ import annotations

import csv
import dataclasses
import functools

import pytest

import mgxsim.config
from mgxsim.config import ExperimentConfig, run_experiment
from mgxsim.dram import DATA, MAC_LINE, VN_LINE, BitFlip, PhysicalMemory
from mgxsim.errors import ConfigError, TamperDetected, VerifyMismatch
from mgxsim.perf import (
    ComputeModel,
    DramModel,
    ProtectionStats,
    cost_groups,
    evaluate,
    stats_row,
    write_stats_csv,
)
from mgxsim.replay import ReplayResult, replay
from mgxsim.workloads import Trace, VnSource, cnn_inference_trace, gact_trace, h264_trace
from mgxsim.workloads.trace import TraceBuilder


# The stats CSV's columns, in order, frozen: `stats_row` is their one source.
STATS_COLUMNS = [
    "scheme",
    "workload",
    "param",
    "value",
    "data_bytes",
    "meta_bytes",
    "traffic_increase",
    "est_time",
]


def synthetic_result() -> ReplayResult:
    """Four groups: mixed, write-only, compute-bound, and compute-only. The
    records go through PhysicalMemory and the group totals are recorded the
    way `replay` records them."""
    trace = Trace("synthetic")
    trace.compute_macs = {0: 4096.0, 1: 0.0, 2: 2_048_000.0, 7: 8192.0}
    mem = PhysicalMemory(1 << 20)
    res = ReplayResult("none", "fast", trace, mem, mem.log, completed=True)
    res.mark_group(0)
    mem.read(0x000, 1024, DATA)
    mem.write(0x400, bytes(512), DATA)
    res.mark_group(1)
    mem.write(0x600, bytes(2048), DATA)
    res.mark_group(2)
    mem.write(0xE00, bytes(4096), DATA)
    res.finish_groups()
    assert res.group_spans == [(0, 0, 2), (1, 2, 3), (2, 3, 4)]
    return res


def stats_from_log(log) -> ProtectionStats:
    """Stats of any sequence of records, walked one by one."""
    s = ProtectionStats()
    for rec in log:
        d = s.read_bytes if rec.op == "read" else s.write_bytes
        d[rec.klass] = d.get(rec.klass, 0) + rec.length
    return s


def walked_group_bytes(res: ReplayResult) -> list[tuple[int, int, int]]:
    """(group, read bytes, write bytes) of every costed group, summed record
    by record over the log spans."""
    traffic = {g: [0, 0] for g in res.trace.compute_macs}
    for g, start, end in res.group_spans:
        rw = traffic.setdefault(g, [0, 0])
        for rec in res.log[start:end]:
            rw[rec.op != "read"] += rec.length
    return [(g, r, w) for g, (r, w) in sorted(traffic.items())]


class TestModels:
    def test_dram_validation(self):
        with pytest.raises(ConfigError):
            DramModel(channels=0)
        with pytest.raises(ConfigError):
            DramModel(bytes_per_cycle_per_channel=0)

    def test_bandwidth(self):
        assert DramModel(channels=4, bytes_per_cycle_per_channel=8.0).bandwidth == 32.0

    def test_compute_validation(self):
        with pytest.raises(ConfigError):
            ComputeModel(macs_per_cycle=0)


class TestProtectionStats:
    def test_from_log_frozen_counts(self):
        mem = PhysicalMemory(1 << 20)
        res = ReplayResult("none", "fast", Trace("t"), mem, mem.log, completed=True)
        res.mark_group(0)
        mem.read(0, 64, DATA)
        mem.read(64, 64, DATA)
        mem.write(0, bytes(128), DATA)
        mem.read(4096, 64, VN_LINE)
        mem.write(8192, bytes(8), MAC_LINE)
        res.finish_groups()
        s = ProtectionStats.of_replay(res)
        assert s.read_bytes == {DATA: 128, VN_LINE: 64}
        assert s.write_bytes == {DATA: 128, MAC_LINE: 8}
        assert s.data_bytes == 256
        assert s.meta_bytes == 72
        assert s.total_bytes == 328
        assert stats_from_log(mem.log) == s

    def test_empty_log(self):
        s = ProtectionStats.of_replay(replay(Trace("empty"), "none"))
        assert s == stats_from_log([]) and s.total_bytes == 0


class TestGroupCosts:
    def test_background_mode_frozen(self):
        res = synthetic_result()
        costs = cost_groups(res, DramModel(), ComputeModel())
        assert [c.group for c in costs] == [0, 1, 2, 7]
        g0, g1, g2, g7 = costs
        # g0: cc = 4096/2048 = 2; mem = 1536/8 + 100 = 292
        assert (g0.read_bytes, g0.write_bytes) == (1024, 512)
        assert g0.compute_cycles == 2.0
        assert g0.mem_cycles == g0.cycles == 292.0
        # g1: pure writes, 2048/8 + 100
        assert g1.cycles == 356.0
        # g2: compute-bound: cc = 1000 > 4096/8 + 100 = 612
        assert g2.compute_cycles == 1000.0 and g2.cycles == 1000.0
        # g7: no traffic at all, still pays the fixed latency
        assert (g7.read_bytes, g7.write_bytes) == (0, 0)
        assert g7.cycles == 100.0
        assert evaluate(res).est_time == 1748.0

    def test_synchronous_mode_frozen(self):
        res = synthetic_result()
        dram = DramModel(background_writes=False)
        costs = cost_groups(res, dram, ComputeModel())
        g0, g1, g2, g7 = costs
        # g0: max(2, 1024/8 + 100) + 512/8 = 228 + 64
        assert g0.cycles == 292.0
        assert g1.cycles == 356.0
        # g2: writes no longer hide behind compute: 1000 + 4096/8
        assert g2.cycles == 1512.0
        assert g7.cycles == 100.0
        assert evaluate(res, dram).est_time == 2260.0

    def test_background_never_slower_than_sync(self, micro_graph):
        for scheme in ("none", "mgx", "baseline"):
            res = replay(cnn_inference_trace(micro_graph, 2), scheme)
            bg = cost_groups(res, DramModel())
            sync = cost_groups(res, DramModel(background_writes=False))
            assert len(bg) == len(sync)
            for b, s in zip(bg, sync):
                assert b.cycles <= s.cycles + 1e-9

    def test_more_channels_never_slower(self, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 2), "baseline")
        times = [
            evaluate(res, DramModel(channels=ch)).est_time for ch in (1, 2, 4)
        ]
        assert times[0] >= times[1] >= times[2]

    def test_larger_bandwidth_converges_to_compute(self):
        res = synthetic_result()
        t = evaluate(res, DramModel(bytes_per_cycle_per_channel=1e12)).est_time
        # every group collapses to max(compute, latency)
        assert t == pytest.approx(100.0 + 100.0 + 1000.0 + 100.0)


class TestTotalsEqualWalk:
    """Stats and group costs come from the byte totals recorded at group
    boundaries; they must equal a record-by-record walk of the log."""

    @staticmethod
    def check(res: ReplayResult):
        sim = evaluate(res)
        assert sim.stats == stats_from_log(res.log)
        got = [(c.group, c.read_bytes, c.write_bytes) for c in sim.groups]
        assert got == walked_group_bytes(res)
        # evaluate reads the recorded totals only, never the log
        blind = evaluate(dataclasses.replace(res, log=None))
        assert (blind.stats, blind.groups, blind.est_time, blind.traffic_increase) == (
            sim.stats, sim.groups, sim.est_time, sim.traffic_increase
        )

    @pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
    @pytest.mark.parametrize("workload", ["micro", "h264", "gact"])
    def test_clean_replays(self, micro_graph, workload, scheme):
        trace = {
            "micro": lambda: cnn_inference_trace(micro_graph, 2),
            "h264": lambda: h264_trace("IBPB", frame_bytes=4096),
            "gact": lambda: gact_trace(
                batches=1, queries_per_batch=2, reference_bytes=1 << 14,
                seed_table_bytes=1 << 12, pos_table_bytes=1 << 13,
            ),
        }[workload]()
        res = replay(trace, scheme)
        assert res.completed and len(res.group_totals) == len(res.group_spans)
        self.check(res)

    def test_baseline_replay_stopped_by_tamper(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 2)
        reads = [i for i, ev in enumerate(trace.events) if ev.op == "read"]
        r = reads[len(reads) // 2]
        obj = trace.objects[trace.events[r].obj_id]
        addr = obj.base + trace.events[r].offset
        res = replay(trace, "baseline", payload_mode="real",
                     hooks={r: lambda m: m.inject(BitFlip(addr, 3))})
        assert res.detected is not None and not res.completed
        assert 0 < res.group_spans[-1][2] == len(res.log)
        self.check(res)


class TestTrafficIncrease:
    def test_none_scheme_is_exactly_one(self, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 2), "none")
        assert evaluate(res).traffic_increase == 1.0

    def test_protected_schemes_exceed_one(self, micro_graph):
        t = cnn_inference_trace(micro_graph, 1)
        assert evaluate(replay(t, "mgx")).traffic_increase > 1.0
        assert evaluate(replay(t, "baseline")).traffic_increase > 1.0

    def test_empty_trace_defined(self):
        res = replay(Trace("empty"), "none")
        assert evaluate(res).traffic_increase == 1.0

    def test_scheme_ordering_spot_check(self, micro_graph):
        t = cnn_inference_trace(micro_graph, 1)
        tn = evaluate(replay(t, "none")).est_time
        tm = evaluate(replay(t, "mgx")).est_time
        tb = evaluate(replay(t, "baseline")).est_time
        assert tn <= tm <= tb


class TestEvaluateSimulate:
    def test_evaluate_bundles_consistently(self, micro_graph):
        res = replay(cnn_inference_trace(micro_graph, 1), "mgx")
        sim = evaluate(res)
        assert sim.replay.scheme == "mgx"
        assert sim.est_time == sum(c.cycles for c in sim.groups)
        assert sim.stats.total_bytes == stats_from_log(res.log).total_bytes

    def test_simulate_clean(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        sim = run_experiment(ExperimentConfig(scheme="mgx"), trace=trace)
        assert sim.replay.clean and sim.est_time > 0

    def test_simulate_raises_on_tamper_with_partial_stats(self, monkeypatch):
        b = TraceBuilder("t", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.new_group()
        b.read(o, VnSource("feature", 1))
        hooks = {2: lambda m: m.inject(BitFlip(o.base, 1))}
        monkeypatch.setattr(mgxsim.config, "replay", functools.partial(replay, hooks=hooks))
        with pytest.raises(TamperDetected):
            run_experiment(ExperimentConfig(scheme="mgx", payload_mode="real"), trace=b.trace)
        res = replay(b.trace, "mgx", payload_mode="real", hooks=hooks)
        assert res.detected is not None
        assert evaluate(res).stats.total_bytes > 0

    def test_simulate_raises_on_mismatch(self, monkeypatch):
        b = TraceBuilder("t", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.new_group()
        b.read(o, VnSource("feature", 1))
        hooks = {2: lambda m: m.inject(BitFlip(o.base, 1))}
        monkeypatch.setattr(mgxsim.config, "replay", functools.partial(replay, hooks=hooks))
        with pytest.raises(VerifyMismatch):
            run_experiment(ExperimentConfig(scheme="none", payload_mode="verify"), trace=b.trace)


class TestCsvOutput:
    def test_stats_row_matches_header(self, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        sim = run_experiment(ExperimentConfig(scheme="mgx"), trace=trace)
        row = stats_row(sim, param="cache_kb", value=4)
        assert list(row) == STATS_COLUMNS
        assert row["scheme"] == "mgx"
        assert row["workload"] == "micro-inference"
        assert float(row["traffic_increase"]) > 1.0

    def test_write_and_reread(self, tmp_path, micro_graph):
        trace = cnn_inference_trace(micro_graph, 1)
        rows = [
            stats_row(run_experiment(ExperimentConfig(scheme=s), trace=trace), "x", i)
            for i, s in enumerate(("none", "mgx"))
        ]
        path = str(tmp_path / "stats.csv")
        write_stats_csv(rows, path)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [list(r) for r in got] == [STATS_COLUMNS] * 2
        assert [r["scheme"] for r in got] == ["none", "mgx"]
        assert got[0]["value"] == "0" and got[1]["value"] == "1"


class TestH264Timing:
    def test_group_costs_cover_all_frames(self):
        t = h264_trace("IBPB" * 2, frame_bytes=1024, mac_granularity=512)
        res = replay(t, "mgx")
        costs = cost_groups(res)
        assert [c.group for c in costs] == sorted({e.group for e in t.events})
        # every decode group moves at least one frame worth of traffic
        for c in costs[1:]:
            assert c.read_bytes + c.write_bytes >= 1024
