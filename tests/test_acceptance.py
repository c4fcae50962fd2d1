"""End-to-end acceptance checks, one test per numbered criterion.

Covers: functional round-trips under verification (C1), the write-uniqueness
ledger (C2), randomized tamper campaigns (C3), exact equivalence of the
baseline engine's access stream with the independent brute-force oracle (C4),
the MAC-overhead bound (C5), scheme ordering on the DNN presets (C6), sweep
trends over cache size / region size / channel count (C7), timing-model
monotonicity (C8), and the H.264 write-once-per-frame invariant (C9).

Traces and replays are built once in a module-scoped bank and shared across
criteria; every numeric band asserted here was measured and frozen before the
test was first run. Each test prints one summary line on success.
"""

from __future__ import annotations

import time
from array import array
from itertools import repeat
from operator import itemgetter

import pytest

from baseline_oracle import oracle_for_trace
from mgxsim.attacks import ATTACKS, run_campaign
from mgxsim.dram import RECORD_KINDS
from mgxsim.errors import SecurityInvariantFault
from mgxsim.mgx import MgxState
from mgxsim.perf import DramModel, ProtectionStats, evaluate
from mgxsim.replay import replay
from mgxsim.workloads import (
    PRESETS,
    VnSource,
    cnn_inference_trace,
    cnn_training_trace,
    gact_trace,
    h264_trace,
    load_preset,
    pruned_trace,
    rnn_trace,
    streaming_trace,
)
from mgxsim.workloads.trace import READ, UPDATE_OPS, WRITE, TraceBuilder

K = 1024  # default MAC granularity, asserted on every trace below

# The six generator families exercised by the round-trip and ledger criteria.
ROUND_TRIP = {
    "cnn-inference": lambda: cnn_inference_trace(load_preset("lenet"), 2),
    "cnn-training": lambda: cnn_training_trace(load_preset("lenet"), 2),
    "rnn-T4": lambda: rnn_trace(load_preset("micro"), 4),
    **{f"pruned-s{s}": (lambda s=s: pruned_trace(seed=s)) for s in range(5)},
    "h264-ibpb8": lambda: h264_trace("IBPB" * 8),
    "gact-b2": lambda: gact_trace(batches=2),
}

_BUILDERS = {
    **ROUND_TRIP,
    **{f"dnn-{p}": (lambda p=p: cnn_inference_trace(load_preset(p), 1)) for p in PRESETS},
    "stream-10mb": lambda: streaming_trace(total_bytes=10 << 20),
    "h264-30f": lambda: h264_trace("IBPB" * 7 + "IB"),  # 30 frames
}


class _Bank:
    """Build each trace and replay at most once; criteria share the results."""

    def __init__(self):
        self._traces = {}
        self._replays = {}

    def trace(self, key):
        if key not in self._traces:
            self._traces[key] = _BUILDERS[key]()
        return self._traces[key]

    def replay(self, key, scheme, **cfg):
        rkey = (key, scheme, tuple(sorted(cfg.items())))
        if rkey not in self._replays:
            self._replays[rkey] = replay(self.trace(key), scheme, **cfg)
        return self._replays[rkey]


@pytest.fixture(scope="module")
def bank():
    return _Bank()


def _clean(res) -> bool:
    return res.completed and res.detected is None and res.mismatch is None


def test_c1_functional_round_trip(bank):
    """Every generator family verifies end to end: each load reproduces the
    exact payload written, in well under 30 s per workload."""
    timings = []
    for key in ROUND_TRIP:
        t0 = time.monotonic()
        res = bank.replay(key, "mgx", payload_mode="verify")
        dt = time.monotonic() - t0
        assert _clean(res), f"{key}: round-trip not clean"
        assert dt < 30.0, f"{key}: verify took {dt:.1f}s"
        timings.append(f"{key}={dt:.2f}s")
    print("C1 PASS — verify round-trip clean:", ", ".join(timings))


def test_c2_write_uniqueness_ledger(bank):
    """The write ledger observes zero repeated (address-block, VN) write pairs
    across all round-trip workloads; a deliberate repeat trips it."""
    for key in ROUND_TRIP:
        # The ledger (on by default) faults on the first repeated pair, so a
        # clean completion is an exhaustive zero-repeats witness.
        res = bank.replay(key, "mgx", payload_mode="verify")
        assert _clean(res), key

    # Negative control: the ledger must be live, not vacuous.
    b = TraceBuilder("dup", mac_granularity=64)
    o = b.alloc("o", 64)
    b.update("update_i")
    b.new_group()
    src = VnSource("feature", 1)
    b.write(o, src)
    b.write(o, src)
    with pytest.raises(SecurityInvariantFault):
        replay(b.trace, "mgx")
    print(
        f"C2 PASS — zero repeated (block, VN) write pairs across "
        f"{len(ROUND_TRIP)} workloads; control repeat trips the ledger"
    )


def test_c3_tamper_detection_campaigns():
    """100% detection over 1000 randomized trials per attack class, for both
    protected schemes; any missed trial fails."""
    trace = h264_trace("IBPB" * 2, frame_bytes=512, streams=2)
    cells = []
    for scheme in ("baseline", "mgx"):
        for attack in ATTACKS:
            c = run_campaign(trace, scheme, attack, trials=1000, seed=0)
            assert c.trials == 1000
            assert c.detected == c.trials, (
                f"{scheme}/{attack}: {c.trials - c.detected} undetected trial(s); "
                f"examples: {c.examples}"
            )
            assert c.silent == 0 and c.clean == 0
            cells.append(f"{scheme}/{attack}=1000/1000")
    print("C3 PASS —", ", ".join(cells))


_KIND_CODE = {kind: code for code, kind in enumerate(RECORD_KINDS)}


def _log_columns(accesses) -> tuple[bytes, array, array]:
    """(op, klass, addr, length) records encoded into the access log's own
    columns: kind codes (an unknown kind gets a code no record has),
    addresses and lengths."""
    kinds = map(itemgetter(0, 1), accesses)
    codes = bytes(map(_KIND_CODE.get, kinds, repeat(len(RECORD_KINDS))))
    addrs, lengths = (array("Q", map(itemgetter(i), accesses)) for i in (2, 3))
    return codes, addrs, lengths


def test_c4_baseline_oracle_equivalence(bank):
    """The baseline engine's full access list (count, class, address, length)
    equals the independent brute-force path enumerator's prediction on a
    10 MiB write-once/read-once stream, across region and cache sizes."""
    trace = bank.trace("stream-10mb")
    assert trace.payload_bytes() >= 2 * (10 << 20)  # written once, read once
    checked = []
    for region_mb in (128, 1024, 8192):
        for cache_kb in (1, 4, 8):
            # Not banked: these nine logs are large and used only here.
            res = replay(trace, "baseline", region_mb=region_mb, cache_kb=cache_kb)
            assert _clean(res)
            got = res.log
            want = oracle_for_trace(trace, region_mb << 20, 8, cache_kb * 1024)
            if (got.codes, got.addrs, got.lengths) != _log_columns(want):
                i = next(
                    (i for i, (g, w) in enumerate(zip(got, want)) if tuple(g) != tuple(w)),
                    min(len(got), len(want)),
                )
                pytest.fail(
                    f"region={region_mb}MB cache={cache_kb}KB: access lists differ at "
                    f"record {i}: engine {got[i] if i < len(got) else None}, "
                    f"oracle {tuple(want[i]) if i < len(want) else None}"
                )
            checked.append(f"{region_mb}MB/{cache_kb}KB:{len(got)}")
    print("C4 PASS — exact oracle match (records per config):", ", ".join(checked))


def test_c5_overhead_bound(bank):
    """Measured traffic increase of the object-MAC scheme stays within the
    analytic bound 8/k plus per-trace tail slack for every k=1024 trace, and
    within 1.2% on the DNN presets."""
    keys = list(ROUND_TRIP) + [f"dnn-{p}" for p in PRESETS] + ["stream-10mb", "h264-30f"]
    headroom = float("inf")
    for key in keys:
        trace = bank.trace(key)
        assert {o.mac_granularity for o in trace.objects.values()} == {K}, key
        n_mem = sum(1 for e in trace.events if e.op in (READ, WRITE))
        payload = trace.payload_bytes()
        # A-priori bound from trace shape alone: one 8-byte MAC per k-byte
        # chunk, plus per-event alignment and partial-chunk complement fetches.
        slack = n_mem * (16 + 2 * (K - 1)) / payload
        overhead = evaluate(bank.replay(key, "mgx")).traffic_increase - 1.0
        assert overhead <= 8 / K + slack, f"{key}: {overhead:.6f} > {8 / K + slack:.6f}"
        assert overhead <= 0.0079 + slack
        headroom = min(headroom, 8 / K + slack - overhead)
    preset_vals = []
    for p in PRESETS:
        overhead = evaluate(bank.replay(f"dnn-{p}", "mgx")).traffic_increase - 1.0
        assert overhead <= 0.012, f"{p}: {overhead:.4%} > 1.2%"
        preset_vals.append(f"{p}={overhead:.3%}")
    print(
        f"C5 PASS — bound holds on {len(keys)} traces "
        f"(min headroom {headroom:.4f}); DNN presets ≤1.2%:", ", ".join(preset_vals)
    )


def test_c6_scheme_ordering(bank):
    """On every DNN preset the object-MAC scheme moves strictly less traffic
    than the counter-tree baseline, whose increase sits in [5%, 60%]."""
    rows = []
    for p in PRESETS:
        tm = evaluate(bank.replay(f"dnn-{p}", "mgx")).traffic_increase
        tb = evaluate(bank.replay(f"dnn-{p}", "baseline")).traffic_increase
        assert tm < tb, f"{p}: mgx {tm:.4f} !< baseline {tb:.4f}"
        assert 0.05 <= tb - 1.0 <= 0.60, f"{p}: baseline increase {tb - 1.0:.4f} outside [5%, 60%]"
        rows.append(f"{p}: mgx={tm - 1:.2%} base={tb - 1:.2%}")
    print("C6 PASS —", "; ".join(rows))


def test_c7_sweep_trends(bank):
    """(a) baseline metadata traffic is non-increasing in cache size;
    (b) region size 128 MB→8 GB moves baseline traffic by <5 points;
    (c) baseline slowdown is non-increasing in channel count while the
    object-MAC slowdown stays under 1% at every channel count."""
    # (a) cache sweep, 1 -> 4 (default) -> 8 KiB
    meta = []
    for cfg in ({"cache_kb": 1}, {}, {"cache_kb": 8}):
        res = bank.replay("dnn-googlenet", "baseline", **cfg)
        meta.append(ProtectionStats.of_replay(res).meta_bytes)
    assert meta[0] >= meta[1] >= meta[2], f"meta traffic not monotone: {meta}"

    # (b) region sweep, 128 MB (default) -> 1 GB -> 8 GB
    tis = []
    for cfg in ({}, {"region_mb": 1024}, {"region_mb": 8192}):
        tis.append(evaluate(bank.replay("dnn-googlenet", "baseline", **cfg)).traffic_increase)
    spread = max(tis) - min(tis)
    assert spread < 0.05, f"region sweep moved traffic by {spread:.4f}"

    # (c) channel sweep on an inference and a training workload
    slows = []
    for key in ("dnn-resnet50", "cnn-training"):
        res = {s: bank.replay(key, s) for s in ("none", "mgx", "baseline")}
        prev_b = None
        for ch in (1, 2, 4):
            model = DramModel(channels=ch)
            t = {s: evaluate(res[s], model).est_time for s in res}
            slow_b = t["baseline"] / t["none"]
            slow_m = t["mgx"] / t["none"]
            assert slow_m - 1.0 < 0.01, f"{key} ch={ch}: mgx slowdown {slow_m - 1.0:.4%}"
            if prev_b is not None:
                assert slow_b <= prev_b + 1e-12, f"{key}: baseline slowdown rose at ch={ch}"
            prev_b = slow_b
            slows.append(f"{key}@{ch}ch: m={slow_m - 1:.2%} b={slow_b - 1:.1%}")
    print(
        f"C7 PASS — meta bytes {meta[0]}≥{meta[1]}≥{meta[2]}; "
        f"region spread {spread:.4f}; slowdowns:", ", ".join(slows)
    )


def test_c8_time_model_ordering(bank):
    """est_time(none) ≤ est_time(mgx) ≤ est_time(baseline) on every preset and
    configuration exercised by this suite."""
    count = 0
    for p in PRESETS:
        res = {s: bank.replay(f"dnn-{p}", s) for s in ("none", "mgx", "baseline")}
        for ch in (1, 2, 4):
            model = DramModel(channels=ch)
            tn, tm, tb = (evaluate(res[s], model).est_time for s in ("none", "mgx", "baseline"))
            assert tn <= tm <= tb, f"{p} ch={ch}: {tn} {tm} {tb}"
            count += 1
    # Baseline cache/region variants against the same unprotected/mgx runs.
    model = DramModel()
    tn = evaluate(bank.replay("dnn-googlenet", "none"), model).est_time
    tm = evaluate(bank.replay("dnn-googlenet", "mgx"), model).est_time
    for cfg in ({"cache_kb": 1}, {"cache_kb": 8}, {"region_mb": 1024}, {"region_mb": 8192}):
        tb = evaluate(bank.replay("dnn-googlenet", "baseline", **cfg), model).est_time
        assert tn <= tm <= tb, f"googlenet {cfg}: {tn} {tm} {tb}"
        count += 1
    # Training workload ordering.
    res = {s: bank.replay("cnn-training", s) for s in ("none", "mgx", "baseline")}
    for ch in (1, 2, 4):
        model = DramModel(channels=ch)
        tn, tm, tb = (evaluate(res[s], model).est_time for s in ("none", "mgx", "baseline"))
        assert tn <= tm <= tb
        count += 1
    print(f"C8 PASS — none ≤ mgx ≤ baseline on {count} preset/config pairs")


def _resolved_writes(trace):
    """(obj_id, concrete VN, offset, length) per write, resolving symbolic
    sources against the in-band counter updates."""
    state = MgxState()
    out = []
    for e in trace.events:
        if e.op in UPDATE_OPS:
            state, _ = state.advance(e.op)
        elif e.op == WRITE:
            out.append((e.obj_id, state.vn(*e.vn_source), e.offset, e.length))
    return out


def test_c9_h264_write_once(bank):
    """Over a 30-frame IBPB stream every output-buffer address is written at
    most once per frame, and all (address, VN) write pairs are unique."""
    trace = bank.trace("h264-30f")
    res = bank.replay("h264-30f", "mgx", payload_mode="verify")
    assert _clean(res)  # the ledger re-checks pair uniqueness at block level

    writes = _resolved_writes(trace)
    assert len(writes) == 30
    assert all(obj.startswith("framebuf") for obj, *_ in writes)
    seen_addr_vn = set()
    per_frame: dict[int, set[int]] = {}
    for obj_id, vn, off, length in writes:
        base = trace.objects[obj_id].base
        frame = vn & 0xFF
        for addr in range(base + off, base + off + length, 64):
            pair = (addr, vn)
            assert pair not in seen_addr_vn, f"repeated write pair {pair}"
            seen_addr_vn.add(pair)
            touched = per_frame.setdefault(frame, set())
            assert addr not in touched, f"frame {frame}: address {addr:#x} written twice"
            touched.add(addr)
    assert sorted(per_frame) == list(range(30))
    print(
        f"C9 PASS — 30 frames, {len(seen_addr_vn)} write (addr, VN) pairs all "
        f"unique, each buffer address written once per frame"
    )
