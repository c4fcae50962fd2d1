"""Properties of every legal trace, not only of the generators' shapes.

A strategy over `TraceBuilder` draws traces that keep the write/read
schedule: objects of any size (also not a multiple of 64) under feature,
frame, weights, genome or query sources, MAC chunks of 16, 64 or 1024 bytes,
and phases that each advance any of the four on-chip counters. An object is
written again only after its counter moved, in 16-byte aligned pieces (so
no cipher block is written twice under one VN), and reads take any part of
what was written since. The strategy keeps its own plain-int counter model,
and `resolve_vns` must give the same VN at every event. On those traces the
baseline engine matches its oracle access for access, also on caches so
small that a MAC fill evicts the leaf line in the middle of a run; payload
modes do not change any scheme's stream; verify replays are clean; a run
forked at any event ends as a straight replay does; mgx moves one 8-byte
tag per chunk that a read or write covers, and its stream equals the one a
per-chunk engine issues, record for record; the schedule check passes, and
fails at a repeated write; and a bit flipped in a byte a read consumes is
detected at that read by both protected schemes.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baseline_oracle import oracle_for_trace
from mgxsim.baseline import BaselineConfig, BaselineMee
from mgxsim.crypto import MAC_BYTES
from mgxsim.dram import DATA, MAC_LINE, BitFlip, PhysicalMemory
from mgxsim.errors import SecurityInvariantFault, TamperDetected
from mgxsim.mgx import UPDATE_OPS, VN_KINDS, check_schedule, resolve_vns
from mgxsim.perf import ProtectionStats
from mgxsim.replay import SCHEMES, _Run, derive_keys, replay
from mgxsim.workloads import VnSource
from mgxsim.workloads.trace import READ, WRITE, TraceBuilder

ORACLE_REGION = 1 << 20


def model_vn(ctr: dict[str, int], src: VnSource) -> int:
    """The VN of `src` under the plain-int counters `ctr`, one per update op."""
    i, w, g, q = ctr["update_i"], ctr["update_w"], ctr["update_genome"], ctr["update_query"]
    if src.kind in ("feature", "frame"):
        return i << 8 | src.arg
    return {"weights": w, "genome": g, "query": g << 32 | q}[src.kind]


@st.composite
def legal_traces(draw):
    b = TraceBuilder("legal", mac_granularity=draw(st.sampled_from((16, 64, 1024))))
    sizes = draw(st.lists(st.integers(1, 2500), min_size=1, max_size=3))
    objs = [b.alloc(f"o{i}", n) for i, n in enumerate(sizes)]
    source = {}
    for i, o in enumerate(objs):
        kind = draw(st.sampled_from(("feature", "frame", "weights", "genome", "query")))
        source[o.obj_id] = VnSource(kind, i + 1 if VN_KINDS[kind] else 0)
    ctr = dict.fromkeys(UPDATE_OPS, 0)
    want = []  # the model's VN of every event, None at an update op
    last_vn = {}  # obj_id -> VN of its last write
    valid = {o.obj_id: [] for o in objs}  # readable (obj, lo, hi) pieces, all under last_vn

    def read_some():
        readable = [p for ps in valid.values() for p in ps]
        for _ in range(draw(st.integers(0, 3)) if readable else 0):
            o, lo, hi = draw(st.sampled_from(readable))
            off = draw(st.integers(lo, hi - 1))
            b.read(o, source[o.obj_id], off, draw(st.integers(1, hi - off)))
            want.append(model_vn(ctr, source[o.obj_id]))

    for _ in range(draw(st.integers(1, 3))):
        for op in draw(st.lists(st.sampled_from(UPDATE_OPS), min_size=1, max_size=3)):
            b.update(op)
            ctr[op] += 1
            want.append(None)
        b.new_group(draw(st.integers(0, 1 << 20)))
        fresh = [o for o in objs if model_vn(ctr, source[o.obj_id]) != last_vn.get(o.obj_id)]
        for o in fresh:
            valid[o.obj_id] = []  # its counter moved: what it held is stale
        read_some()  # bytes of earlier phases whose counter has not moved since
        pieces = []
        for o in fresh:  # no byte is written twice under one VN
            last = (o.size - 1) // 16
            cuts = draw(st.sets(st.integers(1, last), max_size=4)) if last else set()
            edges = [0, *sorted(c * 16 for c in cuts), o.size]
            spans = list(zip(edges, edges[1:]))
            pieces += [(o, *spans[i]) for i in draw(st.sets(st.integers(0, len(spans) - 1)))]
        for o, lo, hi in draw(st.permutations(pieces)):
            vn = model_vn(ctr, source[o.obj_id])
            b.write(o, source[o.obj_id], lo, hi - lo)
            want.append(vn)
            last_vn[o.obj_id] = vn
            valid[o.obj_id].append((o, lo, hi))
            read_some()
    assert resolve_vns(b.trace) == (tuple(want), ())
    return b.trace


def baseline_log(trace, arity, cache_bytes):
    """The crypto-off baseline engine's stream for `trace` over a 1 MiB
    region with a cache of `cache_bytes`, flushed at the end."""
    mem = PhysicalMemory(capacity=1 << 22)
    engine = BaselineMee(
        BaselineConfig(ORACLE_REGION, arity, cache_bytes),
        mem,
        *derive_keys(trace.seed),
        crypto=False,
        objects=trace.objects.values(),
    )
    for ev in trace.events:
        if ev.op == WRITE:
            engine.store(trace.objects[ev.obj_id], 0, ev.offset, ev.length, lambda o, n: bytes(n))
        elif ev.op == READ:
            engine.load(trace.objects[ev.obj_id], 0, ev.offset, ev.length)
    engine.flush()
    return [tuple(r) for r in mem.log]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=legal_traces(), arity=st.sampled_from((2, 4, 8)))
def test_baseline_matches_oracle(trace, arity):
    for cache_bytes in (128, 192, 1024):
        want = [tuple(a) for a in oracle_for_trace(trace, ORACLE_REGION, arity, cache_bytes)]
        assert baseline_log(trace, arity, cache_bytes) == want, cache_bytes


def _same_run(got, want):
    assert got.clean and got.events_processed == want.events_processed
    assert got.log == list(want.log)
    assert got.group_spans == want.group_spans and got.group_totals == want.group_totals
    assert got.memory._pages == want.memory._pages


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=legal_traces(), arity=st.sampled_from((2, 4, 8)), cut=st.floats(0, 1))
def test_modes_agree_verify_is_clean_and_forks_finish_alike(trace, arity, cut):
    kw = dict(cache_kb=1, tree_arity=arity)
    end = len(trace.events)
    at = int(cut * end)
    for scheme in SCHEMES:
        fast, real, verify = (
            replay(trace, scheme, payload_mode=mode, **kw) for mode in ("fast", "real", "verify")
        )
        assert verify.clean, (scheme, verify.detected or verify.mismatch)
        assert fast.log == list(real.log) == list(verify.log), scheme
        run = _Run(trace, scheme, "verify", 128, 1, arity)
        run.run(at)
        fork = run.fork()
        fork.run(end)
        _same_run(fork.finish(), verify)
        run.run(end)
        _same_run(run.finish(), verify)


def mgx_reference(trace):
    """The `mgx` stream of `trace` as a per-chunk engine issues it, from the
    trace alone: a write is the data write, then for each chunk it covers, in
    order, the fetch-back of the chunk's bytes before the write, of those after
    it, and the chunk's 8-byte tag; a read is one read of its whole chunks, then
    each chunk's tag."""
    want = []
    for ev in trace.events:
        if ev.op not in (READ, WRITE) or not ev.length:
            continue
        obj = trace.objects[ev.obj_id]
        k, end = obj.mac_granularity, ev.offset + ev.length
        chunks = range(ev.offset // k, (end - 1) // k + 1)
        tags = [obj.mac_start + MAC_BYTES * c for c in chunks]
        if ev.op == READ:
            lo, hi = chunks[0] * k, min((chunks[-1] + 1) * k, obj.size)
            want.append(("read", DATA, obj.base + lo, hi - lo))
            want += [("read", MAC_LINE, t, MAC_BYTES) for t in tags]
            continue
        want.append(("write", DATA, obj.base + ev.offset, ev.length))
        for c, t in zip(chunks, tags):
            cs, ce = c * k, min((c + 1) * k, obj.size)
            if cs < ev.offset:
                want.append(("read", DATA, obj.base + cs, ev.offset - cs))
            if ce > end:
                want.append(("read", DATA, obj.base + end, ce - end))
            want.append(("write", MAC_LINE, t, MAC_BYTES))
    return want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=legal_traces(), data=st.data())
def test_mgx_meta_closed_form_and_schedule_check(trace, data):
    moves = [ev for ev in trace.events if ev.op in (READ, WRITE)]
    chunks = sum(len(trace.objects[ev.obj_id].covering_chunks(ev.offset, ev.length)) for ev in moves)
    res = replay(trace, "mgx")
    assert ProtectionStats.of_replay(res).meta_bytes == MAC_BYTES * chunks
    assert [tuple(r) for r in res.log] == mgx_reference(trace)
    check_schedule(trace)
    writes = [i for i, ev in enumerate(trace.events) if ev.op == WRITE]
    if writes:
        w = data.draw(st.sampled_from(writes))
        events = [*trace.events[: w + 1], trace.events[w], *trace.events[w + 1 :]]
        with pytest.raises(SecurityInvariantFault, match=rf"^event {w + 1}: counter reuse"):
            check_schedule(dataclasses.replace(trace, events=events))


@pytest.mark.parametrize("k", (16, 64, 1024))
def test_mgx_stream_with_partial_first_and_last_chunks(k):
    """A rewrite of x[8:1100] under a fresh VN fetches back a partial head
    and tail chunk, and a read of x[20:1090] starts and ends mid-chunk, at
    every chunk size; both streams match the per-chunk reference."""
    b = TraceBuilder("partial", mac_granularity=k)
    x = b.alloc("x", 2100)
    src = VnSource("feature", 1)
    b.new_group()
    b.write(x, src)
    b.update("update_i")
    b.write(x, src, 8, 1092)
    b.read(x, src, 20, 1070)
    for mode in ("fast", "verify"):
        res = replay(b.trace, "mgx", payload_mode=mode)
        assert res.clean
        assert [tuple(r) for r in res.log] == mgx_reference(b.trace)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=legal_traces(), data=st.data())
def test_a_flipped_consumed_byte_is_detected_at_its_read(trace, data):
    reads = [i for i, ev in enumerate(trace.events) if ev.op == READ]
    if not reads:
        return
    r = data.draw(st.sampled_from(reads))
    ev = trace.events[r]
    flip = BitFlip(
        trace.objects[ev.obj_id].base + data.draw(st.integers(ev.offset, ev.offset + ev.length - 1)),
        data.draw(st.integers(0, 7)),
    )
    for scheme in ("mgx", "baseline"):
        res = replay(
            trace, scheme, payload_mode="real", hooks={r: lambda m: m.inject(flip)}, cache_kb=1
        )
        assert isinstance(res.detected, TamperDetected), scheme
        assert res.events_processed == r, scheme
