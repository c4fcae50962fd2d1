"""Replay a workload trace through a protection scheme.

The replayer owns the glue between symbolic traces and concrete engines: it
takes every event's VN from `mgx.resolve_vns`, the one walk of the on-chip
counters, which `Trace.validate()` returns once per trace for every scheme,
synthesizes deterministic payloads, and collects the resulting DRAM access
log per compute group: the log span of each group and the memory's per-kind
byte totals at its end. Engines keep no counter state; every engine offers
the same object interface:

* store(obj, vn, offset, length, plaintext): write obj[offset:offset+length];
  `plaintext(off, n)` returns the plaintext of any range of obj, and the
  engine asks only for the range it writes.
* load(obj, vn, offset, length) -> bytes: exactly the requested plaintext.

An empty range (length 0) moves and logs nothing under every engine.

A run's `rekey_events` counts key changes: under `mgx`, the counter wraps
`resolve_vns` found among the events processed; under `baseline`, the
engine's stored-VN overflows; under `none`, nothing is keyed.

Tamper hooks run between events so attack campaigns can copy out and corrupt
memory at precise points. Between two events a run can also be forked: every
engine, and the memory, offers fork(memory) -> a copy that shares no mutable
state with the original, so a campaign replays the clean prefix once and runs
each trial on a fork taken at its tamper point.

Payload modes:

* fast:   zero payloads, cipher and MAC arithmetic skipped. The access log is
          byte-for-byte identical to the real one; integrity checks are inert.
* real:   pseudo-random payloads, full crypto. Loads authenticate.
* verify: real, plus every load's plaintext is compared against the payload
          the matching store must have written. A divergence that no check
          caught is reported as a VerifyMismatch (silent corruption).
"""

from __future__ import annotations

import copy
import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from .baseline import BaselineConfig, BaselineGeometry, BaselineMee
from .crypto import EncryptionKey, MacKey
from .dram import DATA, AccessLog, PhysicalMemory
from .errors import ConfigError, TamperDetected, VerifyMismatch
from .mgx import MgxMee, check_schedule
from .workloads.payload import payload_for
from .workloads.trace import WRITE, Trace

SCHEMES = ("none", "baseline", "mgx")
PAYLOAD_MODES = ("fast", "real", "verify")


class PlainEngine:
    """No protection: plaintext goes to memory as is and nothing is checked."""

    def __init__(self, memory: PhysicalMemory):
        self.mem = memory

    def store(self, obj, vn: int, offset: int, length: int, plaintext) -> None:
        obj.check_range("store", offset, length)
        if length:
            self.mem.write(obj.base + offset, plaintext(offset, length), DATA)

    def load(self, obj, vn: int, offset: int, length: int) -> bytes:
        obj.check_range("load", offset, length)
        return self.mem.read(obj.base + offset, length, DATA) if length else b""

    def fork(self, memory: PhysicalMemory) -> "PlainEngine":
        return PlainEngine(memory)


def _zeros(offset: int, length: int) -> bytes:
    return bytes(length)


def derive_keys(seed: int) -> tuple[EncryptionKey, MacKey]:
    enc = hashlib.sha256(f"mgxsim-enc-{seed}".encode()).digest()[:16]
    mac = hashlib.sha256(f"mgxsim-mac-{seed}".encode()).digest()[:32]
    return EncryptionKey(enc), MacKey(mac)


def _next_pow2(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


@dataclass
class ReplayResult:
    scheme: str
    payload_mode: str
    trace: Trace
    memory: PhysicalMemory
    log: AccessLog
    # (group, first log index, end log index), one per run of events in one
    # group, covering the log from index 0 in order
    group_spans: list[tuple[int, int, int]] = field(default_factory=list)
    # the log's byte_totals at the end of each span
    group_totals: list[tuple[int, ...]] = field(default_factory=list)
    completed: bool = False
    events_processed: int = 0
    detected: TamperDetected | None = None
    mismatch: VerifyMismatch | None = None
    rekey_events: int = 0

    @property
    def clean(self) -> bool:
        return self.completed and self.detected is None and self.mismatch is None

    def mark_group(self, group: int):
        """Open a span for `group` at the log's end, closing the open span,
        unless that span already belongs to `group`."""
        if self.group_spans and self.group_spans[-1][0] == group:
            return
        self.finish_groups()
        self.group_spans.append((group, len(self.log), len(self.log)))

    def finish_groups(self):
        """Close the open span at the log's end and record the totals."""
        if len(self.group_totals) < len(self.group_spans):
            g, start, _ = self.group_spans[-1]
            self.group_spans[-1] = (g, start, len(self.log))
            self.group_totals.append(tuple(self.log.byte_totals))


def _memory(need: int) -> PhysicalMemory:
    return PhysicalMemory(capacity=max(_next_pow2(need), 1 << 20))


def baseline_config(
    trace: Trace, region_mb: int = 128, cache_kb: int = 4, tree_arity: int = 8
) -> BaselineConfig:
    """The baseline engine's configuration for a replay of this trace. The
    protected region has the configured size, grown to the next power of two
    when the trace needs more."""
    size = max(region_mb << 20, 1 << 20)
    if trace.span_end > size:
        size = _next_pow2(trace.span_end)
    return BaselineConfig(region_size=size, arity=tree_arity, cache_bytes=cache_kb * 1024)


def replay(
    trace: Trace,
    scheme: str = "mgx",
    *,
    payload_mode: str = "fast",
    hooks: dict[int, Callable[[PhysicalMemory], None]] | None = None,
    region_mb: int = 128,
    cache_kb: int = 4,
    tree_arity: int = 8,
) -> ReplayResult:
    """Run every trace event through the chosen scheme and collect the log.

    `hooks[i]` runs against physical memory right before event i, unless the
    run has ended; a hook at no event's index never runs. The keys derive
    from `trace.seed`. A TamperDetected aborts the run and is recorded on the
    result rather than raised; ConfigError (from `trace.validate()` or an
    engine) and SecurityInvariantFault (from `check_schedule` under `mgx`, or
    the baseline engine) propagate: the input or the schedule is broken.
    """
    run = _Run(trace, scheme, payload_mode, region_mb, cache_kb, tree_arity)
    for i in sorted((hooks or {}).keys() & range(len(trace.events))):
        run.run(i)
        if run.over:
            break
        hooks[i](run.result.memory)
    run.run(len(trace.events))
    return run.finish()


class _Run:
    """One replay in progress: the trace's VNs, the engine over its memory
    and the result so far, advanced by `run` and copied between two events by
    `fork`, so that copies of one prefix can go on differently."""

    def __init__(self, trace, scheme, payload_mode, region_mb, cache_kb, tree_arity):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        if payload_mode not in PAYLOAD_MODES:
            raise ConfigError(f"unknown payload mode {payload_mode!r}")
        # The trace's one counter walk, before any key or memory is made.
        self.vns, self.wraps = check_schedule(trace) if scheme == "mgx" else trace.validate()
        use_crypto = payload_mode != "fast"
        enc_key, mac_key = derive_keys(trace.seed)

        engine: BaselineMee | MgxMee | PlainEngine
        if scheme == "baseline":
            cfg = baseline_config(trace, region_mb, cache_kb, tree_arity)
            memory = _memory(BaselineGeometry(cfg).meta_end)  # the region, then its metadata
            engine = BaselineMee(
                cfg, memory, enc_key, mac_key, crypto=use_crypto, objects=trace.objects.values()
            )
        else:
            memory = _memory(trace.span_end)
            if scheme == "mgx":
                engine = MgxMee(memory, enc_key, mac_key, crypto=use_crypto)
            else:
                engine = PlainEngine(memory)
        self.trace = trace
        self.engine = engine
        self.result = ReplayResult(scheme, payload_mode, trace, memory, memory.log)

    @property
    def over(self) -> bool:
        r = self.result
        return r.completed or r.detected is not None or r.mismatch is not None

    def run(self, stop: int) -> None:
        """Execute the events before index `stop` that have not run yet.
        Reaching the trace's end also drains the engine and completes the
        run. A TamperDetected or VerifyMismatch ends the run and is recorded
        without its traceback, which would keep the run's frames, and with
        them its memory, alive after the run is dropped."""
        if self.over:
            return
        trace, engine, result = self.trace, self.engine, self.result
        payload_mode = result.payload_mode
        use_crypto = payload_mode != "fast"
        start = result.events_processed
        try:
            for i, ev in enumerate(trace.events[start:stop], start):
                result.mark_group(ev.group)
                vn = self.vns[i]
                if vn is None:  # an update op: the counters are resolve_vns's
                    result.events_processed = i + 1
                    continue
                obj = trace.objects[ev.obj_id]
                if ev.op == WRITE:
                    plaintext = partial(payload_for, obj.obj_id, vn) if use_crypto else _zeros
                    engine.store(obj, vn, ev.offset, ev.length, plaintext)
                else:
                    got = engine.load(obj, vn, ev.offset, ev.length)
                    if payload_mode == "verify":
                        want = payload_for(obj.obj_id, vn, ev.offset, ev.length)
                        if got != want:
                            raise VerifyMismatch(
                                f"event {i}: {ev.obj_id}[{ev.offset}:{ev.offset + ev.length}] "
                                "differs from the expected payload",
                                event_index=i,
                            )
                result.events_processed = i + 1
            if stop == len(trace.events):
                if isinstance(engine, BaselineMee):
                    # Drain dirty metadata; attribute the writeback burst to a
                    # final group with no compute so timing models see it.
                    flush_group = max(trace.compute_macs, default=-1) + 1
                    result.mark_group(flush_group)
                    engine.flush()
                result.completed = True
        except TamperDetected as td:
            result.detected = td.with_traceback(None)
        except VerifyMismatch as vm:
            result.mismatch = vm.with_traceback(None)

    def fork(self) -> "_Run":
        """A copy of this run, taken between two events, that shares nothing
        mutable with it: running one leaves the other as it was."""
        twin = copy.copy(self)
        memory = self.result.memory.fork()
        twin.engine = self.engine.fork(memory)
        twin.result = replace(
            self.result,
            memory=memory,
            log=memory.log,
            group_spans=list(self.result.group_spans),
            group_totals=list(self.result.group_totals),
        )
        return twin

    def finish(self) -> ReplayResult:
        """Close the open group span and return the result."""
        result = self.result
        result.finish_groups()
        if result.scheme == "mgx":
            result.rekey_events = bisect_left(self.wraps, result.events_processed)
        elif result.scheme == "baseline":
            result.rekey_events = self.engine.rekey_events
        return result
