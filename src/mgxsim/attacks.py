"""Tamper campaigns: randomized, consequential attacks against live replays.

Every trial picks a read the workload is guaranteed to perform, corrupts
bytes that read depends on immediately before it executes, and replays the
whole trace with full crypto. The trials of a campaign share one clean
replay: it is forked right before each trial's last hook, the trial runs on
the fork, and every earlier hook of a trial runs on the shared replay, so it
must only read memory. The outcome is classified from the trial's replay:

* detected:  an integrity check raised before or at the consuming read;
* silent:    the run completed but a load returned wrong plaintext
             (possible only when the scheme has no effective check);
* clean:     the run completed with correct plaintext anyway.

Campaign classes:

* bitflip:   flip one ciphertext bit inside the read's range.
* splice:    overwrite a few bytes in the range with attacker-chosen bytes.
* relocate:  copy a different valid (ciphertext, tag) pair over the target's,
             i.e. move data the victim wrote somewhere else to this address.
* replay:    copy out the target bytes and their co-located metadata right
             after an older write, let a newer write land, then splice the
             copy back before the consuming read.

Attacks target data-plane bytes; metadata-only corruptions are exercised by
unit tests with forced cache refills, since whether they are ever observed
depends on cache state rather than on the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .baseline import CTR_W, BaselineGeometry
from .crypto import MAC_BYTES
from .dram import LINE, BitFlip, PhysicalMemory, Relocate, Splice
from .errors import ConfigError
# `replay` is not called here; the benchmark's span tracer (bench/spans.py)
# wraps `attacks.replay` by name, so the name stays importable.
from .replay import ReplayResult, _Run, replay  # noqa: F401
from .workloads.trace import READ, WRITE, Trace

ATTACKS = ("bitflip", "splice", "relocate", "replay")


@dataclass
class CampaignResult:
    scheme: str
    attack: str
    workload: str
    trials: int = 0
    detected: int = 0
    silent: int = 0
    clean: int = 0
    examples: list[str] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 0.0


class _TraceIndex:
    """Per-trace candidate tables shared by all trials of a campaign under
    one scheme; `geom` is the baseline's metadata layout, else None. Reads
    and writes of no bytes are left out. The replay and relocation tables
    are built when a campaign first draws from them."""

    def __init__(self, trace: Trace, scheme: str, geom: BaselineGeometry | None):
        self.trace = trace
        self.scheme = scheme
        self.geom = geom
        self.reads: list[int] = []
        self.writes_by_obj: dict[str, list[tuple[int, int, int]]] = {}
        for i, ev in enumerate(trace.events):
            if ev.op == READ and ev.length:
                self.reads.append(i)
            elif ev.op == WRITE and ev.length:
                self.writes_by_obj.setdefault(ev.obj_id, []).append(
                    (i, ev.offset, ev.offset + ev.length)
                )
        if not self.reads:
            raise ConfigError("trace performs no reads; nothing to attack")

    @cached_property
    def replay_candidates(self) -> list[tuple[int, int, int, int]]:
        """(read_idx, older_write_idx, lo, hi): byte range of the read also
        covered by an older write with at least one newer write in between."""
        out = []
        for r in self.reads:
            ev = self.trace.events[r]
            rs, re = ev.offset, ev.offset + ev.length
            before = [
                w for w in self.writes_by_obj.get(ev.obj_id, [])
                if w[0] < r and w[1] < re and w[2] > rs
            ]
            if len(before) < 2:
                continue
            newest = before[-1]
            for w in before[:-1]:
                lo = max(rs, newest[1], w[1])
                hi = min(re, newest[2], w[2])
                if lo < hi:
                    out.append((r, w[0], lo, hi))
        return out

    @cached_property
    def relocation_targets(self) -> list[tuple[int, object, int]]:
        return list(_relocation_targets(self))

    def established_writes(self, before: int):
        """Writes that completed before event index `before`: (object,
        start, end), object by object, each object's in event order."""
        for o, ws in self.writes_by_obj.items():
            for i, s, e in ws:
                if i >= before:
                    break
                yield o, s, e


def _pick_read(index: _TraceIndex, rng: random.Random) -> tuple[int, object, int]:
    r = rng.choice(index.reads)
    ev = index.trace.events[r]
    obj = index.trace.objects[ev.obj_id]
    b = rng.randrange(ev.offset, ev.offset + ev.length)
    return r, obj, b


def _bitflip_hooks(index, rng):
    r, obj, b = _pick_read(index, rng)
    action = BitFlip(obj.base + b, rng.randrange(8))
    return {r: lambda mem: mem.inject(action)}


def _splice_hooks(index, rng):
    r, obj, b = _pick_read(index, rng)
    ev = index.trace.events[r]
    n = min(8, ev.offset + ev.length - b)
    addr = obj.base + b
    payload = bytes(rng.randrange(256) for _ in range(n))

    def inject(mem: PhysicalMemory):
        current = mem.peek(addr, n)
        data = payload
        if data == current:
            data = bytes([payload[0] ^ 1]) + payload[1:]
        mem.inject(Splice(addr, data))

    return {r: inject}


def _relocation_sources(index, r, obj, b):
    """Where a relocate attack on byte `b` of `obj`, consumed by read `r`,
    can copy from, in the order of `established_writes(r)`: block addresses
    under the baseline, else (object, chunk, chunk start) of a chunk-sized
    unit of written data."""
    objects = index.trace.objects
    if index.scheme == "baseline":
        dst_block = (obj.base + b) // LINE * LINE
        for o, s, e in index.established_writes(r):
            src_block = objects[o].base + (s // LINE) * LINE
            if e - (s // LINE) * LINE >= LINE and src_block != dst_block:
                yield src_block
        return
    c = b // obj.mac_granularity
    cs, ce = obj.chunk_extent(c)
    span = ce - cs
    for o, s, e in index.established_writes(r):
        so = objects[o]
        for sc in so.covering_chunks(s, e - s):
            scs, sce = so.chunk_extent(sc)
            if scs >= s and sce <= e and sce - scs == span:
                if so.obj_id != obj.obj_id or sc != c:
                    yield so, sc, scs


def _relocation_targets(index):
    """(read, object, first byte) of every unit (a block under the
    baseline, else a chunk) of every read that has a relocation source."""
    for r in index.reads:
        ev = index.trace.events[r]
        obj = index.trace.objects[ev.obj_id]
        unit = LINE if index.scheme == "baseline" else obj.mac_granularity
        end = ev.offset + ev.length
        for u in range(ev.offset // unit, (end - 1) // unit + 1):
            b = max(ev.offset, u * unit)
            if next(_relocation_sources(index, r, obj, b), None) is not None:
                yield r, obj, b


def _relocate_target(index, rng):
    """A (read, object, byte) whose unit has relocation sources, and those
    sources: the first of 64 random picks that has any, else a draw from
    every target that has some, so that a trace with few of them still
    gets its trials."""
    for _ in range(64):
        r, obj, b = _pick_read(index, rng)
        sources = list(_relocation_sources(index, r, obj, b))
        if sources:
            return r, obj, b, sources
    r, obj, b = rng.choice(index.relocation_targets)
    return r, obj, b, list(_relocation_sources(index, r, obj, b))


def _relocate_hooks(index, rng):
    r, obj, b, sources = _relocate_target(index, rng)
    if index.scheme == "baseline":
        dst_block = (obj.base + b) // LINE * LINE
        src_block = rng.choice(sources)
        sl, ss = index.geom.mac_slot(src_block // LINE)
        dl, ds = index.geom.mac_slot(dst_block // LINE)
        actions = [
            Relocate(src_block, dst_block, LINE),
            Relocate(sl + ss * CTR_W, dl + ds * CTR_W, CTR_W),
        ]
        return {r: lambda mem: [mem.inject(a) for a in actions]}
    # mgx and none: move another chunk-sized unit of written data (and its
    # tag, when one exists) over the chunk the read will consume.
    c = b // obj.mac_granularity
    cs, ce = obj.chunk_extent(c)
    so, sc, scs = rng.choice(sources)
    actions = [Relocate(so.base + scs, obj.base + cs, ce - cs)]
    if index.scheme == "mgx":
        actions.append(Relocate(so.mac_addr(sc), obj.mac_addr(c), MAC_BYTES))
    return {r: lambda mem: [mem.inject(a) for a in actions]}


def _replay_hooks(index, rng):
    r, w1, lo, hi = rng.choice(index.replay_candidates)
    obj = index.trace.objects[index.trace.events[r].obj_id]
    b = rng.randrange(lo, hi)
    ranges: list[tuple[int, int]]
    if index.scheme == "baseline":
        blk = (obj.base + b) // LINE
        mac_line, _ = index.geom.mac_slot(blk)
        leaf = index.geom.level_line_addr(0, blk // index.geom.cfg.arity)
        ranges = [(blk * LINE, LINE), (mac_line, LINE), (leaf, LINE)]
    else:
        c = b // obj.mac_granularity
        cs, ce = obj.chunk_extent(c)
        ranges = [(obj.base + cs, ce - cs)]
        if index.scheme == "mgx":
            ranges.append((obj.mac_addr(c), MAC_BYTES))
    saved: list[tuple[int, bytes]] = []

    def take(mem: PhysicalMemory):
        # only reads: it runs on the campaign's shared replay
        saved.extend((addr, mem.peek(addr, length)) for addr, length in ranges)

    def restore(mem: PhysicalMemory):
        for addr, blob in saved:
            mem.inject(Splice(addr, blob))

    return {w1 + 1: take, r: restore}


_BUILDERS = {
    "bitflip": _bitflip_hooks,
    "splice": _splice_hooks,
    "relocate": _relocate_hooks,
    "replay": _replay_hooks,
}


def _outcome(run: ReplayResult) -> tuple[str, str]:
    """A trial's class and what its example line says. Only these strings
    outlive the trial's run."""
    if run.detected is not None:
        return "detected", f"detected ({run.detected.reason})"
    if run.mismatch is not None:
        return "silent", f"silent corruption at event {run.mismatch.event_index}"
    return "clean", "no observable effect"


def run_campaign(
    trace: Trace,
    scheme: str,
    attack: str,
    trials: int = 100,
    seed: int = 0,
    *,
    region_mb: int = 128,
    cache_kb: int = 4,
    tree_arity: int = 8,
) -> CampaignResult:
    """Run `trials` independent randomized attacks of one class. With
    trials=0 this only checks that the trace admits the attack.

    One clean verify replay is shared by all trials and forked right before
    each trial's last hook; the fork applies that hook and runs until
    detection, mismatch or the trace's end. Every outcome equals the one a
    replay of the whole trace with that trial's hooks would give.
    """
    if attack not in ATTACKS:
        raise ConfigError(f"unknown attack {attack!r}; expected one of {ATTACKS}")
    if trials < 0:
        raise ConfigError(f"trials must be at least 0, got {trials}")
    shared = _Run(trace, scheme, "verify", region_mb, cache_kb, tree_arity)  # validates
    index = _TraceIndex(trace, scheme, shared.engine.geom if scheme == "baseline" else None)
    if attack == "replay" and not index.replay_candidates:
        raise ConfigError(
            "trace has no byte written twice before a read; replay attacks need one"
        )
    if attack == "relocate" and next(_relocation_targets(index), None) is None:
        raise ConfigError("no relocation source found for this trace")
    build = _BUILDERS[attack]
    # event index -> hooks that only read memory, and -> (trial, last hook)
    readers: dict[int, list] = {}
    finals: dict[int, list] = {}
    for t in range(trials):
        hooks = build(index, random.Random(seed + t))
        *before, last = sorted(hooks)
        for i in before:
            readers.setdefault(i, []).append(hooks[i])
        finals.setdefault(last, []).append((t, hooks[last]))
    outcomes: dict[int, tuple[str, str]] = {}
    if trials:
        for i in sorted(readers.keys() | finals.keys()):
            shared.run(i)
            if shared.over:
                break
            for hook in readers.pop(i, ()):
                hook(shared.result.memory)
            for t, hook in finals.pop(i, ()):
                trial = shared.fork()
                hook(trial.result.memory)
                trial.run(len(trace.events))
                outcomes[t] = _outcome(trial.result)
                del trial  # before the next fork is made, not after
        # Trials whose last hook comes after the event that ended the shared
        # run: their own replays would end there the same way.
        for waiting in finals.values():
            for t, _ in waiting:
                outcomes[t] = _outcome(shared.result)
    result = CampaignResult(scheme, attack, trace.workload, trials=trials)
    for t in range(trials):
        kind, what = outcomes[t]
        setattr(result, kind, getattr(result, kind) + 1)
        if len(result.examples) < 5:
            result.examples.append(f"trial {t}: {what}")
    return result
