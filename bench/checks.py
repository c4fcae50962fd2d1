"""Expected outputs computed apart from the simulator, and the checks that
compare a replay's summary against them.

Nothing here calls the engines, the replayer or the timing model. The
expected access streams come from the trace alone (`none`, `mgx`) or from
the independent brute-force oracle in `tests/baseline_oracle.py`
(`baseline`); estimated time is recomputed from the README formula over
per-group bytes summed here; keys, VNs and payloads are derived from their
published definitions, and ciphertext is decrypted with the pure-Python AES
in `tests/aes_reference.py`.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import Counter

from baseline_oracle import BaselineOracle
from aes_reference import aes128_encrypt_block

LINE = 64
MAC_BYTES = 8
META = ("vn_line", "mac_line", "tree_node")

# Timing-model defaults as the README states them (one channel).
BYTES_PER_CYCLE = 8.0
FIXED_LATENCY = 100.0
MACS_PER_CYCLE = 2048.0


# -- access-stream summaries ---------------------------------------------------

class StreamTally:
    """Digest, per-(op, class) bytes and per-group (read, write) bytes of an
    access stream, fed one record at a time."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)
        self._buf: list[str] = []
        self.records = 0
        self.bytes: Counter = Counter()
        self.counts: Counter = Counter()
        self.groups: dict[int, list[int]] = {}

    def add(self, op: str, klass: str, addr: int, length: int, group: int):
        self._buf.append(f"{op} {klass} {addr} {length}\n")
        if len(self._buf) >= 8192:
            self._h.update("".join(self._buf).encode())
            self._buf.clear()
        self.records += 1
        self.bytes[f"{op}.{klass}"] += length
        self.counts[f"{op}.{klass}"] += 1
        rw = self.groups.setdefault(group, [0, 0])
        rw[op != "read"] += length

    def digest(self) -> str:
        if self._buf:
            self._h.update("".join(self._buf).encode())
            self._buf.clear()
        return self._h.hexdigest()


def tally_log(log, group_spans) -> StreamTally:
    """Summarize a replay's access log, attributing records to groups by the
    replay's own group spans."""
    t = StreamTally()
    for g, start, end in group_spans:
        for rec in log[start:end]:
            t.add(rec.op, rec.klass, rec.addr, rec.length, g)
    return t


def _mem_events(trace):
    for ev in trace.events:
        if ev.op in ("read", "write"):
            yield ev, trace.objects[ev.obj_id]


def expected_none(trace) -> StreamTally:
    """An unprotected replay moves exactly the bytes each event names."""
    t = StreamTally()
    for ev, obj in _mem_events(trace):
        t.add(ev.op, "data", obj.base + ev.offset, ev.length, ev.group)
    return t


def expected_mgx_bytes(trace) -> tuple[Counter, dict[int, list[int]]]:
    """Closed form of the object-MAC scheme's traffic.

    A read fetches every covering k-byte chunk whole plus 8 B of MAC per
    chunk. A write stores its bytes, fetches back the uncovered rest of the
    first and last touched chunk, and writes 8 B of MAC per chunk.
    """
    by: Counter = Counter()
    groups: dict[int, list[int]] = {}
    for ev, obj in _mem_events(trace):
        k = obj.mac_granularity
        end = ev.offset + ev.length
        c0, c1 = ev.offset // k, (end - 1) // k
        first, last = c0 * k, min((c1 + 1) * k, obj.size)
        macs = MAC_BYTES * (c1 - c0 + 1)
        rw = groups.setdefault(ev.group, [0, 0])
        if ev.op == "read":
            by["read.data"] += last - first
            by["read.mac_line"] += macs
            rw[0] += last - first + macs
        else:
            fill = (ev.offset - first) + (last - end)
            by["write.data"] += ev.length
            by["read.data"] += fill
            by["write.mac_line"] += macs
            rw[0] += fill
            rw[1] += ev.length + macs
    return +by, groups


def flush_group(trace) -> int:
    """Group the baseline's end-of-run metadata drain is charged to."""
    return max(trace.compute_macs, default=-1) + 1


def expected_baseline(trace, region_size: int, arity: int = 8,
                      cache_bytes: int = 4096) -> StreamTally:
    """The oracle's access stream, event by event, exactly as
    `baseline_oracle.oracle_for_trace` builds it, with group attribution."""
    oracle = BaselineOracle(region_size, arity, cache_bytes)
    t = StreamTally()

    def drain(group):
        for a in oracle.accesses:
            t.add(a.op, a.klass, a.addr, a.length, group)
        oracle.accesses.clear()

    for ev, obj in _mem_events(trace):
        first = obj.base + (ev.offset // LINE) * LINE
        last = obj.base + ((ev.offset + ev.length - 1) // LINE) * LINE
        step = oracle.write if ev.op == "write" else oracle.read
        for pa in range(first, last + LINE, LINE):
            step(pa)
        drain(ev.group)
    oracle.flush()
    drain(flush_group(trace))
    t.groups.setdefault(flush_group(trace), [0, 0])
    return t


def est_time(groups: dict[int, list[int]], compute_macs: dict[int, float]) -> float:
    """README timing formula, background writes:
    t = sum over groups of max(c / mpc, (r + w) / BW + L)."""
    total = 0.0
    for g in sorted(set(groups) | set(compute_macs)):
        r, w = groups.get(g, (0, 0))
        cc = compute_macs.get(g, 0.0) / MACS_PER_CYCLE
        total += max(cc, (r + w) / BYTES_PER_CYCLE + FIXED_LATENCY)
    return total


# -- keys, VNs and payloads from their definitions -------------------------------

def keys_for(seed: int) -> tuple[bytes, bytes]:
    enc = hashlib.sha256(f"mgxsim-enc-{seed}".encode()).digest()[:16]
    mac = hashlib.sha256(f"mgxsim-mac-{seed}".encode()).digest()[:32]
    return enc, mac


def final_writes(trace) -> dict[str, list[tuple[int, int, int]]]:
    """Per object, every write as (start, end, vn) in trace order, with VNs
    generated from the on-chip counters as the mgx scheme defines them."""
    ctr = Counter()
    bump = {"update_i": "i", "update_w": "w", "update_genome": "genome", "update_query": "query"}
    out: dict[str, list[tuple[int, int, int]]] = {}
    for ev in trace.events:
        if ev.op in bump:
            ctr[bump[ev.op]] += 1
            continue
        if ev.op != "write":
            continue
        kind, arg = ev.vn_source.kind, ev.vn_source.arg
        vn = {
            "weights": ctr["w"],
            "feature": (ctr["i"] << 8) | arg,
            "frame": (ctr["i"] << 8) | arg,
            "genome": ctr["genome"],
            "query": (ctr["genome"] << 32) | ctr["query"],
        }[kind]
        out.setdefault(ev.obj_id, []).append((ev.offset, ev.offset + ev.length, vn))
    return out


def _latest(writes, lo: int, hi: int):
    """Newest write overlapping [lo, hi), or None."""
    for s, e, vn in reversed(writes):
        if s < hi and e > lo:
            return s, e, vn
    return None


def cipher_sample(trace, rng, blocks: int, chunks: int):
    """Seeded sample of 16-byte cipher blocks and whole MAC chunks whose final
    contents were written by one write: (obj_id, offset, length, vn)."""
    writes = final_writes(trace)
    names = sorted(writes)
    picked_blocks, picked_chunks = [], []
    for _ in range(64 * (blocks + chunks)):
        if len(picked_blocks) >= blocks and len(picked_chunks) >= chunks:
            break
        obj = trace.objects[rng.choice(names)]
        ws = writes[obj.obj_id]
        if len(picked_blocks) < blocks:
            off = rng.randrange(0, obj.size // 16) * 16
            w = _latest(ws, off, off + 16)
            if w and w[0] <= off and off + 16 <= w[1]:
                picked_blocks.append((obj.obj_id, off, 16, w[2]))
        if len(picked_chunks) < chunks:
            k = obj.mac_granularity
            c = rng.randrange(0, -(-obj.size // k))
            cs, ce = c * k, min((c + 1) * k, obj.size)
            w = _latest(ws, cs, ce)
            if w and w[0] <= cs and ce <= w[1]:
                picked_chunks.append((obj.obj_id, cs, ce - cs, w[2]))
    return picked_blocks, picked_chunks


def read_sample(trace, memory, blocks, chunks):
    """Ciphertext and stored tags for a sample, read from untrusted memory."""
    objs = trace.objects
    got_blocks = [memory.peek(objs[o].base + off, n).hex() for o, off, n, _ in blocks]
    got_chunks = []
    for o, cs, n, _ in chunks:
        obj = objs[o]
        tag_addr = obj.mac_start + MAC_BYTES * (cs // obj.mac_granularity)
        got_chunks.append(
            (memory.peek(obj.base + cs, n).hex(), memory.peek(tag_addr, MAC_BYTES).hex())
        )
    return got_blocks, got_chunks


def check_cipher_sample(trace, blocks, chunks, got_blocks, got_chunks) -> list[str]:
    """Sampled ciphertext decrypts to SHAKE-256(obj_id|vn) under the reference
    AES; sampled chunk tags recompute with keyed BLAKE2b."""
    enc, mac = keys_for(trace.seed)
    fails = []
    for (o, off, n, vn), ct_hex in zip(blocks, got_blocks):
        pa = trace.objects[o].base + off
        pad = aes128_encrypt_block(enc, struct.pack(">QQ", pa, vn))
        pt = bytes(a ^ b for a, b in zip(bytes.fromhex(ct_hex), pad))
        want = hashlib.shake_256(f"{o}|{vn}".encode()).digest(off + n)[off:]
        if pt != want:
            fails.append(f"{o}[{off}:{off + n}] does not decrypt to its payload")
    for (o, cs, n, vn), (ct_hex, tag_hex) in zip(chunks, got_chunks):
        ct = bytes.fromhex(ct_hex)
        h = hashlib.blake2b(key=mac, digest_size=MAC_BYTES)
        pa = trace.objects[o].base + cs
        h.update(struct.pack(">Q", len(ct)) + ct + struct.pack(">QQ", pa, vn))
        if h.hexdigest() != tag_hex:
            fails.append(f"{o} chunk at {cs}: stored tag does not recompute")
    if not blocks or not chunks:
        fails.append("cipher sample is empty")
    return fails


# -- checks over one replay's summary ------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def check_replay(summary: dict, want: dict) -> list[str]:
    """Compare a replay summary (see `cell.summarize`) with expectations.

    `want` holds `bytes` (per op.class) and `est_time`, and, where the whole
    stream is predicted, `digest` and `records`.
    """
    fails = []
    if not summary["clean"]:
        fails.append(f"replay did not finish cleanly: {summary['outcome']}")
    got = {k: v for k, v in summary["bytes"].items() if v}
    if got != dict(want["bytes"]):
        fails.append(f"bytes by class {got} != expected {dict(want['bytes'])}")
    got_stream = (summary["digest"], summary["records"])
    if "digest" in want and got_stream != (want["digest"], want["records"]):
        fails.append(f"access stream differs from the expected one "
                     f"({summary['records']} vs {want['records']} records)")
    if not _close(summary["est_time"], want["est_time"]):
        fails.append(f"est_time {summary['est_time']!r} != recomputed {want['est_time']!r}")
    return fails


def expectations(trace, scheme: str, region_size: int | None = None) -> dict:
    """Expected `bytes`, `est_time` and, where the whole stream is predicted,
    `digest` and `records` of one replay; JSON-serializable."""
    if scheme == "none":
        t = expected_none(trace)
        return {"bytes": dict(+t.bytes), "digest": t.digest(), "records": t.records,
                "est_time": est_time(t.groups, trace.compute_macs)}
    if scheme == "mgx":
        by, groups = expected_mgx_bytes(trace)
        return {"bytes": dict(by), "est_time": est_time(groups, trace.compute_macs)}
    t = expected_baseline(trace, region_size)
    return {"bytes": dict(+t.bytes), "digest": t.digest(), "records": t.records,
            "est_time": est_time(t.groups, trace.compute_macs)}


def check_campaign(scheme: str, trials: int, detected: int, silent: int) -> list[str]:
    """Protected schemes detect every trial; with no protection the same
    hooks are never detected and every trial ends in silent corruption."""
    if scheme == "none":
        if detected or silent != trials:
            return [f"none control: {detected} detected, {silent}/{trials} silent"]
        return []
    if detected != trials:
        return [f"{scheme}: {trials - detected} of {trials} trials undetected"]
    return []
