"""Span tracing from outside the simulator.

`Tracer.install` replaces public functions and methods of the `mgxsim`
modules with timing wrappers and `Tracer.remove` puts the originals back, so
an untraced pass runs the unmodified code. Each wrapped call is a span with a
name, a start, an end and the span that called it. A span's self time is its
duration minus the time covered by the spans it called.

Coarse spans (trace builds, replays, evaluations, metadata flushes, campaigns)
are kept one by one. The per-access layers (byte store, crypto, payloads,
ledger, engine store/load) run millions of times on the large workloads, so
their spans are folded into per-name totals as they end: calls, total time,
self time and bytes moved.
"""

from __future__ import annotations

import importlib
import time


def _arg(a, kw, i, name):
    return a[i] if len(a) > i else kw[name]


# (owner attribute path, span name, bytes-or-count of one call, keep each span)
_SITES = [
    ("workloads.load_preset", "workloads.build", None, True),
    ("workloads.cnn_inference_trace", "workloads.build", None, True),
    ("workloads.h264_trace", "workloads.build", None, True),
    ("workloads.gact_trace", "workloads.build", None, True),
    ("replay.replay", "replay", None, True),
    ("attacks.replay", "replay", None, True),
    ("perf.evaluate", "perf.evaluate", lambda a, kw: len(_arg(a, kw, 0, "result").log), True),
    ("attacks.run_campaign", "attacks.campaign", None, True),
    ("baseline.BaselineMee.flush", "baseline.flush", None, True),
    ("dram.PhysicalMemory.read", "dram.read", lambda a, kw: _arg(a, kw, 2, "length"), False),
    ("dram.PhysicalMemory.write", "dram.write", lambda a, kw: len(_arg(a, kw, 2, "data")), False),
    ("mgx.MgxMee.store", "mgx.store", None, False),
    ("mgx.MgxMee.load", "mgx.load", None, False),
    ("mgx.WriteLedger.record", "mgx.ledger",
     lambda a, kw: _arg(a, kw, 2, "last_block") - _arg(a, kw, 1, "first_block") + 1, False),
    ("baseline.BaselineMee.store", "baseline.store", None, False),
    ("baseline.BaselineMee.load", "baseline.load", None, False),
    ("mgx.keystream_xor_at", "crypto.keystream", lambda a, kw: len(_arg(a, kw, 4, "data")), False),
    ("mgx.compute_mac", "crypto.mac", lambda a, kw: len(_arg(a, kw, 1, "ciphertext")), False),
    ("baseline.keystream_xor", "crypto.keystream",
     lambda a, kw: len(_arg(a, kw, 3, "data")), False),
    ("baseline.compute_mac", "crypto.mac", lambda a, kw: len(_arg(a, kw, 1, "ciphertext")), False),
    ("replay.payload_for", "payload", lambda a, kw: _arg(a, kw, 3, "length"), False),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        # name -> [calls, total_s, self_s, bytes]
        self.totals: dict[str, list] = {}
        self._stack: list[list] = []  # [child_s, kept span id or None]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, size, keep):
        stack, spans = self._stack, self.spans
        tot = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        def span(*a, **kw):
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*a, **kw)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                tot[0] += 1
                tot[1] += d
                tot[2] += d - frame[0]
                if size is not None:
                    tot[3] += size(a, kw)
                if stack:
                    stack[-1][0] += d
                if keep:
                    spans[frame[1]] = (frame[1], name, t0 - self.t0, t1 - self.t0, parent)

        span.__wrapped__ = fn
        return span

    def install(self, mgxsim_pkg):
        for path, name, size, keep in _SITES:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(f"{mgxsim_pkg}.{owner_path[0]}")
            for part in owner_path[1:]:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, size, keep))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def total(self, *names, field=1) -> float:
        """Sum one field (0 calls, 1 total s, 2 self s, 3 bytes) over names."""
        return sum(self.totals[n][field] for n in names if n in self.totals)

    def dump(self) -> dict:
        return {
            "spans": [s for s in self.spans if s is not None],
            "totals": {
                n: {"calls": c, "total_s": t, "self_s": s, "bytes": b}
                for n, (c, t, s, b) in self.totals.items()
                if c
            },
        }
