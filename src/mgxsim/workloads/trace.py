"""Trace representation: symbolic memory events plus the object map.

Events carry a symbolic VN source rather than a concrete number, and
counter-update events advance the on-chip counters in-band, so the same trace
is valid whenever it is replayed; `mgx.resolve_vns` turns the sources into
VNs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..dram import ADDRESS_LIMIT
from ..errors import ConfigError, TraceFormatError, has_type
from ..mgx import READ, UPDATE_OPS, VN_KINDS, WRITE, ObjectDescriptor, resolve_vns


class VnSource(NamedTuple):
    kind: str  # one of VN_KINDS
    arg: int = 0

    def __str__(self):
        if VN_KINDS.get(self.kind, False):
            return f"{self.kind}:{self.arg}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "VnSource":
        kind, sep, arg = text.partition(":")
        return cls(kind, int(arg)) if sep else cls(kind)


class TraceEvent(NamedTuple):
    op: str  # READ | WRITE | one of UPDATE_OPS
    obj_id: str  # "" for update events
    vn_source: VnSource | None
    offset: int
    length: int
    group: int


@dataclass
class Trace:
    workload: str
    events: list[TraceEvent] = field(default_factory=list)
    objects: dict[str, ObjectDescriptor] = field(default_factory=dict)
    compute_macs: dict[int, float] = field(default_factory=dict)
    seed: int = 0

    @property
    def span_end(self) -> int:
        """One past the highest address any object (MAC shadow included) uses."""
        return max((o.end for o in self.objects.values()), default=0)

    def payload_bytes(self) -> int:
        """Bytes an unprotected accelerator would move for this trace."""
        return sum(e.length for e in self.events if e.op in (READ, WRITE))

    def validate(self) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
        """Raise ConfigError unless this is a legal trace: every group's
        compute weight is finite and non-negative, no object's data range or
        MAC shadow overlaps another's, and every event is either an update
        op naming no object and no VN source, or a read or write inside a
        known object under a VN source whose kind exists and whose argument
        fits its field. Return `mgx.resolve_vns(self)`, which checks the
        sources, so that a replay walks the counters once."""
        for g, macs in self.compute_macs.items():
            if not 0 <= macs < math.inf:
                raise ConfigError(f"group {g}: compute weight {macs} is not finite and >= 0")
        spans = sorted(
            (lo, hi, o.obj_id)
            for o in self.objects.values()
            for lo, hi in ((o.base, o.base + o.size), (o.mac_start, o.mac_addr(o.num_chunks)))
            if lo < hi
        )
        # Sorted by start, any overlap shows up between neighbours.
        for (_, hi, a), (lo, _, b) in zip(spans, spans[1:]):
            if lo < hi:
                raise ConfigError(f"objects {a} and {b} overlap")
        if spans and spans[-1][1] > ADDRESS_LIMIT:
            raise ConfigError(f"object {spans[-1][2]} ends beyond the 64-bit address space")
        for i, ev in enumerate(self.events):
            if ev.op in UPDATE_OPS:
                if ev.obj_id or ev.vn_source is not None:
                    raise ConfigError(f"event {i}: update op {ev.op} names an object or VN source")
                continue
            if ev.op not in (READ, WRITE):
                raise ConfigError(f"event {i}: unknown trace op {ev.op!r}")
            obj = self.objects.get(ev.obj_id)
            if obj is None:
                raise ConfigError(f"event {i} references unknown object {ev.obj_id!r}")
            if ev.offset < 0 or ev.length < 0 or ev.offset + ev.length > obj.size:
                raise ConfigError(
                    f"event {i} range [{ev.offset},{ev.offset + ev.length}) exceeds "
                    f"object {obj.obj_id} of size {obj.size}"
                )
            if not isinstance(ev.vn_source, VnSource):
                raise ConfigError(f"event {i}: {ev.op} without a VN source")
        return resolve_vns(self)


class TraceBuilder:
    """Incremental construction helper used by the generators."""

    def __init__(self, workload: str, seed: int = 0, mac_granularity: int = 1024):
        self.trace = Trace(workload, seed=seed)
        self._cursor = 0
        self._group = -1
        self.mac_granularity = mac_granularity

    def alloc(self, obj_id: str, size: int) -> ObjectDescriptor:
        if obj_id in self.trace.objects:
            raise ConfigError(f"duplicate object id {obj_id}")
        obj = ObjectDescriptor(obj_id, self._cursor, size, self.mac_granularity)
        self._cursor = _align64(obj.end)
        self.trace.objects[obj_id] = obj
        return obj

    def new_group(self, compute_macs: float = 0.0) -> int:
        self._group += 1
        self.trace.compute_macs[self._group] = float(compute_macs)
        return self._group

    def read(self, obj: ObjectDescriptor, src: VnSource, offset: int = 0, length: int | None = None):
        n = obj.size - offset if length is None else length
        if n > 0:
            self.trace.events.append(TraceEvent(READ, obj.obj_id, src, offset, n, self._group))

    def write(self, obj: ObjectDescriptor, src: VnSource, offset: int = 0, length: int | None = None):
        n = obj.size - offset if length is None else length
        if n > 0:
            self.trace.events.append(TraceEvent(WRITE, obj.obj_id, src, offset, n, self._group))

    def update(self, op: str):
        if op not in UPDATE_OPS:
            raise ConfigError(f"unknown update op {op}")
        if self._group < 0:
            self.new_group()
        self.trace.events.append(TraceEvent(op, "", None, 0, 0, self._group))


def _align64(x: int) -> int:
    return (x + 63) & ~63


# -- export / import --------------------------------------------------------

def export_trace(trace: Trace, csv_path: str):
    """Write the event stream as CSV plus a .meta.json sidecar holding the
    object map and per-group compute weights."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["op", "obj_id", "vn_source", "offset", "len", "group"])
        for e in trace.events:
            w.writerow(
                [e.op, e.obj_id, str(e.vn_source) if e.vn_source else "", e.offset, e.length, e.group]
            )
    meta = {
        "workload": trace.workload,
        "seed": trace.seed,
        "objects": [
            {
                "obj_id": o.obj_id,
                "base": o.base,
                "size": o.size,
                "mac_granularity": o.mac_granularity,
                "mac_base": o.mac_start,
            }
            for o in trace.objects.values()
        ],
        "compute_macs": {str(g): v for g, v in trace.compute_macs.items()},
    }
    with open(csv_path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def import_trace(csv_path: str) -> Trace:
    """Parse an exported trace and validate it. A trace file that cannot be
    opened raises ConfigError; every defect of the files, an unreadable
    sidecar included, raises TraceFormatError."""
    try:
        fh = open(csv_path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trace file {csv_path}: {exc.strerror}") from None
    meta_path = csv_path + ".meta.json"
    try:
        with open(meta_path) as mf:
            meta = json.load(mf)
        seed = meta.get("seed", 0)
        if not has_type(seed, int):
            raise ValueError(f"seed {seed!r} is not an int")
        trace = Trace(meta.get("workload", "imported"), seed=seed)
        for g, v in meta.get("compute_macs", {}).items():
            if not has_type(v, float):
                raise ValueError(f"group {g}: compute weight {v!r} is not a number")
            trace.compute_macs[int(g)] = float(v)
        for o in meta["objects"]:
            if o["obj_id"] in trace.objects:
                raise ValueError(f"duplicate object id {o['obj_id']!r}")
            trace.objects[o["obj_id"]] = ObjectDescriptor(
                o["obj_id"], o["base"], o["size"], o["mac_granularity"], o.get("mac_base")
            )
    except (AttributeError, KeyError, OSError, OverflowError, TypeError, ValueError) as exc:
        fh.close()
        raise TraceFormatError(f"bad trace sidecar {meta_path}: {exc}") from exc
    with fh:
        rows = csv.reader(fh)
        try:
            if next(rows, None) != ["op", "obj_id", "vn_source", "offset", "len", "group"]:
                raise ValueError("unrecognized header")
            for row in rows:
                if row:
                    op, obj_id, src, offset, length, group = row
                    src = VnSource.parse(src) if src else None
                    trace.events.append(
                        TraceEvent(op, obj_id, src, int(offset), int(length), int(group))
                    )
        except (ValueError, csv.Error) as exc:
            raise TraceFormatError(f"bad trace {csv_path}, line {rows.line_num}: {exc}") from exc
    try:
        trace.validate()
    except ConfigError as exc:
        raise TraceFormatError(f"{csv_path}: {exc}") from exc
    return trace
