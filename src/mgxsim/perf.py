"""Closed-form performance model over a replayed access log.

Accelerator kernels are modeled as compute groups: each group's arithmetic
(MAC operations) overlaps its DRAM traffic via double buffering. For a group
moving r read bytes and w written bytes with c MAC operations:

    background writes:  t = max(c / macs_per_cycle, (r + w) / BW + L)
    synchronous writes: t = max(c / macs_per_cycle, r / BW + L) + w / BW

BW is channels * bytes_per_cycle_per_channel and L a fixed access latency
charged once per group; streaming hides the rest. Background mode never
exceeds synchronous mode for the same traffic, and extra traffic never makes
a group faster, which gives the scheme orderings their shape.

Every figure comes from the byte totals the replay recorded at the end of
each group span, so an evaluation costs O(groups), not O(log records), and
never reads the log itself.

Traffic increase is measured in bytes: everything the engine moved (data and
metadata classes alike) divided by the bytes the trace's events name. An
unprotected replay moves exactly the named bytes, so its ratio is 1.0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .dram import DATA, META_CLASSES, RECORD_KINDS
from .errors import ConfigError
from .replay import ReplayResult


@dataclass(frozen=True)
class DramModel:
    channels: int = 1
    bytes_per_cycle_per_channel: float = 8.0
    fixed_latency: float = 100.0
    background_writes: bool = True

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels={self.channels!r} must be at least 1")
        if not 0 < self.bytes_per_cycle_per_channel < math.inf:
            raise ConfigError(
                f"bytes_per_cycle_per_channel={self.bytes_per_cycle_per_channel!r} "
                "must be positive and finite"
            )
        if not 0 <= self.fixed_latency < math.inf:
            raise ConfigError(
                f"fixed_latency={self.fixed_latency!r} must be non-negative and finite"
            )

    @property
    def bandwidth(self) -> float:
        """Bytes per cycle across all channels."""
        return self.channels * self.bytes_per_cycle_per_channel


@dataclass(frozen=True)
class ComputeModel:
    macs_per_cycle: float = 2048.0

    def __post_init__(self):
        if not 0 < self.macs_per_cycle < math.inf:
            raise ConfigError(f"macs_per_cycle={self.macs_per_cycle!r} must be positive and finite")


@dataclass
class ProtectionStats:
    """Byte counts split by DRAM traffic class."""

    read_bytes: dict[str, int] = field(default_factory=dict)
    write_bytes: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of_replay(cls, result: ReplayResult) -> "ProtectionStats":
        """Stats of a replay's whole log, from the byte totals recorded at
        its last group boundary: one key per class that moved bytes."""
        s = cls()
        totals = result.group_totals[-1] if result.group_totals else ()
        for (op, klass), nbytes in zip(RECORD_KINDS, totals):
            if nbytes:
                (s.read_bytes if op == "read" else s.write_bytes)[klass] = nbytes
        return s

    @property
    def data_bytes(self) -> int:
        return self.read_bytes.get(DATA, 0) + self.write_bytes.get(DATA, 0)

    @property
    def meta_bytes(self) -> int:
        return sum(self.read_bytes.get(k, 0) + self.write_bytes.get(k, 0) for k in META_CLASSES)

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.meta_bytes


class GroupCost(NamedTuple):
    group: int
    read_bytes: int
    write_bytes: int
    compute_macs: float
    compute_cycles: float
    mem_cycles: float
    cycles: float


_READ_KINDS = sum(op == "read" for op, _ in RECORD_KINDS)  # reads come first


def _group_traffic(result: ReplayResult) -> dict[int, tuple[int, int]]:
    """Aggregate (read bytes, write bytes) per group id over the log spans,
    from the byte totals recorded at each span's end."""
    traffic: dict[int, tuple[int, int]] = {}
    r0 = w0 = 0
    for (g, _, _), totals in zip(result.group_spans, result.group_totals):
        r1, w1 = sum(totals[:_READ_KINDS]), sum(totals[_READ_KINDS:])
        r, w = traffic.get(g, (0, 0))
        traffic[g] = (r + r1 - r0, w + w1 - w0)
        r0, w0 = r1, w1
    return traffic


def cost_groups(
    result: ReplayResult,
    dram: DramModel | None = None,
    compute: ComputeModel | None = None,
) -> list[GroupCost]:
    dram = dram or DramModel()
    compute = compute or ComputeModel()
    bw = dram.bandwidth
    traffic = _group_traffic(result)
    groups = set(traffic) | set(result.trace.compute_macs)
    costs = []
    for g in sorted(groups):
        r, w = traffic.get(g, (0, 0))
        macs = result.trace.compute_macs.get(g, 0.0)
        cc = macs / compute.macs_per_cycle
        lat = dram.fixed_latency
        if dram.background_writes:
            mem = (r + w) / bw + lat
            total = max(cc, mem)
        else:
            mem = r / bw + lat + w / bw
            total = max(cc, r / bw + lat) + w / bw
        costs.append(GroupCost(g, r, w, macs, cc, mem, total))
    return costs


@dataclass
class SimResult:
    replay: ReplayResult
    stats: ProtectionStats
    groups: list[GroupCost]
    est_time: float
    traffic_increase: float


def evaluate(
    result: ReplayResult,
    dram: DramModel | None = None,
    compute: ComputeModel | None = None,
) -> SimResult:
    """The model's figures for a replay: cost per group, their sum in
    accelerator cycles (`est_time`) and the traffic increase."""
    stats = ProtectionStats.of_replay(result)
    groups = cost_groups(result, dram, compute)
    payload = result.trace.payload_bytes()
    return SimResult(
        replay=result,
        stats=stats,
        groups=groups,
        est_time=sum(c.cycles for c in groups),
        traffic_increase=stats.total_bytes / payload if payload else 1.0,
    )


def stats_row(sim: SimResult, param: str = "", value="") -> dict:
    return {
        "scheme": sim.replay.scheme,
        "workload": sim.replay.trace.workload,
        "param": param,
        "value": value,
        "data_bytes": sim.stats.data_bytes,
        "meta_bytes": sim.stats.meta_bytes,
        "traffic_increase": f"{sim.traffic_increase:.6f}",
        "est_time": f"{sim.est_time:.1f}",
    }


def write_stats_csv(rows: list[dict], path: str):
    """Write `rows` as CSV, with the first row's keys as the header."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
