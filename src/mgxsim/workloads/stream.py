"""Write-once/read-once streaming trace for traffic calibration and the
path-enumeration oracle comparisons."""

from __future__ import annotations

from ..errors import ConfigError
from .trace import Trace, TraceBuilder, VnSource


def streaming_trace(
    total_bytes: int = 10 << 20,
    *,
    object_bytes: int = 1 << 20,
    mac_granularity: int = 1024,
    seed: int = 0,
) -> Trace:
    """Writes `total_bytes` of fresh data object by object, then reads it all
    back once. Every feature edge gets its own vID so successive runs of the
    generator stay replayable under one input epoch."""
    if total_bytes <= 0:
        raise ConfigError("total_bytes must be positive")
    if object_bytes <= 0 or object_bytes % 64:
        raise ConfigError("object_bytes must be a positive multiple of 64")
    count = (total_bytes + object_bytes - 1) // object_bytes
    if count > 255:
        raise ConfigError("too many stream objects for distinct vIDs; enlarge object_bytes")
    b = TraceBuilder(f"stream-{total_bytes >> 20}MiB", seed=seed, mac_granularity=mac_granularity)
    objs = []
    remaining = total_bytes
    for i in range(count):
        n = min(object_bytes, remaining)
        n = (n + 63) & ~63
        objs.append(b.alloc(f"stream_{i}", n))
        remaining -= n
    b.update("update_i")
    for i, o in enumerate(objs):
        b.new_group()
        b.write(o, VnSource("feature", i + 1))
    for i, o in enumerate(objs):
        b.new_group()
        b.read(o, VnSource("feature", i + 1))
    return b.trace
