"""Video decoding over a small ring of frame buffers.

Frames are given in display order as a pattern string like "IBPBIBPB". The
decoder emits them in decode order: reference frames (I, P) as they appear,
each isolated B frame immediately after the following reference frame it
needs. Frame F lands in buffer F mod buffer_count under VN ctr_i || F, written
exactly once; P frames read the reference two frames back, B frames read both
neighbours. A new stream bumps the input counter, so recycled buffer addresses
never repeat a VN.
"""

from __future__ import annotations

from ..errors import ConfigError
from .trace import Trace, TraceBuilder, VnSource


DEFAULT_PATTERN = "IBPB" * 8


def _frame(f: int) -> VnSource:
    return VnSource("frame", f)


def validate_pattern(pattern: str):
    if not pattern:
        raise ConfigError("empty frame pattern")
    if set(pattern) - set("IPB"):
        raise ConfigError(f"pattern may contain only I, P, B: {pattern!r}")
    if pattern[0] != "I":
        raise ConfigError("pattern must start with an I frame")
    if len(pattern) > 256:
        raise ConfigError("frame numbers beyond 255 do not fit the VN layout")
    for f, kind in enumerate(pattern):
        if kind == "P":
            if f < 2 or pattern[f - 2] == "B":
                raise ConfigError(f"P frame {f} lacks a reference two frames back")
        elif kind == "B":
            # A trailing B at the stream cut predicts backward only; any other
            # B must sit between two reference frames.
            if pattern[f - 1] == "B":
                raise ConfigError(f"B frame {f} lacks a backward reference")
            if f + 1 < len(pattern) and pattern[f + 1] == "B":
                raise ConfigError(f"B frame {f} must sit between reference frames")


def decode_order(pattern: str) -> list[int]:
    validate_pattern(pattern)
    order = []
    for f, kind in enumerate(pattern):
        if kind != "B":
            order.append(f)
            if f >= 1 and pattern[f - 1] == "B":
                order.append(f - 1)
    if pattern[-1] == "B":
        order.append(len(pattern) - 1)
    return order


def h264_trace(
    pattern: str = DEFAULT_PATTERN,
    *,
    buffer_count: int = 3,
    frame_bytes: int = 352 * 288,
    streams: int = 1,
    mac_granularity: int = 1024,
    seed: int = 0,
) -> Trace:
    if buffer_count < 3:
        raise ConfigError("buffer_count must be >= 3 (B frames need three frame buffers)")
    if streams < 1:
        raise ConfigError("streams must be >= 1")
    if frame_bytes < 64 or frame_bytes % 64:
        raise ConfigError("frame_bytes must be a positive multiple of 64")
    order = decode_order(pattern)
    b = TraceBuilder(f"h264-{len(pattern)}f", seed=seed, mac_granularity=mac_granularity)
    bufs = [b.alloc(f"framebuf{i}", frame_bytes) for i in range(buffer_count)]
    for _ in range(streams):
        b.update("update_i")
        for f in order:
            kind = pattern[f]
            refs = []
            if kind == "P":
                refs = [f - 2]
            elif kind == "B":
                refs = [f - 1]
                if f + 1 < len(pattern):
                    refs.append(f + 1)
            b.new_group(frame_bytes * (1 + len(refs)))
            for r in refs:
                b.read(bufs[r % buffer_count], _frame(r))
            b.write(bufs[f % buffer_count], _frame(f))
    return b.trace
