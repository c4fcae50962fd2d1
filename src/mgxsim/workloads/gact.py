"""Genome alignment traffic: write-once reference tables, per-batch queries,
sequentially written traceback output.

Per genome, the reference sequence plus its seed and position tables are
written once under the genome counter and are read-only afterwards. Each query
batch bumps the query counter; the batch's queries and traceback region live
under VN = ctr_genome || ctr_query. Lookup positions in the tables are seeded
pseudo-random (the access pattern is irregular by nature; no positional
fidelity is claimed), while each query's traceback slice is written exactly
once, in order.
"""

from __future__ import annotations

import random

from ..errors import ConfigError
from .trace import Trace, TraceBuilder, VnSource

_GENOME = VnSource("genome")
_QUERY = VnSource("query")


def _aligned_slice(rng: random.Random, size: int, want: int) -> tuple[int, int]:
    """A 64-aligned slice of roughly `want` bytes inside [0, size)."""
    want = min(want, size)
    want = max(64, want & ~63)
    hi = (size - want) // 64
    return rng.randint(0, hi) * 64 if hi > 0 else 0, want


def gact_trace(
    *,
    genomes: int = 1,
    batches: int = 2,
    queries_per_batch: int = 8,
    reference_bytes: int = 1 << 20,
    seed_table_bytes: int = 1 << 18,
    pos_table_bytes: int = 1 << 19,
    query_bytes: int = 256,
    traceback_bytes: int = 4096,
    lookups_per_query: int = 4,
    mac_granularity: int = 1024,
    seed: int = 0,
) -> Trace:
    for name, v, least in (
        ("genomes", genomes, 1),
        ("batches", batches, 1),
        ("queries_per_batch", queries_per_batch, 1),
        ("lookups_per_query", lookups_per_query, 0),
        # a lookup reads at least one 64-byte slice of each table
        ("reference_bytes", reference_bytes, 64),
        ("seed_table_bytes", seed_table_bytes, 64),
        ("pos_table_bytes", pos_table_bytes, 64),
    ):
        if v < least:
            raise ConfigError(f"{name} must be >= {least}")
    for name, v in (("query_bytes", query_bytes), ("traceback_bytes", traceback_bytes)):
        if v < 64 or v % 64:
            raise ConfigError(f"{name} must be a positive multiple of 64")
    b = TraceBuilder(
        f"gact-g{genomes}b{batches}q{queries_per_batch}", seed=seed, mac_granularity=mac_granularity
    )
    rng = random.Random(seed)
    reference = b.alloc("reference", reference_bytes)
    seeds = b.alloc("seed_table", seed_table_bytes)
    positions = b.alloc("pos_table", pos_table_bytes)
    queries = b.alloc("query_batch", queries_per_batch * query_bytes)
    traceback = b.alloc("traceback", queries_per_batch * traceback_bytes)
    for _ in range(genomes):
        b.update("update_genome")
        b.new_group()
        b.write(reference, _GENOME)
        b.write(seeds, _GENOME)
        b.write(positions, _GENOME)
        for _ in range(batches):
            b.update("update_query")
            b.new_group()
            b.write(queries, _QUERY)
            for q in range(queries_per_batch):
                b.new_group(query_bytes * 64)
                b.read(queries, _QUERY, q * query_bytes, query_bytes)
                for _ in range(lookups_per_query):
                    off, n = _aligned_slice(rng, seed_table_bytes, 512)
                    b.read(seeds, _GENOME, off, n)
                    off, n = _aligned_slice(rng, pos_table_bytes, 512)
                    b.read(positions, _GENOME, off, n)
                    off, n = _aligned_slice(rng, reference_bytes, 4096)
                    b.read(reference, _GENOME, off, n)
                b.write(traceback, _QUERY, q * traceback_bytes, traceback_bytes)
            # Host drains the batch's alignment results.
            b.new_group()
            b.read(traceback, _QUERY)
    return b.trace
