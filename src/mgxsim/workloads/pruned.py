"""Dynamically pruned layers exchanging features in CSR form.

Each feature edge is three sub-objects sized for the worst (dense) case so the
address map is static: V (nonzero values), R (row pointers), C (column
indices). How much of V and C is actually written depends on data: a seeded
draw decides each edge's nonzero count. All three sub-objects share the
feature edge's VN; a layer reads exactly the prefix its producer wrote and
writes only its own nonzero outputs, so fully pruned chunks never get a MAC
and are never touched again.
"""

from __future__ import annotations

import random

from ..errors import ConfigError
from .trace import Trace, TraceBuilder, VnSource

_WEIGHTS = VnSource("weights")


def _feat(vid: int) -> VnSource:
    return VnSource("feature", vid)


class _CsrEdge:
    def __init__(self, b: TraceBuilder, tag: str, rows: int, cols: int):
        n = rows * cols
        self.v = b.alloc(f"{tag}_V", n)  # 1-byte values
        self.r = b.alloc(f"{tag}_R", 4 * (rows + 1))
        self.c = b.alloc(f"{tag}_C", 2 * n)  # 2-byte column indices
        self.n = n

    def write(self, b: TraceBuilder, vid: int, nnz: int):
        if nnz == 0:
            return
        b.write(self.v, _feat(vid), 0, nnz)
        b.write(self.r, _feat(vid))
        b.write(self.c, _feat(vid), 0, 2 * nnz)

    def read(self, b: TraceBuilder, vid: int, nnz: int):
        if nnz == 0:
            return
        b.read(self.v, _feat(vid), 0, nnz)
        b.read(self.r, _feat(vid))
        b.read(self.c, _feat(vid), 0, 2 * nnz)


def pruned_trace(
    *,
    rows: int = 64,
    cols: int = 64,
    layers: int = 2,
    sparsity: float = 0.9,
    seed: int = 0,
    num_inputs: int = 1,
    mac_granularity: int = 1024,
) -> Trace:
    """A pipeline of `layers` pruned layers over `num_inputs` inputs.

    sparsity is the expected fraction of zero outputs; each edge's actual
    nonzero count is drawn from the seeded generator, jittered around the
    target. sparsity=0 writes dense-sized prefixes, sparsity=1 writes nothing.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ConfigError("sparsity must be within [0, 1]")
    if layers < 1 or rows < 1 or cols < 1:
        raise ConfigError("layers, rows and cols must be positive")
    if layers + 1 > 255:
        raise ConfigError("pipeline needs more vIDs than the 8-bit field holds")
    b = TraceBuilder(
        f"pruned-{layers}x{rows}x{cols}-s{sparsity}", seed=seed, mac_granularity=mac_granularity
    )
    rng = random.Random(seed)
    edges = [_CsrEdge(b, f"e{l}", rows, cols) for l in range(layers + 1)]
    weights = [b.alloc(f"w_{l}", rows * cols) for l in range(layers)]

    def draw_nnz(n: int) -> int:
        if sparsity == 0.0:
            return n
        if sparsity == 1.0:
            return 0
        jitter = rng.uniform(0.9, 1.1)
        dense = min(max((1.0 - sparsity) * jitter, 0.0), 1.0)
        return round(n * dense)

    b.update("update_w")
    b.new_group()
    for w in weights:
        b.write(w, _WEIGHTS)
    for _ in range(num_inputs):
        b.update("update_i")
        b.new_group()
        nnz = draw_nnz(edges[0].n)
        edges[0].write(b, 1, nnz)
        for l in range(layers):
            b.new_group(rows * cols * max(nnz, 1))
            b.read(weights[l], _WEIGHTS)
            edges[l].read(b, l + 1, nnz)
            nnz = draw_nnz(edges[l + 1].n)
            edges[l + 1].write(b, l + 2, nnz)
    return b.trace
