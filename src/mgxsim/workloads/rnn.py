"""Recurrent networks, handled by unrolling into a feedforward graph.

Timestep t's copy of the cell chains off timestep t-1's final output (the
hidden state); the per-timestep external input x_t is an 'input'-kind vertex
bypass-fed into the copy's first layer. Unrolling with T=1 returns the cell
unchanged, so a single-step RNN and the plain cell produce identical traces.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ConfigError
from .cnn import cnn_inference_trace, cnn_training_trace
from .graph import LayerSpec, NetworkGraph
from .trace import Trace


def unroll(cell: NetworkGraph, timesteps: int) -> NetworkGraph:
    if timesteps < 1:
        raise ConfigError("timesteps must be >= 1")
    if timesteps == 1:
        return cell
    layers: list[LayerSpec] = []
    for t in range(1, timesteps + 1):
        prefix = f"t{t}_"
        if t > 1:
            layers.append(
                LayerSpec(
                    name=f"{prefix}x",
                    kind="input",
                    in_dims=cell.input_dims,
                    out_dims=cell.input_dims,
                )
            )
        for i, src in enumerate(cell.layers):
            renamed = replace(
                src,
                name=prefix + src.name,
                bypass_from=tuple(prefix + b for b in src.bypass_from),
                in_from=(prefix + src.in_from) if src.in_from else None,
            )
            if t > 1 and i == 0:
                # Chain from the previous timestep's hidden state; take x_t as
                # an extra edge.
                renamed = replace(
                    renamed,
                    in_from=f"t{t - 1}_{cell.layers[-1].name}",
                    bypass_from=renamed.bypass_from + (f"{prefix}x",),
                )
            layers.append(renamed)
    try:
        return NetworkGraph(f"{cell.name}-T{timesteps}", cell.input_dims, layers)
    except ConfigError as exc:  # the unrolled copies ran out of vIDs
        raise ConfigError(f"timesteps={timesteps}: {exc}") from None


def rnn_trace(
    cell: NetworkGraph,
    timesteps: int,
    *,
    task: str = "inference",
    sequences: int = 1,
    mac_granularity: int = 1024,
    seed: int = 0,
) -> Trace:
    """One trace per unrolled sequence batch. `sequences` plays the role
    inputs/iterations play for the feedforward generators."""
    if sequences < 0:
        raise ConfigError("sequences must be >= 0")
    g = unroll(cell, timesteps)
    if task == "inference":
        t = cnn_inference_trace(g, sequences, mac_granularity=mac_granularity, seed=seed)
    elif task == "training":
        t = cnn_training_trace(g, sequences, mac_granularity=mac_granularity, seed=seed)
    else:
        raise ConfigError(f"unknown task {task!r} (inference|training)")
    t.workload = f"{cell.name}-rnn-T{timesteps}-{task}"
    return t
