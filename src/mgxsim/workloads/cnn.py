"""Trace generators for feedforward network inference and training.

Inference, per input: bump the input counter, store the input edge under vID 1,
then run each vertex as one event group that reads its weights and feature
inputs (each under the producer's vID) and writes its output edge under its own
vID. The model itself is stored once up front under the weight counter;
`reload_model` epochs can be appended to model mid-run model swaps.

Training, per iteration: same forward pass, then a loss group writing the
gradient of the final feature edge, then a backward sweep. The gradient edge
paired with feature edge vID v is a distinct object written under the same VN
(feature:v), which is safe precisely because the iteration counter moved since
any other use. Weights are rewritten once per iteration under the bumped
weight counter. Gradient contributions flowing through bypass edges are folded
on-chip, so each gradient edge is written exactly once per iteration.
"""

from __future__ import annotations

from ..errors import ConfigError
from .graph import INPUT_NAME, NetworkGraph
from .trace import Trace, TraceBuilder, VnSource

_WEIGHTS = VnSource("weights")


def _feat(vid: int) -> VnSource:
    return VnSource("feature", vid)


class _Objects:
    """Feature/weight/gradient objects for one graph, allocated contiguously."""

    def __init__(self, b: TraceBuilder, graph: NetworkGraph, gradients: bool):
        self.feat = {INPUT_NAME: b.alloc("feat_in", graph.input_bytes)}
        for layer in graph.layers:
            self.feat[layer.name] = b.alloc(f"feat_{layer.name}", layer.out_bytes)
        self.weights = {
            l.name: b.alloc(f"w_{l.name}", l.weight_bytes)
            for l in graph.layers
            if l.weight_bytes
        }
        self.grad = {}
        if gradients:
            self.grad[INPUT_NAME] = b.alloc("grad_in", graph.input_bytes)
            for layer in graph.layers:
                self.grad[layer.name] = b.alloc(f"grad_{layer.name}", layer.out_bytes)


def _store_model(b: TraceBuilder, graph: NetworkGraph, objs: _Objects):
    b.update("update_w")
    b.new_group()
    for layer in graph.layers:
        if layer.weight_bytes:
            b.write(objs.weights[layer.name], _WEIGHTS)


def _forward(b: TraceBuilder, graph: NetworkGraph, objs: _Objects):
    b.update("update_i")
    b.new_group()
    b.write(objs.feat[INPUT_NAME], _feat(1))
    for i, layer in enumerate(graph.layers):
        b.new_group(layer.mac_ops)
        if layer.kind == "input":
            # Externally produced data arriving mid-network (e.g. a recurrent
            # cell's per-timestep input); nothing to read.
            for p in range(layer.dram_writes):
                b.write(objs.feat[layer.name], _feat(graph.first_vid[layer.name] + p))
            continue
        if layer.weight_bytes:
            b.read(objs.weights[layer.name], _WEIGHTS)
        producer = graph.producer_name(i)
        b.read(objs.feat[producer], _feat(graph.vid_of(producer)))
        for extra in layer.bypass_from:
            b.read(objs.feat[extra], _feat(graph.vid_of(extra)))
        for p in range(layer.dram_writes):
            b.write(objs.feat[layer.name], _feat(graph.first_vid[layer.name] + p))


def cnn_inference_trace(
    graph: NetworkGraph,
    num_inputs: int = 1,
    *,
    mac_granularity: int = 1024,
    seed: int = 0,
    reload_model_every: int = 0,
) -> Trace:
    """Inference over `num_inputs` inputs. With reload_model_every=n > 0, the
    weights are re-provisioned under a fresh weight counter before inputs
    n, 2n, ... (a mid-run model swap)."""
    if num_inputs < 0:
        raise ConfigError("num_inputs must be >= 0")
    if reload_model_every < 0:
        raise ConfigError("reload_model_every must be >= 0")
    b = TraceBuilder(f"{graph.name}-inference", seed=seed, mac_granularity=mac_granularity)
    objs = _Objects(b, graph, gradients=False)
    _store_model(b, graph, objs)
    for n in range(num_inputs):
        if reload_model_every and n and n % reload_model_every == 0:
            _store_model(b, graph, objs)
        _forward(b, graph, objs)
    return b.trace


def cnn_training_trace(
    graph: NetworkGraph,
    iterations: int = 1,
    *,
    mac_granularity: int = 1024,
    seed: int = 0,
) -> Trace:
    if iterations < 0:
        raise ConfigError("iterations must be >= 0")
    consumers: dict[str, int] = {}
    for i, layer in enumerate(graph.layers):
        if layer.kind != "input":
            p = graph.producer_name(i)
            consumers[p] = consumers.get(p, 0) + 1
    forked = [p for p, n in consumers.items() if n > 1]
    if forked:
        # Two consumers would each write the shared producer's gradient edge
        # under one VN; accumulation across branches happens on-chip only in
        # chain-shaped graphs here.
        raise ConfigError(
            f"training requires a chain-shaped graph; {forked[0]!r} feeds multiple vertices"
        )
    b = TraceBuilder(f"{graph.name}-training", seed=seed, mac_granularity=mac_granularity)
    objs = _Objects(b, graph, gradients=True)
    _store_model(b, graph, objs)
    last = graph.layers[-1]
    for _ in range(iterations):
        _forward(b, graph, objs)
        # Loss: gradient of the final feature edge, same VN as that edge.
        b.new_group(last.out_bytes)
        b.write(objs.grad[last.name], _feat(graph.out_vid[last.name]))
        for i in range(len(graph.layers) - 1, -1, -1):
            layer = graph.layers[i]
            if layer.kind == "input":
                continue
            b.new_group(2 * layer.mac_ops)
            b.read(objs.grad[layer.name], _feat(graph.out_vid[layer.name]))
            if layer.weight_bytes:
                b.read(objs.weights[layer.name], _WEIGHTS)
            producer = graph.producer_name(i)
            b.read(objs.feat[producer], _feat(graph.vid_of(producer)))
            b.write(objs.grad[producer], _feat(graph.vid_of(producer)))
        b.update("update_w")
        for layer in graph.layers:
            if layer.weight_bytes:
                b.new_group(layer.weight_bytes)
                b.write(objs.weights[layer.name], _WEIGHTS)
    return b.trace
