"""Network graphs: layer tables, vID assignment, preset loading.

A network is an ordered list of vertices. Each vertex consumes one primary
feature edge (the previous vertex's output unless `in_from` names another
producer), optionally reads extra feature edges (`bypass_from`, e.g. residual
connections or concat branches), optionally reads a weight object, and writes
its output feature edge. Feature tensors are byte-sized elements.

vIDs: the network input edge is vID 1; every vertex then takes `dram_writes`
consecutive vIDs for its output edge, in listed order. A vertex that writes
its output n times uses one vID per pass; consumers read the last one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from math import prod

from ..errors import ConfigError

MAX_VID = 255


@dataclass
class LayerSpec:
    name: str
    kind: str  # conv | dense | add | concat | input
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    weight_bytes: int = 0
    bypass_from: tuple[str, ...] = ()
    in_from: str | None = None
    dram_writes: int = 1

    def __post_init__(self):
        if self.dram_writes < 1:
            raise ConfigError(f"layer {self.name}: dram_writes must be >= 1")
        if self.weight_bytes < 0:
            raise ConfigError(f"layer {self.name}: negative weight_bytes")

    @property
    def out_bytes(self) -> int:
        return prod(self.out_dims)

    @property
    def in_bytes(self) -> int:
        return prod(self.in_dims)

    @property
    def mac_ops(self) -> int:
        """Multiply-accumulates implied by the published dimensions.

        conv/dense with byte-sized weights: out_H*out_W*out_C*in_C*k*k equals
        spatial(out) * weight_bytes, and for dense layers the same formula
        degenerates to weight_bytes. Weight-free vertices cost one op per
        output element.
        """
        if self.weight_bytes and self.kind in ("conv", "dense"):
            spatial = prod(self.out_dims[1:]) if len(self.out_dims) > 1 else 1
            return spatial * self.weight_bytes
        return self.out_bytes


INPUT_NAME = "@input"


@dataclass
class NetworkGraph:
    name: str
    input_dims: tuple[int, ...]
    layers: list[LayerSpec]
    out_vid: dict[str, int] = field(default_factory=dict, repr=False)
    first_vid: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        names = set()
        for layer in self.layers:
            if layer.name in names or layer.name == INPUT_NAME:
                raise ConfigError(f"duplicate or reserved layer name {layer.name!r}")
            names.add(layer.name)
        nxt = 2  # vID 1 is the network input edge
        for layer in self.layers:
            self.first_vid[layer.name] = nxt
            nxt += layer.dram_writes
            self.out_vid[layer.name] = nxt - 1
        if nxt - 1 > MAX_VID:
            raise ConfigError(
                f"network {self.name} needs {nxt - 1} vIDs, more than the 8-bit field holds"
            )
        self._validate_producers(names)

    def _validate_producers(self, names: set[str]):
        listed = [l.name for l in self.layers]
        for i, layer in enumerate(self.layers):
            for ref in (layer.in_from, *layer.bypass_from):
                if ref is None or ref == INPUT_NAME:
                    continue
                if ref not in names:
                    raise ConfigError(f"layer {layer.name} references unknown producer {ref!r}")
                if listed.index(ref) >= i:
                    raise ConfigError(f"layer {layer.name} reads {ref!r} before it runs")
            if (
                layer.kind in ("conv", "dense")
                and not layer.bypass_from
                and layer.in_bytes != prod(self.producer_dims(i))
            ):
                raise ConfigError(
                    f"layer {layer.name}: in_dims {layer.in_dims} disagree with its "
                    f"producer's output {self.producer_dims(i)}"
                )

    def producer_name(self, index: int) -> str:
        layer = self.layers[index]
        if layer.in_from is not None:
            return layer.in_from
        if index == 0:
            return INPUT_NAME
        return self.layers[index - 1].name

    def producer_dims(self, index: int) -> tuple[int, ...]:
        p = self.producer_name(index)
        if p == INPUT_NAME:
            return self.input_dims
        return next(l.out_dims for l in self.layers if l.name == p)

    def vid_of(self, producer: str) -> int:
        if producer == INPUT_NAME:
            return 1
        return self.out_vid[producer]

    @property
    def input_bytes(self) -> int:
        return prod(self.input_dims)


def graph_from_dict(spec: dict) -> NetworkGraph:
    try:
        layers = [
            LayerSpec(
                name=l["name"],
                kind=l["type"],
                in_dims=tuple(l["in_dims"]),
                out_dims=tuple(l["out_dims"]),
                weight_bytes=int(l.get("weight_bytes", 0)),
                bypass_from=tuple(l.get("bypass_from", ())),
                in_from=l.get("in_from"),
                dram_writes=int(l.get("dram_writes", 1)),
            )
            for l in spec["layers"]
        ]
        return NetworkGraph(
            name=spec.get("name", "network"),
            input_dims=tuple(spec["input_dims"]),
            layers=layers,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed network description: {exc}") from exc


def load_graph(path: str) -> NetworkGraph:
    """The network described by the JSON file at `path`. A file that cannot
    be read or parsed raises ConfigError naming the path."""
    try:
        with open(path) as fh:
            return graph_from_dict(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or a ConfigError
        raise ConfigError(f"network {path}: {exc}") from None


PRESETS = ("micro", "lenet", "alexnet", "googlenet", "resnet50")


def load_preset(name: str) -> NetworkGraph:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    text = resources.files("mgxsim.presets").joinpath(f"{name}.json").read_text()
    return graph_from_dict(json.loads(text))
