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
from dataclasses import dataclass, field, fields
from importlib import resources
from math import prod
from typing import get_args, get_origin, get_type_hints

from ..errors import ConfigError, has_type

MAX_VID = 255
KINDS = ("conv", "dense", "add", "concat", "pool", "input")


@dataclass
class LayerSpec:
    name: str
    kind: str  # one of KINDS; "type" in a network description
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    weight_bytes: int = 0
    bypass_from: tuple[str, ...] = ()
    in_from: str | None = None
    dram_writes: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(
                f"layer {self.name}: type {self.kind!r} is not one of {', '.join(KINDS)}"
            )
        for dims in ("in_dims", "out_dims"):
            if not getattr(self, dims) or min(getattr(self, dims)) < 1:
                raise ConfigError(f"layer {self.name}: {dims} must be positive integers")
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
        if not self.input_dims or min(self.input_dims) < 1:
            raise ConfigError("input_dims must be positive integers")
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


# Network description key -> LayerSpec field, and the keys every layer has.
_LAYER_KEYS = {("type" if f.name == "kind" else f.name): f.name for f in fields(LayerSpec)}
_LAYER_REQUIRED = ("name", "type", "in_dims", "out_dims")
_NETWORK_HINTS = {"name": str, "input_dims": tuple[int, ...], "layers": list}


def _checked(where: str, key: str, value, hint):
    """`value` if it has the annotated type `hint`; a JSON list becomes a tuple."""
    listed = get_origin(hint) is tuple
    if not has_type(value, hint):
        want = getattr(hint, "__name__", hint)
        if listed:
            want = f"a list of {get_args(hint)[0].__name__}"
        raise ConfigError(f"{where}: {key}={value!r} must be {want}")
    return tuple(value) if listed else value


def graph_from_dict(spec: dict) -> NetworkGraph:
    """The network of a parsed description. Every key of the network and of
    each layer is checked against its annotation; an unknown key, a missing
    one or a value of the wrong type raises ConfigError naming the layer and
    the key."""
    if not isinstance(spec, dict):
        raise ConfigError("a network description must be a JSON object")
    net = {"name": "network"}
    for key, value in spec.items():
        if key not in _NETWORK_HINTS:
            raise ConfigError(f"top level: unknown key {key!r}")
        net[key] = _checked("top level", key, value, _NETWORK_HINTS[key])
    for key in ("input_dims", "layers"):
        if key not in net:
            raise ConfigError(f"top level: missing key {key!r}")
    hints = get_type_hints(LayerSpec)
    layers = []
    for i, raw in enumerate(net["layers"]):
        if not isinstance(raw, dict):
            raise ConfigError(f"layer #{i} must be a JSON object")
        name = raw.get("name")
        where = f"layer {name}" if isinstance(name, str) else f"layer #{i}"
        args = {}
        for key, value in raw.items():
            if key not in _LAYER_KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            args[_LAYER_KEYS[key]] = _checked(where, key, value, hints[_LAYER_KEYS[key]])
        missing = [key for key in _LAYER_REQUIRED if key not in raw]
        if missing:
            raise ConfigError(f"{where}: missing key {missing[0]!r}")
        layers.append(LayerSpec(**args))
    return NetworkGraph(name=net["name"], input_dims=net["input_dims"], layers=layers)


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
