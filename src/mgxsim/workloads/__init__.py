"""Workload trace generators and the catalog mapping names to them."""

from __future__ import annotations

import inspect

from ..errors import ConfigError, has_type
from .cnn import cnn_inference_trace, cnn_training_trace
from .gact import gact_trace
from .graph import PRESETS, NetworkGraph, load_graph, load_preset
from .h264 import h264_trace
from .payload import payload_for
from .pruned import pruned_trace
from .rnn import rnn_trace, unroll
from .stream import streaming_trace
from .trace import Trace, TraceEvent, VnSource, export_trace, import_trace

__all__ = [
    "NetworkGraph",
    "PRESETS",
    "Trace",
    "TraceEvent",
    "VnSource",
    "build_trace",
    "cnn_inference_trace",
    "cnn_training_trace",
    "export_trace",
    "gact_trace",
    "h264_trace",
    "import_trace",
    "load_graph",
    "load_preset",
    "payload_for",
    "pruned_trace",
    "rnn_trace",
    "streaming_trace",
    "unroll",
]


def build_trace(workload: str, *, seed: int = 0, mac_granularity: int = 1024,
                args: dict | None = None) -> Trace:
    """Resolve a workload name to a trace.

    Names: a network preset (inference/training chosen by args["task"]), a
    .json network file, a previously exported .csv trace, or one of the
    special generators rnn | pruned | h264 | gact | stream. Generator keyword
    arguments come through `args`.
    """
    if workload.endswith(".csv"):
        if args:
            raise ConfigError(f"a .csv trace takes no --arg or workload_args, got {sorted(args)}")
        return import_trace(workload)
    a = dict(args or {})
    task = a.pop("task", "inference")
    common = {"seed": seed, "mac_granularity": mac_granularity}
    if workload.endswith(".json"):
        graph = load_graph(workload)
    elif workload in PRESETS:
        graph = load_preset(workload)
    else:
        graph = None
    if graph is not None:
        if task == "training":
            return _generate(cnn_training_trace, a, graph, **common)
        if task != "inference":
            raise ConfigError(f"unknown task {task!r} (inference|training)")
        return _generate(cnn_inference_trace, a, graph, **common)
    if workload == "rnn":
        if not isinstance(a.get("cell", ""), str):  # an int would open a file descriptor
            raise ConfigError(f"--arg cell={a['cell']!r} must be str")
        cell = load_graph(a.pop("cell")) if "cell" in a else load_preset("micro")
        a.setdefault("timesteps", 4)
        return _generate(rnn_trace, a, cell, task=task, **common)
    if workload == "pruned":
        return _generate(pruned_trace, a, **common)
    if workload == "h264":
        return _generate(h264_trace, a, **common)
    if workload == "gact":
        return _generate(gact_trace, a, **common)
    if workload == "stream":
        return _generate(streaming_trace, a, **common)
    raise ConfigError(
        f"unknown workload {workload!r}; expected a preset ({', '.join(PRESETS)}), "
        "a .json network, a .csv trace, or rnn|pruned|h264|gact|stream"
    )


def _generate(gen, args: dict, *lead, **fixed) -> Trace:
    """Call `gen(*lead, **fixed, **args)` after checking that every user
    argument in `args` is a parameter `gen` takes, and that its value has
    the parameter's annotated type (an int passes for a float)."""
    params = inspect.signature(gen, eval_str=True).parameters
    taken = set(list(params)[: len(lead)]) | set(fixed)
    for name, value in args.items():
        p = params.get(name)
        if p is None or name in taken:
            raise ConfigError(f"{gen.__name__} takes no --arg {name!r}")
        if not has_type(value, p.annotation):
            raise ConfigError(f"--arg {name}={value!r} must be {p.annotation.__name__}")
    return gen(*lead, **fixed, **args)
