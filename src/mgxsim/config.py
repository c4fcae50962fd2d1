"""Experiment configuration: one flat record driving trace generation,
replay, and the timing model, loadable from JSON for batch runs."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import get_type_hints

from .baseline import TREE_ARITIES
from .errors import ConfigError, has_type
from .perf import ComputeModel, DramModel, SimResult, evaluate, stats_row
from .replay import PAYLOAD_MODES, SCHEMES, replay


@dataclass
class ExperimentConfig:
    workload: str = "micro"
    scheme: str = "mgx"
    channels: int = 1
    cache_kb: int = 4
    region_mb: int = 128
    tree_arity: int = 8
    mac_granularity: int = 1024
    seed: int = 0
    payload_mode: str = "fast"
    background_writes: bool = True
    macs_per_cycle: float = 2048.0
    bytes_per_cycle_per_channel: float = 8.0
    fixed_latency: float = 100.0
    out: str | None = None
    workload_args: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, hint in get_type_hints(ExperimentConfig).items():
            value = getattr(self, name)
            if not has_type(value, hint):
                kind = getattr(hint, "__name__", hint)
                raise ConfigError(f"config key {name}={value!r} must be {kind}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.payload_mode not in PAYLOAD_MODES:
            raise ConfigError(
                f"unknown payload mode {self.payload_mode!r}; expected one of {PAYLOAD_MODES}"
            )
        if self.cache_kb < 1:
            raise ConfigError("cache_kb must be at least 1")
        if self.region_mb < 1:
            raise ConfigError("region_mb must be at least 1")
        if self.tree_arity not in TREE_ARITIES:
            raise ConfigError(f"config key tree_arity={self.tree_arity} must be 2, 4 or 8")
        if self.mac_granularity < 1:
            raise ConfigError("mac_granularity must be at least 1 byte")
        self.dram_model()  # the timing models check their own ranges
        self.compute_model()

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, **kv) -> "ExperimentConfig":
        return dataclasses.replace(self, **{k: v for k, v in kv.items() if v is not None})

    # -- model builders -----------------------------------------------------

    def dram_model(self) -> DramModel:
        return DramModel(
            channels=self.channels,
            bytes_per_cycle_per_channel=self.bytes_per_cycle_per_channel,
            fixed_latency=self.fixed_latency,
            background_writes=self.background_writes,
        )

    def compute_model(self) -> ComputeModel:
        return ComputeModel(macs_per_cycle=self.macs_per_cycle)

    def build_trace(self):
        from .workloads import build_trace

        return build_trace(
            self.workload,
            seed=self.seed,
            mac_granularity=self.mac_granularity,
            args=self.workload_args,
        )


def read_config(path: str) -> dict:
    """The JSON object of a config file, keys as the file sets them."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def run_experiment(cfg: ExperimentConfig, trace=None) -> SimResult:
    """Build the trace (unless given), replay it, and evaluate the models.

    Tamper rejections and verify-mode payload mismatches abort the run by
    raising. The traffic up to a rejection is `evaluate(replay(...))` of the
    same trace, since `replay` records a rejection instead of raising.
    """
    if trace is None:
        trace = cfg.build_trace()
    result = replay(
        trace,
        cfg.scheme,
        payload_mode=cfg.payload_mode,
        region_mb=cfg.region_mb,
        cache_kb=cfg.cache_kb,
        tree_arity=cfg.tree_arity,
    )
    if result.detected is not None:
        raise result.detected
    if result.mismatch is not None:
        raise result.mismatch
    return evaluate(result, cfg.dram_model(), cfg.compute_model())


def sweep_experiment(cfg: ExperimentConfig, param: str, values: list) -> list[dict]:
    """Run the experiment once per value of `param` and return stats rows.

    `param` may name any config field or, failing that, a workload argument.
    Every value's config and trace is built, and so checked, before the first
    replay.
    """
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    subs = []
    for v in values:
        if param in fields:
            subs.append(dataclasses.replace(cfg, **{param: v}))
        else:
            subs.append(dataclasses.replace(cfg, workload_args={**cfg.workload_args, param: v}))
    traces = [sub.build_trace() for sub in subs]
    return [
        stats_row(run_experiment(sub, trace=t), param, v) for sub, t, v in zip(subs, traces, values)
    ]
