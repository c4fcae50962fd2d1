"""Batch command-line interface.

Subcommands:

* run:    generate (or import) a trace, replay it under one scheme, report
          traffic and estimated time, optionally appending a stats CSV row.
* sweep:  repeat run over a list of values for one parameter.
* attack: run randomized tamper campaigns and report detection rates.
* verify: replay with full crypto and payload checking; exit status tells
          whether the data survived intact.

Exit codes: 0 success, 2 bad configuration or usage, 3 tampering detected
during a plain run, 4 attack campaign with undetected trials, 5 verification
failure (payload mismatch, schedule violation, or corrupted trace).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .attacks import ATTACKS, run_campaign
from .config import ExperimentConfig, read_config, run_experiment, sweep_experiment
from .errors import (
    ConfigError,
    SecurityInvariantFault,
    TamperDetected,
    TraceFormatError,
    VerifyMismatch,
)
from .perf import STATS_HEADER, stats_row, write_stats_csv
from .replay import PAYLOAD_MODES, SCHEMES
from .workloads import export_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TAMPER = 3
EXIT_UNDETECTED = 4
EXIT_VERIFY = 5


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with an experiment configuration")
    p.add_argument("--workload", help="preset name, generator name, .json network or .csv trace")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--channels", type=int)
    p.add_argument("--cache-kb", type=int, dest="cache_kb")
    p.add_argument("--region-mb", type=int, dest="region_mb")
    p.add_argument("--tree-arity", type=int, dest="tree_arity", choices=(2, 4, 8))
    p.add_argument("--mac-granularity", type=int, dest="mac_granularity")
    p.add_argument("--seed", type=int)
    p.add_argument("--payload-mode", dest="payload_mode", choices=PAYLOAD_MODES)
    p.add_argument("--out", help="write results as CSV to this path")
    p.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="workload argument, repeatable (values parsed as JSON when possible)",
    )


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mgxsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay one workload under one scheme")
    _common_flags(run_p)
    run_p.add_argument("--export-trace", dest="export_trace", help="also write the trace CSV here")

    sweep_p = sub.add_parser("sweep", help="repeat a run over one parameter")
    _common_flags(sweep_p)
    sweep_p.add_argument("--param", required=True, help="config field or workload argument to vary")
    sweep_p.add_argument("--values", required=True, help="comma-separated list of values")

    atk_p = sub.add_parser("attack", help="run tamper campaigns")
    _common_flags(atk_p)
    atk_p.add_argument("--attack", default="all", choices=ATTACKS + ("all",))
    atk_p.add_argument("--trials", type=int, default=100)

    ver_p = sub.add_parser("verify", help="full-crypto replay with payload checking")
    _common_flags(ver_p)
    return p


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_config(args) -> ExperimentConfig:
    from_file = read_config(args.config) if args.config else {}
    cfg = ExperimentConfig.from_dict(from_file).with_overrides(
        workload=args.workload,
        scheme=args.scheme,
        channels=args.channels,
        cache_kb=args.cache_kb,
        region_mb=args.region_mb,
        tree_arity=args.tree_arity,
        mac_granularity=args.mac_granularity,
        seed=args.seed,
        payload_mode=getattr(args, "payload_mode", None),
        out=args.out,
    )
    if args.arg:
        extra = dict(cfg.workload_args)
        for item in args.arg:
            if "=" not in item:
                raise ConfigError(f"--arg expects KEY=VALUE, got {item!r}")
            k, v = item.split("=", 1)
            extra[k] = _parse_value(v)
        cfg = cfg.with_overrides(workload_args=extra)
    if cfg.workload.endswith(".csv"):
        # An imported trace fixes its own layout and payload seed (build_trace
        # rejects --arg). `attack` still seeds its trials with the seed.
        swept = getattr(args, "param", None)
        for flag, name in (("--mac-granularity", "mac_granularity"), ("--seed", "seed")):
            if name == "seed" and args.command == "attack":
                continue
            if getattr(args, name) is not None or swept == name or name in from_file:
                raise ConfigError(
                    f"a .csv trace takes no {flag} (nor --param {name} or config key {name!r})"
                )
    return cfg


def _print_sim(sim):
    rep = sim.replay
    line = (
        f"workload={rep.trace.workload} scheme={rep.scheme} "
        f"data_bytes={sim.stats.data_bytes} meta_bytes={sim.stats.meta_bytes} "
        f"traffic_increase={sim.traffic_increase:.4f} est_time={sim.est_time:.1f} "
        f"rekeys={rep.rekey_events}"
    )
    print(line)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    trace = cfg.build_trace()
    if args.export_trace:
        export_trace(trace, args.export_trace)
    sim = run_experiment(cfg, trace=trace)
    _print_sim(sim)
    if cfg.out:
        write_stats_csv([stats_row(sim)], cfg.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = [_parse_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("--values must name at least one value")
    rows = sweep_experiment(cfg, args.param, values)
    for row in rows:
        print(" ".join(f"{k}={row[k]}" for k in STATS_HEADER))
    if cfg.out:
        write_stats_csv(rows, cfg.out)
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    cfg = _load_config(args)
    if cfg.scheme not in ("baseline", "mgx"):
        raise ConfigError("attack campaigns need a protecting scheme (baseline or mgx)")
    trace = cfg.build_trace()
    attacks = ATTACKS if args.attack == "all" else (args.attack,)
    campaign = partial(
        run_campaign,
        trace,
        cfg.scheme,
        seed=cfg.seed,
        region_mb=cfg.region_mb,
        cache_kb=cfg.cache_kb,
        tree_arity=cfg.tree_arity,
    )
    for attack in attacks:
        campaign(attack, trials=0)  # every precondition before any output
    rows = []
    missed = 0
    for attack in attacks:
        res = campaign(attack, trials=args.trials)
        print(
            f"workload={res.workload} scheme={res.scheme} attack={res.attack} "
            f"trials={res.trials} detected={res.detected} silent={res.silent} "
            f"clean={res.clean} detection_rate={res.detection_rate:.4f}"
        )
        missed += res.trials - res.detected
        rows.append(
            {
                "scheme": res.scheme,
                "workload": res.workload,
                "attack": res.attack,
                "trials": res.trials,
                "detected": res.detected,
                "silent": res.silent,
                "clean": res.clean,
                "detection_rate": f"{res.detection_rate:.6f}",
            }
        )
    if cfg.out:
        import csv

        with open(cfg.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
    if missed:
        print(f"{missed} undetected trial(s)", file=sys.stderr)
        return EXIT_UNDETECTED
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args).with_overrides(payload_mode="verify")
    sim = run_experiment(cfg)
    _print_sim(sim)
    print("verify: all loads returned the expected payloads")
    return EXIT_OK


_COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "attack": cmd_attack, "verify": cmd_verify}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


def entry(argv=None) -> int:
    try:
        return main(argv)
    except TraceFormatError as exc:
        print(f"corrupted trace: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SecurityInvariantFault as exc:
        # A broken write/read schedule is a verification failure: some byte
        # would be consumed under the wrong VN even though no one tampered.
        print(f"schedule violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except TamperDetected as exc:
        print(f"tampering detected: {exc}", file=sys.stderr)
        return EXIT_TAMPER
    except VerifyMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(entry())
