"""Host-performance benchmark of mgxsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload until S seconds have passed. A round runs
each scheme's cell (cell.py) in a process of its own, one after another, so
that peak RSS is per scheme and no heap carries over, then three processes
that only time the set-up. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which are the end-to-end metrics of BENCHMARK.json with
`--trace 0` and its per-layer metrics with `--trace 1`. The rounds' raw
results, spans included, go to bench/out/.

Metric values are medians over the run's rounds (and, inside a cell, over
its repetitions). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SCHEMES = {
    "dnn-run": ("none", "mgx", "baseline"),
    "apps-verify": ("none", "mgx", "baseline"),
    # `none` is the negative control: the same hooks, never detected.
    "tamper-campaign": ("mgx", "baseline", "none"),
}
RUN_LIMIT_S = 170.0  # a run ends within 180 s, set-up included
SETUP_PROBES = 3  # set-up-only processes per round, for more set-up samples

LAYER_SCHEMES = {
    "mgx.": ("mgx",),
    "baseline.": ("baseline",),
    "crypto.": ("mgx", "baseline"),
}
BASELINE_MODEL = ("counter_fills", "mac_fills", "meta_writebacks")
MODEL = ("traffic_increase", "est_cycles", "meta_bytes", "mem_bound_groups")


class CellError(RuntimeError):
    pass


def run_cell(workload, scheme, seed, rnd, trace, toy, budget, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "cell.py"), "--workload", workload, "--scheme", scheme,
           "--seed", str(seed), "--round", str(rnd), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    if setup_only:
        cmd.append("--setup-only")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise CellError(f"{workload}/{scheme} cell ran past {budget:.0f} s") from None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise CellError(f"{workload}/{scheme} cell exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def aggregate(workload: str, rounds: list[dict], probes: list[dict], trace: bool):
    """Metric values by name, and any disagreement between rounds."""
    cells = [c for r in rounds for c in r.values()]
    problems = []
    by = {s: [r[s] for r in rounds] for s in SCHEMES[workload]}
    if not trace:
        out = {"setup_s": median(c["setup_s"] for c in cells + probes)}
        for s, cs in by.items():
            out[f"host_MBps.{s}"] = median(c["rate"] for c in cs)
            out[f"peak_rss_MiB.{s}"] = median(c["rss_MiB"] for c in cs)
        return out, problems
    out = {
        "workloads.build_s": median(c["layers"]["workloads.build_s"] for c in cells),
        "workloads.events": median(c["events"] for c in cells),
    }
    for s, cs in by.items():
        for name in cs[0]["layers"]:
            if name.startswith("workloads."):
                continue
            owners = next((v for k, v in LAYER_SCHEMES.items() if name.startswith(k)), None)
            if owners is None or s in owners:
                out[f"{name}.{s}"] = median(c["layers"][name] for c in cs)
        out[f"trace.overhead.{s}"] = median(c.get("overhead") for c in cs)
        models = [c["model"] for c in cs]
        if any(m != models[0] for m in models):
            problems.append(f"{s}: model outputs differ between rounds")
        for k in MODEL + (BASELINE_MODEL if s == "baseline" else ()):
            out[f"model.{k}.{s}"] = models[0][k] if models[0] else None
    return out, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SCHEMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)

    need = [ROOT / "src" / "mgxsim" / "__init__.py", ROOT / "tests" / "baseline_oracle.py",
            ROOT / "tests" / "aes_reference.py", ROOT / "BENCHMARK.json"]
    missing = [str(f.relative_to(ROOT)) for f in need if not f.is_file()]
    if missing:
        print(f"bench: not an mgxsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.perf_counter()
    rounds: list[dict] = []
    probes: list[dict] = []
    last = 0.0
    while True:
        t0 = time.perf_counter()
        rnd = {}
        jobs = [(s, False) for s in SCHEMES[args.workload]]
        if not args.trace:
            jobs += [(SCHEMES[args.workload][0], True)] * SETUP_PROBES
        for scheme, setup_only in jobs:
            budget = RUN_LIMIT_S - (time.perf_counter() - start)
            try:
                out = run_cell(args.workload, scheme, args.seed, len(rounds),
                               args.trace, args.toy, max(budget, 1.0), setup_only)
            except CellError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            if setup_only:
                probes.append(out)
            else:
                rnd[scheme] = out
        rounds.append(rnd)
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed + last > RUN_LIMIT_S:
            break

    values, problems = aggregate(args.workload, rounds, probes, bool(args.trace))
    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        print(f"bench: computed metrics {sorted(set(values) ^ set(names))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    cells = [c for r in rounds for c in r.values()]
    attempted = sum(c["ops"] for c in cells)
    failed = sum(c["failed"] for c in cells)
    failures = [f for c in cells for f in c["failures"]] + problems
    if any(values[n] is None for n in names):
        failures.append("a metric has no value: every operation it times failed")
    for f in failures[:20]:
        print(f"bench: check failed: {f}", file=sys.stderr)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": time.perf_counter() - start, "rounds": rounds, "setup_probes": probes,
              "metrics": values}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
