"""Alternating parent/change pairs of the repository benchmark, as one BENCH file.

    python3 tools/bench_pairs.py --parent REV --seeds A-B [--claim W:metric] --out BENCH.json

Exports the parent commit and the working tree (tracked and untracked files
that git does not ignore) with `git archive` into two directories whose paths
have equal length. Then, for each workload of BENCHMARK.json and each seed N,
it runs `python3 bench/run.py --workload W --seed N --seconds S --trace 0` in
both, the parent first on the 1st, 3rd, ... seed and the change first on the
others. The file it writes holds, per end-to-end metric and side, the median,
the inclusive quartiles and every run; how many pairs the change won (ties
count for neither side); each metric's change against its bound; the claim
rule's result; machine facts; and, for both sides, the `src/` tree hash and
the line count of `src/**/*.py`.

Its "same streams" section comes from one more run per workload and side,
`python3 bench/run.py --workload W --seed 7 --seconds S --trace 1`. Over the
rounds both sides ran, it compares cell by cell every model output, every
layer value that is not a time (names ending in `_s` or `.s`) and the event
count, and records the rounds compared and the names of the values that
differ in two lists: `work` for the counts of the simulator's own work
(byte-store calls and bytes, crypto, payload generation, ledger blocks) and
`stream` for everything else (events, model outputs, log records).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

COMMAND = ("python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds} "
           "--trace {trace}")
STREAM_SEED = 7
WORK = ("dram.", "crypto.", "payload.", "mgx.ledger_blocks")  # name prefixes of work counts
CLAIM_RULE = (
    "change wins >= 9 of 10 pairs (9/10 of the pairs in general) and its median beats the "
    "parent's by more than the parent's quartile spread (q3 - q1)"
)


def side_stats(runs: list[float]) -> dict:
    """Median, inclusive quartiles and every run of one side."""
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": list(runs)}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric over paired runs: pair i is (parent[i], change[i]). `spec`
    is its BENCHMARK.json entry (`unit`, `better`, `bound`)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs, at least one, on each side")
    higher = spec["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    ps, cs = side_stats(parent), side_stats(change)
    median_change = (cs["median"] - ps["median"]) / ps["median"]
    worse_by = -median_change if higher else median_change
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "change_wins": wins,
        "ties": ties,
        "median_change": median_change,
        "worse_by": worse_by,
        "within_bound": worse_by <= spec["bound"],
    }


def claim_result(metric: dict) -> dict:
    """The claim rule on one `compare` result. `ratio` is change median /
    parent median; `median_gap` is how far the change's median is better."""
    pm, cm = metric["parent"]["median"], metric["change"]["median"]
    pairs = len(metric["parent"]["runs"])
    gap = cm - pm if metric["better"] == "higher" else pm - cm
    spread = metric["parent"]["q3"] - metric["parent"]["q1"]
    return {
        "parent_median": pm,
        "change_median": cm,
        "ratio": cm / pm,
        "change_wins": metric["change_wins"],
        "pairs": pairs,
        "median_gap": gap,
        "parent_quartile_spread": spread,
        "met": 10 * metric["change_wins"] >= 9 * pairs and gap > spread,
    }


def same_streams(parent: list[dict], change: list[dict]) -> dict:
    """Compare two `--trace 1` runs' rounds (scheme -> cell) round for round,
    over the rounds both ran. A differing value is named `<name>.<scheme>`,
    where the name is `events`, `model.<output>` or the layer's, and listed
    under `work` if the name starts with one of WORK, else under `stream`."""
    compared, differ = 0, set()
    for p_round, c_round in zip(parent, change):
        for scheme in sorted(p_round.keys() | c_round.keys()):
            p, c = p_round.get(scheme, {}), c_round.get(scheme, {})
            values = {"events": (p.get("events"), c.get("events"))}
            pm, cm = p.get("model") or {}, c.get("model") or {}
            for k in pm.keys() | cm.keys():
                values[f"model.{k}"] = (pm.get(k), cm.get(k))
            pl, cl = p.get("layers", {}), c.get("layers", {})
            for k in pl.keys() | cl.keys():
                if not k.endswith(("_s", ".s")):
                    values[k] = (pl.get(k), cl.get(k))
            compared += len(values)
            differ.update(f"{k}.{scheme}" for k, (a, b) in values.items() if a != b)
    return {
        "rounds": {"parent": len(parent), "change": len(change)},
        "rounds_compared": min(len(parent), len(change)),
        "values_compared": compared,
        "stream": sorted(k for k in differ if not k.startswith(WORK)),
        "work": sorted(k for k in differ if k.startswith(WORK)),
    }


def _git(repo: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def working_tree(repo: Path, scratch: Path) -> str:
    """The tree of the working directory as `git add -A` would stage it,
    built in a throwaway index so that the real one is left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    _git(repo, "read-tree", "HEAD", env=env)
    _git(repo, "add", "-A", env=env)
    return _git(repo, "write-tree", env=env)


def export(repo: Path, treeish: str, dest: Path):
    dest.mkdir()
    archive = subprocess.run(
        ["git", "archive", treeish], cwd=repo, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's `src/**/*.py` files, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = COMMAND.format(workload=workload, seed=seed, seconds=f"{seconds:g}", trace=trace).split()
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        mem_kib = next(
            int(line.split()[1])
            for line in Path("/proc/meminfo").read_text().splitlines()
            if line.startswith("MemTotal:")
        )
    except (OSError, StopIteration, ValueError):
        mem_kib = 0
    facts = {
        "cpu": cpu or platform.processor(),
        "vcpus": os.cpu_count(),
        "memory_MiB": mem_kib // 1024,
        "kernel": platform.release(),
        "python": platform.python_version(),
    }
    for dist in ("cryptography", "numpy"):
        try:
            facts[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            facts[dist] = None
    facts["note"] = ("host MB/s are reference MB/s: block times scaled by bench/cell.py's "
                     "calibration loop")
    return facts


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--seeds", required=True, type=_seeds, help="A-B, inclusive")
    p.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    p.add_argument("--what", default="", help="one sentence on the change, stored in the file")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    claim = args.claim.split(":", 1) if args.claim else None
    if claim and (claim[0] not in workloads or claim[1] not in {m["name"] for m in metrics}):
        p.error(f"--claim {args.claim}: not a workload and end-to-end metric of BENCHMARK.json")

    parent = _git(repo, "rev-parse", f"{args.parent}^{{commit}}")
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        change = working_tree(repo, scratch)
        sides = {"parent": scratch / "parent", "change": scratch / "change"}
        export(repo, parent, sides["parent"])
        export(repo, change, sides["change"])
        lines = {side: src_lines(checkout) for side, checkout in sides.items()}
        results = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    out = run_bench(sides[side], workload, seed, seconds)
                    runs[side].append(out)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()),
                          file=sys.stderr, flush=True)
            results[workload] = {
                "seeds": args.seeds,
                "pairs": len(args.seeds),
                "correct": {s: all(r["correct"] for r in rs) for s, rs in runs.items()},
                "failed": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
                "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
                "metrics": {
                    m["name"]: compare(
                        m,
                        [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                    )
                    for m in metrics
                },
            }
        streams = {}
        for workload in workloads:
            rounds = {}
            for side, checkout in sides.items():
                run_bench(checkout, workload, STREAM_SEED, seconds, trace=1)
                out = checkout / "bench" / "out" / f"{workload}-seed{STREAM_SEED}-trace1.json"
                rounds[side] = json.loads(out.read_text())["rounds"]
            streams[workload] = same_streams(rounds["parent"], rounds["change"])
            print(f"{workload} same streams: {streams[workload]}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first, last = args.seeds[0], args.seeds[-1]
    doc = {
        "what": args.what,
        "command": COMMAND.format(workload="W", seed="N", seconds=f"{seconds:g}", trace=0),
        "pairing": (f"for seed N in {first}..{last}: pair i (N = {first} + i) runs the parent "
                    "checkout first when i is even and the change first when i is odd; both "
                    "checkouts are git archive exports of equal path length; every workload's "
                    "pairs ran back to back (tools/bench_pairs.py)"),
        "seeds": args.seeds,
        "claimed": None,
        "parent": {"commit": parent, "src_tree": _git(repo, "rev-parse", f"{parent}:src"),
                   "src_lines": lines["parent"]},
        "change": {"src_tree": _git(repo, "rev-parse", f"{change}:src"),
                   "src_lines": lines["change"]},
        "bench_tree": _git(repo, "rev-parse", f"{change}:bench"),
        "machine": machine(),
        "workloads": results,
        "same_streams": {
            "command": COMMAND.format(workload="W", seed=STREAM_SEED, seconds=f"{seconds:g}",
                                      trace=1),
            "workloads": streams,
        },
        "regressions_beyond_bound": [
            f"{w}:{name}" for w, r in results.items()
            for name, m in r["metrics"].items() if not m["within_bound"]
        ],
    }
    if claim:
        workload, metric = claim
        doc["claimed"] = {"workload": workload, "metric": metric, "rule": CLAIM_RULE,
                          "result": claim_result(results[workload]["metrics"][metric])}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    if claim:
        print(f"claim {args.claim}: {doc['claimed']['result']}", file=sys.stderr)
    if doc["regressions_beyond_bound"]:
        print(f"beyond bound: {doc['regressions_beyond_bound']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
