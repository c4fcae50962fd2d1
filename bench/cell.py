"""One scheme's cell of one benchmark workload, in a process of its own.

    python3 bench/cell.py --workload W --scheme S --seed N --round R --trace 0|1 [--toy]

The cell imports `mgxsim` from the checkout's `src/`, builds the workload's
traces from the seed (set-up), then times its fixed number of blocks of
repetitions with tracing off. Peak RSS is read right after them, before
anything else allocates. With `--trace 1` one more block runs with spans
recorded. Last come the checks against expectations computed apart from the
simulator (see checks.py), one operation at a time. The cell prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ATTACKS = ("bitflip", "splice", "relocate", "replay")

# Timed blocks per cell, as (blocks, repetitions per block, untimed warm-up
# repetitions first), sized so that every cell lasts seconds on a 2-core
# host. The warm-up keeps lazy set-up in the libraries and the first growth
# of the heap out of short timed blocks. A campaign block runs the four
# attack classes with `trials` each, after one untimed block.
PLAN = {
    "dnn-run": {"mode": "fast",
                "blocks": {"none": (5, 1, 1), "mgx": (3, 1, 0), "baseline": (1, 1, 0)}},
    "apps-verify": {"mode": "verify",
                    "blocks": {"none": (6, 4, 4), "mgx": (4, 1, 1), "baseline": (2, 1, 0)}},
    "tamper-campaign": {"blocks": 6, "trials": {"mgx": 70, "baseline": 20, "none": 70}},
}
TOY_PLAN = {
    "dnn-run": {"mode": "fast",
                "blocks": {"none": (1, 1, 0), "mgx": (1, 1, 0), "baseline": (1, 1, 0)}},
    "apps-verify": {"mode": "verify",
                    "blocks": {"none": (1, 1, 0), "mgx": (1, 1, 0), "baseline": (1, 1, 0)}},
    "tamper-campaign": {"blocks": 1, "trials": {"mgx": 3, "baseline": 3, "none": 3}},
}

# Host speed. The shared cores of the reference host run the same Python
# code up to a third slower or faster from one minute to the next, so a raw
# wall time says as much about the neighbours as about mgxsim. A fixed
# calibration loop runs BRACKET times before and after every timed block and
# four times a second inside it (on SIGALRM, its time taken out of the
# block's). Block times are divided by the loop's mean slowness against
# CAL_REF_S (see README.md).
CAL_N = 12_500
CAL_REF_S = 0.0125
BRACKET = 3
SAMPLE_EVERY_S = 0.25


def _calibration_loop(n: int) -> int:
    """Dict, set, tuple and bytes churn in under 1 MiB, so that it adds
    nothing to the cell's peak RSS."""
    d, s, b, acc = {}, set(), bytearray(64), 0
    for i in range(n):
        d[i & 4095] = (i, i * 3)
        s.add((i & 4095, i & 7))
        b[i & 63] = i & 255
        acc += len(bytes(b[:16]))
    return acc + len(d) + len(s)


class HostSpeed:
    """Calibration samples, and the time they took out of timed work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        # With the collector off, a collection the loop's allocations would
        # trigger waits for the simulator's next allocation and is timed
        # with it, as it would have been without the loop.
        was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _calibration_loop(CAL_N)
        dt = time.perf_counter() - t0
        if was_on:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def bracket(self):
        for _ in range(BRACKET):
            self.sample()

    def slowness(self, since: int) -> float:
        return statistics.fmean(self.samples[since:]) / CAL_REF_S

    def block(self, fn, sample_inside: bool = True):
        """Run fn between two brackets of samples, sampling inside every
        SAMPLE_EVERY_S; return (fn's result, slowness over the block)."""
        n0 = len(self.samples)
        self.bracket()
        if sample_inside:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            out = fn()
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.bracket()
        return out, self.slowness(n0)


CIPHER_SAMPLE = (16, 8)  # 16-byte blocks, MAC chunks per mgx verify replay


def build_traces(wl, workload: str, seed: int, toy: bool):
    if workload == "dnn-run":
        net = wl.load_preset("lenet" if toy else "resnet50")
        return [wl.cnn_inference_trace(net, 1, seed=seed)]
    if workload == "apps-verify":
        if toy:
            return [
                wl.h264_trace("IBPB", frame_bytes=4096, seed=seed),
                wl.gact_trace(batches=1, queries_per_batch=2, reference_bytes=1 << 14,
                              seed_table_bytes=1 << 12, pos_table_bytes=1 << 13, seed=seed),
            ]
        return [wl.h264_trace(seed=seed), wl.gact_trace(batches=4, seed=seed)]
    # The two-stream H.264 trace of acceptance criterion C3.
    return [wl.h264_trace("IBPB" * 2, frame_bytes=512, streams=2, seed=seed)]


def region_size(trace, region_mb: int = 128) -> int:
    """Baseline protected region: the configured size, or the next power of
    two that holds the trace."""
    size = region_mb << 20
    if trace.span_end > size:
        size = 1 << (trace.span_end - 1).bit_length()
    return size


def expectations(checks, trace, scheme: str) -> dict:
    """checks.expectations, kept in bench/out/ for the baseline: its oracle
    takes seconds per million records. The key hashes the trace, the region
    and the source of the oracle and of checks.py, so any change to one of
    them computes afresh."""
    if scheme != "baseline":
        return checks.expectations(trace, scheme)
    region = region_size(trace)
    h = hashlib.sha256(repr((trace.events, sorted(trace.objects.items()),
                             sorted(trace.compute_macs.items()), region)).encode())
    for src in (ROOT / "tests" / "baseline_oracle.py", HERE / "checks.py"):
        h.update(src.read_bytes())
    path = HERE / "out" / f"expect-{h.hexdigest()[:32]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    want = checks.expectations(trace, scheme, region)
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(want))
    tmp.replace(path)
    return want


def summarize(checks, trace, res, sim, sample=None) -> dict:
    """Everything the checks need from one replay, so the replay itself can
    be dropped before the next one starts."""
    t = checks.tally_log(res.log, res.group_spans)
    n = t.counts
    out = {
        "clean": res.clean,
        "outcome": repr(res.detected or res.mismatch) if not res.clean else "clean",
        "bytes": dict(t.bytes),
        "records": t.records,
        "digest": t.digest(),
        "est_time": sim.est_time,
        "model": {
            "total_bytes": sim.stats.total_bytes,
            "payload_bytes": trace.payload_bytes(),
            "est_cycles": sim.est_time,
            "meta_bytes": sim.stats.meta_bytes,
            "mem_bound_groups": sum(g.mem_cycles > g.compute_cycles for g in sim.groups),
            "counter_fills": n["read.vn_line"] + n["read.tree_node"],
            "mac_fills": n["read.mac_line"],
            "meta_writebacks": sum(n[f"write.{k}"] for k in checks.META),
        },
    }
    if sample is not None:
        out["sample"] = checks.read_sample(trace, res.memory, *sample)
    return out


def merge_models(models: list[dict]) -> dict:
    """Model outputs of one pass over the workload's traces."""
    tot = {k: sum(m[k] for m in models) for k in models[0]}
    tot["traffic_increase"] = tot.pop("total_bytes") / tot.pop("payload_bytes")
    return tot


class Cell:
    def __init__(self, args, mgxsim, traces, checks, host: HostSpeed):
        self.args = args
        self.host = host
        self.m = mgxsim
        self.traces = traces
        self.checks = checks
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str, fails: list[str], ops: int = 1):
        if fails:
            self.failed += ops
            self.failures.extend(f"{what}: {f}" for f in fails[:3])

    # -- replay workloads -----------------------------------------------------

    def replay_pass(self, mode: str, samples) -> tuple[float, list]:
        """Replay and evaluate every trace once; return host seconds and the
        per-trace summaries (None where the replay raised)."""
        busy = 0.0
        out = []
        for i, trace in enumerate(self.traces):
            self.ops += 1
            t0, h0 = time.perf_counter(), self.host.spent
            try:
                res = self.m.replay.replay(trace, self.args.scheme, payload_mode=mode)
                sim = self.m.perf.evaluate(res)
            except Exception as exc:  # a crashed replay is a failed operation
                self.fail(f"replay of {trace.workload}", [repr(exc)])
                out.append(None)
                continue
            busy += time.perf_counter() - t0 - (self.host.spent - h0)
            out.append(summarize(self.checks, trace, res, sim, samples[i]))
            del res, sim
        return busy, out

    def timed_blocks(self, count: int, block, sample_inside: bool = True):
        """Run `count` timed blocks. `block(b)` returns (busy seconds, MB
        processed, whether every operation ran). Returns per-block rates and
        seconds at reference host speed, and the raw (busy s, slowness)."""
        rates, secs, raw = [], [], []
        for b in range(count):
            (busy, mb, ok), slow = self.host.block(lambda: block(b), sample_inside)
            raw.append((busy, slow))
            if ok and busy > 0:
                rates.append(mb * slow / busy)
                secs.append(busy / slow)
        return rates, secs, raw

    def run_replays(self, tracer):
        plan = (TOY_PLAN if self.args.toy else PLAN)[self.args.workload]
        scheme, mode = self.args.scheme, plan["mode"]
        nblocks, per_block, warmup = plan["blocks"][scheme]
        samples = [None] * len(self.traces)
        if scheme == "mgx" and mode == "verify":
            rng = random.Random(self.args.seed * 7919 + self.args.round)
            samples = [self.checks.cipher_sample(t, rng, *CIPHER_SAMPLE) for t in self.traces]
        mb = sum(t.payload_bytes() for t in self.traces) / 1e6
        passes = []

        def block(reps):
            busy, ok = 0.0, True
            for _ in range(reps):
                b, summ = self.replay_pass(mode, samples)
                busy += b
                passes.append(summ)
                ok = ok and None not in summ
            return busy, reps * mb, ok

        if warmup:
            block(warmup)
        rates, secs, raw = self.timed_blocks(nblocks, lambda b: block(per_block))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {"rate": statistics.median(rates) if rates else None, "rss_MiB": rss, "blocks": raw}
        if tracer is not None:
            tracer.install("mgxsim")
            _, traced, _ = self.timed_blocks(1, lambda b: block(1), False)
            tracer.remove()
            if traced and secs:
                out["overhead"] = traced[0] / (statistics.median(secs) / per_block)
        # Checks, after all timing.
        wants = [expectations(self.checks, t, scheme) for t in self.traces]
        first = passes[0]
        for summ in passes:
            for i, s in enumerate(summ):
                if s is None:
                    continue
                fails = self.checks.check_replay(s, wants[i])
                if first[i] is not None and s["model"] != first[i]["model"]:
                    fails.append("model outputs differ between repetitions")
                if samples[i] is not None:
                    fails += self.checks.check_cipher_sample(
                        self.traces[i], *samples[i], *s["sample"])
                self.fail(f"{scheme} replay of {self.traces[i].workload}", fails)
        if mode == "verify":
            # The fast-mode access stream must equal the verify-mode one.
            _, fast = self.replay_pass("fast", [None] * len(self.traces))
            for i, s in enumerate(fast):
                if s is None or first[i] is None:
                    continue
                same = (s["digest"], s["records"]) == (first[i]["digest"], first[i]["records"])
                fails = [] if same else ["fast and verify access streams differ"]
                self.fail(f"{scheme} fast replay of {self.traces[i].workload}", fails)
        good = [s for s in first if s is not None]
        out["model"] = merge_models([s["model"] for s in good]) if len(good) == len(first) else None
        return out

    # -- campaign workload ------------------------------------------------------

    def run_campaigns(self, tracer):
        plan = (TOY_PLAN if self.args.toy else PLAN)[self.args.workload]
        scheme = self.args.scheme
        trace = self.traces[0]
        trials = plan["trials"][scheme]
        mb = trace.payload_bytes() / 1e6

        def block(b: int):
            # Same campaign seeds for every scheme: the `none` control sees
            # the hooks the protected schemes see.
            base = self.args.seed * 1_000_003 + (self.args.round * 64 + b) * 4096
            busy, n = 0.0, 0
            for a, attack in enumerate(ATTACKS):
                self.ops += trials
                t0, h0 = time.perf_counter(), self.host.spent
                try:
                    c = self.m.attacks.run_campaign(trace, scheme, attack, trials=trials,
                                                    seed=base + a * trials)
                except Exception as exc:
                    self.fail(f"{scheme}/{attack} campaign", [repr(exc)], trials)
                    continue
                busy += time.perf_counter() - t0 - (self.host.spent - h0)
                n += c.trials
                self.fail(f"{attack} campaign",
                          self.checks.check_campaign(scheme, trials, c.detected, c.silent),
                          max(trials - (c.silent if scheme == "none" else c.detected), 1))
            return busy, n * mb, n == len(ATTACKS) * trials

        if plan["blocks"] > 1:  # untimed warm-up, with seeds of its own
            block(plan["blocks"] + 1)
        rates, secs, raw = self.timed_blocks(plan["blocks"], block)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {"rate": statistics.median(rates) if rates else None, "rss_MiB": rss, "blocks": raw,
               "trials_per_s": statistics.median(rates) / mb if rates else None}
        if tracer is not None:
            tracer.install("mgxsim")
            _, traced, _ = self.timed_blocks(1, lambda b: block(plan["blocks"] + 2), False)
            tracer.remove()
            if traced and secs:
                out["overhead"] = traced[0] / statistics.median(secs)
            out["trials_traced"] = len(ATTACKS) * trials
        # One clean verify replay of the attacked trace gives the model outputs.
        _, summ = self.replay_pass("verify", [None])
        s = summ[0]
        if s is not None:
            want = expectations(self.checks, trace, scheme)
            self.fail(f"{scheme} clean replay", self.checks.check_replay(s, want))
        out["model"] = merge_models([s["model"]]) if s is not None else None
        return out


def layer_metrics(tracer, trials: int) -> dict:
    t = tracer.total
    return {
        "replay.self_s": t("replay", field=2),
        "dram.s": t("dram.read", "dram.write"),
        "dram.calls": t("dram.read", "dram.write", field=0),
        "dram.bytes": t("dram.read", "dram.write", field=3),
        "mgx.self_s": t("mgx.store", "mgx.load", field=2),
        "mgx.ledger_s": t("mgx.ledger"),
        "mgx.ledger_blocks": t("mgx.ledger", field=3),
        "baseline.self_s": t("baseline.store", "baseline.load", "baseline.flush", field=2),
        "baseline.flush_s": t("baseline.flush"),
        "crypto.keystream_s": t("crypto.keystream"),
        "crypto.mac_s": t("crypto.mac"),
        "crypto.calls": t("crypto.keystream", "crypto.mac", field=0),
        "crypto.bytes": t("crypto.keystream", "crypto.mac", field=3),
        "payload.s": t("payload"),
        "payload.bytes": t("payload", field=3),
        "perf.evaluate_s": t("perf.evaluate"),
        "perf.log_records": t("perf.evaluate", field=3),
        "attacks.trial_s": t("attacks.campaign") / trials if trials else 0.0,
        "attacks.hooks_s": t("attacks.campaign", field=2),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PLAN))
    p.add_argument("--scheme", required=True, choices=("none", "mgx", "baseline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import mgxsim.attacks
    import mgxsim.perf
    import mgxsim.replay
    import mgxsim.workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("mgxsim")
    traces = build_traces(mgxsim.workloads, args.workload, args.seed, args.toy)
    # Set-up is timed raw: in a process this young the calibration loop's
    # speed is bimodal and would add more spread than it removes.
    setup = {"setup_s": time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if tracer is not None:
        tracer.remove()
        build_s = tracer.total("workloads.build")
        tracer.totals.clear()

    import checks

    cell = Cell(args, mgxsim, traces, checks, HostSpeed())
    if args.workload == "tamper-campaign":
        out = cell.run_campaigns(tracer)
    else:
        out = cell.run_replays(tracer)
    out.update(setup, ops=cell.ops, failed=min(cell.failed, cell.ops), failures=cell.failures,
               events=sum(len(t.events) for t in traces))
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out.get("trials_traced", 0))
        out["layers"]["workloads.build_s"] = build_s
        out["trace"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
