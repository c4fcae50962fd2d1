"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Runs every workload with tiny inputs and checks that the metric names and
units printed are exactly those of BENCHMARK.json. Then shows that each
independent check passes on a true result and rejects a deliberately
corrupted one: a dropped log record, an undetected trial, a wrong payload
byte.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import cell  # noqa: E402
import checks  # noqa: E402
from baseline_oracle import oracle_for_trace  # noqa: E402
from mgxsim import workloads as wl  # noqa: E402
from mgxsim.attacks import run_campaign  # noqa: E402
from mgxsim.perf import evaluate  # noqa: E402
from mgxsim.replay import replay  # noqa: E402


def toy_traces():
    return {
        "lenet": cell.build_traces(wl, "dnn-run", 3, True)[0],
        "lenet-training": wl.cnn_training_trace(wl.load_preset("lenet"), 1, seed=3),
        **{t.workload: t for t in cell.build_traces(wl, "apps-verify", 3, True)},
    }


def summary_of(trace, scheme, mode="fast", drop=None, sample=None):
    res = replay(trace, scheme, payload_mode=mode)
    if drop is not None:
        del res.log[drop(len(res.log))]
    return cell.summarize(checks, trace, res, evaluate(res), sample), res


class MetricNames(unittest.TestCase):
    def test_printed_metrics_equal_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for w in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                p = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "7",
                     "--seconds", "0", "--trace", str(trace), "--toy"],
                    capture_output=True, text=True, timeout=170, cwd=ROOT,
                )
                self.assertEqual(p.returncode, 0, p.stderr)
                out = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(out["correct"], p.stderr)
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want, f"{w} trace={trace}")


class ReplayChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traces = toy_traces()

    def test_true_results_pass_and_a_dropped_record_is_rejected(self):
        for name, trace in self.traces.items():
            for scheme in ("none", "mgx", "baseline"):
                want = checks.expectations(trace, scheme, cell.region_size(trace))
                good, _ = summary_of(trace, scheme)
                self.assertEqual(checks.check_replay(good, want), [], f"{name}/{scheme}")
                for where in (lambda n: 0, lambda n: n // 2, lambda n: n - 1):
                    bad, _ = summary_of(trace, scheme, drop=where)
                    self.assertNotEqual(checks.check_replay(bad, want), [], f"{name}/{scheme}")

    def test_event_by_event_oracle_equals_oracle_for_trace(self):
        for name, trace in self.traces.items():
            size = cell.region_size(trace)
            t = checks.StreamTally()
            for a in oracle_for_trace(trace, size, 8, 4096):
                t.add(a.op, a.klass, a.addr, a.length, 0)
            mine = checks.expected_baseline(trace, size)
            self.assertEqual((mine.digest(), mine.records), (t.digest(), t.records), name)

    def test_fast_and_verify_streams_compare_by_digest(self):
        trace = self.traces["gact-g1b1q2"]
        fast, _ = summary_of(trace, "mgx")
        verify, _ = summary_of(trace, "mgx", mode="verify")
        self.assertEqual(fast["digest"], verify["digest"])
        dropped, _ = summary_of(trace, "mgx", drop=lambda n: n // 3)
        self.assertNotEqual(dropped["digest"], verify["digest"])

    def test_a_wrong_payload_byte_is_rejected(self):
        for name in ("h264-4f", "gact-g1b1q2"):
            trace = self.traces[name]
            sample = checks.cipher_sample(trace, random.Random(1), 4, 2)
            good, res = summary_of(trace, "mgx", mode="verify", sample=sample)
            self.assertEqual(checks.check_cipher_sample(trace, *sample, *good["sample"]), [])
            for obj_id, off, _, _ in (sample[0][0], sample[1][0]):
                addr = trace.objects[obj_id].base + off + 5
                res.memory.poke(addr, bytes([res.memory.peek(addr, 1)[0] ^ 0x10]))
                got = checks.read_sample(trace, res.memory, *sample)
                self.assertNotEqual(checks.check_cipher_sample(trace, *sample, *got), [], name)


class CampaignChecks(unittest.TestCase):
    def test_an_undetected_trial_is_rejected(self):
        trace = cell.build_traces(wl, "tamper-campaign", 3, True)[0]
        for scheme in ("mgx", "baseline", "none"):
            c = run_campaign(trace, scheme, "bitflip", trials=3, seed=11)
            self.assertEqual(checks.check_campaign(scheme, c.trials, c.detected, c.silent), [])
            if scheme == "none":
                bad = (c.trials, c.detected + 1, c.silent - 1)
            else:
                bad = (c.trials, c.detected - 1, c.silent + 1)
            self.assertNotEqual(checks.check_campaign(scheme, *bad), [], scheme)


if __name__ == "__main__":
    unittest.main()
