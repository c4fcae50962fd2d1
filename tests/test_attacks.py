"""Randomized tamper campaigns: detection on protected schemes, silent
corruption on the unprotected one, input validation, determinism."""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from mgxsim import attacks
from mgxsim.attacks import ATTACKS, CampaignResult, run_campaign
from mgxsim.baseline import BaselineGeometry
from mgxsim.dram import PhysicalMemory
from mgxsim.errors import ConfigError, TamperDetected
from mgxsim.replay import baseline_config, replay
from mgxsim.workloads import VnSource, cnn_inference_trace, h264_trace
from mgxsim.workloads.trace import TraceBuilder


@pytest.fixture(scope="module")
def attack_trace(micro_graph):
    # two inputs so every feature edge is written twice: replay candidates
    return cnn_inference_trace(micro_graph, 2)


class TestProtectedSchemesDetect:
    @pytest.mark.parametrize("attack", ATTACKS)
    @pytest.mark.parametrize("scheme", ["mgx", "baseline"])
    def test_every_trial_detected(self, scheme, attack, attack_trace):
        res = run_campaign(attack_trace, scheme, attack, trials=12, seed=0)
        assert res.trials == 12
        assert res.detected == 12
        assert res.silent == 0 and res.clean == 0
        assert res.detection_rate == 1.0

    def test_h264_frame_replay_detected(self):
        t = h264_trace("IBPB" * 2, frame_bytes=512, streams=2)
        for scheme in ("mgx", "baseline"):
            res = run_campaign(t, scheme, "replay", trials=8, seed=3)
            assert res.detected == res.trials == 8


def per_trial_campaign(trace, scheme, attack, trials, seed):
    """The reference: one replay of the whole trace per trial."""
    index = attacks._TraceIndex(trace)
    geom = BaselineGeometry(baseline_config(trace)) if scheme == "baseline" else None
    res = CampaignResult(scheme, attack, trace.workload)
    for t in range(trials):
        hooks = attacks._BUILDERS[attack](index, random.Random(seed + t), scheme, geom)
        run = replay(trace, scheme, payload_mode="verify", hooks=hooks)
        res.trials += 1
        if run.detected is not None:
            res.detected += 1
            note = f"trial {t}: detected ({run.detected.reason})"
        elif run.mismatch is not None:
            res.silent += 1
            note = f"trial {t}: silent corruption at event {run.mismatch.event_index}"
        else:
            res.clean += 1
            note = f"trial {t}: no observable effect"
        if len(res.examples) < 5:
            res.examples.append(note)
    return res


def never_written_block_trace():
    """Under the baseline the clean replay itself stops at event 6, a read
    of a line that was never written; reads of `a` come before and after."""
    b = TraceBuilder("hole", mac_granularity=64)
    a = b.alloc("a", 128)
    h = b.alloc("h", 128)
    src = VnSource("feature", 1)
    for _ in range(2):
        b.update("update_i")
        b.new_group()
        b.write(a, src)  # events 1 and 3
    b.read(a, src)  # 4
    b.write(h, src, 0, 64)  # 5
    b.read(h, src)  # 6: h[64:128] was never written
    b.read(a, src, 64, 64)  # 7
    b.read(h, src, 0, 64)  # 8
    return b.trace


class TestSharedReplay:
    """A campaign forks one clean replay at each trial's tamper point; every
    result must equal a replay of the whole trace per trial."""

    @pytest.mark.parametrize("seed", [0, 77])
    @pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_equals_per_trial_replays(self, attack, scheme, seed, attack_trace):
        c3 = h264_trace("IBPB" * 2, frame_bytes=512, streams=2)
        for trace in (attack_trace, c3):
            got = run_campaign(trace, scheme, attack, trials=10, seed=seed)
            want = per_trial_campaign(trace, scheme, attack, 10, seed)
            assert got == want, trace.workload

    @pytest.mark.parametrize("attack", ATTACKS)
    def test_trials_past_the_end_of_the_shared_run(self, attack):
        trace = never_written_block_trace()
        clean = replay(trace, "baseline", payload_mode="verify")
        assert isinstance(clean.detected, TamperDetected) and clean.events_processed == 6
        got = run_campaign(trace, "baseline", attack, trials=24, seed=5)
        assert got == per_trial_campaign(trace, "baseline", attack, 24, 5)
        assert got.detected == 24

    @pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
    def test_no_trial_run_outlives_the_campaign(self, scheme, attack_trace, monkeypatch):
        forks = []
        fork = PhysicalMemory.fork

        def tracked(mem):
            twin = fork(mem)
            forks.append(weakref.ref(twin))
            return twin

        monkeypatch.setattr(PhysicalMemory, "fork", tracked)
        gc.collect()
        gc.disable()
        try:
            for attack in ATTACKS:
                run_campaign(attack_trace, scheme, attack, trials=6, seed=3)
            # freed by reference counts alone: nothing left a cycle behind
            assert len(forks) == 4 * 6
            assert all(ref() is None for ref in forks)
        finally:
            gc.enable()
        gc.collect()
        assert all(ref() is None for ref in forks)


class TestUnprotectedSchemeFails:
    def test_bitflips_corrupt_silently(self, attack_trace):
        res = run_campaign(attack_trace, "none", "bitflip", trials=8, seed=1)
        assert res.detected == 0
        assert res.silent == res.trials == 8

    def test_splice_corrupts_silently(self, attack_trace):
        res = run_campaign(attack_trace, "none", "splice", trials=8, seed=1)
        assert res.detected == 0 and res.silent == 8


class TestDeterminism:
    def test_same_seed_same_outcome(self, attack_trace):
        a = run_campaign(attack_trace, "mgx", "bitflip", trials=6, seed=9)
        b = run_campaign(attack_trace, "mgx", "bitflip", trials=6, seed=9)
        assert (a.detected, a.silent, a.clean) == (b.detected, b.silent, b.clean)
        assert a.examples == b.examples


class TestValidation:
    def test_unknown_attack(self, attack_trace):
        with pytest.raises(ConfigError):
            run_campaign(attack_trace, "mgx", "rowhammer", trials=1)

    def test_trace_without_reads(self):
        b = TraceBuilder("wr", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        with pytest.raises(ConfigError):
            run_campaign(b.trace, "mgx", "bitflip", trials=1)

    def test_replay_needs_a_twice_written_byte(self, micro_graph):
        # single-input inference writes every byte exactly once
        t = cnn_inference_trace(micro_graph, 1)
        with pytest.raises(ConfigError):
            run_campaign(t, "mgx", "replay", trials=1)

    def test_negative_trials(self, attack_trace):
        with pytest.raises(ConfigError):
            run_campaign(attack_trace, "mgx", "bitflip", trials=-1)

    def test_zero_trials_only_checks_preconditions(self, attack_trace):
        res = run_campaign(attack_trace, "mgx", "bitflip", trials=0)
        assert res.trials == 0 and res.examples == []

    @pytest.mark.parametrize("scheme", ["mgx", "baseline"])
    def test_rare_relocation_source_still_found(self, scheme, rare_relocation_trace):
        # 64 random picks of a read mostly miss the one read with a source
        res = run_campaign(rare_relocation_trace, scheme, "relocate", trials=20, seed=0)
        assert res.detected == res.trials == 20

    def test_relocate_needs_a_source(self):
        b = TraceBuilder("tiny", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.new_group()
        b.read(o, VnSource("feature", 1))
        with pytest.raises(ConfigError):
            run_campaign(b.trace, "mgx", "relocate", trials=1)


class TestCampaignResult:
    def test_rates_with_zero_trials(self):
        r = CampaignResult("mgx", "bitflip", "w")
        assert r.detection_rate == 0.0

    def test_examples_capped_at_five(self, attack_trace):
        res = run_campaign(attack_trace, "mgx", "bitflip", trials=8, seed=0)
        assert len(res.examples) == 5
        assert all("detected" in e for e in res.examples)
