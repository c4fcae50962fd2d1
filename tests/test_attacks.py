"""Randomized tamper campaigns: detection on protected schemes, silent
corruption on the unprotected one, input validation, determinism."""

from __future__ import annotations

import pytest

from mgxsim.attacks import ATTACKS, CampaignResult, run_campaign
from mgxsim.errors import ConfigError
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
