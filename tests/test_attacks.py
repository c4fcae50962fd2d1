"""Randomized tamper campaigns: detection on protected schemes, silent
corruption on the unprotected one, input validation, determinism."""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from mgxsim import attacks
from mgxsim.attacks import ATTACKS, CampaignResult, run_campaign
from mgxsim.baseline import BaselineGeometry
from mgxsim.dram import PhysicalMemory
from mgxsim.errors import ConfigError, SecurityInvariantFault
from mgxsim.replay import baseline_config, replay
from mgxsim.workloads import VnSource, cnn_inference_trace, gact_trace, h264_trace
from mgxsim.workloads.trace import READ, WRITE, TraceBuilder, TraceEvent


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
    geom = BaselineGeometry(baseline_config(trace)) if scheme == "baseline" else None
    index = attacks._TraceIndex(trace, scheme, geom)
    res = CampaignResult(scheme, attack, trace.workload)
    for t in range(trials):
        hooks = attacks._BUILDERS[attack](index, random.Random(seed + t))
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


def wrong_vn_read_trace():
    """Under the baseline, which stores VNs, the clean verify replay itself
    stops at event 6 with a payload mismatch: a read under a VN other than
    the one `h` was written under. Reads of `a` come before and after."""
    b = TraceBuilder("wrong-vn", mac_granularity=64)
    a = b.alloc("a", 128)
    h = b.alloc("h", 128)
    src = VnSource("feature", 1)
    for _ in range(2):
        b.update("update_i")
        b.new_group()
        b.write(a, src)  # events 1 and 3
    b.read(a, src)  # 4
    b.write(h, src)  # 5
    b.read(h, VnSource("feature", 2))  # 6: not the VN h was written under
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
        trace = wrong_vn_read_trace()
        clean = replay(trace, "baseline", payload_mode="verify")
        assert clean.mismatch is not None and clean.events_processed == 6
        got = run_campaign(trace, "baseline", attack, trials=24, seed=5)
        assert got == per_trial_campaign(trace, "baseline", attack, 24, 5)
        # trials tampering before event 6 are caught; later ones end there
        assert got.detected and got.silent and got.detected + got.silent == 24

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

    def test_illegal_trace_rejected_before_any_trial(self):
        # a memory event without a VN source, after the reads the campaign
        # would attack
        b = TraceBuilder("nosrc", mac_granularity=64)
        o = b.alloc("o", 64)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.read(o, VnSource("feature", 1))
        b.trace.events.append(TraceEvent(WRITE, "o", None, 0, 64, 0))
        with pytest.raises(ConfigError, match="without a VN source"):
            run_campaign(b.trace, "mgx", "bitflip", trials=0)

    def test_schedule_fault_raises_before_the_first_trial(
        self, broken_schedule_trace, monkeypatch
    ):
        # the only read (event 2) comes before the fault (event 4), so only a
        # check of the whole schedule can raise before a trial is forked
        forks = []
        monkeypatch.setattr(attacks._Run, "fork", lambda run: forks.append(run))
        with pytest.raises(SecurityInvariantFault, match=r"^event 4: counter reuse"):
            run_campaign(broken_schedule_trace, "mgx", "bitflip", trials=3)
        assert forks == []

    def test_negative_trials(self, attack_trace):
        with pytest.raises(ConfigError):
            run_campaign(attack_trace, "mgx", "bitflip", trials=-1)

    def test_zero_trials_only_checks_preconditions(self, attack_trace):
        res = run_campaign(attack_trace, "mgx", "bitflip", trials=0)
        assert res.trials == 0 and res.examples == []

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
    def test_one_counter_walk_per_campaign(self, scheme, trials, attack_trace, monkeypatch):
        # validation, the schedule check and the shared replay all take
        # their VNs from one resolve_vns call
        import mgxsim.mgx as mgx_module
        import mgxsim.workloads.trace as trace_module

        walks = []
        resolve = mgx_module.resolve_vns
        for module in (mgx_module, trace_module):
            monkeypatch.setattr(module, "resolve_vns", lambda t: walks.append(t) or resolve(t))
        run_campaign(attack_trace, scheme, "bitflip", trials=trials)
        assert walks == [attack_trace]
        walks.clear()
        replay(attack_trace, scheme)
        assert walks == [attack_trace]

    def test_pre_pass_checks_the_schedule(self, broken_schedule_trace):
        with pytest.raises(SecurityInvariantFault, match=r"^event 4: counter reuse"):
            run_campaign(broken_schedule_trace, "mgx", "bitflip", trials=0)

    @pytest.mark.parametrize("scheme", ["mgx", "baseline"])
    def test_rare_relocation_source_still_found(self, scheme, rare_relocation_trace):
        # 64 random picks of a read mostly miss the one read with a source
        res = run_campaign(rare_relocation_trace, scheme, "relocate", trials=20, seed=0)
        assert res.detected == res.trials == 20

    @pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
    def test_empty_reads_and_writes_are_not_attacked(self, scheme, attack_trace):
        # as many reads and writes of no bytes as the trace has reads, after
        # its last event: no trial picks them, so every outcome stays
        reads = [ev for ev in attack_trace.events if ev.op == READ]
        empty = [ev._replace(op=op, offset=ev.offset + 8, length=0)
                 for ev in reads for op in (READ, WRITE)]
        padded = dataclasses.replace(attack_trace, events=attack_trace.events + empty)
        for attack in ATTACKS:
            got = run_campaign(padded, scheme, attack, trials=6, seed=4)
            assert got == run_campaign(attack_trace, scheme, attack, trials=6, seed=4), attack

    def test_an_empty_write_is_no_newer_write(self):
        b = TraceBuilder("empty", mac_granularity=64)
        a = b.alloc("a", 128)
        src = VnSource("feature", 1)
        for _ in range(2):
            b.update("update_i")
            b.new_group()
            b.write(a, src)  # events 1 and 3
        b.read(a, src)  # 4
        assert attacks._TraceIndex(b.trace, "mgx", None).replay_candidates == [(4, 1, 0, 128)]
        b.trace.events.insert(4, TraceEvent(WRITE, "a", src, 8, 0, b.trace.events[3].group))
        assert attacks._TraceIndex(b.trace, "mgx", None).replay_candidates == [(5, 1, 0, 128)]

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


class TestRelocationTargets:
    """The fallback draw's table: every (read, object, first byte) whose
    unit has a relocation source. Counts frozen from the definition that
    sampled three units per read to decide the precondition."""

    COUNTS = {
        "h264": (3861, 3861, 61775),
        "gact": (577, 577, 6208),
        "micro-2": (90, 90, 1460),
        "c3": (17, 17, 143),
    }

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_counts(self, name, attack_trace):
        trace = {
            "h264": h264_trace,
            "gact": gact_trace,
            "micro-2": lambda: attack_trace,
            "c3": lambda: h264_trace("IBPB" * 2, frame_bytes=512, streams=2),
        }[name]()
        got = []
        for scheme in ("none", "mgx", "baseline"):
            geom = BaselineGeometry(baseline_config(trace)) if scheme == "baseline" else None
            index = attacks._TraceIndex(trace, scheme, geom)
            targets = index.relocation_targets
            assert index.relocation_targets is targets  # built once
            assert next(attacks._relocation_targets(index)) == targets[0]
            got.append(len(targets))
        assert tuple(got) == self.COUNTS[name]


class TestCampaignResult:
    def test_rates_with_zero_trials(self):
        r = CampaignResult("mgx", "bitflip", "w")
        assert r.detection_rate == 0.0

    def test_examples_capped_at_five(self, attack_trace):
        res = run_campaign(attack_trace, "mgx", "bitflip", trials=8, seed=0)
        assert len(res.examples) == 5
        assert all("detected" in e for e in res.examples)
