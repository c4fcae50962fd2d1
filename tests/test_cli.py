"""Command-line interface: exit codes, output determinism, CSV artifacts,
and the experiment-config record behind it."""

from __future__ import annotations

import csv
import dataclasses
import json

import pytest

import mgxsim.cli as cli
from mgxsim.attacks import CampaignResult
from mgxsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_TAMPER, EXIT_UNDETECTED, EXIT_VERIFY, entry
from mgxsim.config import ExperimentConfig, read_config, run_experiment, sweep_experiment
from mgxsim.errors import ConfigError
from mgxsim.perf import STATS_HEADER
from mgxsim.workloads import VnSource, build_trace, export_trace
from mgxsim.workloads.trace import TraceBuilder


def read_before_write_trace_csv(tmp_path, name="rbw.csv"):
    b = TraceBuilder("rbw", mac_granularity=64)
    o = b.alloc("o", 64)
    b.update("update_i")
    b.new_group()
    b.read(o, VnSource("feature", 1))
    path = str(tmp_path / name)
    export_trace(b.trace, path)
    return path


def double_write_trace_csv(tmp_path, name="dup.csv"):
    b = TraceBuilder("dup", mac_granularity=64)
    o = b.alloc("o", 64)
    b.update("update_i")
    b.new_group()
    src = VnSource("feature", 1)
    b.write(o, src)
    b.write(o, src)
    path = str(tmp_path / name)
    export_trace(b.trace, path)
    return path


class TestRunCommand:
    def test_exit_ok_and_stdout_shape(self, capsys):
        rc = entry(["run", "--workload", "micro", "--scheme", "mgx"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "workload=micro-inference scheme=mgx" in out
        assert "traffic_increase=" in out and "est_time=" in out and "rekeys=0" in out

    def test_stdout_deterministic(self, capsys):
        entry(["run", "--workload", "micro", "--scheme", "baseline"])
        first = capsys.readouterr().out
        entry(["run", "--workload", "micro", "--scheme", "baseline"])
        assert capsys.readouterr().out == first

    def test_out_csv_and_trace_export(self, tmp_path, capsys):
        out_csv = str(tmp_path / "row.csv")
        trace_csv = str(tmp_path / "trace.csv")
        rc = entry(
            [
                "run",
                "--workload",
                "micro",
                "--scheme",
                "mgx",
                "--out",
                out_csv,
                "--export-trace",
                trace_csv,
            ]
        )
        capsys.readouterr()
        assert rc == EXIT_OK
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and list(rows[0]) == STATS_HEADER
        assert rows[0]["scheme"] == "mgx"
        # the exported trace is importable and replayable by a second run
        rc = entry(["run", "--workload", trace_csv, "--scheme", "mgx"])
        capsys.readouterr()
        assert rc == EXIT_OK

    def test_workload_args_forwarded(self, capsys):
        rc = entry(
            [
                "run",
                "--workload",
                "h264",
                "--scheme",
                "mgx",
                "--arg",
                "pattern=IBPB",
                "--arg",
                "frame_bytes=512",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK and "workload=h264-4f" in out

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"workload": "micro", "scheme": "baseline", "cache_kb": 8}))
        rc = entry(["run", "--config", str(cfg_path), "--scheme", "mgx"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK and "scheme=mgx" in out


class TestConfigExits:
    def test_unknown_workload(self, capsys):
        rc = entry(["run", "--workload", "vgg99"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG and "error:" in err

    def test_malformed_arg_flag(self, capsys):
        rc = entry(["run", "--workload", "micro", "--arg", "noequals"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("arg", ["bogus=1", "num_inputs=abc", "base=4096"])
    def test_bad_workload_arg(self, capsys, arg):
        rc = entry(["run", "--workload", "micro", "--arg", arg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert arg.split("=")[0] in err

    def test_missing_config_file(self, capsys):
        rc = entry(["run", "--config", "/nonexistent/cfg.json"])
        assert rc == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"workload": "micro", "typo_field": 1}))
        rc = entry(["run", "--config", str(p)])
        assert rc == EXIT_CONFIG

    def test_argparse_rejects_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            entry(["run", "--workload", "micro", "--scheme", "tdx"])
        assert exc.value.code == 2

    def test_attack_requires_protecting_scheme(self, capsys):
        rc = entry(["attack", "--workload", "micro", "--scheme", "none", "--trials", "1"])
        assert rc == EXIT_CONFIG


class TestTamperExit:
    def test_baseline_read_of_never_written_data(self, tmp_path, capsys):
        trace_csv = read_before_write_trace_csv(tmp_path)
        rc = entry(
            ["run", "--workload", trace_csv, "--scheme", "baseline", "--payload-mode", "real"]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_TAMPER and "tampering detected" in err

    def test_mgx_stale_chunk_hits_mac_check(self, tmp_path, capsys):
        # The lower half was last written under feature:1, so the schedule
        # checks pass; its chunk's MAC now covers the upper half's feature:2
        # rewrite, so the read fails the MAC check.
        b = TraceBuilder("stale", mac_granularity=128)
        o = b.alloc("o", 128)
        b.update("update_i")
        b.new_group()
        b.write(o, VnSource("feature", 1))
        b.write(o, VnSource("feature", 2), 64, 64)
        b.read(o, VnSource("feature", 1), 0, 64)
        trace_csv = str(tmp_path / "stale.csv")
        export_trace(b.trace, trace_csv)
        rc = entry(["run", "--workload", trace_csv, "--scheme", "mgx", "--payload-mode", "real"])
        err = capsys.readouterr().err
        assert rc == EXIT_TAMPER and "tampering detected: chunk MAC mismatch" in err


class TestUndetectedExit:
    def test_missed_trials_exit_four(self, capsys, monkeypatch):
        # protected schemes detect everything in practice, so exercise the
        # reporting branch with a stubbed campaign that misses two trials
        fake = CampaignResult("mgx", "bitflip", "micro-inference", trials=5, detected=3, silent=2)
        monkeypatch.setattr(cli, "run_campaign", lambda *a, **k: fake)
        rc = entry(
            ["attack", "--workload", "micro", "--scheme", "mgx", "--attack", "bitflip"]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_UNDETECTED
        assert "2 undetected trial(s)" in captured.err
        assert "detected=3" in captured.out


class TestVerifyExits:
    def test_corrupted_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        (tmp_path / "bad.csv.meta.json").write_text("{}")
        rc = entry(["verify", "--workload", str(bad), "--scheme", "mgx"])
        err = capsys.readouterr().err
        assert rc == EXIT_VERIFY and "corrupted trace" in err

    def test_schedule_violation(self, tmp_path, capsys):
        trace_csv = double_write_trace_csv(tmp_path)
        rc = entry(["verify", "--workload", trace_csv, "--scheme", "mgx"])
        err = capsys.readouterr().err
        assert rc == EXIT_VERIFY and "schedule violation" in err

    def test_verify_success(self, capsys):
        rc = entry(["verify", "--workload", "micro", "--scheme", "mgx"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "verify: all loads returned the expected payloads" in out

    def test_verify_overrides_payload_mode(self, tmp_path, capsys):
        # even a config that says fast is forced to full verification
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workload": "micro", "payload_mode": "fast"}))
        rc = entry(["verify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK and "expected payloads" in out


class TestCorruptedTraceExits:
    """Malformed trace files end in exit 5 with one line on stderr."""

    @staticmethod
    def _micro_export(tmp_path):
        path = str(tmp_path / "m.csv")
        export_trace(build_trace("micro"), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        return path, rows, meta

    @staticmethod
    def _rewrite_first_write(path, rows, column, value):
        first = next(i for i, r in enumerate(rows) if r[0] == "write")
        rows[first][column] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @staticmethod
    def _assert_corrupted(rc, err):
        assert rc == EXIT_VERIFY
        assert err.startswith("corrupted trace: ") and err.count("\n") == 1

    def test_negative_length(self, tmp_path, capsys):
        path, rows, _ = self._micro_export(tmp_path)
        self._rewrite_first_write(path, rows, 4, "-64")
        rc = entry(["run", "--workload", path])
        self._assert_corrupted(rc, capsys.readouterr().err)

    def test_row_beyond_object(self, tmp_path, capsys):
        path, rows, meta = self._micro_export(tmp_path)
        size = next(o["size"] for o in meta["objects"] if o["obj_id"] == "w_c1")
        self._rewrite_first_write(path, rows, 3, str(size))
        rc = entry(["run", "--workload", path])
        self._assert_corrupted(rc, capsys.readouterr().err)

    def test_unknown_vn_kind(self, tmp_path, capsys):
        path, rows, _ = self._micro_export(tmp_path)
        self._rewrite_first_write(path, rows, 2, "bogus:1")
        rc = entry(["run", "--workload", path])
        self._assert_corrupted(rc, capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["feature:0", "frame:300"])
    def test_vn_argument_outside_field(self, tmp_path, capsys, source):
        path, rows, _ = self._micro_export(tmp_path)
        self._rewrite_first_write(path, rows, 2, source)
        rc = entry(["run", "--workload", path])
        self._assert_corrupted(rc, capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_overlapping_objects(self, tmp_path, capsys, command):
        path, _, meta = self._micro_export(tmp_path)
        objs = {o["obj_id"]: o for o in meta["objects"]}
        objs["feat_c1"]["base"] = objs["feat_in"]["base"]
        objs["feat_c1"]["mac_base"] = objs["feat_in"]["mac_base"]
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        rc = entry([command, "--workload", path, "--scheme", "mgx"])
        self._assert_corrupted(rc, capsys.readouterr().err)


class TestSweepCommand:
    def test_channel_sweep_order_and_csv(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        rc = entry(
            [
                "sweep",
                "--workload",
                "micro",
                "--scheme",
                "baseline",
                "--param",
                "channels",
                "--values",
                "1,2,4",
                "--out",
                out_csv,
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 3
        assert [l.split("value=")[1].split()[0] for l in lines] == ["1", "2", "4"]
        times = [float(l.split("est_time=")[1].split()[0]) for l in lines]
        assert times[0] >= times[1] >= times[2]
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["1", "2", "4"]
        assert all(r["param"] == "channels" for r in rows)

    def test_workload_arg_sweep(self, capsys):
        rc = entry(
            [
                "sweep",
                "--workload",
                "h264",
                "--scheme",
                "mgx",
                "--arg",
                "pattern=IBPB",
                "--param",
                "frame_bytes",
                "--values",
                "512,1024",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("param=frame_bytes") == 2

    def test_empty_values_rejected(self, capsys):
        rc = entry(
            ["sweep", "--workload", "micro", "--param", "channels", "--values", ","]
        )
        assert rc == EXIT_CONFIG

    def test_sweep_stdout_deterministic(self, capsys):
        argv = [
            "sweep",
            "--workload",
            "micro",
            "--scheme",
            "mgx",
            "--param",
            "mac_granularity",
            "--values",
            "512,1024",
        ]
        entry(argv)
        first = capsys.readouterr().out
        entry(argv)
        assert capsys.readouterr().out == first


class TestAttackCommand:
    def test_single_attack_all_detected(self, capsys, tmp_path):
        out_csv = str(tmp_path / "atk.csv")
        rc = entry(
            [
                "attack",
                "--workload",
                "micro",
                "--scheme",
                "mgx",
                "--attack",
                "bitflip",
                "--trials",
                "5",
                "--arg",
                "num_inputs=2",
                "--out",
                out_csv,
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "attack=bitflip trials=5 detected=5" in out
        assert "detection_rate=1.0000" in out
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["detected"] == "5"


    @pytest.mark.parametrize("scheme", ["mgx", "baseline"])
    def test_unmet_precondition_stops_before_any_campaign(self, capsys, scheme):
        # single-input micro writes every byte once: no replay candidate
        rc = entry(["attack", "--workload", "micro", "--scheme", scheme, "--trials", "1"])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "replay" in err

    @pytest.mark.parametrize("scheme", ["mgx", "baseline"])
    def test_no_relocation_source_stops_before_any_campaign(self, capsys, tmp_path, scheme):
        # one 64-byte object written twice, then read: a replay candidate,
        # but nothing to relocate from
        b = TraceBuilder("one", mac_granularity=64)
        o = b.alloc("o", 64)
        src = VnSource("feature", 1)
        for _ in range(2):
            b.update("update_i")
            b.new_group()
            b.write(o, src)
        b.new_group()
        b.read(o, src)
        path = str(tmp_path / "one.csv")
        export_trace(b.trace, path)
        rc = entry(["attack", "--workload", path, "--scheme", scheme, "--trials", "3"])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == ""
        assert err == "error: no relocation source found for this trace\n"


    def test_rare_relocation_source_still_found(self, capsys, tmp_path, rare_relocation_trace):
        path = str(tmp_path / "rare.csv")
        export_trace(rare_relocation_trace, path)
        rc = entry(["attack", "--workload", path, "--trials", "20"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "attack=relocate trials=20 detected=20" in out
        assert out.count("detection_rate=1.0000") == 4

    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_trials_below_one_rejected(self, capsys, trials):
        rc = entry(["attack", "--workload", "micro", "--arg", "num_inputs=2",
                    "--attack", "bitflip", "--trials", trials])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--trials" in err


class TestCsvWorkloadFlags:
    """An imported trace fixes its layout and payload seed, so flags that
    would shape a generated trace are rejected rather than ignored."""

    COMMANDS = {
        "run": ["run"],
        "verify": ["verify"],
        "sweep": ["sweep", "--param", "channels", "--values", "1"],
        "attack": ["attack", "--attack", "bitflip", "--trials", "1"],
    }

    @pytest.fixture
    def csv_path(self, tmp_path):
        path = str(tmp_path / "m.csv")
        export_trace(build_trace("micro"), path)
        return path

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "flag,value", [("--arg", "num_inputs=2"), ("--mac-granularity", "64"), ("--seed", "9")]
    )
    def test_flag_rejected(self, capsys, csv_path, command, flag, value):
        rc = entry(self.COMMANDS[command] + ["--workload", csv_path, flag, value])
        out, err = capsys.readouterr()
        if command == "attack" and flag == "--seed":
            assert rc == EXIT_OK and "detected=1" in out  # seeds the trials
            return
        assert rc == EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    def test_config_workload_args_rejected(self, capsys, csv_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workload": csv_path, "workload_args": {"num_inputs": 2}}))
        rc = entry(["run", "--config", str(cfg)])
        assert rc == EXIT_CONFIG and "--arg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_config_seed_and_granularity_rejected(self, capsys, csv_path, tmp_path, command):
        for key, value in (("seed", 9), ("mac_granularity", 64)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"workload": csv_path, key: value}))
            rc = entry(self.COMMANDS[command] + ["--config", str(cfg)])
            out, err = capsys.readouterr()
            if command == "attack" and key == "seed":
                assert rc == EXIT_OK and "detected=1" in out  # seeds the trials
                continue
            assert rc == EXIT_CONFIG and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err

    def test_swept_seed_rejected(self, capsys, csv_path):
        rc = entry(["sweep", "--workload", csv_path, "--param", "seed", "--values", "1,2"])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == "" and "--param seed" in err


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.workload == "micro" and cfg.scheme == "mgx"

    @pytest.mark.parametrize(
        "kv",
        [
            {"scheme": "tdx"},
            {"payload_mode": "dry"},
            {"channels": 0},
            {"cache_kb": 0},
            {"region_mb": 0},
            {"mac_granularity": 0},
            {"workload_args": [1, 2]},
        ],
    )
    def test_validation(self, kv):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kv)

    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(workload="h264", channels=4, workload_args={"pattern": "IBPB"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert ExperimentConfig.from_dict(read_config(str(path))) == cfg

    def test_read_config_rejects_non_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            read_config(str(p))

    def test_with_overrides_skips_none(self):
        cfg = ExperimentConfig(cache_kb=8)
        same = cfg.with_overrides(cache_kb=None, channels=None)
        assert same == cfg
        assert cfg.with_overrides(channels=2).channels == 2

    def test_run_experiment_and_sweep(self):
        cfg = ExperimentConfig(workload="micro", scheme="mgx")
        sim = run_experiment(cfg)
        assert sim.replay.clean
        rows = sweep_experiment(cfg, "channels", [1, 2])
        assert [r["value"] for r in rows] == [1, 2]
        # unknown field names route into workload args
        rows = sweep_experiment(
            ExperimentConfig(workload="stream"), "total_bytes", [1 << 20]
        )
        assert rows[0]["param"] == "total_bytes"
