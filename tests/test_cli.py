"""Command-line interface: exit codes, output determinism, CSV artifacts,
and the experiment-config record behind it."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math

import pytest

import mgxsim.cli as cli
from mgxsim.attacks import CampaignResult
from mgxsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_TAMPER, EXIT_UNDETECTED, EXIT_VERIFY, entry
from mgxsim.config import ExperimentConfig, read_config, run_experiment, sweep_experiment
from mgxsim.errors import ConfigError
from mgxsim.workloads import (
    VnSource,
    build_trace,
    cnn_inference_trace,
    cnn_training_trace,
    export_trace,
    gact_trace,
    h264_trace,
    pruned_trace,
    rnn_trace,
    streaming_trace,
)
from mgxsim.workloads.trace import TraceBuilder


# The stats CSV's columns, in order, frozen: `stats_row` is their one source.
STATS_COLUMNS = [
    "scheme",
    "workload",
    "param",
    "value",
    "data_bytes",
    "meta_bytes",
    "traffic_increase",
    "est_time",
]


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
        assert len(rows) == 1 and list(rows[0]) == STATS_COLUMNS
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

    @pytest.mark.parametrize(
        "workload,arg",
        [
            pytest.param("micro", "bogus=1", id="bogus=1"),
            pytest.param("micro", "num_inputs=abc", id="num_inputs=abc"),
            pytest.param("micro", "base=4096", id="base=4096"),
            pytest.param("h264", "streams=0", id="h264-streams=0"),
            pytest.param("h264", "frame_bytes=0", id="h264-frame_bytes=0"),
            pytest.param("h264", "frame_bytes=-512", id="h264-frame_bytes=-512"),
        ],
    )
    def test_bad_workload_arg(self, capsys, workload, arg):
        rc = entry(["run", "--workload", workload, "--arg", arg])
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

    def test_parser_keeps_nothing_between_calls(self, capsys):
        # the parser is built once per process: one call's --arg must not
        # reach the next call, and a usage error still exits 2
        rc = entry(["run", "--workload", "micro", "--arg", "x=1"])
        assert rc == EXIT_CONFIG and "'x'" in capsys.readouterr().err
        assert entry(["run", "--workload", "micro"]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            entry(["run", "--workload", "micro", "--channels", "two"])
        assert exc.value.code == 2
        assert cli.make_parser() is cli.make_parser()

    def test_attack_requires_protecting_scheme(self, capsys):
        rc = entry(["attack", "--workload", "micro", "--scheme", "none", "--trials", "1"])
        assert rc == EXIT_CONFIG

    SWEEP = ["sweep", "--param"]

    @pytest.mark.parametrize(
        "command,config,key",
        [
            # each ended in a TypeError or AttributeError traceback
            pytest.param(["run"], {"channels": "2"}, "channels", id="channels-str"),
            pytest.param(["run"], {"cache_kb": None}, "cache_kb", id="cache_kb-null"),
            pytest.param(["run"], {"macs_per_cycle": "x"}, "macs_per_cycle", id="macs-str"),
            pytest.param(SWEEP + ["channels", "--values", '"2"'], {}, "channels",
                         id="sweep-channels-str"),
            pytest.param(["run"], {"workload": 5}, "workload", id="workload-int"),
            # each ran and exited 0
            pytest.param(["run"], {"out": 1}, "out", id="out-int"),
            pytest.param(["run"], {"background_writes": "no"}, "background_writes",
                         id="background_writes-str"),
            pytest.param(["run"], {"channels": True}, "channels", id="channels-bool"),
            pytest.param(["run"], {"seed": 1.5}, "seed", id="seed-float"),
            pytest.param(SWEEP + ["seed", "--values", '"a"'], {}, "seed", id="sweep-seed-str"),
            pytest.param(SWEEP + ["cache_kb", "--values", "1.5", "--scheme", "baseline"], {},
                         "cache_kb", id="sweep-cache_kb-float"),
            pytest.param(["run"], {"macs_per_cycle": math.nan}, "macs_per_cycle",
                         id="macs-nan"),
            pytest.param(["run"], {"fixed_latency": -1000}, "fixed_latency",
                         id="fixed_latency-negative"),
            # exited 2 without naming the key
            pytest.param(SWEEP + ["mac_granularity", "--values", "true"], {}, "mac_granularity",
                         id="sweep-mac_granularity-bool"),
            # each ran and exited 0: only a baseline replay checked the arity
            pytest.param(["run"], {"tree_arity": 3}, "tree_arity", id="tree_arity-3"),
            pytest.param(["run", "--scheme", "none"], {"tree_arity": 16}, "tree_arity",
                         id="tree_arity-16-none"),
        ],
    )
    def test_config_value_of_wrong_type_or_range(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        rc = entry(command + ["--config", str(path)])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err


class TestFileExits:
    """A file that cannot be read or written ends in exit 2 (exit 5 for a
    trace's sidecar) with one line on stderr that names it, not a traceback."""

    @staticmethod
    def _assert_named(rc, err, code, name, prefix="error: "):
        assert rc == code
        assert err.startswith(prefix) and err.count("\n") == 1 and name in err

    def test_missing_network_file(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        rc = entry(["run", "--workload", path])
        self._assert_named(rc, capsys.readouterr().err, EXIT_CONFIG, path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("{not json", id="invalid-json"),
            pytest.param(
                json.dumps(
                    {
                        "input_dims": [1, 8, 8],
                        "layers": [
                            {"name": "c", "type": "conv", "in_dims": [1, 8, 8],
                             "out_dims": [1, 8, 8], "weight_bytes": "x"}
                        ],
                    }
                ),
                id="weight_bytes-string",
            ),
        ],
    )
    def test_malformed_network_file(self, tmp_path, capsys, text):
        path = tmp_path / "net.json"
        path.write_text(text)
        rc = entry(["run", "--workload", str(path)])
        self._assert_named(rc, capsys.readouterr().err, EXIT_CONFIG, str(path))

    @pytest.mark.parametrize("cell", ["0", "99999", '["net.json"]'])
    def test_rnn_cell_must_be_a_path(self, capsys, cell):
        # an int names a file descriptor to open(): 0 would read stdin
        rc = entry(["run", "--workload", "rnn", "--arg", f"cell={cell}"])
        self._assert_named(rc, capsys.readouterr().err, EXIT_CONFIG, "cell")

    @pytest.mark.parametrize("which,code", [("csv", EXIT_CONFIG), ("sidecar", EXIT_VERIFY)])
    def test_trace_path_is_a_directory(self, tmp_path, capsys, which, code):
        path = str(tmp_path / "t.csv")
        if which == "csv":
            (tmp_path / "t.csv").mkdir()
        else:
            export_trace(build_trace("micro"), path)
            (tmp_path / "t.csv.meta.json").unlink()
            (tmp_path / "t.csv.meta.json").mkdir()
        rc = entry(["run", "--workload", path])
        prefix = "error: " if code == EXIT_CONFIG else "corrupted trace: "
        self._assert_named(rc, capsys.readouterr().err, code, path, prefix)

    @pytest.mark.parametrize("flag", ["--out", "--export-trace"])
    def test_unwritable_output(self, tmp_path, capsys, flag):
        path = str(tmp_path / "absent" / "x.csv")
        rc = entry(["run", "--workload", "micro", flag, path])
        self._assert_named(rc, capsys.readouterr().err, EXIT_CONFIG, path)

    def test_output_is_a_directory(self, tmp_path, capsys):
        rc = entry(["run", "--workload", "micro", "--out", str(tmp_path)])
        self._assert_named(rc, capsys.readouterr().err, EXIT_CONFIG, str(tmp_path))


# (workload, extra flags, generator) for every trace generator
GENERATORS = [
    ("micro", [], cnn_inference_trace),
    ("micro", ["--arg", "task=training"], cnn_training_trace),
    ("rnn", [], rnn_trace),
    ("pruned", [], pruned_trace),
    ("h264", [], h264_trace),
    ("gact", [], gact_trace),
    ("stream", [], streaming_trace),
]


class TestGeneratorArguments:
    """Every int argument of every generator, at its edges, either runs or
    is refused with exit 2 and a message that names it."""

    @pytest.mark.parametrize(
        "workload,extra,name",
        [
            pytest.param(workload, extra, name, id=f"{gen.__name__}-{name}")
            for workload, extra, gen in GENERATORS
            for name, p in inspect.signature(gen, eval_str=True).parameters.items()
            if p.annotation is int
        ],
    )
    def test_int_argument_edges(self, capsys, workload, extra, name):
        for value in (0, -1, 1, 100):
            argv = ["run", "--workload", workload, "--scheme", "none", *extra]
            rc = entry([*argv, "--arg", f"{name}={value}"])
            err = capsys.readouterr().err
            if rc != EXIT_OK:
                assert rc == EXIT_CONFIG, (value, err)
                assert err.startswith("error: ") and err.count("\n") == 1, (value, err)
                assert name in err, (value, err)


class TestTamperExit:
    def test_baseline_read_of_never_written_data(self, tmp_path, capsys):
        trace_csv = read_before_write_trace_csv(tmp_path)
        rc = entry(
            ["run", "--workload", trace_csv, "--scheme", "baseline", "--payload-mode", "real"]
        )
        err = capsys.readouterr().err
        # a broken schedule, not tampering: VN 0 can only come from the trace
        assert rc == EXIT_VERIFY
        assert err.startswith("schedule violation: read of never-written block")

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
        assert rc == EXIT_VERIFY and "schedule violation: event 2: counter reuse" in err

    def test_verify_success(self, capsys):
        rc = entry(["verify", "--workload", "micro", "--scheme", "mgx"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "verify: all loads returned the expected payloads" in out

    def test_verify_out_writes_the_run_row(self, tmp_path, capsys):
        paths = [str(tmp_path / "verify.csv"), str(tmp_path / "run.csv")]
        assert entry(["verify", "--workload", "micro", "--out", paths[0]]) == EXIT_OK
        argv = ["run", "--workload", "micro", "--payload-mode", "verify", "--out", paths[1]]
        assert entry(argv) == EXIT_OK
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_verify_overrides_payload_mode(self, tmp_path, capsys):
        # even a config that says fast is forced to full verification
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workload": "micro", "payload_mode": "fast"}))
        rc = entry(["verify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK and "expected payloads" in out


def _first_object_with(field, value):
    def mutate(meta):
        meta["objects"][0][field] = value
        return meta

    return mutate


def _duplicate_feat_in(meta):
    meta["objects"].append(next(o for o in meta["objects"] if o["obj_id"] == "feat_in"))
    return meta


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

    @pytest.mark.parametrize("source", ["feature:0", "frame:300", "weights:3"])
    def test_vn_argument_outside_field(self, tmp_path, capsys, source):
        path, rows, _ = self._micro_export(tmp_path)
        self._rewrite_first_write(path, rows, 2, source)
        rc = entry(["run", "--workload", path])
        self._assert_corrupted(rc, capsys.readouterr().err)

    def test_bad_vn_source_names_its_event(self, tmp_path, capsys):
        path, rows, _ = self._micro_export(tmp_path)
        self._rewrite_first_write(path, rows, 2, "feature:0")
        k = next(i for i, r in enumerate(rows[1:]) if r[0] == "write")
        rc = entry(["run", "--workload", path])
        err = capsys.readouterr().err
        self._assert_corrupted(rc, err)
        assert f"{path}: event {k}: vID 0 outside 1..255" in err

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


    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda meta: [meta], id="top-level-list"),
            pytest.param(lambda meta: {**meta, "seed": "abc"}, id="seed-string"),
            pytest.param(lambda meta: {**meta, "seed": 1.7}, id="seed-float"),
            pytest.param(lambda meta: {**meta, "seed": True}, id="seed-bool"),
            pytest.param(lambda meta: {**meta, "compute_macs": {"x": 1.0}}, id="compute_macs-key"),
            pytest.param(lambda meta: {**meta, "compute_macs": {"0": "x"}}, id="compute_macs-value"),
            pytest.param(lambda meta: {**meta, "compute_macs": [1.0]}, id="compute_macs-list"),
            pytest.param(lambda meta: {**meta, "compute_macs": {"0": "2.5"}}, id="compute_macs-str"),
            pytest.param(lambda meta: {**meta, "compute_macs": {"0": True}}, id="compute_macs-bool"),
            *(
                pytest.param(lambda meta, w=w: {**meta, "compute_macs": {"0": w}}, id=name)
                for w, name in (
                    (math.nan, "compute_macs-nan"),
                    (math.inf, "compute_macs-inf"),
                    (-1, "compute_macs-negative"),
                )
            ),
            pytest.param(_first_object_with("base", 0.0), id="base-float"),
            pytest.param(_first_object_with("mac_base", -64), id="mac_base-negative"),
            pytest.param(_duplicate_feat_in, id="duplicate-object"),
        ],
    )
    def test_bad_sidecar_field(self, tmp_path, capsys, mutate):
        path, _, meta = self._micro_export(tmp_path)
        with open(path + ".meta.json", "w") as fh:
            json.dump(mutate(meta), fh)
        rc = entry(["run", "--workload", path, "--scheme", "mgx"])
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

    @pytest.mark.parametrize("scheme", ["mgx", "none"])
    def test_tree_arity_outside_choices_rejected(self, capsys, scheme):
        argv = ["sweep", "--workload", "micro", "--scheme", scheme, "--param", "tree_arity"]
        rc = entry(argv + ["--values", "3"])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "tree_arity" in err

    def test_bad_value_stops_before_any_replay(self, capsys, monkeypatch):
        import mgxsim.config as config_module

        replays = []
        real = config_module.run_experiment
        monkeypatch.setattr(
            config_module,
            "run_experiment",
            lambda cfg, trace=None: replays.append(cfg) or real(cfg, trace=trace),
        )
        # a bad config value, and a bad generator argument after a good one
        for param, values in (("channels", '1,"2"'), ("frame_bytes", "4096,true")):
            argv = ["sweep", "--workload", "h264", "--scheme", "baseline", "--param", param]
            rc = entry(argv + ["--values", values])
            out, err = capsys.readouterr()
            assert rc == EXIT_CONFIG and out == "" and replays == []
            assert err.startswith("error: ") and err.count("\n") == 1 and param in err
        argv = ["sweep", "--workload", "h264", "--scheme", "baseline", "--param", "channels"]
        # the same sweep with good values replays once per value
        assert entry(argv + ["--values", "1,2"]) == EXIT_OK
        assert [c.channels for c in replays] == [1, 2]

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


class TestIgnoredFlags:
    """A subcommand takes no flag it would ignore: campaigns replay in verify
    mode and time nothing, and verify fixes the payload mode."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--attack", "bitflip", "--channels", "2"],
            ["attack", "--attack", "bitflip", "--payload-mode", "real"],
            ["verify", "--payload-mode", "fast"],
        ],
        ids=["attack-channels", "attack-payload-mode", "verify-payload-mode"],
    )
    def test_rejected_as_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            entry(argv + ["--workload", "micro"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def test_verify_takes_channels(self, capsys):
        outs = []
        for ch in ("1", "4"):
            assert entry(["verify", "--workload", "micro", "--channels", ch]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1] and "expected payloads" in outs[1]


CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _command_options():
    """(command, option) for every option of every subcommand."""
    sub = next(a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action)
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    ]


class TestFlagDests:
    """`_load_config` sets each config field from the flag whose dest has the
    field's name, so a misspelt dest would be ignored without an error."""

    COMMAND_DESTS = {"config", "arg", "export_trace", "param", "values", "attack", "trials"}
    # a value other than the default for every field that a flag sets
    VALUES = {
        "workload": "lenet",
        "scheme": "baseline",
        "channels": 2,
        "cache_kb": 8,
        "region_mb": 64,
        "tree_arity": 4,
        "mac_granularity": 512,
        "seed": 7,
        "payload_mode": "real",
        "out": "rows.csv",
    }
    REQUIRED = {"sweep": ["--param", "channels", "--values", "1"]}

    def test_every_dest_is_a_field_or_the_commands_own(self):
        for command, action in _command_options():
            assert action.dest in CONFIG_FIELDS | self.COMMAND_DESTS, (command, action.dest)

    @pytest.mark.parametrize(
        "command,action",
        [(c, a) for c, a in _command_options() if a.dest in CONFIG_FIELDS],
        ids=lambda x: x if isinstance(x, str) else x.dest,
    )
    def test_flag_sets_its_field(self, command, action):
        value = self.VALUES[action.dest]
        assert value != getattr(ExperimentConfig(), action.dest)
        argv = [command, *self.REQUIRED.get(command, []), action.option_strings[0], str(value)]
        cfg = cli._load_config(cli.make_parser().parse_args(argv))
        assert getattr(cfg, action.dest) == value


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
