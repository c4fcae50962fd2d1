"""The benchmark's span tracer (bench/spans.py) wraps mgxsim functions and
methods by name from outside the package. A rename or move under src/ would
break the benchmark without failing any other test; this one installs the
tracer, runs one small replay under each protecting scheme, and checks that
every site resolved and that the byte store and the mgx ledger were seen.
A real-mode replay under each scheme checks that the crypto spans see the
functions each engine calls, and the bench's stream tally must read the
access log the same way it reads a plain list of records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import mgxsim.perf
import mgxsim.replay
import mgxsim.workloads

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", SPANS.with_name(f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_spans():
    return load_bench("spans")


def test_every_span_site_resolves_and_records():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install("mgxsim")
        assert len(tracer._saved) == len(spans._SITES) == 21
        wl = mgxsim.workloads
        trace = wl.cnn_inference_trace(wl.load_preset("micro"), 1)
        for scheme in ("mgx", "baseline"):
            mgxsim.perf.evaluate(mgxsim.replay.replay(trace, scheme))
    finally:
        tracer.remove()
    assert tracer.total("dram.read", field=0) > 0
    assert tracer.total("mgx.ledger", field=0) > 0
    assert tracer.total("baseline.store", field=0) > 0
    assert not hasattr(mgxsim.replay.replay, "__wrapped__")


@pytest.mark.parametrize("scheme", ["mgx", "baseline"])
def test_crypto_spans_record_real_mode(scheme):
    # each scheme binds its own crypto names, so each is traced on its own
    spans = load_spans()
    tracer = spans.Tracer()
    wl = mgxsim.workloads
    trace = wl.cnn_inference_trace(wl.load_preset("micro"), 1)
    try:
        tracer.install("mgxsim")
        res = mgxsim.replay.replay(trace, scheme, payload_mode="real")
    finally:
        tracer.remove()
    assert res.clean
    for name in ("crypto.keystream", "crypto.mac"):
        assert tracer.total(name, field=0) > 0, name
        assert tracer.total(name, field=3) > 0, name


@pytest.mark.parametrize("scheme", ["none", "mgx", "baseline"])
def test_bench_reads_the_access_log(scheme):
    checks = load_bench("checks")
    tracer = load_spans().Tracer()
    wl = mgxsim.workloads
    trace = wl.cnn_inference_trace(wl.load_preset("micro"), 2)
    try:
        tracer.install("mgxsim")
        res = mgxsim.replay.replay(trace, scheme)
        mgxsim.perf.evaluate(res)
    finally:
        tracer.remove()
    assert tracer.total("perf.evaluate", field=3) == len(res.log) > 0
    got = checks.tally_log(res.log, res.group_spans)
    want = checks.tally_log(list(res.log), res.group_spans)
    assert got.records == want.records == len(res.log)
    assert (got.bytes, got.groups) == (want.bytes, want.groups)
    assert got.digest() == want.digest()


def test_byte_spans_equal_the_log_under_bulk_moves():
    # The baseline moves the rest of each run as one access that logs one
    # record per block. The bench's dram spans must still see every logged
    # byte, and its keystream span every data byte: each data block is
    # encrypted once as it is written and decrypted once as it is read.
    spans = load_spans()
    tracer = spans.Tracer()
    wl = mgxsim.workloads
    trace = wl.cnn_inference_trace(wl.load_preset("micro"), 1)
    try:
        tracer.install("mgxsim")
        res = mgxsim.replay.replay(trace, "baseline", payload_mode="real")
    finally:
        tracer.remove()
    assert res.clean
    log_bytes = sum(res.log.byte_totals)
    data_bytes = sum(r.length for r in res.log if r.klass == "data")
    assert tracer.total("dram.read", "dram.write", field=3) == log_bytes > 0
    assert tracer.total("crypto.keystream", field=3) == data_bytes > 0
