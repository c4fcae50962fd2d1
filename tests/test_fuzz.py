"""Mutated exported traces and network descriptions. One changed CSV cell,
sidecar field or network field makes a broken input, not an attack, so every
command must end in a classified outcome: exit 0, 2 or 5, never a traceback
(exit 1) and never a tamper report (exit 3), since nobody tampered."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgxsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, entry
from mgxsim.replay import SCHEMES
from mgxsim.workloads import build_trace, export_trace, gact_trace, h264_trace
from mgxsim.workloads.graph import LayerSpec

SOURCES = {
    "micro": lambda: build_trace("micro"),
    "h264": lambda: h264_trace("IBPB", frame_bytes=256),
    "gact": lambda: gact_trace(
        batches=1,
        queries_per_batch=2,
        reference_bytes=1 << 12,
        seed_table_bytes=1 << 10,
        pos_table_bytes=1 << 10,
        query_bytes=64,
        traceback_bytes=128,
        lookups_per_query=1,
    ),
}

MISSING = object()  # the cell or field is deleted

VALUES = st.one_of(
    st.integers(),
    st.integers(max_value=-1),
    st.floats(),
    st.text(max_size=8),
    st.just(MISSING),
)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """CSV rows and sidecar of every source trace."""
    out = {}
    for name, make in SOURCES.items():
        path = str(tmp_path_factory.mktemp("fuzz") / f"{name}.csv")
        export_trace(make(), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path + ".meta.json") as fh:
            out[name] = (rows, json.load(fh))
    return out


def _set(container, key, value):
    if value is MISSING:
        del container[key]
    else:
        container[key] = value


@st.composite
def mutations(draw, exported):
    """(source, rows, meta, what changed): one CSV cell or one sidecar
    field of one source trace set to a drawn value."""
    name = draw(st.sampled_from(sorted(exported)))
    rows, meta = exported[name]
    rows = [list(r) for r in rows]
    meta = json.loads(json.dumps(meta))
    value = draw(VALUES)
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r]) - 1))
        if value is MISSING:
            del rows[r][c]
        else:
            rows[r][c] = str(value)
        return name, rows, meta, f"csv[{r}][{c}] = {value!r}"
    target = draw(st.sampled_from(["workload", "seed", "compute_macs", "macs", "objects", "obj"]))
    if target == "macs":  # one key or one value of compute_macs
        key = draw(st.sampled_from(sorted(meta["compute_macs"])))
        if draw(st.booleans()):
            _set(meta["compute_macs"], key, value)
        else:
            weight = meta["compute_macs"].pop(key)
            if value is not MISSING:
                meta["compute_macs"][value] = weight
        return name, rows, meta, f"compute_macs[{key!r}] = {value!r}"
    if target == "obj":
        i = draw(st.integers(0, len(meta["objects"]) - 1))
        field = draw(st.sampled_from(sorted(meta["objects"][i])))
        _set(meta["objects"][i], field, value)
        return name, rows, meta, f"objects[{i}][{field!r}] = {value!r}"
    _set(meta, target, value)
    return name, rows, meta, f"{target} = {value!r}"


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(data=st.data())
def test_one_mutation_ends_in_a_classified_exit(exported, data):
    name, rows, meta, what = data.draw(mutations(exported))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        for command in ("run", "verify"):
            for scheme in SCHEMES:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = entry([command, "--workload", path, "--scheme", scheme])
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_VERIFY), (
                    f"{name}: {what}: {command} --scheme {scheme} exited {rc}: {err.getvalue()}"
                )


# -- network descriptions ------------------------------------------------------

MICRO = json.loads(resources.files("mgxsim.presets").joinpath("micro.json").read_text())
# A value of the wrong type for each key of a network description.
WRONG_TYPE = {"name": 7, "type": 7, "in_dims": "16", "out_dims": [1.5], "weight_bytes": 1.5,
              "bypass_from": "c1", "in_from": 3, "dram_writes": "2", "input_dims": [True],
              "layers": {}}
LIST_KEYS = ("in_dims", "out_dims", "input_dims", "bypass_from")
NOT_INT_KEYS = ("name", "type", "in_from", "bypass_from", "layers")  # 0 and -1 are wrong types


def _network_mutations():
    """(label, description, key, layer index or None, must exit 2): every
    key of every layer of micro.json, and of its top level, set to a wrong
    type, to 0 and to -1 (as a one-item list for a list key), and deleted
    where present; plus an unknown type on every layer and an unknown key on
    every layer and at the top level."""
    layer_keys = ["type" if k == "kind" else k for k in LayerSpec.__dataclass_fields__]
    targets = [(i, k) for i in range(len(MICRO["layers"])) for k in layer_keys]
    targets += [(None, k) for k in ("name", "input_dims", "layers")]
    for i, key in targets:
        values = [(WRONG_TYPE[key], True)]
        values += [([v] if key in LIST_KEYS else v, key in NOT_INT_KEYS) for v in (0, -1)]
        if key in (MICRO if i is None else MICRO["layers"][i]):
            values.append((MISSING, False))
        if key == "type":
            values.append(("bogus", True))
        for value, must_fail in values:
            spec = json.loads(json.dumps(MICRO))
            _set(spec if i is None else spec["layers"][i], key, value)
            shown = "deleted" if value is MISSING else repr(value)
            yield f"layer {i} {key}: {shown}", spec, key, i, must_fail
    for i in [*range(len(MICRO["layers"])), None]:
        spec = json.loads(json.dumps(MICRO))
        (spec if i is None else spec["layers"][i])["weigth_bytes"] = 1
        yield f"layer {i} weigth_bytes: 1", spec, "weigth_bytes", i, True


def test_network_mutations_end_in_a_classified_exit(tmp_path):
    """Each mutated micro.json runs to exit 0, or exits 2 with a message that
    names the file, the layer and the key. A wrong type, an unknown key and
    an unknown type always exit 2."""
    path = str(tmp_path / "net.json")
    for label, spec, key, i, must_fail in _network_mutations():
        with open(path, "w") as fh:
            json.dump(spec, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = entry(["run", "--workload", path, "--scheme", "mgx"])
        msg = err.getvalue()
        assert rc in ((EXIT_CONFIG,) if must_fail else (EXIT_OK, EXIT_CONFIG)), (label, rc, msg)
        if rc == EXIT_CONFIG:
            assert path in msg and key in msg, (label, msg)
            if i is not None and key != "name":
                assert f"layer {MICRO['layers'][i]['name']}" in msg, (label, msg)
