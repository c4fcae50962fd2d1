"""The aggregation of tools/bench_pairs.py, on hand-made runs: medians,
inclusive quartiles, wins with ties counting for neither side, each metric's
change against its bound, and the claim rule met and not met; and the line
count of an export's `src/` on a hand-made tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


HIGHER = {"unit": "MB/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "MiB", "better": "lower", "bound": 0.05}


def test_side_stats(pairs):
    # Inclusive quartiles of 1..10 sit a quarter and three quarters along.
    s = pairs.side_stats([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
    assert (s["median"], s["q1"], s["q3"]) == (5.5, 3.25, 7.75)
    assert s["runs"] == [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert pairs.side_stats([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "runs": [4.0]}
    odd = pairs.side_stats([3, 1, 2, 5, 4])
    assert (odd["median"], odd["q1"], odd["q3"]) == (3, 2, 4)


def test_wins_ties_and_bound(pairs):
    parent = [100, 100, 100, 100]
    change = [110, 100, 90, 120]  # a win, a tie, a loss, a win
    up = pairs.compare(HIGHER, parent, change)
    assert (up["change_wins"], up["ties"]) == (2, 1)
    assert up["median_change"] == pytest.approx(0.05)
    assert up["worse_by"] == pytest.approx(-0.05) and up["within_bound"]
    # The same numbers where lower is better: the loss becomes the one win.
    down = pairs.compare(LOWER, parent, change)
    assert (down["change_wins"], down["ties"]) == (1, 1)
    assert down["worse_by"] == pytest.approx(0.05)
    assert down["within_bound"]  # exactly at the bound still counts as within
    assert not pairs.compare(LOWER, parent, [106, 106, 106, 106])["within_bound"]
    with pytest.raises(ValueError):
        pairs.compare(HIGHER, [1, 2], [1])


def test_claim_rule(pairs):
    parent = [100, 98, 102, 97, 103, 99, 101, 96, 104, 100]  # q1 98.25, q3 101.75
    change = [p * 2 for p in parent]
    met = pairs.claim_result(pairs.compare(HIGHER, parent, change))
    assert met["met"] and met["change_wins"] == 10 and met["pairs"] == 10
    assert met["ratio"] == pytest.approx(2.0)
    assert met["median_gap"] == pytest.approx(100)
    assert met["parent_quartile_spread"] == pytest.approx(3.5)

    # Nine wins of ten still meet it; eight do not, nor does a tie for the ninth.
    nine = change[:9] + [parent[9] - 1]
    assert pairs.claim_result(pairs.compare(HIGHER, parent, nine))["met"]
    eight = change[:8] + [parent[8] - 1, parent[9] - 1]
    assert not pairs.claim_result(pairs.compare(HIGHER, parent, eight))["met"]
    tie = change[:8] + [parent[8], parent[9] - 1]
    assert not pairs.claim_result(pairs.compare(HIGHER, parent, tie))["met"]

    # Ten wins whose median gap (3) is inside the parent's spread (3.5).
    small = [p + 3 for p in parent]
    res = pairs.claim_result(pairs.compare(HIGHER, parent, small))
    assert res["change_wins"] == 10 and not res["met"]

    # Lower is better: the gap is measured downwards, the ratio stays change / parent.
    halved = pairs.claim_result(pairs.compare(LOWER, parent, [p / 2 for p in parent]))
    assert halved["met"] and halved["ratio"] == pytest.approx(0.5)
    assert halved["median_gap"] == pytest.approx(50)


def cell(events=100, model=None, **layers):
    return {
        "events": events,
        "model": {"est_cycles": 5000.0, "meta_bytes": 64} if model is None else model,
        "layers": {"dram.calls": 10, "dram.bytes": 4096, "dram.s": 0.01,
                   "mgx.ledger_s": 0.002, **layers},
        "rate": 123.0,  # not a stream value
    }


def test_same_streams_all_equal(pairs):
    parent = [{"mgx": cell(), "none": cell()}, {"mgx": cell(), "none": cell()}]
    # times and rates differ from run to run; they are not compared
    change = [{"mgx": cell(**{"dram.s": 0.5, "mgx.ledger_s": 0.4}) | {"rate": 1.0},
               "none": cell()} for _ in range(2)]
    got = pairs.same_streams(parent, change)
    assert got == {"rounds": {"parent": 2, "change": 2}, "rounds_compared": 2,
                   "values_compared": 2 * 2 * 5, "stream": [], "work": []}


def test_same_streams_names_one_differing_count(pairs):
    parent = [{"mgx": cell(), "baseline": cell()}] * 2
    change = [{"mgx": cell(), "baseline": cell()},
              {"mgx": cell(), "baseline": cell(**{"dram.bytes": 4160})}]
    got = pairs.same_streams(parent, change)
    assert (got["stream"], got["work"]) == ([], ["dram.bytes.baseline"])
    change = [{"mgx": cell(model={"est_cycles": 5001.0, "meta_bytes": 64}),
               "baseline": cell(events=99)}]
    got = pairs.same_streams(parent, change)
    assert (got["stream"], got["work"]) == (["events.baseline", "model.est_cycles.mgx"], [])


def test_same_streams_only_work_differs(pairs):
    # counts of the simulator's own work: byte store, crypto, payloads, ledger
    parent = [{"mgx": cell(**{"crypto.bytes": 64, "payload.bytes": 32,
                              "mgx.ledger_blocks": 4})}]
    change = [{"mgx": cell(**{"dram.calls": 9, "crypto.bytes": 48, "payload.bytes": 16,
                              "mgx.ledger_blocks": 3})}]
    got = pairs.same_streams(parent, change)
    assert got["stream"] == []
    assert got["work"] == ["crypto.bytes.mgx", "dram.calls.mgx", "mgx.ledger_blocks.mgx",
                           "payload.bytes.mgx"]


def test_same_streams_only_a_model_output_differs(pairs):
    parent = [{"baseline": cell(**{"perf.log_records": 7})}]
    change = [{"baseline": cell(model={"est_cycles": 5000.0, "meta_bytes": 128},
                                **{"perf.log_records": 7})}]
    got = pairs.same_streams(parent, change)
    assert (got["stream"], got["work"]) == (["model.meta_bytes.baseline"], [])
    # a log count is stream too
    change = [{"baseline": cell(**{"perf.log_records": 8})}]
    assert pairs.same_streams(parent, change)["stream"] == ["perf.log_records.baseline"]


def test_same_streams_over_the_rounds_both_ran(pairs):
    parent = [{"mgx": cell()}] * 3
    change = [{"mgx": cell()}, {"mgx": cell(**{"crypto.bytes": 8})}]
    got = pairs.same_streams(parent, change)
    assert got["rounds"] == {"parent": 3, "change": 2}
    assert got["rounds_compared"] == 2
    # a value only one side has differs; the third parent round is not read
    assert (got["stream"], got["work"]) == ([], ["crypto.bytes.mgx"])
    assert got["values_compared"] == 5 + 6
    assert pairs.same_streams(parent, [])["rounds_compared"] == 0


def test_src_lines_counts_python_under_src(pairs, tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "pkg" / "c.py").write_text("")
    (tmp_path / "src" / "pkg" / "data.json").write_text("{}\n{}\n")  # not Python
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("assert True\n")  # not under src/
    assert pairs.src_lines(tmp_path) == 4
