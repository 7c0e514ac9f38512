"""tools/paired_bench.py's schedule and summary, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)


def result_line(tok, p50, rss=38.0, correct=True):
    """The last line perfbench/run.py prints, for the given metric values."""
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
                       "metrics": {"throughput_tok_s": {"value": tok, "unit": "tok/s"},
                                   "latency_p50_ms": {"value": p50, "unit": "ms"},
                                   "peak_rss_mb": {"value": rss, "unit": "MiB"}}})


def test_schedule_alternates_which_side_runs_first():
    assert paired_bench.schedule([5, 6, 7]) == [
        (5, ("parent", "change")), (6, ("change", "parent")), (7, ("parent", "change"))]


def test_parse_result_reads_the_last_line():
    out = '{"detail": {"workload": "w"}}\n' + result_line(500.0, 0.4, correct=False) + "\n"
    assert paired_bench.parse_result(out) == {
        "correct": False, "failed": 1,
        "metrics": {"throughput_tok_s": 500.0, "latency_p50_ms": 0.4, "peak_rss_mb": 38.0}}


def test_summary_medians_quartiles_and_wins():
    parent = [(100, 1.0), (110, 0.9), (120, 1.2), (130, 1.1), (140, 1.0)]
    change = [(150, 0.8), (105, 0.95), (160, 0.7), (170, 0.6), (180, 1.0)]
    pairs = [(paired_bench.parse_result(result_line(*a))["metrics"],
              paired_bench.parse_result(result_line(*b))["metrics"])
             for a, b in zip(parent, change, strict=True)]
    better = {"throughput_tok_s": "higher", "latency_p50_ms": "lower"}
    rows = {r["metric"]: r for r in paired_bench.summarise(pairs, better)}
    assert list(rows) == ["throughput_tok_s", "latency_p50_ms", "peak_rss_mb"]

    tok = rows["throughput_tok_s"]
    assert tok["parent"] == (110, 120, 130)  # inclusive quartiles of 100..140
    assert tok["change"] == (150, 160, 170)
    assert tok["delta"] == pytest.approx(40 / 120)
    assert tok["parent_iqr"] == pytest.approx(20 / 120)
    assert (tok["wins"], tok["pairs"], tok["beyond_iqr"]) == (4, 5, True)  # 105 < 110 lost

    p50 = rows["latency_p50_ms"]
    assert p50["parent"] == pytest.approx((1.0, 1.0, 1.1))
    assert p50["change"] == pytest.approx((0.7, 0.8, 0.95))
    assert p50["wins"] == 3  # lower wins; 0.95 > 0.9 loses and the tie at 1.0 is no win
    assert p50["beyond_iqr"] is True  # |0.8 - 1.0| > 0.1

    rss = rows["peak_rss_mb"]  # no direction given: no wins, and no gap
    assert rss["wins"] is None and rss["delta"] == 0 and rss["beyond_iqr"] is False

    table = paired_bench.format_rows(paired_bench.summarise(pairs, better)).splitlines()
    assert len(table) == 4 and table[1].split()[-3:] == ["16.7%", "4/5", "yes"]


def test_single_pair_and_directions_from_the_benchmark_file():
    better = paired_bench.directions(paired_bench.load_benchmark())
    pairs = [({"latency_p50_ms": 2.0}, {"latency_p50_ms": 1.0})]
    (row,) = paired_bench.summarise(pairs, better)
    assert row["parent"] == (2.0, 2.0, 2.0) and row["wins"] == 1 and row["beyond_iqr"]
    assert better["throughput_tok_s"] == "higher"


def test_run_command_is_the_benchmark_command_at_its_run_length():
    doc = paired_bench.load_benchmark()
    cmd = paired_bench.run_command(doc, "kernels_coprime", 7, 1)
    assert cmd == [*doc["command"], "--workload", "kernels_coprime", "--seed", "7",
                   "--seconds", str(doc["run_seconds"]), "--trace", "1"]


def test_verdicts_against_the_bounds_of_the_benchmark_file():
    doc = paired_bench.load_benchmark()
    bound = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bound["throughput_tok_s"] == bound["latency_p50_ms"] == bound["setup_s"] == 0.25
    # (parent, change) per pair: throughput up, p50 30% worse on a tight
    # parent, setup_s 10% better on a parent that spreads over 50%.
    runs = [({"throughput_tok_s": 100, "latency_p50_ms": 1.00, "setup_s": 0.1},
             {"throughput_tok_s": 110, "latency_p50_ms": 1.30, "setup_s": 0.09}),
            ({"throughput_tok_s": 102, "latency_p50_ms": 1.02, "setup_s": 0.2},
             {"throughput_tok_s": 113, "latency_p50_ms": 1.33, "setup_s": 0.18}),
            ({"throughput_tok_s": 98, "latency_p50_ms": 0.98, "setup_s": 0.3},
             {"throughput_tok_s": 108, "latency_p50_ms": 1.27, "setup_s": 0.27})]
    per_layer = ({"cli.overhead_ms": 1.0}, {"cli.overhead_ms": 2.0})
    pairs = [({**a, **per_layer[0]}, {**b, **per_layer[1]}) for a, b in runs]
    rows = paired_bench.summarise(pairs, paired_bench.directions(doc))
    assert paired_bench.verdicts(rows, doc) == {
        "throughput_tok_s": "ok", "latency_p50_ms": "worse", "setup_s": "unresolved"}
    table = paired_bench.format_verdicts(rows, doc).splitlines()
    assert [line.split()[:2] for line in table[1:]] == [
        ["throughput_tok_s", "ok"], ["latency_p50_ms", "worse"], ["setup_s", "unresolved"]]
    assert table[2].split()[2:] == ["+30.0%", "2.0%", "25.0%"]


def test_a_worse_median_is_worse_even_when_the_parent_spreads_wide():
    doc = {"end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.25}]}
    pairs = [({"peak_rss_mb": a}, {"peak_rss_mb": b}) for a, b in [(10, 20), (30, 40), (50, 70)]]
    rows = paired_bench.summarise(pairs, paired_bench.directions(doc))
    assert rows[0]["parent_iqr"] > 0.25
    assert paired_bench.verdicts(rows, doc) == {"peak_rss_mb": "worse"}


def fake_runs(monkeypatch, values):
    """Serve run_once from values: (side, seed) -> (tok, p50), with no
    subprocess, and record the calls as (side, seed)."""
    calls = []

    def run_once(checkout, cmd, seed):
        side = checkout.name
        calls.append((side, seed))
        return paired_bench.parse_result(result_line(*values[side, seed]))

    monkeypatch.setattr(paired_bench, "run_once", run_once)
    return calls


def test_out_writes_rows_verdicts_and_pairs_by_workload(tmp_path, monkeypatch):
    values = {("parent", 1): (100, 1.0), ("change", 1): (120, 0.8),
              ("parent", 2): (104, 1.1), ("change", 2): (118, 0.9)}
    calls = fake_runs(monkeypatch, values)
    out = tmp_path / "BENCH.json"
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert paired_bench.main([str(parent), str(change), "--workload", "w1", "--seeds", "1", "2",
                              "--out", str(out)]) == 0
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    doc = json.loads(out.read_text())
    assert list(doc) == ["w1"]
    w1 = doc["w1"]
    assert (w1["seeds"], w1["trace"], w1["runs_failing_checks"]) == ([1, 2], 0, 0)
    assert [(r["seed"], r["order"]) for r in w1["pairs"]] == [
        (1, ["parent", "change"]), (2, ["change", "parent"])]
    assert w1["pairs"][1]["change"] == {
        "correct": True, "failed": 0,
        "metrics": {"throughput_tok_s": 118, "latency_p50_ms": 0.9, "peak_rss_mb": 38.0}}
    rows = {r["metric"]: r for r in w1["rows"]}
    assert rows["throughput_tok_s"]["parent"] == [101, 102, 103]  # inclusive quartiles
    assert rows["throughput_tok_s"]["wins"] == 2
    assert w1["verdicts"] == {"throughput_tok_s": "ok", "latency_p50_ms": "ok",
                              "peak_rss_mb": "ok"}


def test_out_keeps_the_other_workloads_of_the_file(tmp_path, monkeypatch):
    values = {(side, seed): (100 + seed, 1.0) for side in ("parent", "change") for seed in (1, 2)}
    fake_runs(monkeypatch, values)
    out = tmp_path / "BENCH.json"
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]
    paired_bench.main([*args, "--workload", "w1", "--seeds", "1"])
    paired_bench.main([*args, "--workload", "w2", "--seeds", "2"])
    first = json.loads(out.read_text())
    assert list(first) == ["w1", "w2"] and first["w1"]["seeds"] == [1]
    paired_bench.main([*args, "--workload", "w1", "--seeds", "1", "2"])
    second = json.loads(out.read_text())
    assert list(second) == ["w1", "w2"] and second["w1"]["seeds"] == [1, 2]
    assert second["w2"] == first["w2"]


def test_no_out_writes_no_file(tmp_path, monkeypatch):
    fake_runs(monkeypatch, {(side, 1): (100, 1.0) for side in ("parent", "change")})
    monkeypatch.chdir(tmp_path)
    paired_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w1",
                       "--seeds", "1"])
    assert list(tmp_path.iterdir()) == []
