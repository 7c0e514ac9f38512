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
