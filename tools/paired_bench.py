"""Paired benchmark runs of two checkouts of stpdft: perfbench/run.py on a
parent tree and on a changed tree, on the same seeds, in alternating order,
and for each metric the medians, quartiles and wins of the change.

Usage:

    python tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds 501 502 503 [--trace 0|1]

Pair k runs BENCHMARK.json's command (`python3 perfbench/run.py`) with
`--workload W --seed S --seconds T --trace X`, T its `run_seconds`, in
PARENT_DIR and in CHANGE_DIR, each from its own directory, the parent first
for even k and the change first for odd k, so a slow stretch of a shared
machine does not fall on one side only.  The last line a run prints
is its result object; a run that fails its checks is reported and kept.

Per metric the table gives each side's median and quartiles (inclusive
method of statistics.quantiles), the change of the medians, the parent's
IQR as a share of its median, the pairs the change won (strictly better, in
the direction BENCHMARK.json gives the metric) and whether the medians
differ by more than the parent's IQR.  Below it, each end-to-end metric gets
a verdict against its `bound` in BENCHMARK.json: `worse` when the median is
worse by more than the bound, `unresolved` when the parent's IQR is wider
than the bound (the runs spread too widely to tell), `ok` otherwise.
Nothing under either perfbench/ is edited.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark(path=ROOT / "BENCHMARK.json") -> dict:
    return json.loads(Path(path).read_text())


def directions(doc) -> dict:
    """Metric name -> "higher" or "lower", the better direction, from the
    end-to-end and per-layer lists of a BENCHMARK.json document."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in doc.get(key, [])}


def schedule(seeds) -> list:
    """(seed, sides in run order) of each pair: the parent first in even pairs."""
    return [(seed, ("parent", "change") if k % 2 == 0 else ("change", "parent"))
            for k, seed in enumerate(seeds)]


def parse_result(stdout: str) -> dict:
    """The result object on the last line of a run's standard output, as
    {"correct", "failed", "metrics": name -> value}."""
    doc = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": doc["correct"], "failed": doc["failed"],
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()}}


def quartiles(values) -> tuple:
    """(q1, median, q3) of values; a single value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(pairs, better: dict) -> list:
    """One row per metric present in every run, for pairs of result metrics
    (parent, change): name, the parent's and the change's quartiles, the
    relative change of the medians, the parent's IQR over its median, the
    pairs won by the change (None for a metric of unknown direction), the
    number of pairs, and whether the medians differ by more than the IQR."""
    names = [name for name in pairs[0][0] if all(name in a and name in b for a, b in pairs)]
    rows = []
    for name in names:
        old = quartiles([a[name] for a, _ in pairs])
        new = quartiles([b[name] for _, b in pairs])
        sign = {"higher": 1, "lower": -1}.get(better.get(name))
        wins = None if sign is None else sum(sign * (b[name] - a[name]) > 0 for a, b in pairs)
        iqr = old[2] - old[0]
        rows.append({
            "metric": name, "parent": old, "change": new,
            "delta": (new[1] - old[1]) / old[1] if old[1] else None,
            "parent_iqr": iqr / old[1] if old[1] else None,
            "wins": wins, "pairs": len(pairs),
            "beyond_iqr": abs(new[1] - old[1]) > iqr,
        })
    return rows


def _pct(x):
    return "-" if x is None else f"{100 * x:+.1f}%"


def _share(x):
    return "-" if x is None else f"{100 * x:.1f}%"


def _num(x):
    return f"{x:,.0f}" if abs(x) >= 1e4 else f"{x:.4g}"


def format_rows(rows) -> str:
    head = (f"{'metric':<22} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}"
            f" {'delta':>7} {'IQR':>6} {'wins':>6}  beyond IQR")
    lines = [head]
    for r in rows:
        old, new = (" / ".join(map(_num, r[side])) for side in ("parent", "change"))
        wins = "-" if r["wins"] is None else f"{r['wins']}/{r['pairs']}"
        beyond = "yes" if r["beyond_iqr"] else "no"
        lines.append(f"{r['metric']:<22} {old:>32} {new:>32} {_pct(r['delta']):>7}"
                     f" {_share(r['parent_iqr']):>6} {wins:>6}  {beyond}")
    return "\n".join(lines)


def verdicts(rows, doc) -> dict:
    """End-to-end metric -> "worse", "unresolved" or "ok", for the summary
    rows of its runs, against its better direction and bound in the
    BENCHMARK.json document doc.  A median of 0 leaves the change unknown,
    so the verdict is unresolved."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in doc.get("end_to_end", [])}
    out = {}
    for r in rows:
        if r["metric"] not in bounds:
            continue
        better, bound = bounds[r["metric"]]
        sign = 1 if better == "higher" else -1
        if r["delta"] is not None and sign * r["delta"] < -bound:
            out[r["metric"]] = "worse"
        elif r["parent_iqr"] is None or r["parent_iqr"] > bound:
            out[r["metric"]] = "unresolved"
        else:
            out[r["metric"]] = "ok"
    return out


def format_verdicts(rows, doc) -> str:
    """One line per end-to-end metric: its verdict, the change of the medians,
    the parent's IQR and the bound, each as a share of the parent's median."""
    found = verdicts(rows, doc)
    bounds = {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}
    lines = [f"{'metric':<22} {'verdict':<10} {'delta':>7} {'IQR':>6} {'bound':>6}"]
    for r in rows:
        if r["metric"] in found:
            lines.append(f"{r['metric']:<22} {found[r['metric']]:<10} {_pct(r['delta']):>7}"
                         f" {_share(r['parent_iqr']):>6} {_share(bounds[r['metric']]):>6}")
    return "\n".join(lines)


def run_command(doc: dict, workload: str, seed: int, trace: int) -> list:
    """The benchmark's command for one run, from a BENCHMARK.json document."""
    return [*doc["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(doc["run_seconds"]), "--trace", str(trace)]


def run_once(checkout: Path, cmd: list, seed: int) -> dict:
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise SystemExit(f"paired_bench: no result from {checkout} seed {seed}:\n{proc.stderr}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = load_benchmark()
    pairs, bad = [], 0
    for seed, order in schedule(args.seeds):
        cmd = run_command(doc, args.workload, seed, args.trace)
        got = {side: run_once(dirs[side], cmd, seed) for side in order}
        for side in order:
            res = got[side]
            bad += not res["correct"]
            print(f"seed {seed} {side}: correct={res['correct']} failed={res['failed']} "
                  + json.dumps(res["metrics"]), flush=True)
        pairs.append((got["parent"]["metrics"], got["change"]["metrics"]))
    print(f"\n{args.workload}: {len(pairs)} pairs, seeds {' '.join(map(str, args.seeds))},"
          f" {bad} runs failing their checks")
    rows = summarise(pairs, directions(doc))
    print(format_rows(rows))
    print("\n" + format_verdicts(rows, doc))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
