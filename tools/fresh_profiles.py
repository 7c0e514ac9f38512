"""In-process timing of a perfbench forward workload with fresh and with
reused length profiles: the difference is what building a profile's band
plans costs a request.

Usage:

    python tools/fresh_profiles.py [TREE ...] --workload ragged_coprime \\
        --requests N --seed S [--block B] [--warmup W]

Each TREE (default: this repository) is a checkout whose stpdft package and
perfbench/workloads.py are imported into this process, each tree into its
own module namespaces, as tools/inproc_ab.py imports them, and set up with
its own workloads module at the seed S.  Each tree serves N requests of
two kinds, timed through its own perfbench/run.py (`timed_call`, checked
by `evaluate`):

- fresh: request i as the workload generates it, so each request brings its
  own profile and a forward pass builds its Gram and resample plans;
- reused: the values of request i laid out in request 0's profile (its
  addition form cycled to request 0's length by np.resize), so every plan
  is a cache hit.

Each tree first serves W fresh requests untimed, so that its store of
length-pair bands holds the workload's pairs.  The timed requests are then
served in blocks of B, every tree and both kinds in turn, the order
rotating from block to block, so a slow stretch of a shared machine falls
on all of them.  The first request of a block is not timed: in a reused
block it builds the plans of request 0's profile again.  Per tree the tool
prints the median ms per request of each kind and their difference, the
plan-building cost, with its share of the fresh median, and with two trees
the second tree's plan cost as a share of the first's.  A difference of two
medians is noisy: on a shared 2-core machine the ratio of two trees' costs
read 0.67-0.76 at N = 1,100 and 0.60 at N = 3,000, so use a few thousand.
The last line is one JSON object of the same figures.  The exit code is 0
only when every output passed its checks.  Only workloads whose request
carries a hypervector (payload "X") and its profile ("dims") can be timed.
Nothing under perfbench/ is edited.
"""

import argparse
import dataclasses
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("inproc_ab", Path(__file__).with_name("inproc_ab.py"))
inproc_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inproc_ab)
KINDS = ("fresh", "reused")


def in_profile(req, profile_req):
    """req with its values laid out in profile_req's profile: its addition
    form cycled (np.resize) to that profile's length."""
    import numpy as np  # after run.py has pinned the BLAS threads

    X, dims = req.payload["X"], profile_req.payload["dims"]
    X = type(X)(np.resize(X.buffer, sum(dims)), dims)
    return dataclasses.replace(req, tokens=sum(dims), payload={**req.payload, "dims": dims, "X": X})


class Tree(inproc_ab.Side):
    """One tree's modules, workload and state, serving both kinds of request."""

    def __init__(self, name, root, workload, seed, workdir):
        super().__init__(name, root, workload, seed, workdir)
        self.first = self.wl.request(self.state, 0)
        if not {"X", "dims"} <= set(getattr(self.first, "payload", None) or ()):
            raise SystemExit(f"fresh_profiles: {workload} requests carry no hypervector")
        self.ms = {kind: [] for kind in KINDS}
        self.problems = []

    def serve_kind(self, kind: str, i: int, timed: bool):
        inproc_ab.activate(self.modules)
        req = self.wl.request(self.state, i)
        if kind == "reused":
            req = in_profile(req, self.first)
        elapsed, raw, found = self.run.timed_call(self.wl, self.state, req)
        _, found = self.run.evaluate(self.wl, self.state, req, raw, found)
        self.problems += [f"{self.name} request {i} {kind}: {msg}" for msg in found]
        if timed:
            self.ms[kind].append(1e3 * elapsed)
        self.modules.update((n, m) for n, m in sys.modules.items() if inproc_ab._ours(n))


def measure(roots, workload: str, requests: int, seed: int, block: int, warmup: int) -> list:
    """Per tree: its fresh and reused medians (ms per request), their
    difference and its share of the fresh median, and the problems its
    checks found."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Tree(f"tree{k}", root.resolve(), workload, seed, Path(tmp) / str(k))
                 for k, root in enumerate(roots)]
        for tree in trees:
            for i in range(requests, requests + warmup):  # after the timed indices
                tree.serve_kind("fresh", i, timed=False)
        turns = [(tree, kind) for tree in trees for kind in KINDS]
        for b, lo in enumerate(range(0, requests, block)):
            shift = b % len(turns)
            for tree, kind in turns[shift:] + turns[:shift]:
                for i in range(lo, min(lo + block, requests)):
                    tree.serve_kind(kind, i, timed=i > lo)
    results = []
    for root, tree in zip(roots, trees):
        fresh, reused = (statistics.median(tree.ms[kind]) for kind in KINDS)
        results.append({"tree": str(root), "fresh_ms": fresh, "reused_ms": reused,
                         "plan_ms": fresh - reused, "plan_share": (fresh - reused) / fresh,
                         "problems": tree.problems})
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("trees", type=Path, nargs="*", default=[ROOT])
    p.add_argument("--workload", required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--block", type=int, default=50)
    p.add_argument("--warmup", type=int, default=100)
    args = p.parse_args(argv)
    if args.block < 2:
        p.error("--block must be at least 2: a block's first request is not timed")
    results = measure(args.trees, args.workload, args.requests, args.seed, args.block,
                      args.warmup)
    for r in results:
        for msg in r["problems"]:
            print(msg)
        print(f"{args.workload} in {r['tree']}: {args.requests} requests of each kind, seed"
              f" {args.seed}: own profiles {r['fresh_ms']:.4f} ms, request 0's profile"
              f" {r['reused_ms']:.4f} ms (median per request), plan building"
              f" {r['plan_ms']:.4f} ms ({100 * r['plan_share']:.1f}% of a fresh request)")
        r["problems"] = len(r["problems"])
    doc = {"workload": args.workload, "requests": args.requests, "block": args.block,
           "warmup": args.warmup, "seed": args.seed, "trees": results}
    if len(results) == 2:
        doc["plan_ratio"] = results[1]["plan_ms"] / results[0]["plan_ms"]
        print(f"plan building in the second tree: {doc['plan_ratio']:.3f} of the first's")
    print(json.dumps(doc))
    return 0 if all(r["problems"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
