"""In-process A/B runs of two checkouts of stpdft on one perfbench workload.

Usage:

    python tools/inproc_ab.py PARENT_DIR CHANGE_DIR --workload W \\
        --requests N --seed S

Each tree's stpdft package and its perfbench/workloads.py are imported into
their own module namespaces of one process, and each side is set up with
its own workloads module at the seed S.  Request i is then generated by
both sides, and each side's request is timed through its own perfbench/run.py
(`timed_call`) and checked there (`evaluate`), the tree loaded first serving
first for even i and second for odd i.  Both sides run in the same process and in
the same stretch of time, so a slow stretch of a shared machine falls on
both, which perfbench runs in separate processes cannot ensure.  The count
of requests the change served faster is the steadier figure: the ratio of
the medians can still differ by a few percent between two trees whose timed
code is the same, so read it beside a run of the parent against itself.

Which tree is loaded second can bias the result, so after its run the tool
runs again in a child process (multiprocessing, spawn) with the change's
tree loaded, set up and served first.  For each order it prints each side's
median ms per request, the ratio of the medians (change / parent), the
requests the change served faster, the exact two-sided sign-test p-value of
those wins against the requests the parent served faster (ties count for
neither), and whether the converted outputs of every request are
byte-identical.  The last line is one JSON object: the first order's
figures, and the second order's under "swapped".  The exit code is 0 only
when, in both orders, every output is byte-identical and passed its checks.
Nothing under either perfbench/ is edited.
"""

import argparse
import concurrent.futures
import importlib
import importlib.util
import json
import math
import multiprocessing
import statistics
import sys
import tempfile
from pathlib import Path


def _ours(name: str) -> bool:
    return name in ("stpdft", "workloads") or name.startswith("stpdft.")


def activate(modules: dict):
    """Put one tree's stpdft and workloads modules in sys.modules, so that an
    import made while it runs finds its own tree."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


def load_tree(root: Path, side: str):
    """(run, modules) of the checkout root: its perfbench/run.py as the module
    perfbench_run_<side>, and its stpdft and workloads modules by name.
    Importing the first run.py pins the BLAS threads as perfbench does, before
    numpy is imported."""
    spec = importlib.util.spec_from_file_location(f"perfbench_run_{side}",
                                                  root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    activate({})
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    try:
        importlib.import_module("workloads")
    finally:
        del sys.path[:len(paths)]
    modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    for name, sub in (("stpdft", "src/stpdft"), ("workloads", "perfbench")):
        if Path(modules[name].__file__).resolve().parent != (root / sub).resolve():
            raise SystemExit(f"inproc_ab: imported {name} from {modules[name].__file__},"
                             f" not {root / sub}")
    return run, modules


def as_bytes(out) -> bytes:
    """One byte string for a converted output: the dtype, shape and bytes of
    every array and the repr of every number, in order, dict keys sorted."""
    if isinstance(out, dict):
        return b"".join(repr(k).encode() + as_bytes(out[k]) for k in sorted(out))
    if isinstance(out, (list, tuple)):
        return b"[" + b",".join(as_bytes(v) for v in out) + b"]"
    if hasattr(out, "tobytes"):
        return f"{out.dtype}{out.shape}".encode() + out.tobytes()
    return repr(out).encode()


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of wins against losses: the chance,
    under a fair coin, of a split at least as uneven; 1.0 with no trials."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


class Side:
    """One tree's modules, workload and state, set up in its own directory."""

    def __init__(self, name, root, workload, seed, workdir):
        self.name = name
        self.run, self.modules = load_tree(root, name)
        self.wl = self.modules["workloads"].WORKLOADS[workload]
        self.state = self.wl.setup(seed, workdir)
        self.wl.warmup(self.state)
        self.ms = []

    def serve(self, i: int):
        """Request i, timed; returns its converted output and its problems."""
        activate(self.modules)
        req = self.wl.request(self.state, i)
        elapsed, raw, problems = self.run.timed_call(self.wl, self.state, req)
        self.ms.append(1e3 * elapsed)
        out, problems = self.run.evaluate(self.wl, self.state, req, raw, problems)
        self.modules.update((n, m) for n, m in sys.modules.items() if _ours(n))
        return out, problems


def one_order(trees, workload: str, requests: int, seed: int) -> dict:
    """The A/B of the (name, root) trees, "parent" and "change", loaded, set
    up and served first in the order given: each side's median ms, the
    ratio, the change's wins and their sign-test p-value, whether every
    output is byte-identical, and the problems found."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side(name, root.resolve(), workload, seed, Path(tmp) / name)
                 for name, root in trees]
        if sides[0].modules["stpdft"] is sides[1].modules["stpdft"]:
            raise SystemExit("inproc_ab: both sides share one stpdft module")
        identical, problems = True, []
        for i in range(requests):
            got = {}
            for side in (sides if i % 2 == 0 else sides[::-1]):
                out, found = side.serve(i)
                got[side.name] = None if out is None else as_bytes(out)
                problems += [f"request {i} {side.name}: {msg}" for msg in found]
            identical = identical and got["parent"] is not None and (
                got["parent"] == got["change"])
    ms = {side.name: side.ms for side in sides}
    parent, change = statistics.median(ms["parent"]), statistics.median(ms["change"])
    wins = sum(c < a for a, c in zip(ms["parent"], ms["change"]))
    losses = sum(c > a for a, c in zip(ms["parent"], ms["change"]))
    return {"parent_ms": parent, "change_ms": change, "ratio": change / parent,
            "change_wins": wins, "sign_test_p": sign_test_p(wins, losses),
            "identical": identical, "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    trees = [("parent", args.parent), ("change", args.change)]
    run = (args.workload, args.requests, args.seed)
    first = one_order(trees, *run)
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")) as pool:
        swapped = pool.submit(one_order, trees[::-1], *run).result()
    for order, result in (("parent", first), ("change", swapped)):
        for msg in result["problems"]:
            print(f"{order} loaded first: {msg}")
        print(f"{args.workload}: {args.requests} requests, seed {args.seed}, {order} loaded first:"
              f" parent {result['parent_ms']:.4f} ms, change {result['change_ms']:.4f} ms"
              f" (median per request), ratio {result['ratio']:.4f}, change faster in"
              f" {result['change_wins']}/{args.requests} (sign test p ="
              f" {result['sign_test_p']:.3g}), outputs byte-identical: {result['identical']}")
        result["problems"] = len(result["problems"])
    print(json.dumps({"workload": args.workload, "requests": args.requests, "seed": args.seed,
                      **first, "swapped": swapped}))
    ok = all(r["identical"] and not r["problems"] for r in (first, swapped))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
