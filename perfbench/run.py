"""Benchmark of stpdft: seeded workloads, closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times requests untraced and prints the end-to-end metrics, with
times scaled to a reference machine speed (see REFERENCE_PROBE_S); --trace 1
runs each request once untraced and once under span tracing and prints the
per-layer metrics.  Every output is checked outside the timed
region; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
check passed.  Workloads and metrics are described in perfbench/README.md.

    python3 perfbench/run.py --write-reference

rewrites perfbench/reference.json, the stored outputs of the fixed
reference requests.
"""

import os

# BLAS threads are pinned before numpy is first imported: with two threads on
# a two-core machine, single ragged requests took up to 1.6 s and the
# throughput of a run spread widely.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench"  # scratch files and span dumps, inside the checkout

REFERENCE_SEED = 1  # seed of the reference requests stored in reference.json

# On a shared machine, contention from other tenants slows everything down,
# by up to 1.9x for tens of seconds at a time.  A fixed calibration loop that
# does not touch stpdft runs before and after every timed interval; the
# interval is scaled by REFERENCE_PROBE_S over the mean of the two loop
# times, i.e. reported at the speed the loop has on an uncontended machine.
# Raw wall times are kept in the detail line.
REFERENCE_PROBE_S = 1e-3
_PROBE_VECTOR = np.linspace(-1.0, 1.0, 64)
_PROBE_MATRIX = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
_PROBE_BUFFER = np.linspace(-1.0, 1.0, 1 << 17)
SETUP_REPEATS = 5  # set-up is timed in this many fresh processes; the median is reported
TRACE_MAX_REQUESTS = 16  # traced requests per run, so span counts repeat for a seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite reference.json from the current program")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    return args


def import_program():
    """Import stpdft from this checkout's src/, never from elsewhere."""
    if not (SRC / "stpdft" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stpdft sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import stpdft

    if Path(stpdft.__file__).resolve().parent != SRC / "stpdft":
        raise SystemExit(f"perfbench: imported stpdft from {stpdft.__file__}, not {SRC}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = "unknown"
    return {"pinned_env": PINNED_ENV, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def set_up(wl, seed, workdir):
    state = wl.setup(seed, workdir)
    wl.warmup(state)
    return state


def time_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready-for-the-first-request, in fresh
    processes: (at reference speed, raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {code})")
        raw.append(elapsed)
        scaled.append(elapsed * speed_scale(before, probe()))
    return scaled, raw


def probe() -> float:
    """Seconds taken by the calibration loop: small numpy calls from Python,
    as in most of stpdft, plus BLAS products and memory copies."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        acc += float(np.dot(np.repeat(_PROBE_VECTOR, 1), _PROBE_VECTOR))
    for _ in range(20):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(4):
        _PROBE_BUFFER.copy()
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at reference speed, given the
    calibration loop times measured just before and just after an interval."""
    return 2 * REFERENCE_PROBE_S / (before + after)


def timed_call(wl, state, req):
    """One timed request; returns (seconds, raw result or None, problems)."""
    t0 = time.perf_counter()
    try:
        raw = wl.call(state, req)
    except Exception as exc:  # noqa: BLE001 - a raising request is a counted failure
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, raw, []


def evaluate(wl, state, req, raw, problems):
    """Output of one request as plain arrays, and the problems its checks find."""
    if problems:
        return None, problems
    out, problems = wl.convert(state, req, raw)
    return out, problems or wl.check(state, req, out)


def execute(wl, state, req):
    elapsed, raw, problems = timed_call(wl, state, req)
    return (elapsed, *evaluate(wl, state, req, raw, problems))


def reference_and_self_test(wl, workdir) -> list[str]:
    """Check the fixed reference request against stored values, then show that
    the checks reject a perturbed output and a wrong profile."""
    state = wl.setup(REFERENCE_SEED, workdir / "reference")
    req = wl.request(state, 0)
    _, out, problems = execute(wl, state, req)
    if out is None:
        return [f"reference request: {p}" for p in problems]
    stored = load_reference().get(wl.name)
    problems += wl.compare(out, stored)
    for label, bad in wl.perturbations(out):
        if not wl.check(state, req, bad) + wl.compare(bad, stored):
            problems.append(f"self-test: the checks accepted {label}")
    return [f"reference request: {p}" for p in problems]


def quantiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[-1]


def run_untraced(wl, args, workdir, detail):
    setup, setup_raw = time_setup(args)
    state = set_up(wl, args.seed, workdir)
    problems = reference_and_self_test(wl, workdir)

    lat, raw_lat, tokens, failed = [], [], 0, 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        req = wl.request(state, i)
        before = probe()
        elapsed, result, req_problems = timed_call(wl, state, req)
        lat.append(elapsed * speed_scale(before, probe()))
        raw_lat.append(elapsed)
        _, req_problems = evaluate(wl, state, req, result, req_problems)
        if req_problems:
            failed += 1
            problems += [f"request {i}: {p}" for p in req_problems[:3]]
        else:
            tokens += req.tokens
        i += 1
    p50, p90 = quantiles(lat)
    raw_p50, raw_p90 = quantiles(raw_lat)
    detail.update({
        "requests": len(lat), "beyond_p90": sum(v > p90 for v in lat),
        "error_rate": {"value": failed / len(lat), "failed": failed, "attempted": len(lat)},
        "raw_wall_time": {"throughput_tok_s": tokens / sum(raw_lat),
                          "latency_p50_ms": raw_p50 * 1e3, "latency_p90_ms": raw_p90 * 1e3,
                          "setup_s": statistics.median(setup_raw),
                          "setup_samples_s": setup_raw},
    })
    metrics = {
        "throughput_tok_s": (tokens / sum(lat), "tok/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, len(lat), failed, problems


def run_traced(wl, args, workdir, detail):
    import spans

    tracer = spans.Tracer()
    with tracer.recording(spans.SETUP):
        state = set_up(wl, args.seed, workdir)
    problems = reference_and_self_test(wl, workdir)

    plain, traced, nominal = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or (i < TRACE_MAX_REQUESTS and time.perf_counter() - start < args.seconds):
        req = wl.request(state, i)
        outs = {}
        # Alternate which run goes first, so warm caches favour neither side.
        for mode in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if mode == "traced":
                with tracer.recording(i):
                    elapsed, raw, req_problems = timed_call(wl, state, req)
                traced.append(elapsed)
            else:
                elapsed, raw, req_problems = timed_call(wl, state, req)
                plain.append(elapsed)
            outs[mode], req_problems = evaluate(wl, state, req, raw, req_problems)
            attempted += 1
            if req_problems:
                failed += 1
                problems += [f"request {i} ({mode}): {p}" for p in req_problems[:3]]
        if None not in outs.values() and not bit_identical(outs["plain"], outs["traced"]):
            failed += 1
            problems.append(f"request {i}: traced and untraced outputs differ")
        if hasattr(wl, "nominal"):
            t0 = time.perf_counter()
            wl.nominal(state, req)
            nominal.append(time.perf_counter() - t0)
        i += 1

    values = tracer.layer_metrics(i)
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    nominal_ms = statistics.median(nominal) * 1e3 if nominal else 0.0
    values["transformer.nominal_ms"] = nominal_ms
    values["transformer.ragged_over_nominal"] = (
        statistics.median(plain) * 1e3 / nominal_ms if nominal_ms else 0.0)
    spans_path = WORK / f"spans-{wl.name}-seed{args.seed}.npz"
    tracer.save(spans_path)
    detail.update({"traced_requests": i, "absent_functions": tracer.absent,
                   "spans": len(tracer.name), "spans_file": str(spans_path.relative_to(ROOT))})
    metrics = {k: (values[k], unit) for k, unit in spans.PER_LAYER_UNITS.items()}
    return metrics, attempted, failed, problems


def bit_identical(a, b) -> bool:
    xs, ys = list(_leaves(a)), list(_leaves(b))
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def _leaves(x):
    if isinstance(x, dict):
        for key in sorted(x):
            yield from _leaves(x[key])
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _leaves(item)
    else:
        yield np.asarray(x)


def write_reference(workdir):
    from workloads import WORKLOADS

    doc = {}
    for wl in WORKLOADS.values():
        if not hasattr(wl, "stored_form"):
            continue
        state = wl.setup(REFERENCE_SEED, workdir / wl.name)
        req = wl.request(state, 0)
        _, out, problems = execute(wl, state, req)
        if problems:
            raise SystemExit(f"perfbench: reference request of {wl.name} failed: {problems}")
        doc[wl.name] = {"seed": REFERENCE_SEED, "request": 0, **wl.stored_form(out)}
    lines = [f"{json.dumps(name)}: {json.dumps(values)}" for name, values in doc.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if not args.write_reference and args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r};"
                         f" choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.write_reference:
            write_reference(workdir)
            return 0
        wl = WORKLOADS[args.workload]
        if args.setup_probe:
            set_up(wl, args.seed, workdir)
            print("ready", flush=True)
            return 0
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "model": "closed loop, 1 client, 1 thread",
                  "environment": environment()}
        run = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems = run(wl, args, workdir, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0 and not problems
    detail["problems"] = problems[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
