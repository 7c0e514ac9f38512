"""Span tracing from outside the program, and the per-layer metrics built on it.

While a ``Tracer`` is recording, every listed public function of stpdft is
replaced, in every stpdft module namespace that binds it, by a wrapper that
records one span: name, start, end, parent span and request id.  Spans are
kept in memory in flat arrays and written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

No code under src/ knows about the tracer; uninstalling restores the
original bindings, so traced and untraced calls run the same code.
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SETUP = -1  # request id of spans recorded during set-up

# Layer -> (module, attribute) of each wrapped function.  A dotted attribute
# names a method.  A function a later change deletes is reported as absent.
TARGETS = {
    "projection": [("projection", a) for a in
                   ("proj_matrix", "project", "vinner", "vdist", "vnorm", "nominal_add")],
    "hypervector": [("hypervector", a) for a in
                    ("HyperVector.__init__", "hyper_inner", "hyper_inner_weighted", "diamond",
                     "diamond_general", "diamond_vectorized", "hyper_add_listwise")],
    "stochastic": [("stochastic", "softmax_rows")],
    "transformer": [("transformer", a) for a in
                    ("encoder_stack", "encoder_block", "proj_pad_pipeline",
                     "zero_pad_pipeline", "dv_attention", "dv_attention_general",
                     "dv_multi_head", "df_add_norm", "df_ffn")],
    "algebra": [("algebra", a) for a in ("bridge_matrix", "dk_stp", "weighted_dk_stp", "sta")],
    "cli": [("cli", "main")],
    "prng": [("prng", "SplitMix64.uniforms"), ("prng", "SplitMix64.randint")],
}

DIAMONDS = ("hypervector.diamond", "hypervector.diamond_general",
            "hypervector.diamond_vectorized")

# Direct children of encoder_block, by stage of the block.
STAGES = {
    "qkv": ("transformer.proj_pad_pipeline", "transformer.zero_pad_pipeline"),
    "attention": ("transformer.dv_attention", "transformer.dv_attention_general"),
    "multi_head": ("transformer.dv_multi_head",) + DIAMONDS,
    "add_norm": ("transformer.df_add_norm",),
    "ffn": ("transformer.df_ffn",),
}


# Arguments worth keeping for a span, by span name.
ARGS = {
    "projection.proj_matrix": lambda m, n: (int(m), int(n)),
    "stochastic.softmax_rows": lambda E: (len(E),),
    "algebra.bridge_matrix": lambda n, p: (int(n), int(p)),
    "algebra.dk_stp": lambda A, B: np.shape(A) + np.shape(B),
    "algebra.weighted_dk_stp": lambda A, B: np.shape(A) + np.shape(B),
    "algebra.sta": lambda x, y, sign=1: (len(x), len(y)),
    "prng.SplitMix64.uniforms": lambda self, n: (int(n),),
    "prng.SplitMix64.randint": lambda self, low, high: (1,),
}


# Per-layer metrics of a traced run and their units.  Counts and times are
# means per traced request; lcm_max is the largest over the run.
PER_LAYER_UNITS = {
    "projection.proj_matrix.calls": "calls/req",
    "projection.proj_matrix.self_ms": "ms/req",
    "projection.proj_matrix.distinct_pairs": "pairs",
    "projection.proj_matrix.reuse_ratio": "ratio",
    "projection.lcm_max": "count",
    "projection.expanded_bytes": "B/req",
    "projection.project.calls": "calls/req",
    "projection.project.self_ms": "ms/req",
    "projection.vinner.calls": "calls/req",
    "projection.vinner.self_ms": "ms/req",
    "hypervector.hyper_inner.self_ms": "ms/req",
    "hypervector.diamond.calls": "calls/req",
    "hypervector.diamond.self_ms": "ms/req",
    "hypervector.construct.calls": "calls/req",
    "hypervector.construct.ms": "ms/req",
    "stochastic.softmax_rows.calls": "calls/req",
    "stochastic.softmax_rows.rows": "rows/req",
    "stochastic.softmax_rows.self_ms": "ms/req",
    "transformer.forward_ms": "ms/req",
    "transformer.qkv_ms": "ms/req",
    "transformer.attention_ms": "ms/req",
    "transformer.multi_head_ms": "ms/req",
    "transformer.add_norm_ms": "ms/req",
    "transformer.ffn_ms": "ms/req",
    "transformer.block_self_ms": "ms/req",
    "transformer.stage_coverage": "ratio",
    "transformer.nominal_ms": "ms/req",
    "transformer.ragged_over_nominal": "ratio",
    "algebra.bridge_matrix.self_ms": "ms/req",
    "algebra.dk_stp.self_ms": "ms/req",
    "algebra.weighted_dk_stp.self_ms": "ms/req",
    "algebra.sta.self_ms": "ms/req",
    "algebra.lcm_max": "count",
    "algebra.expanded_bytes": "B/req",
    "cli.main_ms": "ms/req",
    "cli.overhead_ms": "ms/req",
    "prng.setup_ms": "ms",
    "prng.uniforms": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans of calls into stpdft while ``recording`` is active."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._targets = []  # (span name, owner object, attribute, original)
        for layer, targets in TARGETS.items():
            found = 0
            for module_name, attr in targets:
                owner = sys.modules[f"stpdft.{module_name}"]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = None if owner is None else getattr(owner, leaf, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._targets.append((f"{layer}.{attr}", owner, leaf, original))
                found += 1
            if not found:
                raise SystemExit(f"perfbench: layer {layer!r} has no traceable function left")
        self.name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_s = array("d")
        self.args: dict[int, tuple] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._request_id = SETUP

    def _wrap(self, span_name, fn):
        nid = self.name_id.setdefault(span_name, len(self.name_id))
        if nid == len(self.names):
            self.names.append(span_name)
        keep = ARGS.get(span_name)
        stack, name, parent, request = self._stack, self.name, self.parent, self.request
        t0s, t1s, selfs, args = self.t0, self.t1, self.self_s, self.args

        def wrapper(*a, **kw):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            request.append(self._request_id)
            t1s.append(0.0)
            selfs.append(0.0)
            if keep is not None:
                args[idx] = keep(*a, **kw)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            t0s.append(start)
            try:
                return fn(*a, **kw)
            finally:
                end = perf_counter()
                stack.pop()
                t1s[idx] = end
                selfs[idx] = end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return wrapper

    @contextmanager
    def recording(self, request_id: int):
        """Install the wrappers, tag new spans with request_id, then restore."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "stpdft" or k.startswith("stpdft."))]
        undo = []
        for span_name, owner, leaf, original in self._targets:
            wrapper = self._wrap(span_name, original)
            if isinstance(owner, type):
                undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        self._request_id = request_id
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)
            self._request_id = SETUP

    # --- aggregation ---------------------------------------------------------

    def _arrays(self):
        t0, t1 = np.asarray(self.t0), np.asarray(self.t1)
        return (np.asarray(self.name), np.asarray(self.parent), np.asarray(self.request),
                t1 - t0, np.asarray(self.self_s))

    def layer_metrics(self, n_requests: int) -> dict:
        """Per-request means over the traced requests, plus set-up PRNG use."""
        name, parent, req, dur, self_s = self._arrays()
        in_req = req >= 0
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(*names, mask=in_req):
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(name, wanted) & mask

        per = max(n_requests, 1)
        ms = 1e3 / per

        def calls(*names):
            return int(sel(*names).sum()) / per

        def self_ms(*names):
            return float(self_s[sel(*names)].sum()) * ms

        def total_ms(*names, mask=in_req):
            return float(dur[sel(*names, mask=mask)].sum()) * ms

        def args_of(span_name, mask=in_req):
            return [self.args[int(i)] for i in np.nonzero(sel(span_name, mask=mask))[0]]

        out = {}
        pairs = args_of("projection.proj_matrix")
        lcms = [math.lcm(m, n) for m, n in pairs]
        out["projection.proj_matrix.calls"] = len(pairs) / per
        out["projection.proj_matrix.self_ms"] = self_ms("projection.proj_matrix")
        out["projection.proj_matrix.distinct_pairs"] = len(set(pairs))
        out["projection.proj_matrix.reuse_ratio"] = (
            1 - len(set(pairs)) / len(pairs) if pairs else 0.0)
        out["projection.lcm_max"] = max(lcms, default=0)
        out["projection.expanded_bytes"] = sum(
            8 * (n * t + t * m) for (m, n), t in zip(pairs, lcms)) / per
        for fn in ("project", "vinner"):
            out[f"projection.{fn}.calls"] = calls(f"projection.{fn}")
            out[f"projection.{fn}.self_ms"] = self_ms(f"projection.{fn}")

        out["hypervector.hyper_inner.self_ms"] = self_ms(
            "hypervector.hyper_inner", "hypervector.hyper_inner_weighted")
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        nested = np.isin(parent_name, [ids[n] for n in DIAMONDS if n in ids])
        out["hypervector.diamond.calls"] = int((sel(*DIAMONDS) & ~nested).sum()) / per
        out["hypervector.diamond.self_ms"] = self_ms(*DIAMONDS)
        out["hypervector.construct.calls"] = calls("hypervector.HyperVector.__init__")
        out["hypervector.construct.ms"] = total_ms("hypervector.HyperVector.__init__")

        out["stochastic.softmax_rows.calls"] = calls("stochastic.softmax_rows")
        out["stochastic.softmax_rows.rows"] = sum(
            r for (r,) in args_of("stochastic.softmax_rows")) / per
        out["stochastic.softmax_rows.self_ms"] = self_ms("stochastic.softmax_rows")

        block = ids.get("transformer.encoder_block", -2)
        in_block = in_req & (parent_name == block)
        forward = total_ms("transformer.encoder_stack")
        staged = 0.0
        for stage, names in STAGES.items():
            out[f"transformer.{stage}_ms"] = total_ms(*names, mask=in_block)
            staged += out[f"transformer.{stage}_ms"]
        out["transformer.block_self_ms"] = total_ms("transformer.encoder_block") - staged
        out["transformer.forward_ms"] = forward
        out["transformer.stage_coverage"] = (
            (staged + out["transformer.block_self_ms"]) / forward if forward else 0.0)

        for fn in ("bridge_matrix", "dk_stp", "weighted_dk_stp", "sta"):
            out[f"algebra.{fn}.self_ms"] = self_ms(f"algebra.{fn}")
        expanded, lcm_max = 0, 0
        for fn in ("bridge_matrix", "dk_stp", "weighted_dk_stp", "sta"):
            for a in args_of(f"algebra.{fn}"):
                if fn == "bridge_matrix":  # n x t and t x p factors
                    n, p = a
                    rows, cols = n, p
                elif fn == "sta":  # two length-t replications
                    n, p = a
                    rows, cols = 1, 1
                else:  # (m x n) @ (p x q) expands to (m x t) @ (t x q) unless n == p
                    rows, n, p, cols = a
                    if n == p:
                        continue
                t = math.lcm(n, p)
                lcm_max = max(lcm_max, t)
                expanded += 8 * (rows * t + t * cols)
        out["algebra.lcm_max"] = lcm_max
        out["algebra.expanded_bytes"] = expanded / per

        main = total_ms("cli.main")
        out["cli.main_ms"] = main
        out["cli.overhead_ms"] = main - forward if main else 0.0

        setup = req == SETUP
        prng = ("prng.SplitMix64.uniforms", "prng.SplitMix64.randint")
        out["prng.setup_ms"] = float(dur[sel(*prng, mask=setup)].sum()) * 1e3
        out["prng.uniforms"] = sum(a[0] for n in prng for a in args_of(n, mask=setup))
        return out

    def save(self, path):
        """Write every recorded span as flat arrays (numpy .npz)."""
        name, parent, req, _, self_s = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            request=req, start=np.asarray(self.t0), end=np.asarray(self.t1),
                            self_s=self_s)
