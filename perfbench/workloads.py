"""The four seeded workloads of the benchmark.

Every workload is driven as a closed loop with one client: the next request
is generated only after the previous one has returned and been checked.
Inputs and weights come from ``stpdft.prng.SplitMix64`` seeded by the
``--seed`` argument; the program only ever receives the generated values.

A workload object has this surface, used by ``run.py``:

    setup(seed, workdir)        weights, files and other per-run state
    warmup(state)               requests run before timing starts
    request(state, i)           the i-th input (outside the timed region)
    call(state, req)            the timed call into stpdft
    convert(state, req, raw)    (output as plain arrays, problems)
    check(state, req, out)      problems found in one output
    compare(out, stored)        problems against stored reference values
    perturbations(out)          wrong outputs the checks must reject

Workload shapes and the reason each one exists are recorded in README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from stpdft import algebra, cli, projection, transformer
from stpdft.hypervector import HyperVector
from stpdft.prng import SplitMix64

# Tolerances of the output checks.
ROW_SUM_TOL = 1e-12  # attention rows and proj_matrix rows sum to 1
REFERENCE_TOL = 1e-9  # stored reference values and the nominal-stage oracle, of scale
IDENTITY_RTOL = 1e-12  # kernel identities, relative to the sum of |terms|
PERTURBATION = 1e-6  # size of the self-test's perturbation

# Warm-up requests take their indices from here, apart from the timed ones.
WARMUP_BASE = 1 << 40


@dataclass
class Request:
    tokens: int  # input entries, the unit of throughput
    payload: object


def _request_rng(state, i: int) -> SplitMix64:
    # Seeds that differ by a small integer give unrelated SplitMix64 streams.
    return SplitMix64(state["stream"] + i)


def _weights_rng(seed: int):
    rng = SplitMix64(seed)
    return rng, rng.next_u64()


# --- forward workloads ---------------------------------------------------------


def _scaled_err(got, want) -> float:
    """max |got - want| relative to the scale of want (its largest |entry|, at least 1)."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want), initial=0.0)
                 / max(1.0, float(np.max(np.abs(want), initial=0.0))))


class _Forward:
    """Shared output checks of the three encoder-forward workloads.

    A forward output is {"seqs": [arrays], "att": [[s x s arrays per head]
    per layer]}; the configured profile is the request's input profile.
    """

    layers = 1
    heads = 1
    warmups = 1

    def warmup(self, state):
        for k in range(self.warmups):
            req = self.request(state, WARMUP_BASE + k)
            self.call(state, req)

    def check(self, state, req, out) -> list[str]:
        problems = []
        dims = req.payload["dims"]
        got = tuple(len(c) for c in out["seqs"])
        if got != tuple(dims):
            problems.append(f"output profile {got} != configured {tuple(dims)}")
        if not all(np.all(np.isfinite(c)) for c in out["seqs"]):
            problems.append("non-finite output entry")
        s = len(dims)
        att = out["att"]
        if len(att) != self.layers or any(len(layer) != self.heads for layer in att):
            problems.append(f"attention is not {self.layers} layers x {self.heads} heads")
        for layer in att:
            for A in layer:
                A = np.asarray(A)
                if A.shape != (s, s):
                    problems.append(f"attention matrix {A.shape} is not {s} x {s}")
                    continue
                dev = float(np.max(np.abs(A.sum(axis=1) - 1.0)))
                if not dev <= ROW_SUM_TOL or not A.min() >= 0.0:
                    problems.append(f"attention rows not stochastic (max |sum - 1| {dev:.3g})")
        return problems

    def compare(self, out, stored) -> list[str]:
        if stored is None:
            return ["no stored reference values"]
        ref = [np.asarray(c, dtype=float) for c in stored["seqs"]]
        if [len(c) for c in ref] != [len(c) for c in out["seqs"]]:
            return ["reference profile differs"]
        err = _scaled_err(np.concatenate(out["seqs"]), np.concatenate(ref))
        if not err <= REFERENCE_TOL:
            return [f"output differs from the stored reference by {err:.3g} of its scale"]
        return []

    def perturbations(self, out):
        bumped = [c.copy() for c in out["seqs"]]
        bumped[0][0] += PERTURBATION
        yield "an entry perturbed by 1e-6", dict(out, seqs=bumped)
        cut = list(out["seqs"])
        cut[-1] = cut[-1][:-1]
        yield "a wrong profile", dict(out, seqs=cut)

    @staticmethod
    def stored_form(out) -> dict:
        return {"seqs": [[float(v) for v in c] for c in out["seqs"]]}


class _LibraryForward(_Forward):
    """transformer.encoder_stack called in-process on a generated HyperVector."""

    def call(self, state, req):
        return transformer.encoder_stack(req.payload["X"], [state["w"]], state["cfg"],
                                         return_weights=True)

    def convert(self, state, req, raw):
        Y, atts = raw
        return {"seqs": [np.array(c) for c in Y.components],
                "att": [[np.array(A) for A in layer] for layer in atts]}, []


class RaggedCoprime(_LibraryForward):
    """s=16, projection padding, 1 head, no mask, 2 layers, nominal_dim 61.

    One sequence has length 61; the other 15 are uniform in [17, 60], so every
    (length, 61) pair is coprime and proj_matrix expands to the full lcm.
    No FFN biases (cli_small has them), so no seed-drawn bias length changes
    the cost of a request.
    """

    name = "ragged_coprime"
    s, n0, layers = 16, 61, 2

    def setup(self, seed, workdir):
        rng, stream = _weights_rng(seed)
        s, d = self.s, self.n0
        w = transformer.AttentionWeights(
            wq=rng.matrix(d, d), wk=rng.matrix(d, d), wv=rng.matrix(d, d),
            ffn_w1=rng.matrix(s, s), ffn_w2=rng.matrix(s, s),
        )
        cfg = transformer.ModelConfig(batch_size=s, nominal_dim=d, heads=1,
                                      padding="projection", mask="none", layers=self.layers)
        return {"stream": stream, "w": w, "cfg": cfg}

    def request(self, state, i):
        rng = _request_rng(state, i)
        dims = [self.n0] + [rng.randint(17, self.n0 - 1) for _ in range(self.s - 1)]
        X = HyperVector([rng.vector(n) for n in dims])
        return Request(sum(dims), {"dims": dims, "X": X})


class Homogeneous(_LibraryForward):
    """s=64, every length 64, nominal_dim 64, causal mask, 4 layers.

    The FFN carries no biases so that ffn_nominal is an exact oracle; every
    output is also compared with the nominal stages composed on the same
    64 x 64 matrix.
    """

    name = "homogeneous"
    s, n0, layers = 64, 64, 4
    warmups = 2

    def setup(self, seed, workdir):
        rng, stream = _weights_rng(seed)
        s, d = self.s, self.n0
        w = transformer.AttentionWeights(
            wq=rng.matrix(d, d), wk=rng.matrix(d, d), wv=rng.matrix(d, d),
            ffn_w1=rng.matrix(s, s), ffn_w2=rng.matrix(s, s),
        )
        cfg = transformer.ModelConfig(batch_size=s, nominal_dim=d, heads=1,
                                      padding="projection", mask="causal",
                                      layers=self.layers)
        return {"stream": stream, "w": w, "cfg": cfg, "one_layer": replace(cfg, layers=1),
                "mask": transformer.causal_mask(s, "conventional")}

    def request(self, state, i):
        rng = _request_rng(state, i)
        M = rng.matrix(self.s, self.n0)
        return Request(self.s * self.n0,
                       {"dims": [self.n0] * self.s, "X": HyperVector.from_matrix(M), "M": M})

    @staticmethod
    def _nominal_layer(state, X):
        w, cfg = state["w"], state["cfg"]
        Q, K, V = transformer.qkv_nominal(X, w)
        att = transformer.attention_nominal(Q, K, V, scale="sqrt-n", mask=state["mask"])
        Z = transformer.add_norm(X, att, cfg.norm_mode, w.gamma, w.beta, w.eps)
        F = transformer.ffn_nominal(Z, w.ffn_w1, w.ffn_w2)
        return transformer.add_norm(Z, F, cfg.norm_mode, w.gamma, w.beta, w.eps)

    def nominal(self, state, req):
        """The fixed-length stages composed layer by layer on the same matrix."""
        X = req.payload["M"]
        for _ in range(self.layers):
            X = self._nominal_layer(state, X)
        return X

    def check(self, state, req, out):
        problems = super().check(state, req, out)
        if problems:
            return problems
        # Compared one layer at a time: on these inputs a roundoff difference
        # between two correct paths can grow a thousandfold in one layer, so
        # only a per-layer comparison stays far from the tolerance.
        Y = req.payload["X"]
        for layer in range(1, self.layers + 1):
            want = self._nominal_layer(state, Y.to_matrix())
            if layer < self.layers:
                Y = transformer.encoder_stack(Y, [state["w"]], state["one_layer"])
                got = Y.to_matrix()
            else:
                got = np.stack(out["seqs"])
            err = _scaled_err(got, want)
            if not err <= REFERENCE_TOL:
                problems.append(f"layer {layer} differs from the nominal stages by {err:.3g}"
                                " of its scale")
        return problems


class CliSmall(_Forward):
    """Many small requests through ``stpdft.cli.main(["forward", ...])``.

    s=8, lengths uniform in [2, 12], nominal_dim 12, 2 heads with
    batch-mixing head maps, zero padding, causal mask, 1 layer.  The weights
    file and a pool of batch files are written during set-up.
    """

    name = "cli_small"
    s, n0, heads, layers = 8, 12, 2, 1
    pool = 256  # batch files; enough that the mix of lengths hardly depends on the seed
    warmups = 4

    def setup(self, seed, workdir):
        rng, _ = _weights_rng(seed)
        s, d = self.s, self.n0
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        shapes = {"Wq": (d, d), "Wk": (d, d), "Wv": (d, d), "W1": (s, s), "W2": (s, s),
                  "B1": (1, d), "B2": (1, d)}
        for h in range(1, self.heads + 1):
            shapes.update({f"Tq{h}": (s, s), f"Tk{h}": (s, s), f"Tv{h}": (s, s)})
        matrices = {}
        for key, (r, c) in shapes.items():
            matrices[key] = {"rows": r, "cols": c,
                             "data": [float(v) for v in rng.matrix(r, c).reshape(-1)]}
        doc = {"config": {"batch_size": s, "nominal_dim": d, "heads": self.heads,
                          "padding": "zero", "mask": "causal", "layers": self.layers},
               "matrices": matrices}
        weights = workdir / "weights.json"
        weights.write_text(json.dumps(doc))
        batches = []
        for k in range(self.pool):
            dims = [rng.randint(2, d) for _ in range(s)]
            path = workdir / f"batch{k}.json"
            seqs = [[float(v) for v in rng.vector(n)] for n in dims]
            path.write_text(json.dumps({"sequences": seqs}))
            batches.append((str(path), dims))
        return {"weights": str(weights), "batches": batches,
                "out": str(workdir / "out.json")}

    def request(self, state, i):
        path, dims = state["batches"][i % self.pool]
        return Request(sum(dims), {"dims": dims, "path": path})

    def call(self, state, req):
        return cli.main(["forward", req.payload["path"], "--weights", state["weights"],
                         "--out", state["out"]])

    def convert(self, state, req, raw):
        if raw != 0:
            return None, [f"stpdft forward exited {raw}"]
        with open(state["out"]) as fh:
            doc = json.load(fh)
        return {"seqs": [np.array(c, dtype=float) for c in doc["output"]["sequences"]],
                "att": [[np.array(A, dtype=float) for A in layer]
                        for layer in doc["attention"]]}, []


# --- dimension-free kernels ------------------------------------------------------

PRIMES = [p for p in range(2, 257) if all(p % q for q in range(2, int(p**0.5) + 1))]
# Each block of 15 requests visits these sizes of m once, in a seeded order.
# An odd count puts p50 and p90 mid-way inside a size class, not on a border
# between two classes whose costs differ by half.
SIZES = [10 + 17 * k for k in range(15)]
WORST_PAIR = (255, 256)  # the largest lcm in range; run as a warm-up so it sets peak RSS


class KernelsCoprime:
    """Direct calls into projection and algebra on a seeded pair (m, n) in [2, 256].

    Four pairs in five are (m, m+1), the rest the consecutive primes around
    m, each in either order; every pair is coprime, so t = lcm(m, n) = m * n.
    m comes from SIZES, one per request in a seeded order within each block,
    so runs with different seeds see the same mix of sizes.
    """

    name = "kernels_coprime"

    def setup(self, seed, workdir):
        _, stream = _weights_rng(seed)
        return {"stream": stream}

    def warmup(self, state):
        self.call(state, self._build(*WORST_PAIR, _request_rng(state, WARMUP_BASE)))

    def _pair(self, state, i, rng):
        block = SplitMix64(state["stream"] ^ (1 << 63) ^ (i // len(SIZES)))
        order = list(SIZES)
        for k in range(len(order) - 1, 0, -1):  # Fisher-Yates
            j = block.randint(0, k)
            order[k], order[j] = order[j], order[k]
        m = order[i % len(SIZES)]
        if rng.uniform() < 0.8:
            pair = (m, m + 1)
        else:
            k = max(j for j, p in enumerate(PRIMES) if p <= m)
            pair = (PRIMES[k], PRIMES[k + 1])
        return (pair[1], pair[0]) if rng.uniform() < 0.5 else pair

    @staticmethod
    def _build(m, n, rng):
        payload = {"m": m, "n": n, "x": rng.vector(m), "y": rng.vector(n),
                   "A": rng.matrix(8, m), "B": rng.matrix(n, 8)}
        return Request(m + n, payload)

    def request(self, state, i):
        rng = _request_rng(state, i)
        return self._build(*self._pair(state, i, rng), rng)

    def call(self, state, req):
        p = req.payload
        m, n, x, y, A, B = p["m"], p["n"], p["x"], p["y"], p["A"], p["B"]
        return {
            "P": projection.proj_matrix(m, n),
            "px": projection.project(x, n),
            "vi": projection.vinner(x, y),
            "vd": projection.vdist(x, y),
            "bridge": algebra.bridge_matrix(m, n),
            "dk": algebra.dk_stp(A, B),
            "wdk": algebra.weighted_dk_stp(A, B),
            "sta": algebra.sta(x, y),
        }

    def convert(self, state, req, raw):
        return {k: np.asarray(v, dtype=float) for k, v in raw.items()}, []

    def check(self, state, req, out) -> list[str]:
        p = req.payload
        m, n, x, y, A, B = p["m"], p["n"], p["x"], p["y"], p["A"], p["B"]
        t = math.lcm(m, n)
        P, br = out["P"], out["bridge"]
        shapes = {"P": (n, m), "px": (n,), "bridge": (m, n), "dk": (8, 8), "wdk": (8, 8),
                  "sta": (t,), "vi": (), "vd": ()}
        bad = [k for k, shape in shapes.items() if out[k].shape != shape]
        if bad:
            return [f"wrong shape of {', '.join(bad)}"]
        problems = []
        if not all(np.all(np.isfinite(v)) for v in out.values()):
            problems.append("non-finite kernel output")
        dev = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        if not dev <= ROW_SUM_TOL:
            problems.append(f"proj_matrix rows do not sum to 1 (max dev {dev:.3g})")

        def identity(name, got, want, scale):
            err = float(np.max(np.abs(got - want) - IDENTITY_RTOL * scale))
            if not err <= 0.0:
                problems.append(f"{name} identity fails by {err:.3g}")

        identity("project == proj_matrix @ x", out["px"], P @ x, np.abs(P) @ np.abs(x))
        absAB = np.abs(A) @ br @ np.abs(B)
        identity("dk_stp == A @ bridge @ B", out["dk"], A @ br @ B, absAB)
        identity("weighted_dk_stp == A @ bridge/(t/n) @ B", out["wdk"],
                 A @ (br / (t // n)) @ B, absAB / (t // n))
        xx, yy = projection.vinner(x, x), projection.vinner(y, y)
        err = abs(float(out["vd"]) ** 2 - (xx + yy - 2 * float(out["vi"])))
        if not err <= REFERENCE_TOL * (xx + yy):
            problems.append(f"vdist^2 != <x,x> + <y,y> - 2<x,y> (off by {err:.3g})")
        if not (out["sta"][0] == x[0] + y[0] and out["sta"][-1] == x[-1] + y[-1]):
            problems.append("sta does not add the replicated end entries")
        return problems

    def compare(self, out, stored) -> list[str]:
        return []  # checked by the identities above; no stored values

    def perturbations(self, out):
        dk = out["dk"].copy()
        dk[0, 0] += PERTURBATION
        yield "an entry perturbed by 1e-6", dict(out, dk=dk)
        yield "a wrong profile", dict(out, P=out["P"][:-1])


WORKLOADS = {w.name: w for w in (RaggedCoprime(), Homogeneous(), CliSmall(), KernelsCoprime())}
