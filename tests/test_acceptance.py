"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them).  Tolerances are pinned here and are
not to be loosened."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from stpdft import (
    HyperVector,
    attention_nominal,
    bridge_matrix,
    diamond,
    diamond_vectorized,
    dk_stp,
    dv_attention,
    hyper_inner,
    hyper_inner_weighted,
    nominal_add,
    proj_matrix_exact,
    project,
    sta,
    stp,
    vdist,
    weighted_dk_stp,
)
from stpdft.prng import SplitMix64
from stpdft.worked_examples import (
    COEFF_SCALES,
    GOLDEN_PROJECTIONS,
    golden_fraction_matrix,
    printed_table,
    recomputed_table,
    walkthrough_a_result,
)
from paper_forms import assembled_attention, assembled_attention_qk

RNG_SEED = 987654321


def _timed(number, description, limit_s, body):
    t0 = time.perf_counter()
    body()
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, (
        f"criterion {number} took {elapsed:.2f}s, budget {limit_s}s"
    )
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {description}")


def test_acceptance_01_golden_projection_matrices():
    def body():
        for (m, n), (den, nums) in GOLDEN_PROJECTIONS.items():
            expected = golden_fraction_matrix(den, nums)
            actual = proj_matrix_exact(m, n)
            assert actual.shape == expected.shape
            assert np.all(actual == expected), f"projection {m}->{n} differs"

    _timed(1, "six golden projection matrices, exact rational", 1.0, body)


def test_acceptance_02_bridge_identity_exact():
    def body():
        rng = np.random.default_rng(RNG_SEED)
        for n in range(1, 7):
            for p in range(1, 7):
                psi = bridge_matrix(n, p)
                for _ in range(20):
                    m, q = rng.integers(1, 5, 2)
                    A = rng.integers(-5, 6, (m, n)).astype(float)
                    B = rng.integers(-5, 6, (p, q)).astype(float)
                    t = math.lcm(n, p)
                    kron = np.kron(A, np.ones((1, t // n))) @ np.kron(B, np.ones((t // p, 1)))
                    assert np.array_equal(dk_stp(A, B), kron)
                    assert np.array_equal(dk_stp(A, B), A @ psi @ B)

    _timed(2, "dk_stp == Kronecker definition == A @ bridge @ B, exact on integers,"
              " (n,p) in [1,6]^2", 5.0, body)


def test_acceptance_03_stp_and_sta_laws():
    def body():
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(500):
            d = rng.integers(1, 7, 6)
            A = rng.normal(size=(d[0], d[1]))
            B = rng.normal(size=(d[2], d[3]))
            C = rng.normal(size=(d[4], d[5]))
            np.testing.assert_allclose(
                stp(stp(A, B), C), stp(A, stp(B, C)), rtol=1e-9, atol=1e-9
            )
            A2 = rng.normal(size=A.shape)
            np.testing.assert_allclose(
                stp(A + A2, C), stp(A, C) + stp(A2, C), rtol=1e-9, atol=1e-9
            )
            x = rng.normal(size=rng.integers(1, 7))
            y = rng.normal(size=rng.integers(1, 7))
            z = rng.normal(size=rng.integers(1, 7))
            np.testing.assert_allclose(sta(x, y), sta(y, x), atol=1e-12)
            np.testing.assert_allclose(
                sta(sta(x, y), z), sta(x, sta(y, z)), atol=1e-12
            )

    _timed(3, "stp associativity/distributivity, sta commutativity/associativity,"
              " 500 instances", 5.0, body)


def test_acceptance_04_nominal_add_dual_path():
    def body():
        rng = np.random.default_rng(RNG_SEED + 2)
        for m in range(1, 9):
            for n in range(1, 9):
                for r in range(1, 9):
                    x = rng.normal(size=m)
                    y = rng.normal(size=n)
                    np.testing.assert_allclose(
                        nominal_add(x, y, r), project(sta(x, y), r), atol=1e-12
                    )

    _timed(4, "nominal_add(x,y,r) == project(sta(x,y),r) on [1,8]^3", 10.0, body)


def test_acceptance_05_projection_optimality():
    def body():
        rng = np.random.default_rng(RNG_SEED + 3)
        pairs = [(int(m), int(n)) for m, n in rng.integers(1, 9, (50, 2))]
        for m, n in pairs:
            x = rng.normal(size=m)
            best = project(x, n)
            d_best = vdist(x, best)
            t = math.lcm(m, n)
            xe = np.repeat(x, t // m)
            Y = rng.normal(size=(1000, n))
            Ye = np.repeat(Y, t // n, axis=1)
            dists = np.sqrt(((xe - Ye) ** 2).mean(axis=1))
            assert np.all(d_best <= dists + 1e-12)
            E = np.kron(np.eye(n), np.ones((t // n, 1)))
            oracle, *_ = np.linalg.lstsq(E, xe, rcond=None)
            np.testing.assert_allclose(best, oracle, atol=1e-9)

    _timed(5, "project beats 1000 random candidates and matches the"
              " least-squares oracle, 50 pairs", 10.0, body)


def test_acceptance_06_diamond_dual_path():
    def body():
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(200):
            s = int(rng.integers(1, 6))
            X = HyperVector([rng.normal(size=rng.integers(1, 7)) for _ in range(s)])
            A = rng.normal(size=(s, s))
            n0 = int(rng.integers(1, 7))
            np.testing.assert_allclose(
                diamond_vectorized(A, X, n0),
                diamond(A, X, n0).to_addition_form(),
                atol=1e-12,
            )
        # the seeded two-component walkthrough instance
        sm = SplitMix64(42)
        W = sm.matrix(2, 2)
        x1, x2 = sm.vector(2), sm.vector(3)
        out = diamond(W, HyperVector([x1, x2]), 3)
        expected = walkthrough_a_result(W, x1, x2)
        for o, e in zip(out.components, expected):
            np.testing.assert_allclose(o, e, atol=1e-12)

    _timed(6, "diamond stepwise == vectorized on 200 ragged instances"
              " + seeded walkthrough", 5.0, body)


def test_acceptance_07_uniform_dimension_reductions():
    def body():
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            t = int(rng.integers(1, 5))
            d = int(rng.integers(1, 7))
            MX = rng.normal(size=(s, d))
            MY = rng.normal(size=(t, d))
            X, Y = HyperVector.from_matrix(MX), HyperVector.from_matrix(MY)
            np.testing.assert_allclose(hyper_inner(X, Y), MX @ MY.T / d, atol=1e-12)
            np.testing.assert_allclose(
                hyper_inner_weighted(X, Y), MX @ MY.T / math.sqrt(d), atol=1e-12
            )
            A = rng.normal(size=(s, s))
            np.testing.assert_allclose(
                diamond(A, X, d).to_matrix(), A @ MX, atol=1e-12
            )
            Q = rng.normal(size=(s, d))
            K = rng.normal(size=(s, d))
            V = rng.normal(size=(s, d))
            ragged = dv_attention(
                HyperVector.from_matrix(Q),
                HyperVector.from_matrix(K),
                HyperVector.from_matrix(V),
            )
            np.testing.assert_allclose(
                ragged.to_matrix(), attention_nominal(Q, K, V, scale="sqrt-n"),
                atol=1e-12,
            )

    _timed(7, "uniform-length reductions of inner products, diamond and"
              " attention, 100 instances", 5.0, body)


def test_acceptance_08_stochastic_closure():
    def body():
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(200):
            m, n = rng.integers(1, 7, 2)
            p, q = rng.integers(1, 7, 2)
            A = rng.uniform(0.01, 1.0, (m, n))
            A /= A.sum(axis=0)
            B = rng.uniform(0.01, 1.0, (p, q))
            B /= B.sum(axis=0)
            out = weighted_dk_stp(A, B)
            np.testing.assert_allclose(out.sum(axis=0), np.ones(q), atol=1e-12)
            assert np.all(out >= -1e-15)
            x = rng.uniform(0.01, 1.0, n)
            x /= x.sum()
            v = A @ x
            assert abs(v.sum() - 1.0) <= 1e-12 and np.all(v >= -1e-15)

    _timed(8, "stochasticity closure under matrix product and weighted"
              " dk_stp, 200 instances", 5.0, body)


def test_acceptance_09_assembled_attention_invariances():
    def body():
        rng = np.random.default_rng(RNG_SEED + 7)
        for _ in range(50):
            s = int(rng.integers(2, 5))
            n = int(rng.integers(2, 6))
            X = rng.normal(size=(s, n))
            Wqk = rng.normal(size=(n, n))
            Wv = rng.normal(size=(n, n))
            base = assembled_attention_qk(X, Wqk, Wv)
            # (i) only the product Wq^T Wk matters: two distinct pairs with
            # the same product give the same output
            Wq1 = 0.3 * rng.normal(size=(n, n)) + np.eye(n)
            Wk1 = np.linalg.solve(Wq1.T, Wqk)  # so Wq1^T Wk1 == Wqk
            np.testing.assert_allclose(
                assembled_attention(X, Wq1, Wk1, Wv),
                assembled_attention(X, np.eye(n), Wqk, Wv),
                atol=1e-9,
            )
            # (ii) scaling the product by c and the value map by 1/c
            for lam in (1e-3, 3.0, 1e3):
                scaled = assembled_attention_qk(X, lam * Wqk, Wv / lam)
                assert np.array_equal(
                    np.argmax(scaled, axis=1), np.argmax(base, axis=1)
                )
                np.testing.assert_allclose(scaled, base, atol=1e-9)

    _timed(9, "assembled attention non-identifiability: product and"
              " scaling invariances, 50 instances", 5.0, body)


def test_acceptance_10_padding_walkthrough_pipeline():
    def body():
        from stpdft import proj_pad_pipeline

        sm = SplitMix64(42)
        W = sm.matrix(6, 6)
        comps = [sm.vector(3), sm.vector(4), sm.vector(5), sm.vector(3)]
        X = HyperVector(comps)
        out = proj_pad_pipeline(X, W, 6, X.dims)
        mu = printed_table("mu", W)
        lam = printed_table("lam", W)
        np.testing.assert_allclose(out[0], mu @ comps[0] / 2, atol=1e-12)
        np.testing.assert_allclose(out[1], lam @ comps[1] / 3, atol=1e-12)
        np.testing.assert_allclose(out[3], mu @ comps[3] / 2, atol=1e-12)
        # component 3: recomputed table, with the published mismatches flagged
        eta_rec = recomputed_table("eta", W)
        np.testing.assert_allclose(
            out[2], eta_rec @ comps[2] / COEFF_SCALES["eta"], atol=1e-12
        )
        eta_pub = printed_table("eta", W)
        mismatched = {
            (i + 1, j + 1)
            for i in range(5)
            for j in range(5)
            if abs(eta_pub[i, j] - eta_rec[i, j]) > 1e-9
        }
        assert mismatched == {(1, 5), (3, 4), (3, 5)}, (
            "published-vs-recomputed flags changed; the report must track this"
        )

    _timed(10, "projection pipeline matches published mu/lam tables;"
               " eta recomputed with known cells flagged", 2.0, body)


def test_acceptance_11_cli_determinism(tmp_path):
    def body():
        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "stpdft", *args], capture_output=True, text=True
            )

        report = tmp_path / "report.json"
        proc = cli("examples", "--out", str(report))
        assert proc.returncode == 0, proc.stderr
        items = json.loads(report.read_text())["items"]
        assert items and all(i["status"] != "fail" for i in items)

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps(
            {"sequences": [[0.1, -0.3, 0.5], [0.2, 0.4, -0.1, 0.7], [1.0, -1.0]]}
        ))
        o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
        assert cli("forward", str(batch), "--seed", "42", "--out", str(o1)).returncode == 0
        assert cli("forward", str(batch), "--seed", "42", "--out", str(o2)).returncode == 0
        assert o1.read_bytes() == o2.read_bytes()

    _timed(11, "examples report all-pass and byte-identical seeded forward runs",
           5.0, body)
