import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpdft import HyperVector, ModelConfig, SplitMix64, encoder_stack
from stpdft.cli import (CONFIG_KEYS, WEIGHT_MATRICES, _parse_weights, build_parser, main,
                        padding_batch_stats, random_weights)
from stpdft.transformer import MASK_MODES, NORM_MODES, PADDING_MODES, SCALING_MODES


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "stpdft", *args], capture_output=True, text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_batch(path, sequences):
    path.write_text(json.dumps({"sequences": sequences}))
    return str(path)


def _environment() -> str:
    """The Python, numpy and BLAS versions and the machine this process runs on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__} and"
            f" {blas.get('name')} {blas.get('version')} on {platform.machine()}"
            f" ({platform.platform()})")


RAGGED = [[0.1, -0.3, 0.5], [0.2, 0.4, -0.1, 0.7], [1.0, -1.0], [0.0, 0.5, 0.25]]
HOMOG = [[0.1, -0.3, 0.5], [0.2, 0.4, -0.1], [1.0, -1.0, 0.3]]
ACCEPTANCE_11 = [[0.1, -0.3, 0.5], [0.2, 0.4, -0.1, 0.7], [1.0, -1.0]]


def _matrix_spec(M):
    """The weights-file entry of the matrix M."""
    return {"rows": M.shape[0], "cols": M.shape[1], "data": M.reshape(-1).tolist()}


def every_matrix_weights():
    """A weights file for the ACCEPTANCE_11 batch (dims 3, 4, 2) that gives
    every matrix name: two heads, B1 as 1 x n, B2 as n x 1, square OM1 and OM3."""
    rng = SplitMix64(13)
    shapes = {"Wq": (4, 4), "Wk": (4, 4), "Wv": (4, 4), "W1": (3, 3), "W2": (3, 3),
              "B1": (1, 4), "B2": (5, 1), "gamma": (1, 1), "beta": (1, 1),
              **{f"{key}{i}": (3, 3) for key in ("Tq", "Tk", "Tv") for i in (1, 2)},
              "OM1": (3, 3), "OM3": (2, 2)}
    matrices = {name: _matrix_spec(rng.matrix(*shape)) for name, shape in shapes.items()}
    config = {"heads": 2, "scaling": "sqrt-s", "norm_mode": "layer-wise", "layers": 2}
    return {"config": config, "matrices": matrices}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    code, _, err = run_cli("examples", "--out", str(out))
    assert code == 0, err
    return json.loads(out.read_text())


class TestExamplesCommand:
    def test_all_library_checks_pass(self, report):
        statuses = {item["name"]: item["status"] for item in report["items"]}
        assert all(s in ("pass", "fail", "paper-mismatch") for s in statuses.values())
        assert not any(s == "fail" for s in statuses.values())

    def test_golden_projection_6_to_5_content(self, report):
        item = next(i for i in report["items"] if i["name"] == "projection_matrix_6_to_5")
        assert item["status"] == "pass"
        assert item["actual"]["denominator"] == 6
        assert item["actual"]["numerators"] == [
            [5, 1, 0, 0, 0, 0],
            [0, 4, 2, 0, 0, 0],
            [0, 0, 3, 3, 0, 0],
            [0, 0, 0, 2, 4, 0],
            [0, 0, 0, 0, 1, 5],
        ]

    def test_misprinted_coefficient_cells_flagged(self, report):
        flagged = {
            i["name"] for i in report["items"] if i["status"] == "paper-mismatch"
        }
        assert flagged == {
            "walkthrough_b_eta_cell_1_5",
            "walkthrough_b_eta_cell_3_4",
            "walkthrough_b_eta_cell_3_5",
        }

    def test_report_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli("examples", "--out", str(a))[0] == 0
        assert run_cli("examples", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestForwardCommand:
    def test_byte_identical_runs(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        out1 = tmp_path / "o1.json"
        out2 = tmp_path / "o2.json"
        code, _, err = run_cli("forward", batch, "--seed", "42", "--out", str(out1))
        assert code == 0, err
        assert run_cli("forward", batch, "--seed", "42", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    # SHA-256 of `stpdft forward --seed 42` on the acceptance-11 batch.  A
    # speed-up must keep every output byte, so an edit that moves a float sum
    # (association, summation order, a fused GEMM) fails here.  The digests
    # depend on the environment (numpy and its BLAS, the CPU); elsewhere than
    # RECORDED_UNDER, record them again from an unchanged checkout.
    RECORDED_UNDER = "Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31 on x86_64"
    PINNED_DIGESTS = {
        (): "837308b3e3366bcab310c555e56afd76e33add2101197ebafb41fb7ac31b8c23",
        ("--mask", "causal", "--layers", "3"):
            "d1b713417c157e5b46e5b0f2c3cf15eb6fafe30390b6bbfcac9d2e1ef0d80e07",
        ("--padding", "zero", "--layers", "2"):
            "ad55e40d0634796ce4e5dff157c8af0f61533023572b6e80f2df9a86956cbd58",
    }

    @pytest.mark.parametrize("flags", list(PINNED_DIGESTS), ids=" ".join)
    def test_seeded_output_digest_is_pinned(self, tmp_path, flags):
        batch = write_batch(tmp_path / "batch.json",
                            [[0.1, -0.3, 0.5], [0.2, 0.4, -0.1, 0.7], [1.0, -1.0]])
        out = tmp_path / "o.json"
        assert main(["forward", batch, "--seed", "42", "--out", str(out), *flags]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_DIGESTS[flags], (
            f"digests recorded under {self.RECORDED_UNDER}; this run: {_environment()}")

    # SHA-256 of the examples report at two seeds, of `forward` with a weights
    # file that uses every matrix name, of a seeded two-head `forward`, and of
    # a seeded causal two-layer `forward` on an all-equal-lengths batch in each
    # norm mode (the fixed-length path, where every resample is the identity),
    # recorded under RECORDED_UNDER like PINNED_DIGESTS.
    PINNED_RUN_DIGESTS = {
        "examples-seed-42":
            "1de305cb9fafff7a6596a97cb9f318eee096367493e79dded3f9b02f0a875582",
        "examples-seed-7":
            "327466db3a90b309f09f010ed8968070185c729c350460337c410d45c85402f6",
        "forward-every-matrix":
            "3ae6cd05171d3348c9711a154fe5677bd599892374d9a1f3e573a1f216f01039",
        "forward-seeded-two-heads":
            "60fb3cf60491a2d8eae0bf8980e9c9642ac9f744e9e855fa529ebb45c8e57d1f",
        "forward-equal-lengths-layer-wise":
            "8cb64a1197636a7c8253710f138018c32198ab9626d7292f59d6853f6e75cc07",
        "forward-equal-lengths-vector-wise":
            "8891cb8a9c19e65e158737bc4b29e16db16c22ac83d1c02d41c41267b151d98f",
    }

    @pytest.mark.parametrize("run", list(PINNED_RUN_DIGESTS))
    def test_run_digest_is_pinned(self, tmp_path, run):
        out = tmp_path / "o.json"
        if run.startswith("examples"):
            argv = ["examples", "--seed", run.rsplit("-", 1)[1]]
        else:
            causal = ("--mask", "causal", "--layers", "2")
            seqs, doc, flags = {
                "forward-every-matrix": (ACCEPTANCE_11, every_matrix_weights(), ()),
                "forward-seeded-two-heads": (ACCEPTANCE_11, {"config": {"heads": 2}}, ()),
                "forward-equal-lengths-layer-wise":
                    (HOMOG, {"config": {"norm_mode": "layer-wise"}}, causal),
                "forward-equal-lengths-vector-wise": (HOMOG, {}, causal),
            }[run]
            batch = write_batch(tmp_path / "batch.json", seqs)
            weights = tmp_path / "w.json"
            weights.write_text(json.dumps(doc))
            argv = ["forward", batch, "--weights", str(weights), "--seed", "42", *flags]
        assert main([*argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_RUN_DIGESTS[run], (
            f"digests recorded under {self.RECORDED_UNDER}; this run: {_environment()}")

    @pytest.mark.parametrize("command", ["forward", "examples"])
    def test_default_out_writes_the_file_bytes_to_stdout(self, tmp_path, capsys, command):
        argv = [command, "--seed", "42"]
        if command == "forward":
            argv.insert(1, write_batch(tmp_path / "batch.json", ACCEPTANCE_11))
        out = tmp_path / "o.json"
        assert main([*argv, "--out", str(out)]) == main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_layers_over_budget_exit_2(self, tmp_path):
        # 10^9 blocks of 3 x 3 attention exceed the element budget: the command
        # fails before the first block, without a list of 10^9 weight sets.
        batch = write_batch(tmp_path / "batch.json", ACCEPTANCE_11)
        code, _, err = run_cli("forward", batch, "--layers", "1000000000", timeout=15)
        assert code == 2, err
        assert "layers 1000000000" in err and "budget" in err

    def test_homogeneous_padding_modes_agree(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        oz = tmp_path / "z.json"
        op = tmp_path / "p.json"
        assert run_cli("forward", batch, "--padding", "zero", "--seed", "7",
                       "--out", str(oz))[0] == 0
        assert run_cli("forward", batch, "--padding", "projection", "--seed", "7",
                       "--out", str(op))[0] == 0
        a = json.loads(oz.read_text())
        b = json.loads(op.read_text())
        assert a["output"] == b["output"]
        assert a["attention"] == b["attention"]

    def test_single_sequence_attention_is_identity(self, tmp_path):
        batch = write_batch(tmp_path / "one.json", [[0.5, -0.2, 0.9]])
        out = tmp_path / "o.json"
        assert run_cli("forward", batch, "--seed", "3", "--out", str(out))[0] == 0
        doc = json.loads(out.read_text())
        assert doc["attention"] == [[[[1.0]]]]
        assert len(doc["output"]["sequences"][0]) == 3

    def test_output_parses_and_profiles_match(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        out = tmp_path / "o.json"
        assert run_cli("forward", batch, "--layers", "2", "--seed", "1",
                       "--out", str(out))[0] == 0
        doc = json.loads(out.read_text())
        assert [len(s) for s in doc["output"]["sequences"]] == [3, 4, 2, 3]
        assert len(doc["attention"]) == 2
        for layer in doc["attention"]:
            A = np.array(layer[0])
            np.testing.assert_allclose(A.sum(axis=1), np.ones(4), atol=1e-12)

    def test_schema_error_exit_2_with_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sequences": [[1.0, "x"]]}')
        code, _, err = run_cli("forward", str(bad))
        assert code == 2
        assert "sequences[0][1]" in err

    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys):
        # JSON integers are unbounded; one that float64 cannot hold is not finite.
        bad = tmp_path / "bad.json"
        bad.write_text('{"sequences": [[1.0, 1' + "0" * 400 + ']]}')
        assert main(["forward", str(bad)]) == 2
        assert "sequences[0][1]" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sequences": [[1.0,,]]}')
        code, _, err = run_cli("forward", str(bad))
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("role", ["batch", "weights"])
    @pytest.mark.parametrize("text, message", [
        ('{"sequences": [[1' + "0" * 5000 + ']], "config": {}}', "4300 digits"),
        ("[" * 100_000, "recursion"),
    ], ids=["long-integer", "deep-nesting"])
    def test_undecodable_json_exits_2_naming_the_file(self, tmp_path, capsys, role, text,
                                                      message):
        # json.loads raises ValueError and RecursionError here, not JSONDecodeError.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        argv = [str(bad)] if role == "batch" else [batch, "--weights", str(bad)]
        assert main(["forward", *argv]) == 2
        err = capsys.readouterr().err
        assert f"input error: {bad}: cannot decode" in err and message in err

    def test_empty_batch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sequences": []}')
        assert run_cli("forward", str(bad))[0] == 2

    def test_dims_metadata_checked_when_present(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"sequences": [[1.0, 2.0], [3.0]], "dims": [2, 1]}))
        out = tmp_path / "o.json"
        assert run_cli("forward", str(good), "--out", str(out))[0] == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sequences": [[1.0, 2.0], [3.0]], "dims": [2, 2]}))
        code, _, err = run_cli("forward", str(bad))
        assert code == 2 and "dims" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        eye3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dims": 3},
            "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3},
        }))
        code, _, err = run_cli("forward", batch, "--weights", str(weights))
        assert code == 2 and "nominal_dims" in err

    def test_paper_literal_mask_is_not_an_option(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        code, _, err = run_cli("forward", batch, "--mask", "paper-literal")
        assert code == 2 and "--mask" in err

    @pytest.mark.parametrize("key,value", [("mask", "bogus"), ("layers", "two"),
                                           ("eps", float("nan")), ("eps", float("inf")),
                                           ("nominal_dim", 3.9), ("layers", 1.7),
                                           ("heads", True), ("batch_size", 3.5),
                                           ("eps", "0.5"), ("eps", True), ("eps", 10**400)])
    def test_bad_config_value_exit_2_names_key(self, tmp_path, key, value):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"config": {key: value}}))
        code, _, err = run_cli("forward", batch, "--weights", str(weights))
        assert code == 2 and f"config.{key}" in err

    @pytest.mark.parametrize("field", dataclasses.fields(ModelConfig), ids=lambda f: f.name)
    def test_every_config_key_rejects_a_wrong_json_type(self, tmp_path, field):
        # A string for a number, a number for a string.
        value = {"int": "3", "float": "0.5", "str": 3}[field.type]
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"config": {field.name: value}}))
        code, _, err = run_cli("forward", batch, "--weights", str(weights))
        assert code == 2 and f"config.{field.name}" in err

    def test_config_eps_reaches_the_norms(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"config": {"eps": 0.5}}))
        out, default = tmp_path / "o.json", tmp_path / "d.json"
        assert main(["forward", batch, "--weights", str(weights), "--seed", "5",
                     "--out", str(out)]) == 0
        assert main(["forward", batch, "--seed", "5", "--out", str(default)]) == 0
        X = HyperVector(RAGGED)
        w = random_weights(4, 4, X.dims, SplitMix64(5))
        Y = encoder_stack(X, [w], ModelConfig(batch_size=4, nominal_dim=4, eps=0.5))
        got = json.loads(out.read_text())
        assert got["config"]["eps"] == 0.5
        assert got["output"]["sequences"] == [c.tolist() for c in Y.components]
        assert got["output"] != json.loads(default.read_text())["output"]

    def test_overflow_exit_2_names_it(self, tmp_path, capsys):
        batch = write_batch(tmp_path / "big.json", [[1e200, -1e200, 3], [1e200]])
        out = tmp_path / "o.json"
        assert main(["forward", batch, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "internal error" not in err
        assert not out.exists()

    @pytest.mark.parametrize("nominal,flags", [(100000, ()), (70000, ("--layers", "0"))])
    def test_seeded_weights_over_budget_exit_2(self, tmp_path, nominal, flags):
        # 3 nominal_dim^2 draws exceed the element budget; the check runs
        # before any is drawn, so the command fails at once.
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"config": {"nominal_dim": nominal}}))
        code, _, err = run_cli("forward", batch, "--weights", str(weights), *flags,
                               timeout=15)
        assert code == 2, err
        assert "nominal_dim" in err and "budget" in err

    def test_declared_batch_size_mismatch_exit_3(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        eye3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"batch_size": 5, "nominal_dim": 3},
            "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3},
        }))
        assert run_cli("forward", batch, "--weights", str(weights))[0] == 3

    def test_shape_error_exit_3_names_both_shapes(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dim": 3},
            "matrices": {
                "Wq": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]},
                "Wk": {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]},
                "Wv": {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]},
            },
        }))
        code, _, err = run_cli("forward", batch, "--weights", str(weights))
        assert code == 3
        assert "2 x 2" in err and "3 x 3" in err

    def test_weights_file_round_trip(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        eye3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dim": 3, "layers": 1},
            "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3},
        }))
        out = tmp_path / "o.json"
        code, _, err = run_cli("forward", batch, "--weights", str(weights),
                               "--out", str(out))
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert doc["config"]["weights_source"] == "file"

    def test_unknown_matrix_name_rejected(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {},
            "matrices": {"Wx": {"rows": 1, "cols": 1, "data": [1]}},
        }))
        assert run_cli("forward", batch, "--weights", str(weights))[0] == 2

    def test_multi_head_weights_file(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)

        def mat(rows, cols, data):
            return {"rows": rows, "cols": cols, "data": data}

        eye3 = mat(3, 3, [1, 0, 0, 0, 1, 0, 0, 0, 1])
        doc = {"config": {"nominal_dim": 3, "heads": 2},
               "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3}}
        for i in (1, 2):
            for prefix in ("Tq", "Tk", "Tv"):
                doc["matrices"][f"{prefix}{i}"] = eye3
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code, _, err = run_cli("forward", batch, "--weights", str(weights),
                               "--out", str(out))
        assert code == 0, err
        doc = json.loads(out.read_text())
        assert len(doc["attention"][0]) == 2  # one matrix per head

    def test_missing_head_matrices_exit_2(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        eye3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dim": 3, "heads": 2},
            "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3},
        }))
        code, _, err = run_cli("forward", batch, "--weights", str(weights))
        assert code == 2
        assert f"input error: {weights}: head 1 needs matrices Tq1, Tk1, Tv1" in err

    def test_missing_wq_names_the_weights_file(self, tmp_path, capsys):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        eye3 = {"rows": 3, "cols": 3, "data": [1, 0, 0, 0, 1, 0, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dim": 3}, "matrices": {"Wk": eye3, "Wv": eye3},
        }))
        assert main(["forward", batch, "--weights", str(weights)]) == 2
        err = capsys.readouterr().err
        assert f"input error: {weights}: field 'matrices.Wq' is missing" in err

    # (matrix, the shape it is given or None to leave it out, exit code, message)
    # for every_matrix_weights with one fault; {path} is the weights file.
    SCHEMA_FAULTS = [
        *((name, shape, 3, f"shape error: {name} has shape {shape[0]} x {shape[1]},"
                           f" but the configuration requires {n} x {n}")
          for name, shape, n in (("Wq", (3, 3), 4), ("Wk", (4, 3), 4), ("Wv", (1, 4), 4),
                                 ("W1", (4, 4), 3), ("W2", (3, 2), 3), ("Tq1", (2, 2), 3),
                                 ("Tk2", (3, 1), 3), ("Tv1", (4, 3), 3))),
        *((name, shape, 3, f"shape error: {name} has shape {shape[0]} x {shape[1]},"
                           " expected a 1 x n or n x 1 bias vector")
          for name, shape in (("B1", (2, 2)), ("B2", (2, 3)))),
        *((name, shape, 3, f"shape error: {name} must be 1 x 1, got {shape}")
          for name, shape in (("gamma", (1, 2)), ("beta", (2, 1)))),
        ("OM3", (2, 3), 3, "shape error: block 1: output map 3 has 3 columns for a length-2"
                          " component"),
        *((name, None, 2, f"input error: {{path}}: field 'matrices.{name}' is missing")
          for name in ("Wq", "Wk", "Wv")),
        *((f"{key}{i}", None, 2, f"input error: {{path}}: head {i} needs matrices"
                                 f" Tq{i}, Tk{i}, Tv{i}")
          for key, i in (("Tq", 2), ("Tk", 1), ("Tv", 2))),
    ]

    @pytest.mark.parametrize("name,shape,code,message", SCHEMA_FAULTS, ids=[
        f"{name}-{'missing' if shape is None else 'shape'}" for name, shape, *_ in SCHEMA_FAULTS])
    def test_each_schema_fault_exit_code_and_message(self, tmp_path, capsys, name, shape,
                                                     code, message):
        batch = write_batch(tmp_path / "batch.json", ACCEPTANCE_11)
        doc = every_matrix_weights()
        if shape is None:
            del doc["matrices"][name]
        else:
            doc["matrices"][name] = _matrix_spec(np.ones(shape))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(doc))
        assert main(["forward", batch, "--weights", str(weights),
                     "--out", str(tmp_path / "o.json")]) == code
        assert f"stpdft: {message.format(path=weights)}\n" == capsys.readouterr().err

    def test_schema_faults_cover_every_matrix(self):
        faults = {(name if name in WEIGHT_MATRICES else re.sub("[0-9]+$", "", name),
                   shape is None) for name, shape, *_ in self.SCHEMA_FAULTS}
        assert {key for key, missing in faults if not missing} == set(WEIGHT_MATRICES)
        assert {key for key, missing in faults if missing} == {
            key for key, (*_, required) in WEIGHT_MATRICES.items() if required}

    @pytest.mark.parametrize("name,heads", [
        ("Tq3", 2), ("Tv3", 2), ("Tk1", 1), ("OM4", 1), ("OM0", 2), ("Tq01", 2),
        ("OM\N{ARABIC-INDIC DIGIT ONE}", 1), ("M_W", 1),
    ])
    def test_matrix_the_forward_pass_never_reads_exit_2(self, tmp_path, capsys, name, heads):
        batch = write_batch(tmp_path / "batch.json", ACCEPTANCE_11)
        doc = every_matrix_weights()
        if heads == 1:
            doc = {"config": {}, "matrices": {k: doc["matrices"][k] for k in ("Wq", "Wk", "Wv")}}
        doc["matrices"][name] = _matrix_spec(np.eye(3))
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert main(["forward", batch, "--weights", str(weights), "--out", str(out)]) == 2
        assert f"input error: {weights}: field 'matrices.{name}'" in capsys.readouterr().err
        assert not out.exists()

    def test_scale_and_mask_flags_change_attention(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        outs = {}
        for name, flags in (
            ("sqrtn", ["--scale", "sqrt-n"]),
            ("n", ["--scale", "n"]),
            ("causal", ["--mask", "causal"]),
        ):
            path = tmp_path / f"{name}.json"
            assert run_cli("forward", batch, "--seed", "4", *flags,
                           "--out", str(path))[0] == 0
            outs[name] = json.loads(path.read_text())
        assert outs["sqrtn"]["attention"] != outs["n"]["attention"]
        A = np.array(outs["causal"]["attention"][0][0])
        assert np.all(A[np.triu_indices(4, k=1)] == 0.0)

    def test_zero_padding_cannot_shrink_exit_3(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", RAGGED)
        eye2 = {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({
            "config": {"nominal_dim": 2},
            "matrices": {"Wq": eye2, "Wk": eye2, "Wv": eye2},
        }))
        code, _, err = run_cli("forward", batch, "--weights", str(weights),
                               "--padding", "zero")
        assert code == 3
        # projection padding handles a nominal below the longest sequence
        out = tmp_path / "o.json"
        assert run_cli("forward", batch, "--weights", str(weights),
                       "--padding", "projection", "--out", str(out))[0] == 0

    def test_every_setting_round_trips(self, tmp_path):
        # Every ModelConfig field but batch_size, each at a valid non-default value.
        chosen = {"nominal_dim": 6, "heads": 2, "padding": "zero", "scaling": "sqrt-s",
                  "mask": "causal", "layers": 2, "norm_mode": "layer-wise", "eps": 0.01}
        assert set(chosen) == set(CONFIG_KEYS) - {"batch_size"}
        for f in dataclasses.fields(ModelConfig):
            assert f.name not in chosen or chosen[f.name] != f.default
        batch = write_batch(tmp_path / "batch.json", RAGGED)  # nominal_dim default is 4
        docs = {}
        for name, config in (("all", chosen), ("no_eps", {k: v for k, v in chosen.items()
                                                          if k != "eps"})):
            weights, out = tmp_path / f"{name}_w.json", tmp_path / f"{name}_o.json"
            weights.write_text(json.dumps({"config": config}))
            assert main(["forward", batch, "--weights", str(weights), "--seed", "2",
                         "--out", str(out)]) == 0
            docs[name] = json.loads(out.read_text())
        echoed = docs["all"]["config"]
        assert echoed["batch_size"] == 4
        assert {k: echoed[k] for k in chosen} == chosen
        assert len(docs["all"]["attention"]) == 2 and len(docs["all"]["attention"][0]) == 2
        assert docs["all"]["output"] != docs["no_eps"]["output"]

    def test_scores_overflowing_to_minus_inf_exit_2(self, tmp_path, capsys):
        # With seed 0 the one score of a one-sequence batch overflows to -inf,
        # which softmax would otherwise read as a fully masked row.
        batch = write_batch(tmp_path / "big.json", [[1e200]])
        out = tmp_path / "o.json"
        assert main(["forward", batch, "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and "internal error" not in err
        assert not out.exists()


def _eye_weights(path, diagonal=1):
    """A weights file for HOMOG whose Wq, Wk, Wv, W1 and W2 are all diagonal * I_3."""
    eye3 = {"rows": 3, "cols": 3, "data": [diagonal if i % 4 == 0 else 0 for i in range(9)]}
    path.write_text(json.dumps({
        "config": {"nominal_dim": 3},
        "matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3, "W1": eye3, "W2": eye3},
    }))
    return str(path)


class TestInProcessReuse:
    """Repeated in-process calls share one parser and the last weights decode,
    and still behave like fresh processes."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_match_a_fresh_process(self, tmp_path):
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        weights = _eye_weights(tmp_path / "w.json")
        outs = [tmp_path / f"o{k}.json" for k in range(4)]
        for out in outs:
            assert main(["forward", batch, "--weights", weights, "--out", str(out)]) == 0
        fresh = tmp_path / "fresh.json"
        code, _, err = run_cli("forward", batch, "--weights", weights, "--out", str(fresh))
        assert code == 0, err
        assert {out.read_bytes() for out in outs} == {fresh.read_bytes()}

    def test_rewritten_weights_file_is_decoded_again(self, tmp_path):
        # Same path, same length, same mtime: only the bytes tell the files apart.
        batch = write_batch(tmp_path / "batch.json", HOMOG)
        path = tmp_path / "w.json"
        weights = _eye_weights(path, diagonal=1)
        first, second, fresh = (tmp_path / f"{name}.json" for name in ("a", "b", "fresh"))
        assert main(["forward", batch, "--weights", weights, "--out", str(first)]) == 0
        before = path.stat()
        _eye_weights(path, diagonal=2)
        os.utime(weights, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert main(["forward", batch, "--weights", weights, "--out", str(second)]) == 0
        assert run_cli("forward", batch, "--weights", weights, "--out", str(fresh))[0] == 0
        assert second.read_bytes() == fresh.read_bytes() != first.read_bytes()

    def test_cached_matrices_are_read_only_and_dicts_fresh(self, tmp_path):
        weights = _eye_weights(tmp_path / "w.json")
        config, mats = _parse_weights(weights)
        with pytest.raises(ValueError):
            mats["Wq"][0, 0] = 5.0
        config["nominal_dim"] = 7
        del mats["Wq"]
        again_config, again = _parse_weights(weights)
        assert again_config == {"nominal_dim": 3}
        assert again["Wq"][0, 0] == 1.0


class TestUnreadableFiles:
    """A file that cannot be read or written is an input error naming the path."""

    @pytest.fixture
    def files(self, tmp_path):
        return {"batch": write_batch(tmp_path / "batch.json", HOMOG),
                "weights": _eye_weights(tmp_path / "w.json"),
                "out": str(tmp_path / "o.json")}

    @staticmethod
    def _assert_input_error(files, capsys, path):
        assert main(["forward", files["batch"], "--weights", files["weights"],
                     "--out", files["out"]]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and path in err and "internal error" not in err

    @pytest.mark.parametrize("role", ["batch", "weights"])
    def test_input_that_is_a_directory(self, tmp_path, capsys, files, role):
        files[role] = str(tmp_path)
        self._assert_input_error(files, capsys, str(tmp_path))

    @pytest.mark.parametrize("role", ["batch", "weights"])
    def test_input_that_is_not_utf8(self, tmp_path, capsys, files, role):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"sequences": [[1.0]], "note": "caf\u00e9"}'.encode("latin-1"))
        files[role] = str(bad)
        self._assert_input_error(files, capsys, str(bad))

    def test_out_that_is_a_directory(self, tmp_path, capsys, files):
        files["out"] = str(tmp_path)
        self._assert_input_error(files, capsys, str(tmp_path))

    def test_out_in_a_missing_folder(self, tmp_path, capsys, files):
        files["out"] = str(tmp_path / "missing" / "o.json")
        self._assert_input_error(files, capsys, files["out"])


def _weights_doc(matrices):
    """A weights document with eye(3) Wq, Wk, Wv for HOMOG, updated by matrices."""
    eye3 = _matrix_spec(np.eye(3))
    return {"matrices": {"Wq": eye3, "Wk": eye3, "Wv": eye3, **matrices}}


class TestInputErrors:
    # (batch document, weights document, exit code, what stderr names) of
    # each fault of a forward input file; a None batch is never written, and
    # a None weights document runs without --weights.
    BATCH = {"sequences": HOMOG}
    FORWARD_FAULTS = {
        "batch-missing": (None, None, 2, "batch.json: no such file"),
        "batch-top-level": ([[1.0]], None, 2, "top level must be an object with a 'sequences'"),
        "batch-empty-sequence": ({"sequences": [[1.0], []]}, None, 2, "field 'sequences[1]'"),
        "weights-top-level": (BATCH, [], 2, "w.json: top level must be an object"),
        "config-not-object": (BATCH, {"config": [1]}, 2, "field 'config' must be an object"),
        "matrices-not-object": (BATCH, {"matrices": [1]}, 2, "field 'matrices' must be an object"),
        "matrix-not-object": (BATCH, _weights_doc({"W1": 5}), 2,
                              "field 'matrices.W1' must be an object"),
        "matrix-key-missing": (BATCH, _weights_doc({"W1": {"rows": 3, "cols": 3}}), 2,
                               "field 'matrices.W1.data' is missing"),
        "matrix-rows-zero": (BATCH, _weights_doc({"W1": {"rows": 0, "cols": 3, "data": []}}), 2,
                             "field 'matrices.W1': rows/cols must be positive"),
        "matrix-data-short": (BATCH, _weights_doc({"W1": {"rows": 3, "cols": 3, "data": [1]}}), 2,
                              "field 'matrices.W1.data' must hold exactly rows*cols = 9"),
    }

    @pytest.mark.parametrize("case", list(FORWARD_FAULTS))
    def test_forward_file_fault(self, tmp_path, capsys, case):
        batch, weights, code, names = self.FORWARD_FAULTS[case]
        argv = ["forward", str(tmp_path / "batch.json"), "--out", str(tmp_path / "o.json")]
        if batch is not None:
            (tmp_path / "batch.json").write_text(json.dumps(batch))
        if weights is not None:
            (tmp_path / "w.json").write_text(json.dumps(weights))
            argv += ["--weights", str(tmp_path / "w.json")]
        assert main(argv) == code
        assert names in capsys.readouterr().err

    @pytest.mark.parametrize("flags,code,names", [
        (("--dim-range", "5:3"), 2, "--dim-range needs 1 <= LO <= HI"),
        (("--dim-range", "0:3"), 2, "--dim-range needs 1 <= LO <= HI"),
        (("--batches", "0"), 2, "--batches and --batch-size must be positive"),
        (("--batch-size", "-1"), 2, "--batches and --batch-size must be positive"),
        (("--dim-range", "2:6", "--nominal-dim", "5"), 3,
         "nominal dim 5 is smaller than the largest drawable length 6"),
    ])
    def test_compare_padding_flag_fault(self, tmp_path, capsys, flags, code, names):
        assert main(["compare-padding", *flags, "--out", str(tmp_path / "c.csv")]) == code
        assert names in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


# Byte-level mutations of an input file at a position: cut it there, put a
# 5,001-digit integer in place of the first number literal from there on,
# or insert 100,000 nested '[' or bytes that are not UTF-8 there.
INSERTS = {"digits": b"9" * 5001, "nesting": b"[" * 100_000, "not-utf8": b"\xff\xc3("}
NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


def mutate(data: bytes, mutation: str, where: float) -> bytes:
    at = round(where * len(data))
    if mutation == "cut":
        return data[:at]
    number = NUMBER.search(data, at) if mutation == "digits" else None
    lo, hi = number.span() if number else (at, at)
    return data[:lo] + INSERTS[mutation] + data[hi:]


class TestInputFileFuzz:
    @staticmethod
    def _valid_files():
        rng = SplitMix64(5)
        batch = json.dumps({"sequences": ACCEPTANCE_11}).encode()
        weights = json.dumps({"config": {"heads": 1, "layers": 2, "eps": 0.001},
                              "matrices": {name: _matrix_spec(rng.matrix(4, 4))
                                           for name in ("Wq", "Wk", "Wv")}}).encode()
        return {"batch": batch, "weights": weights}

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["batch", "weights"]), st.sampled_from(["cut", *INSERTS]),
           st.floats(0, 1))
    @example("batch", "digits", 0.0)  # the decoder's integer digit limit
    @example("weights", "nesting", 0.0)  # the decoder's recursion limit
    def test_mutated_file_exit_code_is_0_2_or_3(self, role, mutation, where):
        files = self._valid_files()
        files[role] = mutate(files[role], mutation, where)
        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            for name, content in files.items():
                (root / f"{name}.json").write_bytes(content)
            code = main(["forward", str(root / "batch.json"), "--weights",
                         str(root / "weights.json"), "--out", str(root / "o.json")])
        assert code in (0, 2, 3)


def _matrix(d):
    return {"rows": d, "cols": d, "data": np.eye(d).reshape(-1).tolist()}


# Config values of every JSON type, valid and invalid, with numbers kept small
# so that seeded weights and forward passes stay cheap.
CONFIG_VALUES = st.one_of(
    st.integers(-2, 8), st.floats(-2, 8), st.booleans(), st.none(), st.just([1]),
    st.sampled_from([0.01, 1e-300, float("nan"), float("inf"), "3", "x", *PADDING_MODES,
                     *SCALING_MODES, *MASK_MODES, *NORM_MODES]),
)
FLAG_PAIRS = st.one_of(
    st.tuples(st.just("--padding"), st.sampled_from(PADDING_MODES)),
    st.tuples(st.just("--scale"), st.sampled_from(SCALING_MODES)),
    st.tuples(st.just("--mask"), st.sampled_from(MASK_MODES)),
    st.tuples(st.just("--layers"), st.integers(-1, 3).map(str)),
    st.tuples(st.just("--seed"), st.integers(0, 2**64 - 1).map(str)),
)
FORWARD_CASES = st.fixed_dictionaries({
    "sequences": st.lists(st.lists(st.floats(-4, 4), min_size=1, max_size=5),
                          min_size=1, max_size=4),
    "config": st.none() | st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES,
                                          max_size=4),
    "matrices": st.none() | st.integers(1, 6).map(
        lambda d: {name: _matrix(d) for name in ("Wq", "Wk", "Wv")}),
    "flags": st.lists(FLAG_PAIRS, max_size=4),
})


def run_forward_case(case, directory):
    """main's exit code on one FORWARD_CASES case, with its files under
    directory; a case with neither config nor matrices runs without --weights."""
    root = Path(directory)
    argv = ["forward", write_batch(root / "batch.json", case["sequences"]),
            "--out", str(root / "out.json")]
    if case["config"] is not None or case["matrices"] is not None:
        weights = {"config": case["config"] or {}, "matrices": case["matrices"] or {}}
        (root / "weights.json").write_text(json.dumps(weights))
        argv += ["--weights", str(root / "weights.json")]
    return main(argv + [v for pair in case["flags"] for v in pair])


class TestForwardFuzz:
    @settings(max_examples=200, deadline=None)
    @given(FORWARD_CASES)
    @example({"sequences": [[0.5, -1.0], [2.0], [0.1, 0.2, 0.3]], "config":
              {"norm_mode": "layer-wise", "scaling": "sqrt-s"}, "matrices": None,
              "flags": [("--mask", "causal"), ("--layers", "2")]})
    @example({"sequences": [[1.0, 2.0, 3.0], [4.0]], "config": None, "matrices": None,
              "flags": [("--scale", "n"), ("--padding", "zero")]})
    def test_exit_code_is_0_2_or_3(self, case):
        with tempfile.TemporaryDirectory() as directory:
            code = run_forward_case(case, directory)
            assert code in (0, 2, 3)
            if code == 0:
                doc = json.loads((Path(directory) / "out.json").read_text())
                assert [len(v) for v in doc["output"]["sequences"]] == [
                    len(v) for v in case["sequences"]]


class TestComparePaddingCommand:
    def test_csv_has_header_plus_one_row_per_batch(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code, _, err = run_cli("compare-padding", "--batches", "5", "--dim-range",
                               "2:5", "--seed", "9", "--out", str(out))
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 6
        assert rows[0][:4] == ["batch", "dims", "zero_recon_rms", "proj_recon_rms"]

    def test_equal_dims_both_schemes_lossless(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run_cli("compare-padding", "--batches", "3", "--dim-range", "4:4",
                       "--seed", "1", "--out", str(out))[0] == 0
        for row in csv.DictReader(io.StringIO(out.read_text())):
            assert float(row["zero_recon_rms"]) == 0.0
            assert float(row["proj_recon_rms"]) == 0.0
            assert float(row["zero_pad_zero_fraction"]) == 0.0

    # SHA-256 of the deterministic columns (all but the two wall times) of a
    # seeded ragged run padded above the range's HI, recorded under
    # TestForwardCommand.RECORDED_UNDER: a change to either round trip that
    # moves a bit of a reconstruction error or a zero fraction fails here.
    PINNED_COLUMNS_DIGEST = "782e8277ccccb1b740381f22a7e06a80da254e2187119d33f109b9f36239367d"

    def test_deterministic_columns_digest_is_pinned(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare-padding", "--batches", "6", "--dim-range", "2:9", "--seed", "17",
                     "--batch-size", "5", "--nominal-dim", "12", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        timed = {rows[0].index("zero_time_s"), rows[0].index("proj_time_s")}
        kept = "\n".join(",".join(v for i, v in enumerate(row) if i not in timed) for row in rows)
        digest = hashlib.sha256(kept.encode()).hexdigest()
        assert digest == self.PINNED_COLUMNS_DIGEST, (
            f"digest recorded under {TestForwardCommand.RECORDED_UNDER}; this run: {_environment()}")

    def test_zero_fraction_for_known_profile(self, rng):
        X = HyperVector([rng.normal(size=n) for n in (3, 4, 5, 3)])
        stats = padding_batch_stats(X, 6)
        assert stats["zero_pad_zero_fraction"] == pytest.approx(9 / 24, abs=0)
        assert stats["zero_recon_rms"] == 0.0
        assert stats["proj_recon_rms"] > 0.0

    def test_padded_size_over_budget_exit_2(self):
        code, _, err = run_cli("compare-padding", "--batches", "1", "--nominal-dim",
                               "3000000000", timeout=15)
        assert code == 2, err
        assert "--nominal-dim" in err and "budget" in err

    @pytest.mark.parametrize("flags", [
        ("--batches", "100", "--batch-size", "4", "--dim-range", "10000000:10000000"),
        ("--batches", "1000000000000", "--dim-range", "2:6"),
    ])
    def test_draws_over_budget_exit_2(self, flags):
        # Both pass the padded-size check; the draw count is checked before
        # the first draw, so the command fails at once.
        code, _, err = run_cli("compare-padding", *flags, timeout=15)
        assert code == 2, err
        for name in ("--batches", "--batch-size", "--dim-range", "budget"):
            assert name in err

    def test_allocation_beyond_memory_exit_2(self):
        # 4 x 500,000,000 padded entries pass the element budget, but the
        # padding needs 3.73 GiB at once: under a 3 GiB address-space limit
        # the allocation fails, and that is an input error, not an internal one.
        resource = pytest.importorskip("resource")
        limit = 3 * 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "stpdft", "compare-padding", "--batches", "1",
             "--batch-size", "4", "--nominal-dim", "500000000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 2, proc.stderr
        assert "did not fit in memory" in proc.stderr

    def test_bad_dim_range_exit_2(self):
        assert run_cli("compare-padding", "--dim-range", "oops")[0] == 2

    def test_main_callable_in_process(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare-padding", "--batches", "2", "--dim-range", "2:4",
                     "--seed", "0", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 3


class TestHelp:
    def test_every_flag_documented(self):
        for sub, flags in (
            ("examples", ["--out", "--seed"]),
            ("forward", ["--weights", "--padding", "--scale", "--mask", "--layers",
                         "--seed", "--out"]),
            ("compare-padding", ["--batches", "--dim-range", "--seed", "--batch-size",
                                 "--nominal-dim", "--out"]),
        ):
            code, out, _ = run_cli(sub, "--help")
            assert code == 0
            for flag in flags:
                assert flag in out

    def test_forward_modes_and_keys_match_readme_and_parser(self):
        expected = {"--padding": PADDING_MODES, "--scale": SCALING_MODES,
                    "--mask": MASK_MODES}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        usage = re.search(r"stpdft forward BATCH\.json.*?```", readme, re.S).group(0)
        listed = re.findall(r"\[(--[a-z]+) ([a-z-]+(?:\|[a-z-]+)+)\]", usage)
        assert {flag: tuple(modes.split("|")) for flag, modes in listed} == expected
        keys = re.search(r"`config` takes the fields of `stpdft\.ModelConfig`\s*\((.*?)\)",
                         readme, re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", keys)) == CONFIG_KEYS
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.option_strings[0]: tuple(a.choices)
                   for a in sub.choices["forward"]._actions if a.choices}
        assert choices == expected

    def test_weight_matrices_match_readme(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = re.search(r"The matrices are (.*?)\.\s", readme, re.S).group(1)
        names = re.findall(r"`(\w+?)(?:<[ij]>)?`", listed)
        assert tuple(names) == tuple(WEIGHT_MATRICES)
