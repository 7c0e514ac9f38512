"""Command-line front end.

Three subcommands:

    stpdft examples          machine-readable report reproducing the bundled
                             worked examples and cross-checking the published
                             tables against library recomputation
    stpdft forward           run a configurable encoder forward pass over a
                             ragged batch file
    stpdft compare-padding   zero-padding vs projection-padding on random
                             ragged batches, CSV output

Exit codes: 0 success, 2 input error (schema, an unreadable input file or an
unwritable --out, float64 overflow, over the size budget or out of memory),
3 shape inconsistency, 4 internal invariant violation.

File formats (JSON):
    ragged batch    {"sequences": [[number, ...], ...]}
    weights         {"config": {...}, "matrices": {"Wq": {"rows": r,
                     "cols": c, "data": [row-major numbers]}, ...}}
    report          {"items": [{"name": str, "status": "pass" | "fail" |
                     "paper-mismatch", "expected": ..., "actual": ...}]}
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import stat
import sys
import time
import types
from fractions import Fraction

import numpy as np

from .algebra import _check_budget
from .errors import DegenerateRowError, NonFiniteError, SchemaError, ShapeError, SizeBudgetError
from .hypervector import HyperVector, _pad, _unpad, diamond, diamond_vectorized
from .prng import SplitMix64
from .projection import proj_matrix_exact
from .transformer import (
    MASK_MODES,
    PADDING_MODES,
    SCALING_MODES,
    AttentionWeights,
    ModelConfig,
    encoder_stack,
    proj_pad_pipeline,
    zero_pad_pipeline,
)


def _write_text(path: str | None, text: str):
    """Write text to standard output (path None or "-") or to the file path,
    the only place where stpdft writes a file.

    The file is rewritten in place: opened without O_TRUNC, written, then cut
    to the new length.  The final file is the same, but truncating on open
    frees the old blocks first, which costs more than writing a small output:
    rewriting an existing 20 KB file took about 0.15 ms through open(path,
    "w") and 0.025 ms in place, on ext4 with 2 shared cores, and a caller that
    serves requests rewrites the same --out every time.  Only a regular file
    is cut: /dev/null, a FIFO or a tty cannot be, and O_TRUNC is ignored on
    them anyway.  A write that fails part-way leaves the new bytes followed
    by the old file's tail.  The opener is mode "w"'s own with O_TRUNC
    dropped, so the file object owns the descriptor from the start and a new
    file gets the mode that open(path, "w") gives it.
    """
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write: {exc.strerror or exc}") from exc


# --- examples ----------------------------------------------------------------


def _rational_encoding(M) -> dict:
    """Common-denominator encoding of a Fraction matrix."""
    fracs = [[Fraction(v) for v in row] for row in M]
    den = math.lcm(*(v.denominator for row in fracs for v in row))
    return {
        "denominator": den,
        "numerators": [[int(v * den) for v in row] for row in fracs],
    }


def _close(a, b, tol=1e-12) -> bool:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return a.shape == b.shape and bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def cmd_examples(args) -> int:
    from . import worked_examples as wx  # only this subcommand reads the paper's tables

    # One (name, agrees, status when it does not, expected, actual) row per item.
    rows = []

    # Golden projection matrices and the walkthrough A pad/unpad blocks,
    # compared in exact rational arithmetic.
    golden = [(f"projection_matrix_{m}_to_{n}", m, n, g)
              for (m, n), g in wx.GOLDEN_PROJECTIONS.items()]
    golden.append(("walkthrough_a_pad_block", 2, 3, wx.GOLDEN_PAD_2_TO_3))
    golden.append(("walkthrough_a_unpad_block", 3, 2, wx.GOLDEN_UNPAD_3_TO_2))
    for name, m, n, (den, nums) in golden:
        expected = wx.golden_fraction_matrix(den, nums)
        actual = proj_matrix_exact(m, n)
        ok = actual.shape == expected.shape and bool(np.all(actual == expected))
        rows.append((name, ok, "fail",
                     _rational_encoding(expected), _rational_encoding(actual)))

    # Walkthrough A diamond under seeded numeric substitution.
    rng = SplitMix64(args.seed)
    W2 = rng.matrix(2, 2)
    x1 = rng.vector(2)
    x2 = rng.vector(3)
    X = HyperVector([x1, x2])
    algo = diamond(W2, X, 3)
    published = wx.walkthrough_a_result(W2, x1, x2)
    agree = all(_close(a, p) for a, p in zip(algo.components, published))
    rows.append(("walkthrough_a_diamond_vs_published", agree, "paper-mismatch",
                 published, algo.components))
    vec = diamond_vectorized(W2, X, 3)
    agree = _close(vec, algo.to_addition_form())
    rows.append(("walkthrough_a_diamond_dual_path", agree, "fail",
                 algo.to_addition_form(), vec))

    # Walkthrough B: seeded W and batch, both padding branches.
    W6 = rng.matrix(6, 6)
    comps = [rng.vector(3), rng.vector(4), rng.vector(5), rng.vector(3)]
    XB = HyperVector(comps)
    dims = XB.dims

    zp = zero_pad_pipeline(XB, W6, 6, dims)
    zp_pub = wx.zero_padding_result(W6, comps)
    agree = all(_close(a, p) for a, p in zip(zp.components, zp_pub))
    rows.append(("walkthrough_b_zero_padding_vs_published", agree, "paper-mismatch",
                 zp_pub, zp.components))

    pp = proj_pad_pipeline(XB, W6, 6, dims)
    pp_pub = wx.projection_padding_result(W6, comps)
    for idx in (0, 1, 3):  # components with published mu / lam tables
        name = f"walkthrough_b_projection_q{idx + 1}_vs_published"
        ok = _close(pp[idx], pp_pub[idx])
        rows.append((name, ok, "paper-mismatch", pp_pub[idx], pp[idx]))

    # Component 3 (the eta table): recompute the coefficients and flag any
    # published cells that disagree; the pipeline is checked against the
    # recomputed table, which is the library-consistency part.
    eta_pub = wx.printed_table("eta", W6)
    eta_rec = wx.recomputed_table("eta", W6)
    q3_rec = eta_rec @ comps[2] / wx.COEFF_SCALES["eta"]
    rows.append(("walkthrough_b_projection_q3_vs_recomputed", _close(pp[2], q3_rec), "fail",
                 q3_rec, pp[2]))
    flagged = []
    for i in range(5):
        for j in range(5):
            if abs(eta_pub[i, j] - eta_rec[i, j]) > 1e-9:
                flagged.append((i + 1, j + 1))
                rows.append((f"walkthrough_b_eta_cell_{i + 1}_{j + 1}", False, "paper-mismatch",
                             float(eta_pub[i, j]), float(eta_rec[i, j])))
    rows.append(("walkthrough_b_eta_table", True, None,
                 {"cells": 25},
                 {"confirmed_cells": 25 - len(flagged),
                  "flagged_cells": [f"({i},{j})" for i, j in flagged]}))

    # mu / lam published tables against recomputation (these agree).
    for name in ("mu", "lam"):
        pub = wx.printed_table(name, W6)
        rec = wx.recomputed_table(name, W6)
        ok = _close(pub, rec, 1e-9)
        rows.append((f"walkthrough_b_{name}_table_vs_recomputed", ok, "paper-mismatch", pub, rec))

    items = []
    for name, ok, status, expected, actual in rows:
        items.append({"name": name, "status": "pass" if ok else status,
                      "expected": expected, "actual": actual})
    _write_text(args.out, json.dumps({"items": items}, indent=2, default=np.ndarray.tolist) + "\n")
    return 0 if all(i["status"] != "fail" for i in items) else 4


# --- forward -----------------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    """The bytes of an input file; SchemaError naming path if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from exc


def _load_json(path: str, data: bytes) -> object:
    """The JSON document that the bytes data of path hold, as UTF-8 text; any
    decoder failure (digit or recursion limit too) is a SchemaError naming path."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: byte {exc.start} is not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: cannot decode: {exc}") from exc


def _finite_number(v) -> bool:
    """A JSON number (not a boolean) that float64 holds as a finite value."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float64 range
        return False


def _number_array(values: list, path: str, field: str) -> np.ndarray:
    """values as a float64 array when every one is a finite JSON number;
    otherwise SchemaError naming field[k] of path for the first bad index k."""
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:  # an integer beyond the float64 range
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    k = next(k for k, v in enumerate(values) if not _finite_number(v))
    raise SchemaError(f"{path}: field '{field}[{k}]' must be a finite number")


def _parse_batch(path: str) -> HyperVector:
    doc = _load_json(path, _read_bytes(path))
    if not isinstance(doc, dict) or "sequences" not in doc:
        raise SchemaError(f"{path}: top level must be an object with a 'sequences' field")
    seqs = doc["sequences"]
    if not isinstance(seqs, list) or not seqs:
        raise SchemaError(f"{path}: field 'sequences' must be a nonempty list")
    comps = []
    for i, seq in enumerate(seqs):
        if not isinstance(seq, list) or not seq:
            raise SchemaError(f"{path}: field 'sequences[{i}]' must be a nonempty list")
        comps.append(_number_array(seq, path, f"sequences[{i}]"))
    if "dims" in doc:  # optional metadata; must agree with the data when given
        dims = doc["dims"]
        if not isinstance(dims, list) or dims != [len(s) for s in seqs]:
            raise SchemaError(
                f"{path}: field 'dims' must equal the sequence lengths"
                f" {[len(s) for s in seqs]}"
            )
    return HyperVector(comps)


def _parse_matrix(path, name, spec) -> np.ndarray:
    if not isinstance(spec, dict):
        raise SchemaError(f"{path}: field 'matrices.{name}' must be an object")
    for key in ("rows", "cols", "data"):
        if key not in spec:
            raise SchemaError(f"{path}: field 'matrices.{name}.{key}' is missing")
    r, c, data = spec["rows"], spec["cols"], spec["data"]
    if not (type(r) is int and type(c) is int and r >= 1 and c >= 1):
        raise SchemaError(f"{path}: field 'matrices.{name}': rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != r * c:
        raise SchemaError(
            f"{path}: field 'matrices.{name}.data' must hold exactly rows*cols = {r * c} numbers"
        )
    M = _number_array(data, path, f"matrices.{name}.data")
    M.flags.writeable = False  # shared through _decode_weights' cache
    return M.reshape(r, c)


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))

# The weights file's matrices in the order they are read, checked and drawn:
# name -> (AttentionWeights field, shape, numbering, required).  The shape is
# "d" or "s" for a square matrix of side nominal_dim or batch size, "bias" for
# 1 x n or n x 1, "1" for 1 x 1 and None for any shape.  A numbered name stands
# for name1, name2, ...: the head maps for heads 1..heads (none when heads is
# 1), OM for components 1..s.
WEIGHT_MATRICES = {
    "Wq": ("wq", "d", None, True),
    "Wk": ("wk", "d", None, True),
    "Wv": ("wv", "d", None, True),
    "W1": ("ffn_w1", "s", None, False),
    "W2": ("ffn_w2", "s", None, False),
    "B1": ("ffn_b1", "bias", None, False),
    "B2": ("ffn_b2", "bias", None, False),
    "gamma": ("gamma", "1", None, False),
    "beta": ("beta", "1", None, False),
    "Tq": ("head_q", "s", "heads", True),
    "Tk": ("head_k", "s", "heads", True),
    "Tv": ("head_v", "s", "heads", True),
    "OM": ("out_maps", None, "s", False),
}
# A numbered name is numbered from 1 in ASCII digits, with no leading zero.
_MATRIX_NAME = re.compile("|".join(key + ("[1-9][0-9]*" if numbering else "")
                                   for key, (_, _, numbering, _) in WEIGHT_MATRICES.items()))


@functools.lru_cache(maxsize=1)
def _decode_weights(path: str, data: bytes) -> tuple:
    """The config and the matrices of the weights file path whose bytes are
    data, as read-only mappings: cached by (path, bytes), so a rewritten file
    is never served stale, whatever its mtime."""
    doc = _load_json(path, data)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise SchemaError(f"{path}: field 'config' must be an object")
    for key in config:
        if key not in CONFIG_KEYS:
            raise SchemaError(f"{path}: field 'config.{key}' is not a recognized option")
    matrices = doc.get("matrices", {})
    if not isinstance(matrices, dict):
        raise SchemaError(f"{path}: field 'matrices' must be an object")
    parsed = {}
    for name, spec in matrices.items():
        if not _MATRIX_NAME.fullmatch(name):
            raise SchemaError(f"{path}: field 'matrices.{name}' is not a recognized matrix name")
        parsed[name] = _parse_matrix(path, name, spec)
    return types.MappingProxyType(config), types.MappingProxyType(parsed)


def _names(key: str, numbering, s: int, heads: int) -> tuple:
    """The matrix names that the WEIGHT_MATRICES entry key stands for, for a
    batch of s sequences and heads heads."""
    if numbering is None:
        return (key,)
    count = s if numbering == "s" else (heads if heads > 1 else 0)
    return tuple(f"{key}{i}" for i in range(1, count + 1))


def _field_value(name, M, shape, side):
    """The AttentionWeights value of the matrix M, after the check of its
    WEIGHT_MATRICES shape; side maps "d" and "s" to their lengths."""
    if shape in side:
        n = side[shape]
        if M.shape != (n, n):
            raise ShapeError(f"{name} has shape {M.shape[0]} x {M.shape[1]},"
                             f" but the configuration requires {n} x {n}")
        return M
    if shape == "bias":
        if 1 not in M.shape:
            raise ShapeError(f"{name} has shape {M.shape[0]} x {M.shape[1]},"
                             " expected a 1 x n or n x 1 bias vector")
        return M.reshape(-1)
    if shape == "1":
        if M.size != 1:
            raise ShapeError(f"{name} must be 1 x 1, got {M.shape}")
        return float(M[0, 0])
    return M  # an output map, which dv_multi_head checks against its component


def random_weights(s: int, d: int, dims, rng: SplitMix64, heads: int = 1) -> AttentionWeights:
    """Deterministic weight set for a batch of s sequences at nominal dim d:
    every square WEIGHT_MATRICES entry and the biases, drawn in table order."""
    side = {"d": d, "s": s}
    drawn = []  # (field, shape, numbering, count) of each entry that is drawn
    for key, (field, shape, numbering, _) in WEIGHT_MATRICES.items():
        count = len(_names(key, numbering, s, heads)) if shape in side or shape == "bias" else 0
        if count:
            drawn.append((field, shape, numbering, count))
    # The biases draw no more than the batch already holds.  Checked before
    # any draw, which holds 8 bytes.
    _check_budget(sum(count * side[shape] ** 2 for _, shape, _, count in drawn if shape in side),
                  what=f"the draw count of seeded weights for nominal_dim {d}, batch size {s}"
                       f" and heads {heads}")
    w = AttentionWeights()
    for field, shape, numbering, count in drawn:
        if shape == "bias":
            values = tuple(HyperVector([rng.vector(n) for n in dims]) for _ in range(count))
        else:
            values = tuple(rng.matrix(side[shape], side[shape]) for _ in range(count))
        setattr(w, field, values if numbering else values[0])
    return w


@functools.lru_cache(maxsize=1)
def _weights_from_file(path: str, data: bytes, s: int, d: int,
                       heads: int) -> types.MappingProxyType:
    """The AttentionWeights fields of the weights file path whose bytes are
    data, for a batch of s sequences at nominal dim d with heads heads, as a
    read-only mapping: built once per (path, bytes, s, d, heads), like
    _decode_weights' decode, so no caller can change what a later one gets."""
    side = {"d": d, "s": s}
    fields = {}
    unread = dict(_decode_weights(path, data)[1])
    for key, (field, shape, numbering, required) in WEIGHT_MATRICES.items():
        names = _names(key, numbering, s, heads)
        missing = [i for i, name in enumerate(names, 1) if name not in unread]
        if missing and required and numbering:
            keys = [f"{head_key}{missing[0]}" for head_key, entry in WEIGHT_MATRICES.items()
                    if entry[2] == "heads"]
            raise SchemaError(f"{path}: head {missing[0]} needs matrices {', '.join(keys)}")
        if missing and required:
            raise SchemaError(f"{path}: field 'matrices.{key}' is missing")
        if len(missing) == len(names):
            continue
        values = tuple(_field_value(name, unread.pop(name), shape, side) if name in unread
                       else None for name in names)
        fields[field] = values if numbering else values[0]
    if unread:
        raise SchemaError(f"{path}: field 'matrices.{next(iter(unread))}' is not read by a"
                          f" forward pass with batch size {s} and {heads} head(s)")
    return types.MappingProxyType(fields)


# The peak memory that `forward` takes for each s x s attention matrix it keeps
# (the array, its tolist and its indented JSON text) is at most
# ATTENTION_BYTES + ENTRY_BYTES * s^2: a fit to the growth of peak RSS with
# layers at s = 3 and s = 16, rounded up.
ATTENTION_BYTES, ENTRY_BYTES = 1024, 152


def cmd_forward(args) -> int:
    X = _parse_batch(args.batch)
    s = X.batch_size
    dims = X.dims

    data = None if args.weights is None else _read_bytes(args.weights)
    config, mats = ({}, {}) if data is None else _decode_weights(args.weights, data)
    # A flag whose dest is a ModelConfig field overrides the file.
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}
    try:
        cfg = ModelConfig(**{"batch_size": s, "nominal_dim": max(dims), **config, **flags})
    except (TypeError, ValueError) as exc:
        # The message starts with the ModelConfig field.  argparse checks the
        # choices of every flag but --layers, so a bad field names --layers
        # or the config key of the file.
        key = str(exc).split()[0]
        where = f"--{key}" if key in flags else f"{args.weights}: field 'config.{key}'"
        raise SchemaError(f"{where}: {exc}") from exc
    if cfg.batch_size != s:
        raise ShapeError(
            f"weights file declares batch size {cfg.batch_size},"
            f" but the batch has {s} sequences"
        )
    _check_budget(cfg.layers, cfg.heads, ATTENTION_BYTES + ENTRY_BYTES * s * s,
                  what=f"the memory, in bytes, of the attention kept for layers {cfg.layers}"
                       f" x heads {cfg.heads} at batch size {s}")
    if mats:
        w = AttentionWeights(**_weights_from_file(args.weights, data, s, cfg.nominal_dim,
                                                  cfg.heads))
    else:
        w = random_weights(s, cfg.nominal_dim, dims, SplitMix64(args.seed), cfg.heads)

    # An overflow surfaces as a NonFiniteError from the stage that meets it.
    with np.errstate(over="ignore", invalid="ignore"):
        Y, atts = encoder_stack(X, [w], cfg, return_weights=True)
    doc = {
        "config": {"batch_size": s, "dims": list(dims), **dataclasses.asdict(cfg),
                   "seed": args.seed, "weights_source": "file" if mats else "seeded"},
        "output": {"sequences": Y.components},
        "attention": atts,
    }
    _write_text(args.out, json.dumps(doc, indent=2, default=np.ndarray.tolist) + "\n")
    return 0


# --- compare-padding ----------------------------------------------------------


def _recon_rms(original: HyperVector, recovered) -> float:
    """rms difference of two addition forms of the same profile."""
    return math.sqrt(float(np.sum((original.buffer - recovered) ** 2)) / len(recovered))


def padding_batch_stats(X: HyperVector, d: int) -> dict:
    """Round-trip one batch through both padding schemes at common length d.

    Reports the rms reconstruction error after pad -> unpad, the fraction of
    zeros in the padded s x d matrix, and the wall time, per scheme, of the
    forward pass's own pad and unpad.
    """
    dims = X.dims
    s = X.batch_size

    t0 = time.perf_counter()
    zero_rec = _unpad(_pad(X, d, "zero"), dims, "zero")
    zero_time = time.perf_counter() - t0
    zero_frac = float(sum(d - n for n in dims)) / (s * d)

    t0 = time.perf_counter()
    proj_mat = _pad(X, d, "projection")
    proj_rec = _unpad(proj_mat, dims, "projection")
    proj_time = time.perf_counter() - t0
    proj_frac = float(np.count_nonzero(proj_mat == 0.0)) / (s * d)

    return {
        "dims": "|".join(str(n) for n in dims),
        "zero_recon_rms": _recon_rms(X, zero_rec),
        "proj_recon_rms": _recon_rms(X, proj_rec),
        "zero_pad_zero_fraction": zero_frac,
        "proj_pad_zero_fraction": proj_frac,
        "zero_time_s": zero_time,
        "proj_time_s": proj_time,
    }


def cmd_compare_padding(args) -> int:
    try:
        lo_s, hi_s = args.dim_range.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise SchemaError(f"--dim-range must look like LO:HI, got {args.dim_range!r}")
    if lo < 1 or hi < lo:
        raise SchemaError(f"--dim-range needs 1 <= LO <= HI, got {args.dim_range!r}")
    if args.batches < 1 or args.batch_size < 1:
        raise SchemaError("--batches and --batch-size must be positive")
    nominal = hi if args.nominal_dim is None else args.nominal_dim
    if nominal < hi:
        raise ShapeError(
            f"nominal dim {nominal} is smaller than the largest drawable length {hi}"
        )
    _check_budget(args.batch_size, nominal, what=f"the padded size --batch-size"
                  f" {args.batch_size} x --nominal-dim {nominal}")
    # A length and up to hi entries per sequence, checked before any draw (8 bytes each).
    _check_budget(args.batches, args.batch_size, hi + 1, what=f"the draw count --batches"
                  f" {args.batches} x --batch-size {args.batch_size} x (--dim-range HI {hi} + 1)")
    rng, rows = SplitMix64(args.seed), []
    for b in range(args.batches):
        dims = [rng.randint(lo, hi) for _ in range(args.batch_size)]
        X = HyperVector([rng.vector(n) for n in dims])
        rows.append({"batch": b, **padding_batch_stats(X, nominal)})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _write_text(args.out, buf.getvalue())
    return 0


# --- entry point ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stpdft",
        description="Dimension-free transformer toolkit: worked-example report,"
                    " ragged forward passes, padding-scheme comparison.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("examples", help="emit the worked-example JSON report")
    ex.set_defaults(run=cmd_examples)
    ex.add_argument("--out", default="-", help="report path ('-' for stdout)")
    ex.add_argument("--seed", type=int, default=42,
                    help="seed for the numeric substitutions (default 42)")

    fw = sub.add_parser("forward", help="run an encoder forward pass on a ragged batch")
    fw.set_defaults(run=cmd_forward)
    fw.add_argument("batch", help="ragged batch JSON file")
    fw.add_argument("--weights", default=None,
                    help="weights JSON file (omit to generate from --seed)")
    fw.add_argument("--padding", choices=PADDING_MODES, default=None,
                    help=f"Q/K/V padding scheme (default: {ModelConfig.padding})")
    fw.add_argument("--scale", dest="scaling", choices=SCALING_MODES, default=None,
                    help=f"attention scaling convention (default: {ModelConfig.scaling})")
    fw.add_argument("--mask", choices=MASK_MODES, default=None,
                    help=f"additive attention mask (default: {ModelConfig.mask})")
    fw.add_argument("--layers", type=int, default=None,
                    help=f"number of encoder blocks (default: {ModelConfig.layers})")
    fw.add_argument("--seed", type=int, default=0,
                    help="seed for generated weights (default 0)")
    fw.add_argument("--out", default="-", help="output path ('-' for stdout)")

    cp = sub.add_parser("compare-padding",
                        help="compare zero padding and projection padding on random batches")
    cp.set_defaults(run=cmd_compare_padding)
    cp.add_argument("--batches", type=int, default=10, help="number of random batches")
    cp.add_argument("--dim-range", default="2:6",
                    help="inclusive range LO:HI of per-sequence lengths")
    cp.add_argument("--seed", type=int, default=0, help="generator seed")
    cp.add_argument("--batch-size", type=int, default=4, help="sequences per batch")
    cp.add_argument("--nominal-dim", type=int, default=None,
                    help="common padded length (default: the range upper bound)")
    cp.add_argument("--out", default="-", help="CSV path ('-' for stdout)")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SchemaError, SizeBudgetError) as exc:
        print(f"stpdft: input error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"stpdft: shape error: {exc}", file=sys.stderr)
        return 3
    except (NonFiniteError, DegenerateRowError) as exc:
        # No CLI mask empties a row, so an all -inf score row is an overflow.
        print(f"stpdft: input error: float64 overflow (inputs or weights too large): {exc}",
              file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation within the element budget
        print(f"stpdft: input error: the allocation did not fit in memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 4
        print(f"stpdft: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
