"""The library's argument checks: each rejected input raises its documented
class with a message that names what was wrong."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import stpdft
from stpdft import (
    HyperVector,
    ModelConfig,
    ShapeError,
    SizeBudgetError,
    add_norm,
    attention_nominal,
    bridge_band,
    causal_mask,
    df_add_norm,
    df_ffn,
    diamond,
    diamond_vectorized,
    dv_attention,
    dv_multi_head,
    encoder_block,
    encoder_stack,
    ffn_nominal,
    positional_encoding,
    proj_pad_pipeline,
    project,
    project_batch,
    zero_pad_pipeline,
)
from paper_forms import AttentionWeights, assembled_attention, multi_head_nominal


def _ones(*shape):
    return np.ones(shape)


def _hyper(*dims):
    return HyperVector([np.ones(n) for n in dims])


# (id, call, exception class, the numbers the message must hold): one case
# per matrix-shape or element-budget check that no other test reaches.  The
# numbers are the offending dimensions and the ones they should have been.
SHAPE_AND_BUDGET_FAULTS = [
    ("attention-K-rows", lambda: attention_nominal(_ones(3, 4), _ones(2, 4), _ones(3, 5)),
     ShapeError, (2, 3, 4)),
    ("attention-V-rows", lambda: attention_nominal(_ones(3, 4), _ones(3, 4), _ones(7, 5)),
     ShapeError, (7, 5, 3)),
    ("attention-mask", lambda: attention_nominal(_ones(3, 4), _ones(3, 4), _ones(3, 4),
                                                 mask=_ones(2, 5)),
     ShapeError, (2, 5, 3)),
    ("head-map-columns", lambda: multi_head_nominal(
        _ones(3, 4), _ones(3, 4), _ones(3, 4),
        AttentionWeights(head_q=(_ones(2, 4),), head_k=(_ones(2, 6),), head_v=(_ones(2, 4),))),
     ShapeError, (6, 4)),
    ("ffn-w1-columns", lambda: ffn_nominal(_ones(3, 4), _ones(5, 2), _ones(5, 5)),
     ShapeError, (2, 3)),
    ("ffn-w2-columns", lambda: ffn_nominal(_ones(3, 4), _ones(5, 3), _ones(4, 6)),
     ShapeError, (6, 5)),
    ("assembled-wk", lambda: assembled_attention(_ones(3, 4), _ones(4, 4), _ones(5, 4),
                                                 _ones(4, 4)),
     ShapeError, (5, 4)),
    ("pipeline-transform-zero", lambda: zero_pad_pipeline(_hyper(2, 3), _ones(5, 6), 5, (2, 3)),
     ShapeError, (5, 6)),
    ("pipeline-transform-projection", lambda: proj_pad_pipeline(
        _hyper(2, 3), (_ones(5, 5), _ones(7, 5)), 5, (2, 3)),
     ShapeError, (7, 5)),
    ("dv-attention-mask", lambda: dv_attention(_hyper(2, 3, 4), _hyper(2, 3, 4), _hyper(2, 3, 4),
                                               mask=_ones(3, 5)),
     ShapeError, (3, 5)),
    # lcm(40000, 39999) = 1,599,960,000 replicated components of length 2.
    ("dv-attention-replication", lambda: dv_attention(_hyper(1), _hyper(*[1] * 40000),
                                                      _hyper(*[2] * 39999)),
     SizeBudgetError, (1599960000, 2)),
    ("product-form", lambda: _hyper(1000, 1000, 1000, 3).to_product_form(),
     SizeBudgetError, (3000000000,)),
    ("diamond-vectorized", lambda: diamond_vectorized(_ones(2, 4), _hyper(2, 3, 4)),
     ShapeError, (2, 4, 3)),
]


@pytest.mark.parametrize("call,kind,numbers", [case[1:] for case in SHAPE_AND_BUDGET_FAULTS],
                         ids=[case[0] for case in SHAPE_AND_BUDGET_FAULTS])
def test_shape_and_budget_checks_name_the_dimensions(call, kind, numbers):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    found = {int(n) for n in re.findall(r"\d+", str(info.value))}
    assert set(numbers) <= found, str(info.value)


def _square_weights(d):
    return AttentionWeights(wq=np.eye(d), wk=np.eye(d), wv=np.eye(d))


# (id, call, exception class, the words that name the rejected argument): the
# transformer's other input checks that no other test reaches.
ARGUMENT_FAULTS = [
    ("positional-encoding-positions", lambda: positional_encoding(0, 4), ShapeError,
     "at least one position"),
    ("causal-mask-size", lambda: causal_mask(0), ShapeError, "mask size"),
    ("add-norm-mode", lambda: add_norm(_ones(2, 3), _ones(2, 3), mode="rows"), ValueError,
     "norm mode"),
    ("dv-attention-scaling", lambda: dv_attention(_hyper(2, 3), _hyper(2, 3), _hyper(2, 3),
                                                  scaling="sqrt-d"),
     ValueError, "scaling"),
    ("multi-head-no-heads", lambda: dv_multi_head([], (2, 3)), ShapeError, "one head"),
    ("multi-head-batch-size", lambda: dv_multi_head([_hyper(2, 3, 4), _hyper(2, 3)], (2, 3, 4)),
     ShapeError, "head 2 has batch size 2"),
    ("multi-head-weight-count", lambda: dv_multi_head([_hyper(2, 3)], (2, 3), weights=[1, 2]),
     ShapeError, "2 weights for 1 heads"),
    ("multi-head-negative-weight", lambda: dv_multi_head([_hyper(2, 3)], (2, 3), weights=[-1]),
     ValueError, "head weights"),
    ("multi-head-output-map-count", lambda: dv_multi_head([_hyper(2, 3, 4)], (2, 3, 4),
                                                          out_maps=(None,)),
     ShapeError, "1 output maps for batch size 3"),
    ("add-norm-batch-sizes", lambda: df_add_norm(_hyper(2, 3, 4), _hyper(2, 3)), ShapeError,
     "3 skip vs 2 branch"),
    ("df-add-norm-mode", lambda: df_add_norm(_hyper(2, 3), _hyper(2, 3), mode="rows"),
     ValueError, "norm mode"),
    ("ffn-bias-components", lambda: df_ffn(_hyper(2, 3, 4), np.eye(3), np.eye(3),
                                           b1=_hyper(2, 3)),
     ShapeError, "bias has 2 components, expected 3"),
    ("block-batch-size", lambda: encoder_block(_hyper(2, 3, 4), _square_weights(4),
                                               ModelConfig(batch_size=2, nominal_dim=4)),
     ShapeError, "config says 2"),
    ("stack-weight-sets", lambda: encoder_stack(_hyper(2, 3), [_square_weights(3)] * 2,
                                                ModelConfig(batch_size=2, nominal_dim=3,
                                                            layers=3)),
     ShapeError, "2 weight sets for 3 blocks"),
]


@pytest.mark.parametrize("call,kind,words", [case[1:] for case in ARGUMENT_FAULTS],
                         ids=[case[0] for case in ARGUMENT_FAULTS])
def test_argument_checks_name_the_argument(call, kind, words):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert words in str(info.value)


# (id, call, the words that name the argument): a bool is not a length,
# although operator.index(True) is 1.
BOOL_LENGTHS = [
    ("project", lambda: project(_ones(3), True), "output profile"),
    ("project-batch-in", lambda: project_batch(_ones(3), (True, 2), (2, 2)), "input profile"),
    ("project-batch-out", lambda: project_batch(_ones(5), (2, 3), (True, 2)), "output profile"),
    ("hypervector-dims", lambda: HyperVector(_ones(3), (True, 2)), "component lengths"),
    ("diamond-n0", lambda: diamond(np.eye(2), _hyper(2, 3), n0=True), "nominal dim"),
    ("diamond-out-dims", lambda: diamond(np.eye(2), _hyper(2, 3), out_dims=(2, True)),
     "output profile"),
    ("zero-pad-d", lambda: zero_pad_pipeline(_hyper(1, 1), _ones(1, 1), True, (1, 1)),
     "nominal dim"),
    ("proj-pad-d", lambda: proj_pad_pipeline(_hyper(1, 1), _ones(1, 1), True, (1, 1)),
     "nominal dim"),
]


@pytest.mark.parametrize("call,words", [case[1:] for case in BOOL_LENGTHS],
                         ids=[case[0] for case in BOOL_LENGTHS])
def test_a_bool_is_not_a_length(call, words):
    with pytest.raises(TypeError) as info:
        call()
    assert type(info.value) is TypeError
    assert words in str(info.value) and "bool" in str(info.value)


# A length of 2**63 or more, which numpy reads as uint64 and a cast to int64
# would wrap negative.
TOO_LARGE_LENGTHS = [
    ("python-int", lambda: bridge_band(2**63, 3)),
    ("numpy-uint64", lambda: bridge_band(np.uint64(2**63), 3)),
    ("array", lambda: bridge_band(np.array([3]), np.array([2**63]))),
]


@pytest.mark.parametrize("call", [case[1] for case in TOO_LARGE_LENGTHS],
                         ids=[case[0] for case in TOO_LARGE_LENGTHS])
def test_a_length_of_2_to_the_63_is_too_large(call):
    with pytest.raises(ShapeError) as info:
        call()
    assert type(info.value) is ShapeError
    assert "too large" in str(info.value) and "9223372036854775808" in str(info.value)


# Both add-norms on a 4 x 3 batch, stacked (add_norm) or as a hypervector.
ADD_NORMS = {"add_norm": lambda mode, g, b: add_norm(_ones(4, 3), _ones(4, 3), mode, g, b),
             "df_add_norm": lambda mode, g, b: df_add_norm(_hyper(3, 3, 3, 3),
                                                           _hyper(3, 3, 3, 3), mode, g, b)}


@pytest.mark.parametrize("mode", ["vector-wise", "layer-wise"])
@pytest.mark.parametrize("function", ADD_NORMS)
@pytest.mark.parametrize("name", ["gamma", "beta"])
@pytest.mark.parametrize("bad", [_ones(3), _ones(4, 1), _ones(1, 1), True],
                         ids=["n", "s-by-1", "1-by-1", "bool"])
def test_gamma_and_beta_must_be_real_scalars(mode, function, name, bad):
    args = {"gamma": 1.0, "beta": 0.0, name: bad}
    with pytest.raises(ShapeError) as info:
        ADD_NORMS[function](mode, args["gamma"], args["beta"])
    assert type(info.value) is ShapeError
    assert str(info.value).startswith(f"{name} must be a real scalar")


@pytest.mark.parametrize("mode", ["vector-wise", "layer-wise"])
@pytest.mark.parametrize("function", ADD_NORMS)
def test_python_and_numpy_reals_are_accepted(mode, function):
    def run(gamma, beta):
        out = ADD_NORMS[function](mode, gamma, beta)
        return getattr(out, "buffer", out).tobytes()

    for gamma, beta in ((2, np.float32(0.5)), (np.float64(2.0), np.int64(0)), (np.int8(2), -1)):
        assert run(gamma, beta) == run(float(gamma), float(beta))


class _Sites(ast.NodeVisitor):
    """Collects (module, innermost function, what) sites of one module."""

    def __init__(self, module):
        self.module, self.scope, self.sites = module, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef


class _BudgetSites(_Sites):
    """(module, innermost function, "compare" or "raise") of each comparison
    with SIZE_BUDGET and each raise of SizeBudgetError in one module."""

    def visit_Compare(self, node):
        if any(_mentions(x, "SIZE_BUDGET") for x in (node.left, *node.comparators)):
            self.sites.append((self.module, self.scope, "compare"))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is not None and _mentions(exc, "SizeBudgetError"):
            self.sites.append((self.module, self.scope, "raise"))
        self.generic_visit(node)


def _mentions(node, name):
    return any(isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute)
               and n.attr == name for n in ast.walk(node))


def test_the_budget_is_checked_only_in_check_budget():
    sites = []
    for path in sorted(Path(stpdft.__file__).parent.glob("*.py")):
        visitor = _BudgetSites(path.name)
        visitor.visit(ast.parse(path.read_text(), path.name))
        sites += visitor.sites
    assert sites == [("algebra.py", "_check_budget", "compare"),
                     ("algebra.py", "_check_budget", "raise")]


class _WriteSites(_Sites):
    """(module, innermost function, callee) of each call in one module that
    can open a file for writing: os.open, a write_text or write_bytes, and an
    open or fdopen whose mode is not a literal without w, a, x and +."""

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open" and isinstance(func, ast.Attribute) and _mentions(func.value, "os"):
            writes = True
        elif name in ("open", "fdopen"):
            at = 0 if isinstance(func, ast.Attribute) and name == "open" else 1  # Path.open(mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+"))
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            self.sites.append((self.module, self.scope, ast.unparse(func)))
        self.generic_visit(node)


def _write_sites(source, module="m.py"):
    visitor = _WriteSites(module)
    visitor.visit(ast.parse(source, module))
    return visitor.sites


def test_the_write_sites_are_found():
    source = """
def f(p, m):
    open(p, "w"); open(p, mode="a"); open(p, m); os.open(p, 1); p.write_text("")
    p.write_bytes(b""); p.open("x"); os.fdopen(3, "r+"); open(p); open(p, "rb"); p.open()
"""
    assert [callee for _, _, callee in _write_sites(source)] == [
        "open", "open", "open", "os.open", "p.write_text", "p.write_bytes", "p.open",
        "os.fdopen"]


def test_only_write_text_opens_a_file_for_writing():
    # _write_text rewrites a file in place; a second writer could truncate.
    sites = []
    for path in sorted(Path(stpdft.__file__).parent.glob("*.py")):
        sites += _write_sites(path.read_text(), path.name)
    assert sites == [("cli.py", "_write_text", "open"), ("cli.py", "_write_text", "os.open")]


def _loaded_names(tree):
    """Every name that tree reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def _top_level_names(tree):
    """(bound name, is an import) of each top-level definition, assignment and
    import of tree, except the __future__ imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        elif isinstance(node, ast.Assign):
            yield from ((t.id, False) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                              and node.module != "__future__"):
            yield from (((a.asname or a.name).split(".")[0], True) for a in node.names)


def test_every_import_is_used_and_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), path.name)
             for path in sorted(Path(stpdft.__file__).parent.glob("*.py"))}
    loaded = {module: _loaded_names(tree) for module, tree in trees.items()}
    in_src = set().union(*loaded.values())
    unused_imports, unreferenced = [], []
    for module, tree in trees.items():
        for name, imported in _top_level_names(tree):
            if imported and module != "__init__.py" and name not in loaded[module]:
                unused_imports.append((module, name))
            if not imported and re.fullmatch("_[^_].*", name) and name not in in_src:
                unreferenced.append((module, name))
    assert unused_imports == []
    assert unreferenced == []


# project_batch is the checked public form of projection._resample, which
# every stage calls instead; README defines project's bytes against it.
EXPORTED_FOR_THE_README = {"project_batch"}


def test_every_export_is_read_outside_the_tests():
    # A public name that only the tests read is a paper form: it belongs
    # in tests/paper_forms.py, not in the package.
    package = Path(stpdft.__file__).parent
    root = Path(__file__).resolve().parent.parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    readers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    read = set().union(*(_loaded_names(ast.parse(p.read_text(), p.name)) for p in readers))
    assert sorted(exported - read - EXPORTED_FOR_THE_README) == []
