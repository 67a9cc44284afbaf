"""API hygiene: docstrings, __all__ consistency, import integrity.

These are quality gates for the library surface rather than behaviour
tests: every public module documents itself, every name exported via
__all__ exists, and the subpackage __init__ re-exports resolve.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

from repro.cluster.net import WIRE_OPS, ClusterClient

PUBLIC_MODULES = [
    "repro",
    "repro.paper",
    "repro.nn", "repro.nn.tensor", "repro.nn.functional",
    "repro.nn.layers", "repro.nn.optim", "repro.nn.data", "repro.nn.init",
    "repro.vq", "repro.vq.distances", "repro.vq.kmeans",
    "repro.vq.codebook", "repro.vq.lut", "repro.vq.quant",
    "repro.vq.kernels", "repro.vq.sharedmem",
    "repro.lutboost", "repro.lutboost.lut_layers",
    "repro.lutboost.converter", "repro.lutboost.trainer",
    "repro.lutboost.reconstruction",
    "repro.models", "repro.models.resnet", "repro.models.vgg",
    "repro.models.lenet", "repro.models.mlp", "repro.models.transformer",
    "repro.datasets", "repro.datasets.synthetic_images",
    "repro.datasets.synthetic_text",
    "repro.hw", "repro.hw.arith", "repro.hw.memory", "repro.hw.scaling",
    "repro.hw.dpe", "repro.hw.ccu", "repro.hw.imm", "repro.hw.accelerator",
    "repro.sim", "repro.sim.fifo", "repro.sim.pingpong",
    "repro.sim.dataflow", "repro.sim.engine", "repro.sim.workload",
    "repro.dse", "repro.dse.analytical", "repro.dse.constraints",
    "repro.dse.oracle", "repro.dse.search",
    "repro.baselines", "repro.baselines.alu", "repro.baselines.nvdla",
    "repro.baselines.gemmini", "repro.baselines.pqa",
    "repro.baselines.specs",
    "repro.evaluation", "repro.evaluation.runner",
    "repro.evaluation.report",
    "repro.serving", "repro.serving.compiler", "repro.serving.engine",
    "repro.serving.batcher", "repro.serving.server",
    "repro.serving.metrics", "repro.serving.autotune",
    "repro.serving.record",
    "repro.gen", "repro.gen.compiler", "repro.gen.session",
    "repro.gen.sampling", "repro.gen.reference", "repro.gen.record",
    "repro.cluster", "repro.cluster.planstore", "repro.cluster.worker",
    "repro.cluster.router", "repro.cluster.server", "repro.cluster.net",
    "repro.obs", "repro.obs.tracer", "repro.obs.profiler",
    "repro.obs.export", "repro.obs.telemetry", "repro.obs.metrics",
    "repro.obs.slo", "repro.obs.flight", "repro.obs.contprof",
    "repro.obs.drift",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)


@pytest.mark.parametrize("name", [
    "repro.vq", "repro.lutboost", "repro.hw", "repro.sim", "repro.dse",
    "repro.baselines", "repro.evaluation", "repro.nn", "repro.serving",
    "repro.cluster", "repro.obs",
])
def test_public_classes_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
    assert not undocumented, "%s: undocumented %s" % (name, undocumented)


# ----------------------------------------------------------------------
# One wire-op table: a second dispatch site fails the build
# ----------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_net_compares_no_op_literal():
    """Dispatch is a ``WIRE_OPS`` lookup: no ``op == "ping"`` ladder."""
    def op_literals(node):
        nodes = node.elts if isinstance(node, (ast.Tuple, ast.List,
                                               ast.Set)) else [node]
        return [n.value for n in nodes if isinstance(n, ast.Constant)
                and n.value in WIRE_OPS]

    tree = ast.parse((SRC / "cluster" / "net.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + node.comparators
        for op, left, right in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                hits = op_literals(left) + op_literals(right)
            elif isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                    right, (ast.Tuple, ast.List, ast.Set)):
                hits = op_literals(right)
            else:
                hits = []
            if hits:
                offenders.append((node.lineno, hits))
    assert not offenders, "op compared by literal at net.py:%s" % offenders


def test_worker_rpcs_fan_out_in_one_place():
    """``ClusterServer._fanout`` is the only obs/control RPC loop; the
    other ``.process.request(`` sites are the generation session's own."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and func.attr == "request"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "process"):
            callers.add(".".join(scope[:2]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((SRC / "cluster" / "server.py").read_text()), ())
    assert callers == {"ClusterServer._fanout", "ClusterServer.generate",
                       "ClusterGenStream._request"}


def _client_ops():
    """``{op: ClusterClient method}`` read off the ``self._call("<op>",
    ...)`` sites, plus the two payload ops' dedicated methods."""
    tree = ast.parse((SRC / "cluster" / "net.py").read_text())
    client = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                  and n.name == "ClusterClient")
    ops = {}
    for method in client.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_call"):
                assert isinstance(node.args[0], ast.Constant), method.name
                assert node.args[0].value not in ops, "two stubs for one op"
                ops[node.args[0].value] = method.name
    for name in ("infer", "generate"):
        assert callable(getattr(ClusterClient, name))
        ops[name] = name
    return ops


def _readme_op_rows():
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| op | header fields | reply key |"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_every_wire_op_has_a_client_method_and_a_readme_row():
    client = _client_ops()
    assert set(client) == set(WIRE_OPS)
    assert all(not name.startswith("_") for name in client.values())
    readme = _readme_op_rows()
    assert set(readme) == set(WIRE_OPS)
    for name, row in WIRE_OPS.items():
        fields, reply, workers, doc = readme[name]
        assert set(re.findall(r"`(\w+)`", fields)) == set(row.fields), name
        if row.reply is not None:
            assert reply == "`%s`" % row.reply, name
        assert workers == ("yes" if row.blocking else "no"), name
        assert doc == row.doc, name
