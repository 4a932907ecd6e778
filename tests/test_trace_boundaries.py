"""The benchmark's tracer wraps named oscdelay functions from outside; each
boundary it lists must still resolve, with the leading arguments it reads."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    """BOUNDARIES from perfbench/tracing.py, read as a literal (the file is not imported)."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("BOUNDARIES not found in perfbench/tracing.py")


# leading parameters of the boundaries whose positional arguments the tracer reads
_READS = {
    "equation.theta": ["eq", "zeta"],
    "criteria.evaluate_criterion": ["criterion", "eq", "horizon"],
    "expr.eval_values": ["ast", "z"],
    "sequences.eval_array": ["self", "z"],
    "solver.iterate": ["eq", "init"],
}


@pytest.mark.parametrize("module, attr, name", [b[:3] for b in _boundaries()])
def test_boundary_resolves(module, attr, name):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
    if name in _READS:
        params = list(inspect.signature(target).parameters)
        assert params[:len(_READS[name])] == _READS[name]
