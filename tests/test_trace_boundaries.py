"""The benchmark's tracer wraps named oscdelay functions from outside; each
boundary it lists must still resolve, with the leading arguments it reads."""
import ast
import importlib
import inspect
import json
import subprocess
import sys
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


def test_traced_long_horizon_op_builds_each_column_once(tmp_path):
    # one op: 8 trajectories to 5000 and check Thm21,Lem21 at horizon 20000.  validate is
    # still called 3 times, but r and q are evaluated once per equation and window:
    # 20001 points each for check, 4999 each for iterate and one more r for residual
    worker = TRACING.parent / "worker.py"
    done = subprocess.run(
        [sys.executable, str(worker), "--workload", "long_horizon_scalar", "--seed", "0", "--ops", "1",
         "--spans", str(tmp_path / "spans.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    layers = json.loads(done.stdout.splitlines()[-1])["layers"]
    assert layers["equation.validate.calls"] == 3
    assert layers["solver.iterate.steps"] == 39992
    assert layers["expr.eval_values.points"] == 2 * 20001 + 2 * 4999 + 1
