"""The benchmark's traced run passes on every workload: its outputs match the
untraced run and the stdlib references, and no layer it gates reads zero."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["poly_tail_check", "examples_sweep", "long_horizon_scalar"])
def test_traced_run_passes(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "1", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    failures = [line.strip() for line in done.stdout.splitlines() if line.strip().startswith("FAIL")]
    assert done.returncode == 0 and not failures, failures or done.stderr[-2000:]
