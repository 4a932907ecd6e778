"""oscdelay benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, seed 0
    python3 perfbench/run.py --workload poly_tail_check --seed 3 --seconds 40 --trace 0

Each workload runs in fresh worker processes (worker.py), one at a time.
With --trace 0 it reports the end-to-end metrics: setup_s (median over
SETUP_SAMPLES process starts, from spawn to ready), op_s_p50, ops_per_s and
peak_rss_mb, all with tracing off.  With --trace 1 a traced worker runs for
half of --seconds and an untraced one repeats the same ops; the run reports
the per-layer metrics of tracing.PER_LAYER and fails when the two disagree
or a layer the workload must exercise reads zero.  Every op's outputs are
checked against the stdlib references in reference.py; `failed` counts the
ops that raised, exited non-zero or did not match.  Human-readable lines come
first; the last line of stdout is one JSON object.  --record FILE appends
the result and the environment to a JSON trajectory file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

# Layer metrics each workload must move; a zero here means a tracing gap.
_THETA = ("equation.theta.calls", "equation.theta.s", "equation.theta.self_s",
          "equation.theta.points", "equation.theta_extended.calls",
          "expr.eval_values.points", "sequences.eval_array.points",
          "transform.to_canonical.s", "transform.crit_canonical_sumq.s")
_SCALAR = ("sequences.call.calls", "expr.eval_at.calls", "equation.validate.calls",
           "criteria.Thm21.self_s", "criteria.divergence_probe.calls", "report.render.bytes")
MUST_MOVE = {
    "poly_tail_check": _THETA + _SCALAR + (
        "equation.theta.repeat_share_op", "criteria.Thm22A.self_s", "criteria.Thm22B.self_s",
        "criteria.Lem21.self_s", "criteria.Thm23.self_s",
        "config.parse_config.s", "cli.run_stages.self_s"),
    "examples_sweep": _THETA + _SCALAR + (
        "equation.theta.repeat_share_run", "equation.classify_form.s",
        "criteria.Thm22B.self_s", "criteria.Thm23.self_s",
        "transform.canonical_residual.s", "examples.reproduce_example.self_s"),
    "long_horizon_scalar": _SCALAR + (
        "solver.iterate.calls", "solver.iterate.steps", "solver.iterate.s",
        "solver.classify_trajectory.s", "solver.residual.s", "power.signed_pow.calls",
        "criteria.Lem21.self_s", "config.parse_config.s", "cli.run_stages.self_s"),
}
# The bypass workload: any tail sum here means the workload no longer isolates the scalar path.
MUST_STAY_ZERO = {"long_horizon_scalar": ("equation.theta.calls",)}


def _run_worker(workload: str, seed: int, workdir: Path, extra: list) -> tuple:
    """Start worker.py; return (seconds from spawn to ready, its JSON result or None)."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=workdir)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setups = [_run_worker(workload, seed, workdir / f"probe{i}", ["--setup-only"])[0]
              for i in range(SETUP_SAMPLES - 1)]
    setup_s, result = _run_worker(workload, seed, workdir / "run", ["--seconds", str(seconds)])
    setups.append(setup_s)
    times = [op["s"] for op in result["ops"]]
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {"values": values, "units": dict(END_TO_END), "attempted": len(times),
            "failed": sum(1 for op in result["ops"] if op["problems"]), "problems": [], "env": result}


def run_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    spans = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
    _, traced = _run_worker(workload, seed, workdir / "traced",
                            ["--seconds", str(seconds / 2), "--spans", str(spans)])
    n = len(traced["ops"])
    _, plain = _run_worker(workload, seed, workdir / "plain", ["--ops", str(n)])
    values = traced["layers"]
    values["trace.overhead_s"] = (statistics.median(op["s"] for op in traced["ops"])
                                  - statistics.median(op["s"] for op in plain["ops"]))
    problems = []
    mismatched = 0
    for i, (a, b) in enumerate(zip(traced["ops"], plain["ops"])):
        if a["digest"] != b["digest"] or a["problems"] or b["problems"]:
            mismatched += 1
            if a["digest"] != b["digest"]:
                problems.append(f"op {i}: traced outputs differ from untraced ones")
    problems += [f"{m} reads zero: tracing gap" for m in MUST_MOVE[workload] if not values[m] > 0]
    problems += [f"{m} = {values[m]} but this workload must not reach it"
                 for m in MUST_STAY_ZERO.get(workload, ()) if values[m] != 0]
    return {"values": values, "units": dict(tracing.PER_LAYER), "attempted": n,
            "failed": mismatched, "problems": problems, "env": traced}


def _git_sha():
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _record(path: Path, args, results: dict) -> None:
    """Append one trajectory point: environment, settings and every metric."""
    env = next(iter(results.values()))["env"]
    point = {
        "git_sha": _git_sha(),
        "python": env["python"],
        "numpy": env["numpy"],
        "cpu_count": os.cpu_count(),
        "machine": os.uname().machine,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {
            name: {"why": workloads.WHY[name], "attempted": r["attempted"], "failed": r["failed"],
                   "error_rate": r["failed"] / r["attempted"], "metrics": r["values"]}
            for name, r in results.items()
        },
    }
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(point)
    path.write_text(json.dumps(history, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the result and the environment to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oscdelay" / "__init__.py").is_file():
        print(f"no oscdelay sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    run = run_traced if args.trace else run_untraced
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for name, r in results.items():
        print(f"{name}  seed {args.seed}  trace {args.trace}  ops {r['attempted']}")
        for metric, unit in r["units"].items():
            value = r["values"][metric]
            print(f"  {metric:40s} {value:14.6g} {unit}")
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {'error_rate':40s} {r['failed'] / r['attempted']:14.6g} "
              f"ratio ({r['failed']} of {r['attempted']} ops)")
        for problem in r["problems"]:
            print(f"  FAIL {problem}")
    if args.record:
        _record(args.record, args, results)

    correct = all(r["failed"] == 0 and not r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
