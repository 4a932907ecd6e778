"""One workload in one fresh process, started in its own working directory.

Sets up (imports oscdelay from the checkout's src/ and writes the seeded
inputs), prints `ready`, runs ops for about --seconds (or exactly --ops
ops), checks each op's outputs and prints one JSON result line.
run.py starts this file; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="trace the ops; write the spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import oscdelay

    if not Path(oscdelay.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported oscdelay from {oscdelay.__file__}, not from the checkout")
    specs = workloads.make_inputs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    ops = []
    start = time.perf_counter()
    last = 0.0
    for spec in specs:
        if args.ops is not None:
            if len(ops) == args.ops:
                break
        # start another op only if it should end within --seconds
        elif ops and time.perf_counter() - start + last > args.seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer:
                seconds, outputs = tracer.op(spec["index"], workloads.run_op, args.workload, spec)
            else:
                seconds, outputs = workloads.run_op(args.workload, spec)
        except Exception:  # an op that fails is counted, and the run goes on
            traceback.print_exc()
            seconds, outputs = time.perf_counter() - t0, None
        if outputs is None:
            ops.append({"s": seconds, "problems": ["raised"], "digest": None})
        else:
            problems = workloads.check_op(args.workload, spec, outputs)
            for problem in problems:
                print(f"{args.workload} op {spec['index']}: {problem}", file=sys.stderr)
            ops.append({"s": seconds, "problems": problems, "digest": workloads.digest(outputs)})
        last = time.perf_counter() - t0
    if args.ops is not None and len(ops) < args.ops:
        raise RuntimeError(f"asked for {args.ops} ops, only {len(ops)} inputs")

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        result["layers"] = tracer.metrics(len(ops))
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
