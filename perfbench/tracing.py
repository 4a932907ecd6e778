"""Tracing from outside the program.

`Tracer.install` wraps the public functions of each oscdelay layer and
rebinds every module attribute that refers to them, including the
`from .x import y` aliases, so no layer boundary is missed.  A call through
a wrapper becomes a span (name, start, end, parent span, op).  The three
boundaries called once per scalar coefficient value (`Sequence.__call__`,
`expr.eval_at`, `signed_pow`) are light: they add count and time to their
parent span instead of recording a span each.  Spans stay in memory and are
written out once the run ends.
"""
from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (module, attribute, boundary name, light).  Each boundary also counts the
# exceptions raised through it.
BOUNDARIES = (
    ("oscdelay.equation", "theta", "equation.theta", False),
    ("oscdelay.equation", "theta_extended", "equation.theta_extended", False),
    ("oscdelay.equation", "classify_form", "equation.classify_form", False),
    ("oscdelay.equation", "validate", "equation.validate", False),
    ("oscdelay.expr", "eval_values", "expr.eval_values", False),
    ("oscdelay.expr", "eval_at", "expr.eval_at", True),
    ("oscdelay.sequences", "Sequence.eval_array", "sequences.eval_array", False),
    ("oscdelay.sequences", "Sequence.__call__", "sequences.call", True),
    ("oscdelay.power", "signed_pow", "power.signed_pow", True),
    ("oscdelay.criteria", "evaluate_criterion", "criteria.evaluate_criterion", False),
    ("oscdelay.criteria", "divergence_probe", "criteria.divergence_probe", False),
    ("oscdelay.transform", "to_canonical", "transform.to_canonical", False),
    ("oscdelay.transform", "crit_canonical_sumq", "transform.crit_canonical_sumq", False),
    ("oscdelay.transform", "canonical_residual", "transform.canonical_residual", False),
    ("oscdelay.solver", "iterate", "solver.iterate", False),
    ("oscdelay.solver", "classify_trajectory", "solver.classify_trajectory", False),
    ("oscdelay.solver", "residual", "solver.residual", False),
    ("oscdelay.examples", "reproduce_example", "examples.reproduce_example", False),
    ("oscdelay.report", "render", "report.render", False),
    ("oscdelay.config", "parse_config", "config.parse_config", False),
    ("oscdelay.cli", "run_stages", "cli.run_stages", False),
)

CRITERIA = ("Thm21", "Thm22A", "Thm22B", "Lem21", "Thm23")


def _work(name, args, result):
    """The work count a boundary records: points, steps or bytes."""
    if name == "sequences.eval_array" or name == "expr.eval_values":
        return len(args[1])
    if name == "solver.iterate":
        return len(result.x) - len(args[1].values)
    if name == "report.render":
        return len(result.encode("utf-8"))
    return 0


# Per-layer metrics the traced run reports, with their units.  Counts and
# times are per op; `.errors` is the total over the run.  `bench.op.s` is the
# traced op time, the base for each layer's share of an op.
PER_LAYER = (
    [("bench.op.s", "s/op")]
    + [(f"equation.theta.{s}", u) for s, u in (
        ("calls", "count/op"), ("s", "s/op"), ("self_s", "s/op"), ("points", "count/op"),
        ("points_per_call", "count"), ("repeat_share_op", "share"), ("repeat_share_run", "share"))]
    + [("equation.theta_extended.calls", "count/op"), ("equation.theta_extended.s", "s/op"),
       ("equation.classify_form.s", "s/op"),
       ("equation.validate.calls", "count/op"), ("equation.validate.s", "s/op"),
       ("expr.eval_values.calls", "count/op"), ("expr.eval_values.points", "count/op"),
       ("expr.eval_values.s", "s/op"),
       ("expr.eval_at.calls", "count/op"), ("expr.eval_at.s", "s/op"),
       ("sequences.eval_array.calls", "count/op"), ("sequences.eval_array.points", "count/op"),
       ("sequences.eval_array.self_s", "s/op"),
       ("sequences.call.calls", "count/op"), ("sequences.call.self_s", "s/op"),
       ("power.signed_pow.calls", "count/op"), ("power.signed_pow.s", "s/op")]
    + [(f"criteria.{cid}.self_s", "s/op") for cid in CRITERIA]
    + [("criteria.divergence_probe.calls", "count/op"), ("criteria.divergence_probe.s", "s/op"),
       ("transform.to_canonical.s", "s/op"), ("transform.crit_canonical_sumq.s", "s/op"),
       ("transform.canonical_residual.s", "s/op"),
       ("solver.iterate.calls", "count/op"), ("solver.iterate.steps", "count/op"),
       ("solver.iterate.s", "s/op"),
       ("solver.classify_trajectory.s", "s/op"), ("solver.residual.s", "s/op"),
       ("examples.reproduce_example.self_s", "s/op"),
       ("report.render.calls", "count/op"), ("report.render.bytes", "B/op"),
       ("report.render.s", "s/op"),
       ("config.parse_config.s", "s/op"), ("cli.run_stages.self_s", "s/op")]
    + [(f"{name}.errors", "count") for _, _, name, _ in BOUNDARIES]
    + [("trace.overhead_s", "s")]
)

_WORK_STAT = {
    "expr.eval_values": "points",
    "sequences.eval_array": "points",
    "solver.iterate": "steps",
    "report.render": "bytes",
}


class Tracer:
    """Wraps the layer boundaries and keeps the spans of one process in memory."""

    def __init__(self):
        # span: (id, parent id, op, name, start, end, self seconds, work, errors, repeat flags)
        self.spans = []
        # (parent span id, name) -> [calls, seconds, self seconds] for light boundaries
        self.light = defaultdict(lambda: [0, 0.0, 0.0])
        # boundary name -> exceptions raised through it
        self.errors = defaultdict(int)
        # open frames: [owning span id, seconds covered by child calls]
        self._stack = [[0, 0.0]]
        self._next_id = 1
        self._op = -1
        self._seen_op = set()
        self._seen_run = set()

    def op(self, index: int, fn, *args):
        """Call fn(*args) as the root span of op `index`; spans under it carry the index."""
        self._op = index
        self._seen_op = set()
        try:
            return self._wrap(fn, "bench.op", False)(*args)
        finally:
            self._op = -1

    def install(self) -> None:
        """Wrap every boundary and rebind each module attribute that refers to it."""
        import oscdelay

        for info in pkgutil.iter_modules(oscdelay.__path__):
            importlib.import_module(f"oscdelay.{info.name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "oscdelay" or n.startswith("oscdelay.")]
        for modname, attr, name, light in BOUNDARIES:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, name, light))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, light)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, name, light):
        stack = self._stack
        clock = time.perf_counter

        errors = self.errors

        if light:
            stats = self.light

            def light_wrapper(*args, **kwargs):
                owner = stack[-1][0]
                frame = [owner, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[name] += 1
                    raise
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][1] += dt
                    st = stats[(owner, name)]
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[1]

            return light_wrapper

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            span_name = f"criteria.{args[0]}" if name == "criteria.evaluate_criterion" else name
            repeat = None
            if name == "equation.theta":
                key = (args[0].r, args[0].alpha, int(args[1]))
                repeat = (key in self._seen_op, key in self._seen_run)
                self._seen_op.add(key)
                self._seen_run.add(key)
            err = 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                err = 1
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                work = 0 if err else _work(name, args, result)
                self.spans.append(
                    (sid, parent[0], self._op, span_name, t0, t1, t1 - t0 - frame[1], work, err, repeat)
                )

        return wrapper

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the ops traced so far (see PER_LAYER)."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        self_s = defaultdict(float)
        work = defaultdict(int)
        by_id = {}
        for span in self.spans:
            sid, _, op, name, t0, t1, own, w, _, _ = span
            by_id[sid] = span
            if op < 0:
                continue
            calls[name] += 1
            secs[name] += t1 - t0
            self_s[name] += own
            work[name] += w
        for (owner, name), (n, s, own) in self.light.items():
            if owner in by_id and by_id[owner][2] >= 0:
                calls[name] += n
                secs[name] += s
                self_s[name] += own

        # array points evaluated inside theta, cross-checks included
        theta_points = 0
        for sid, parent, op, name, *_rest in self.spans:
            if name != "sequences.eval_array" or op < 0:
                continue
            w = by_id[sid][7]
            while parent in by_id:
                if by_id[parent][3] == "equation.theta":
                    theta_points += w
                    break
                parent = by_id[parent][1]
        repeats = [span[9] for span in self.spans if span[3] == "equation.theta" and span[2] >= 0]

        ops = max(n_ops, 1)
        values = {}
        for metric, _unit in PER_LAYER:
            boundary, stat = metric.rsplit(".", 1)
            if stat == "calls":
                values[metric] = calls[boundary] / ops
            elif stat == "s":
                values[metric] = secs[boundary] / ops
            elif stat == "self_s":
                values[metric] = self_s[boundary] / ops
            elif stat == "errors":
                values[metric] = self.errors[boundary]
            elif stat == _WORK_STAT.get(boundary):
                values[metric] = work[boundary] / ops
        values["equation.theta.points"] = theta_points / ops
        values["equation.theta.points_per_call"] = theta_points / len(repeats) if repeats else 0.0
        values["equation.theta.repeat_share_op"] = (
            sum(r[0] for r in repeats) / len(repeats) if repeats else 0.0)
        values["equation.theta.repeat_share_run"] = (
            sum(r[1] for r in repeats) / len(repeats) if repeats else 0.0)
        return values

    def write_spans(self, path: str) -> None:
        """Write every span, then the light-boundary aggregates, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, t0, t1, own, work, err, repeat in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name, "start": t0, "end": t1,
                    "self_s": own, "work": work, "errors": err, "repeat": repeat,
                }) + "\n")
            for (owner, name), (n, s, own) in sorted(self.light.items()):
                handle.write(json.dumps({
                    "parent": owner, "name": name, "calls": n, "s": s, "self_s": own,
                }) + "\n")
