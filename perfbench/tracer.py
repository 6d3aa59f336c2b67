"""Span tracer that wraps the package's public entry points from outside.

Nothing in the package is edited: `install` replaces every public
function of each layer module (and the `quad` the solver imported) with
a wrapper, in every qebundle module that holds a reference to it, and
`uninstall` puts the originals back.

Each call becomes a span (id, name, start, end, parent id, op id) kept
in memory until the run ends. Calls made from inside a quadrature
integrand run ~10^5 times per op; they are counted and timed into their
parent like any other call, but not stored as spans, which keeps a
traced run's memory bounded. Self time is a span's duration minus the
durations of its direct children.
"""

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "qebundle"
LAYERS = ("spec", "closedform", "solver", "verifier", "geometry", "output", "cli")

# Entry points the per-layer metrics are computed from. One that the
# package no longer defines turns its metrics into "missing".
REQUIRED = {
    "spec.validate_ms": ["spec.validate_spec"],
    "solver.solve_self_ms": ["solver.solve"],
    "solver.boundary_defect_calls": ["solver.boundary_defect"],
    "solver.defect_us_per_call": ["solver.boundary_defect"],
    "solver.alpha_points": ["solver.alpha"],
    "solver.alpha_recursive_calls": ["solver.alpha"],
    "solver.alpha_us_per_point": ["solver.alpha"],
    "solver.alpha_distinct_ratio": ["solver.alpha"],
    "solver.quad_calls": ["solver.quad"],
    "solver.integrand_evals": ["solver.quad"],
    "solver.quad_ms": ["solver.quad"],
    "solver.boundary_slopes_ms": ["solver.boundary_slopes"],
    "solver.no_root_count": ["solver.solve"],
    "verifier.verify_self_ms": ["verifier.verify"],
    "verifier.sample_at_calls": ["verifier.sample_at"],
    "verifier.worst_margin": ["verifier.verify"],
    "verifier.uncertified_count": ["verifier.verify"],
    "geometry.reconstruct_t_self_ms": ["geometry.reconstruct_t"],
    "geometry.alpha_points": ["geometry.reconstruct_t", "solver.alpha"],
    "output.write_csv_ms": ["output.write_csv"],
    "output.write_svg_ms": ["output.write_svg"],
    "output.json_ms": ["output.dump_json", "output.load_json"],
    "output.bytes_written": ["output.write_csv", "output.write_svg", "output.dump_json"],
}

# Counters summed across traced processes (see to_dict / merge).
_COUNTERS = (
    "ops",
    "alpha_points",
    "alpha_points_time",
    "alpha_recursive",
    "alpha_requests",
    "alpha_distinct",
    "geometry_alpha_points",
    "integrand_evals",
    "no_root",
    "uncertified",
    "bytes_written",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.wrapped = set()
        self.worst_margin = 0.0
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._in_integrand = 0
        self._alpha_seen = set()
        self._patches = []

    # -- op boundaries -------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self._alpha_seen = set()

    def end_op(self):
        self.alpha_distinct += len(self._alpha_seen)
        self._alpha_seen = set()
        self.ops += 1
        self.op_id = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        tracer, stack, spans = self, self._stack, self.spans
        stat = self.stats[name]  # [calls, total s, self s]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0, name]  # id, child time, name
            tracer._next_id += 1
            stack.append(frame)
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not tracer._in_integrand:
                    spans.append((frame[0], name, t0, t1, parent and parent[0], tracer.op_id))
                if hook is not None:
                    hook(parent, args, kwargs, result, exc, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_quad(self, quad):
        tracer = self

        def quad_counting_integrand(func, *args, **kwargs):
            def integrand(*a):
                tracer.integrand_evals += 1
                tracer._in_integrand += 1
                try:
                    return func(*a)
                finally:
                    tracer._in_integrand -= 1

            return quad(integrand, *args, **kwargs)

        return quad_counting_integrand

    # -- hooks for the layer-specific counts ---------------------------

    def _on_alpha(self, parent, args, kwargs, result, exc, dur):
        s, params = args[0], args[1]  # the package passes both positionally
        if parent is None or parent[2] != "solver.alpha":
            points = int(np.size(s))
            self.alpha_points += points
            self.alpha_points_time += dur
            if parent is not None and parent[2] == "geometry.reconstruct_t":
                self.geometry_alpha_points += points
        else:
            self.alpha_recursive += 1
        if np.ndim(s) == 0:
            self.alpha_requests += 1
            self._alpha_seen.add((params.kappa0, float(s)))

    def _on_solve(self, parent, args, kwargs, result, exc, dur):
        if exc is not None and type(exc).__name__ == "NoSignChangeError":
            self.no_root += 1

    def _on_verify(self, parent, args, kwargs, result, exc, dur):
        if result is None:
            return
        for name, check in result.checks.items():
            # "positivity" is a pass flag (value 1 when it passes), not a measured value.
            if check["tol"] > 0.0 and name != "positivity":
                self.worst_margin = max(self.worst_margin, abs(check["value"]) / check["tol"])
        if not result.certified:
            self.uncertified += 1

    def _on_write(self, path_index):
        def hook(parent, args, kwargs, result, exc, dur):
            if exc is None:
                self.bytes_written += os.path.getsize(args[path_index])

        return hook

    def install(self):
        """Wrap every public function of each layer module of the package."""
        hooks = {
            "solver.alpha": self._on_alpha,
            "solver.solve": self._on_solve,
            "verifier.verify": self._on_verify,
            "output.write_csv": self._on_write(0),
            "output.write_svg": self._on_write(0),
            "output.dump_json": self._on_write(1),
        }
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace[id(fn)] = (fn, self._wrap(name, fn, hooks.get(name)))
                self.wrapped.add(name)
        solver = sys.modules.get(f"{PACKAGE}.solver")
        quad = getattr(solver, "quad", None)
        if quad is not None:
            replace[id(quad)] = (quad, self._wrap("solver.quad", self._counted_quad(quad)))
            self.wrapped.add("solver.quad")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches = []

    # -- results -------------------------------------------------------

    def to_dict(self):
        """Aggregates (and spans) as plain data, for a traced subprocess."""
        doc = {name: getattr(self, name) for name in _COUNTERS}
        doc.update(
            stats=dict(self.stats),
            wrapped=sorted(self.wrapped),
            worst_margin=self.worst_margin,
            next_id=self._next_id,
            spans=self.spans,
        )
        return doc

    def merge(self, doc, op_id):
        """Add a traced subprocess's aggregates to this tracer."""
        for name in _COUNTERS:
            if name != "ops":
                setattr(self, name, getattr(self, name) + doc[name])
        for name, (calls, total, self_s) in doc["stats"].items():
            stat = self.stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        self.wrapped.update(doc["wrapped"])
        self.worst_margin = max(self.worst_margin, doc["worst_margin"])
        base = self._next_id
        self._next_id += doc["next_id"]
        for sid, name, t0, t1, parent, _ in doc["spans"]:
            self.spans.append((base + sid, name, t0, t1, None if parent is None else base + parent, op_id))

    def layer_metrics(self):
        """Per-layer metrics: times and counts per op, plus run totals.

        Returns (metrics, missing): a metric whose entry points the
        package no longer has is listed in `missing`, never set to 0.
        A layer the workload never calls reads 0.
        """
        ops = max(self.ops, 1)
        calls = defaultdict(int, {k: v[0] for k, v in self.stats.items()})
        total = defaultdict(float, {k: v[1] for k, v in self.stats.items()})
        self_t = defaultdict(float, {k: v[2] for k, v in self.stats.items()})

        def per_op_ms(values):
            return 1e3 * values / ops

        def ratio(num, den):
            return num / den if den else 0.0

        layer_calls = lambda layer: sum(v for k, v in calls.items() if k.startswith(layer + "."))
        layer_self = lambda layer: sum(v for k, v in self_t.items() if k.startswith(layer + "."))
        json_s = total["output.dump_json"] + total["output.load_json"]
        values = {
            "spec.validate_ms": per_op_ms(total["spec.validate_spec"]),
            "closedform.calls": layer_calls("closedform") / ops,
            "closedform.self_ms": per_op_ms(layer_self("closedform")),
            "solver.solve_self_ms": per_op_ms(self_t["solver.solve"]),
            "solver.boundary_defect_calls": calls["solver.boundary_defect"] / ops,
            "solver.defect_us_per_call": 1e6
            * ratio(total["solver.boundary_defect"], calls["solver.boundary_defect"]),
            "solver.alpha_points": self.alpha_points / ops,
            "solver.alpha_recursive_calls": self.alpha_recursive / ops,
            "solver.alpha_us_per_point": 1e6 * ratio(self.alpha_points_time, self.alpha_points),
            "solver.alpha_distinct_ratio": ratio(self.alpha_distinct, self.alpha_requests),
            "solver.quad_calls": calls["solver.quad"] / ops,
            "solver.integrand_evals": self.integrand_evals / ops,
            "solver.quad_ms": per_op_ms(total["solver.quad"]),
            "solver.boundary_slopes_ms": per_op_ms(total["solver.boundary_slopes"]),
            "solver.no_root_count": self.no_root,
            "verifier.verify_self_ms": per_op_ms(self_t["verifier.verify"]),
            "verifier.sample_at_calls": calls["verifier.sample_at"] / ops,
            "verifier.worst_margin": self.worst_margin,
            "verifier.uncertified_count": self.uncertified,
            "geometry.reconstruct_t_self_ms": per_op_ms(self_t["geometry.reconstruct_t"]),
            "geometry.alpha_points": self.geometry_alpha_points / ops,
            "output.write_csv_ms": per_op_ms(total["output.write_csv"]),
            "output.write_svg_ms": per_op_ms(total["output.write_svg"]),
            "output.json_ms": per_op_ms(json_s),
            "output.bytes_written": self.bytes_written / ops,
        }
        missing = sorted(
            name
            for name, needs in REQUIRED.items()
            if any(entry not in self.wrapped for entry in needs)
        )
        for name in missing:
            del values[name]
        return values, missing

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span_id\tname\tstart\tend\tparent_id\top_id\n")
            for sid, name, t0, t1, parent, op_id in self.spans:
                fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{op_id}\n")
