"""Span recorder that wraps steprates' public functions from outside the package.

`Tracer.install` finds every public function defined in a loaded
``steprates.*`` module and replaces it, by identity of the function object,
at every place it is bound: in each ``steprates`` module and in the modules
passed by the caller. Nothing is wrapped by a hard-coded list of names, so
moving a function between modules keeps it traced.

A span is ``[name, layer, start_ns, end_ns, parent, op, counts, passed]``.
Spans are recorded only while ``tracer.op`` is set, kept in memory, and
written out by the caller when the run ends. A function that no metric
reads gets no span of its own when it is called from inside its own layer:
it runs straight through, and its caller's span counts it in ``passed``.
That keeps helpers called once per step or per epoch (``step_value`` inside
``step_sum``, ``epoch_permutation`` inside ``rr_run``) from filling the
span list.

Wrappers cost time, and that time lands inside the spans around them.
``Tracer.calibrate`` measures it on a no-op function, and the metrics are
computed from each span's duration net of the wrapper cost inside it.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "steprates"


def _median(values) -> float:
    # not statistics.median: untraced passes import this module too, and
    # statistics would add its imports to their set-up time and memory
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _arg(fn, name: str):
    """Getter for one argument of fn by parameter name, positional or keyword."""
    params = inspect.signature(fn).parameters
    index = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)

    return get


def _theta_branch(params) -> str:
    two_theta = 2.0 * params.theta
    if two_theta == 1.0:
        return "affine"
    if two_theta == 2.0:
        return "quadratic"
    return "general"


# Counts recorded at the boundary of each function, keyed by function name so
# that they follow a function wherever it lives. Each entry builds, from the
# wrapped function, a callable (args, kwargs, result) -> counts dict.
def _annotators() -> dict:
    def k_steps(fn):
        K = _arg(fn, "K")
        return lambda a, kw, r: {"steps": int(K(a, kw))}

    def simulate(fn):
        params, K = _arg(fn, "params"), _arg(fn, "K")
        return lambda a, kw, r: {"steps": int(K(a, kw)), "variant": _theta_branch(params(a, kw))}

    def step_values(fn):
        K = _arg(fn, "K")
        return lambda a, kw, r: {"elements": int(K(a, kw))}

    def seeded(fn):
        seeds, K, problem = _arg(fn, "seeds"), _arg(fn, "K"), _arg(fn, "problem")

        def counts(a, kw, r):
            S, k = len(seeds(a, kw)), int(K(a, kw))
            n = problem(a, kw).component_count or 1
            return {
                "seed_steps": S * k,
                "updates": S * k * n,
                "gap_bytes": S * (k + 1) * 8,
                "variant": "wide" if S > 64 else "narrow",
            }

        return counts

    def gd(fn):
        K = _arg(fn, "K")
        return lambda a, kw, r: {"steps": int(K(a, kw)), "gap_bytes": (int(K(a, kw)) + 1) * 8}

    def verify_pl(fn):
        n = _arg(fn, "sample_count")
        return lambda a, kw, r: {"samples": int(n(a, kw))}

    def heatmap(fn):
        p, t = _arg(fn, "p_grid"), _arg(fn, "theta_grid")
        return lambda a, kw, r: {"cells": len(p(a, kw)) * len(t(a, kw))}

    def bound_poly(fn):
        return lambda a, kw, r: {"variant": r.regime.replace(" ", "_")}

    def cli_main(fn):
        argv = _arg(fn, "argv")
        return lambda a, kw, r: {"variant": str(argv(a, kw)[0])}

    return {
        "step_values": step_values,
        "simulate_pl_recursion": simulate,
        "iterate_recursion_exact": k_steps,
        "expansion_bound": k_steps,
        "sgd_run": seeded,
        "rr_run": seeded,
        "gd_run": gd,
        "verify_pl": verify_pl,
        "heatmap_grid": heatmap,
        "bound_poly": bound_poly,
        "main": cli_main,
    }


ANNOTATORS = _annotators()

# Functions whose spans layer_metrics reads; each call of one gets a span.
READ = frozenset(
    {
        "step_values", "step_sum", "simulate_pl_recursion", "bound_exp", "bound_cos",
        "bound_const", "bound_poly", "iterate_recursion_exact", "general_bound",
        "find_lambda_constant", "classical_bound", "forgetting_bound", "expansion_bound",
        "tech_inequality_suite", "sgd_run", "rr_run", "gd_run", "verify_pl", "fit_loglog",
        "heatmap_grid", "main",
    }
)


class Tracer:
    """Records one span per call of a wrapped public steprates function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        # wrapper cost in ns: a recorded call and a passed-through call as seen
        # by the span around them, and the part of a span's own duration that
        # is its clock reads rather than its function
        self.costs = {"span": 0.0, "passed": 0.0, "inner": 0.0}

    def _wrap(self, fn, layer: str, always: bool):
        name = fn.__name__
        build = ANNOTATORS.get(name)
        annotate = build(fn) if build is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if stack and not always:
                caller = spans[stack[-1]]
                if caller[1] == layer:
                    caller[7] += 1
                    return fn(*args, **kwargs)
            span = [name, layer, 0, 0, stack[-1] if stack else -1, op, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self, extra_modules=()) -> int:
        """Wrap every public steprates function where it is bound; returns bindings patched."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name in READ))
        patched = 0
        for mod in modules + list(extra_modules):
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    patched += 1
        return patched

    def calibrate(self) -> None:
        """Measure the wrapper costs on a no-op function and set self.costs.

        A recorded or passed-through call costs its loop of wrapped calls
        less the same loop over the bare function; a span's inner cost is
        its median duration less the bare call. Each is a median over
        repeats (an odd number, so the median is one of them).
        """
        calls, repeats = 20000, 7  # about 0.2 s in all
        probe = Tracer()

        def noop():
            return None

        recorded, passed = probe._wrap(noop, "probe", True), probe._wrap(noop, "probe", False)
        clock = time.perf_counter_ns

        def per_call(fn) -> float:
            start = clock()
            for _ in range(calls):
                fn()
            return (clock() - start) / calls

        def per_iteration() -> float:
            start = clock()
            for _ in range(calls):
                pass
            return (clock() - start) / calls

        samples: dict[str, list[float]] = {k: [] for k in ("loop", "bare", "passed", "span")}
        inner = []
        probe.op = 0
        for _ in range(repeats):
            # an open span of the same layer, so that `passed` passes through
            probe.spans[:] = [["caller", "probe", 0, 0, -1, 0, None, 0]]
            probe._stack[:] = [0]
            samples["loop"].append(per_iteration())
            samples["bare"].append(per_call(noop))
            samples["passed"].append(per_call(passed))
            samples["span"].append(per_call(recorded))
            inner.append(_median(s[3] - s[2] for s in probe.spans[1:]))
        m = {k: _median(v) for k, v in samples.items()}
        self.costs = {
            "span": max(m["span"] - m["bare"], 0.0),
            "passed": max(m["passed"] - m["bare"], 0.0),
            "inner": max(_median(inner) - (m["bare"] - m["loop"]), 0.0),
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, layer, start, end, parent, op, counts, passed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def net_durations(spans: list[list], costs: dict) -> list[float]:
    """Each span's duration less the wrapper cost inside it, in ns.

    That cost is the span's own clock reads plus the wrappers of every call
    below it, recorded or passed through. A child's index is larger than its
    parent's, so one backward sweep sums the costs below each span.
    """
    below = [0.0] * len(spans)
    net = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        cost = below[i] + span[7] * costs["passed"]
        net[i] = span[3] - span[2] - costs["inner"] - cost
        if span[4] >= 0:
            below[span[4]] += costs["span"] + cost
    return net


def self_times(spans: list[list], net: list[float]) -> list[float]:
    """Each span's net duration minus the net durations of its children, in ns.

    Calls are single-threaded, so children of one span never overlap and
    the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span, ns in zip(spans, net):
        if span[4] >= 0:
            covered[span[4]] += ns
    return [ns - c for ns, c in zip(net, covered)]


LAYERS = ("schedules", "recursions", "plbounds", "optimizers", "rates", "cli")
CLI_COMMANDS = ("simulate-recursion", "fit", "bound", "verify", "run", "heatmap")


def layer_metrics(spans: list[list], costs: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans' net durations.

    A rate whose function was not called in the pass reads 0.
    """
    net = net_durations(spans, costs)
    stats: dict[str, dict] = {}
    widest = 0
    for span, ns in zip(spans, net):
        counts = span[6] or {}
        keys = [span[0]]
        if "variant" in counts:
            keys.append(f"{span[0]}.{counts['variant']}")
        for key in keys:
            entry = stats.setdefault(key, {"calls": 0, "ns": 0})
            entry["calls"] += 1
            entry["ns"] += ns
            for name, value in counts.items():
                if name != "variant":
                    entry[name] = entry.get(name, 0) + value
        widest = max(widest, counts.get("gap_bytes", 0))

    def total(key: str, field: str) -> float:
        return float(stats.get(key, {}).get(field, 0))

    def per(key: str, field: str, scale: float) -> float:
        denominator = total(key, field)
        return total(key, "ns") * scale / denominator if denominator else 0.0

    metrics = {
        "schedules.step_values.ns_per_element": per("step_values", "elements", 1.0),
        "schedules.step_values.elements": total("step_values", "elements"),
        "schedules.step_sum.us_per_call": per("step_sum", "calls", 1e-3),
        "plbounds.simulate_pl_recursion.steps": total("simulate_pl_recursion", "steps"),
        "plbounds.bound_poly_case_d.us_per_call": per("bound_poly.case_d", "calls", 1e-3),
        "recursions.iterate_recursion_exact.ns_per_step": per(
            "iterate_recursion_exact", "steps", 1.0
        ),
        "recursions.general_bound.calls": total("general_bound", "calls"),
        "recursions.expansion_bound.ns_per_step": per("expansion_bound", "steps", 1.0),
        "recursions.tech_inequality_suite.s": total("tech_inequality_suite", "ns") * 1e-9,
        "optimizers.sgd_run.ns_per_seed_step.wide": per("sgd_run.wide", "seed_steps", 1.0),
        "optimizers.sgd_run.ns_per_seed_step.narrow": per("sgd_run.narrow", "seed_steps", 1.0),
        "optimizers.rr_run.ns_per_update": per("rr_run", "updates", 1.0),
        "optimizers.gd_run.ns_per_step": per("gd_run", "steps", 1.0),
        "optimizers.verify_pl.us_per_sample": per("verify_pl", "samples", 1e-3),
        "optimizers.gaps.bytes_computed": float(widest),
        "rates.fit_loglog.us_per_call": per("fit_loglog", "calls", 1e-3),
        "rates.heatmap_grid.ns_per_cell": per("heatmap_grid", "cells", 1.0),
    }
    for branch in ("affine", "quadratic", "general"):
        metrics[f"plbounds.simulate_pl_recursion.ns_per_step.{branch}"] = per(
            f"simulate_pl_recursion.{branch}", "steps", 1.0
        )
    for name in ("bound_exp", "bound_cos", "bound_const", "bound_poly"):
        metrics[f"plbounds.{name}.us_per_call"] = per(name, "calls", 1e-3)
    for name in ("general_bound", "find_lambda_constant", "classical_bound", "forgetting_bound"):
        metrics[f"recursions.{name}.us_per_call"] = per(name, "calls", 1e-3)
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}.ms_per_call"] = per(f"main.{command}", "calls", 1e-6)
    own = dict.fromkeys(LAYERS, 0)
    for span, ns in zip(spans, self_times(spans, net)):
        if span[1] in own:
            own[span[1]] += ns
    for layer, ns in own.items():
        metrics[f"{layer}.self_s"] = ns * 1e-9
    return metrics
