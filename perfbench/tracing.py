"""In-memory tracing of subsens from outside the library.

``Tracer.install`` replaces the public entry points of each layer with
timing wrappers (module attributes, the ``ValueOracle.value`` method and the
``probabilities`` method of the rule objects a workload passes in) and
``Tracer.uninstall`` puts the originals back.  No file under ``src/`` is
touched.

Two kinds of boundary are timed:

* spans (name, start, end, parent, operation) for every call above the
  innermost loops: sensitivity scans, DP enumerations, restrictions, EMD
  solves, inclusion bounds, distributed runs and the greedy runs inside them;
* aggregated leaves for ``ValueOracle.value`` and rule evaluations, which
  run up to a million times per pass: these only add their time and count
  to counters, and their time to the enclosing span's child time.

A layer's self time is the time of its calls minus the time of the wrapped
calls nested inside them.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

# (layer, group, module attribute path) for every wrapped module-level name.
# A group whose entry point no longer exists is reported as missing.
ENTRY_POINTS = (
    ("oracle", "restrict", "oracle.restrict"),
    ("oracle", "restrict", "sensitivity.restrict"),
    ("distributions", "dp", "distributions.exact_output_distribution"),
    ("distributions", "dp", "sensitivity.exact_output_distribution"),
    ("transport", "emd", "transport.emd"),
    ("transport", "emd", "sensitivity.emd"),
    ("transport", "incl", "transport.inclusion_probability_lower_bound"),
    ("transport", "incl", "sensitivity.inclusion_probability_lower_bound"),
    ("algorithms", "dgreedy", "distsim.deterministic_greedy"),
    ("sensitivity", "scan", "sensitivity.worst_case_sensitivity"),
    ("sensitivity", "scan", "sensitivity.average_sensitivity"),
    ("distsim", "runs", "distsim.greedi"),
    ("distsim", "runs", "distsim.barbosa_framework"),
    ("distsim", "sampler", "distsim.sampled_distribution"),
)

LAYERS = ("oracle", "algorithms", "distributions", "transport", "sensitivity", "distsim")

# metric -> (unit, entry-point groups it needs).  Self times need every group,
# since a missing wrapper would move its time into the caller's self time.
ALL_GROUPS = ("value", "rule", "restrict", "dp", "emd", "incl", "dgreedy",
              "scan", "runs", "sampler")
PER_LAYER = {
    "oracle.value_calls": ("count", ("value",)),
    "oracle.self_s": ("s", ALL_GROUPS),
    "oracle.calls_per_s": ("calls/s", ("value",)),
    "algorithms.rule_evals": ("count", ("rule",)),
    "algorithms.self_s": ("s", ALL_GROUPS),
    "distributions.dp_nodes": ("count", ("dp", "rule")),
    "distributions.support_sets": ("count", ("dp",)),
    "distributions.self_s": ("s", ALL_GROUPS),
    "distributions.nodes_per_s": ("nodes/s", ("dp", "rule")),
    "transport.emd_calls": ("count", ("emd",)),
    "transport.emd_s": ("s", ("emd",)),
    "transport.emd_s_p50": ("s", ("emd",)),
    "transport.pivots": ("count", ("emd",)),
    "transport.cost_cells": ("count", ("emd",)),
    "transport.max_support": ("count", ("emd",)),
    "transport.certificate_residual": ("1", ("emd",)),
    "sensitivity.self_s": ("s", ALL_GROUPS),
    "sensitivity.trials_per_s": ("trials/s", ("scan",)),
    "distsim.runs_per_s": ("runs/s", ("runs",)),
    "distsim.self_s": ("s", ALL_GROUPS),
    "trace.overhead_s": ("s", ()),
}

# counts that must repeat exactly from pass to pass for a given seed
EXACT_COUNTS = ("oracle.value_calls", "algorithms.rule_evals", "distributions.dp_nodes",
                "distributions.support_sets", "transport.emd_calls", "transport.pivots",
                "transport.cost_cells", "transport.max_support")


class PassStats:
    """Counters and timers of one traced pass."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.value_calls = 0
        self.value_s = 0.0
        self.rule_evals = 0
        self.dp_nodes = 0
        self.dp_s = 0.0
        self.support_sets = 0
        self.emd_times: list[float] = []
        self.pivots = 0
        self.cost_cells = 0
        self.max_support = 0
        self.residual = 0.0
        self.trials = 0
        self.sampled_scan_s = 0.0
        self.runs = 0
        self.runs_s = 0.0
        self.spans: list[tuple] = []

    def metrics(self) -> dict[str, float]:
        emd_s = sum(self.emd_times)
        return {
            "oracle.value_calls": self.value_calls,
            "oracle.self_s": self.self_s["oracle"],
            "oracle.calls_per_s": _rate(self.value_calls, self.value_s),
            "algorithms.rule_evals": self.rule_evals,
            "algorithms.self_s": self.self_s["algorithms"],
            "distributions.dp_nodes": self.dp_nodes,
            "distributions.support_sets": self.support_sets,
            "distributions.self_s": self.self_s["distributions"],
            "distributions.nodes_per_s": _rate(self.dp_nodes, self.dp_s),
            "transport.emd_calls": len(self.emd_times),
            "transport.emd_s": emd_s,
            "transport.emd_s_p50": statistics.median(self.emd_times) if self.emd_times else 0.0,
            "transport.pivots": self.pivots,
            "transport.cost_cells": self.cost_cells,
            "transport.max_support": self.max_support,
            "transport.certificate_residual": self.residual,
            "sensitivity.self_s": self.self_s["sensitivity"],
            "sensitivity.trials_per_s": _rate(self.trials, self.sampled_scan_s),
            "distsim.runs_per_s": _rate(self.runs, self.runs_s),
            "distsim.self_s": self.self_s["distsim"],
        }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _resolve(sub: dict, path: str):
    module_name, _, attr = path.partition(".")
    return sub[module_name], attr


class Tracer:
    """Wraps subsens entry points; one ``PassStats`` per traced pass."""

    def __init__(self, sub: dict, rules: list):
        self.sub = sub            # short module name -> imported subsens module
        self.rules = rules
        self.missing: set[str] = set()
        self.stats = PassStats()
        self._stack: list[list] = [[0.0, None]]   # [child time, span id]
        self._next_id = 0
        self.op_id = None
        self._undo: list = []
        for _, group, path in ENTRY_POINTS:
            module, attr = _resolve(sub, path)
            if not callable(getattr(module, attr, None)):
                self.missing.add(group)
        value_cls = getattr(sub["oracle"], "ValueOracle", None)
        if not callable(getattr(value_cls, "value", None)):
            self.missing.add("value")
        if any(not callable(getattr(r, "probabilities", None)) for r in rules):
            self.missing.add("rule")

    def new_pass(self):
        self.stats = PassStats()
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            before = stats.rule_evals
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                stats.self_s[layer] += elapsed - frame[0]
                stats.spans.append((span_id, parent, name, start, end, tracer.op_id))
            if on_result is not None:
                on_result(stats, result, elapsed, stats.rule_evals - before)
            return result

        return wrapper

    def _leaf(self, layer: str, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats = tracer.stats
                stats.self_s[layer] += elapsed - frame[0]
                setattr(stats, counter, getattr(stats, counter) + 1)

        return wrapper

    def _value_wrapper(self, fn):
        tracer = self

        def value(oracle, mask):
            start = perf_counter()
            result = fn(oracle, mask)
            elapsed = perf_counter() - start
            stats = tracer.stats
            stats.value_calls += 1
            stats.value_s += elapsed
            stats.self_s["oracle"] += elapsed
            tracer._stack[-1][0] += elapsed
            return result

        return value

    @staticmethod
    def _on_dp(stats, dist, elapsed, rule_evals):
        stats.dp_nodes += rule_evals
        stats.dp_s += elapsed
        stats.support_sets += len(dist.probs)

    @staticmethod
    def _on_emd(stats, result, elapsed, _):
        plan = result[1]
        rows, cols = len(plan.sources), len(plan.targets)
        stats.emd_times.append(elapsed)
        stats.pivots += plan.pivots
        stats.cost_cells += rows * cols
        stats.max_support = max(stats.max_support, rows + cols)
        stats.residual = max(stats.residual, plan.max_negative_reduced_cost,
                             plan.max_marginal_residual, plan.max_slackness_violation)

    @staticmethod
    def _on_scan(stats, report, elapsed, _):
        if report.mode == "sampled":
            stats.trials += report.trials * (1 + len(report.per_element))
            stats.sampled_scan_s += elapsed

    @staticmethod
    def _on_run(stats, _result, elapsed, _):
        stats.runs += 1
        stats.runs_s += elapsed

    def install(self):
        hooks = {"dp": self._on_dp, "emd": self._on_emd, "scan": self._on_scan,
                 "runs": self._on_run}
        for layer, group, path in ENTRY_POINTS:
            if group in self.missing:
                continue
            module, attr = _resolve(self.sub, path)
            original = getattr(module, attr)
            setattr(module, attr, self._span(layer, path, original, hooks.get(group)))
            self._undo.append(functools.partial(setattr, module, attr, original))
        if "value" not in self.missing:
            cls = self.sub["oracle"].ValueOracle
            original = cls.value
            cls.value = self._value_wrapper(original)
            self._undo.append(functools.partial(setattr, cls, "value", original))
        if "rule" not in self.missing:
            for rule in self.rules:
                rule.probabilities = self._leaf("algorithms", "rule_evals", rule.probabilities)
                self._undo.append(functools.partial(delattr, rule, "probabilities"))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def available(self, metric: str) -> bool:
        return not self.missing.intersection(PER_LAYER[metric][1])
