"""Experiment runner and CLI: config-driven sensitivity sweeps, fixed
reproduction suites with per-check PASS/FAIL reporting, and CSV artifacts.

Config files are flat ``key = value`` text with ``[section]`` headers
([function], [algorithm], [schedule], [run], [output]).  Suite CSVs contain
no timestamps, so re-running a suite with the same seed reproduces the
bytes exactly.

CLI verbs: run, reproduce, emd, list-suites, check-function.
Exit codes: 0 ok, 1 usage/config error, 2 enumeration budget exhausted.
No environment variable changes what runs.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import os
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .algorithms import (OrdinalSchedule, derive_rng, greedy_rule,
                         proportional_greedy_rule, randomized_greedy_rule)
from .distributions import (NodeBudgetExceededError, OutputDistribution,
                            exact_output_distribution, DEFAULT_NODE_BUDGET)
from .distsim import MpcConfig, barbosa_framework, greedi, PoolOverflowError
from .oracle import (FunctionSpec, ValueOracle, build_function,
                     check_monotone_submodular, curvature, mask_of,
                     restrict, shipped_default_specs)
from .sensitivity import (attach_bounds, average_sensitivity, bound_pA_pB,
                          bound_prop_greedy_approx,
                          bound_prop_greedy_sensitivity,
                          bound_prop_greedy_sensitivity_lb,
                          bound_randgreedy_lb, worst_case_sensitivity)
from .transport import (SupportCapExceededError, emd,
                        inclusion_probability_lower_bound, sym_diff_cost)


class ConfigParseError(ValueError):
    """Malformed experiment config."""


class UnknownSuiteError(ValueError):
    """Suite id not in the published list."""


# ---------------------------------------------------------------------------
# experiment configs


@dataclass
class ExperimentConfig:
    function: dict
    algorithm: str
    schedule_lines: dict
    k: int
    mode: str = "exact"
    trials: Optional[int] = None
    seed: Optional[int] = None
    budget: int = DEFAULT_NODE_BUDGET
    p_min: float = 0.0
    sweep_n: tuple[int, ...] = ()
    sweep_c: tuple[float, ...] = ()
    output: Optional[str] = None


_ALGORITHMS = ("greedy", "randgreedy", "proportional", "schedule")


def parse_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc
    if not read:
        raise ConfigParseError(f"cannot read config {path!r}")
    if "function" not in parser or "run" not in parser:
        raise ConfigParseError("config needs [function] and [run] sections")
    function = dict(parser["function"])
    algorithm = parser.get("algorithm", "name", fallback="greedy").strip()
    if algorithm not in _ALGORITHMS:
        raise ConfigParseError(f"unknown algorithm {algorithm!r}; one of {_ALGORITHMS}")
    schedule_lines = dict(parser["schedule"]) if "schedule" in parser else {}
    run = parser["run"]
    try:
        k = run.getint("k", fallback=None)
    except ValueError:
        raise ConfigParseError("[run] needs integer k") from None
    if k is None:
        raise ConfigParseError("[run] needs k")
    mode = run.get("mode", "exact").strip()
    if mode not in ("exact", "sampled"):
        raise ConfigParseError(f"mode must be exact or sampled, got {mode!r}")
    trials = run.getint("trials", fallback=None)
    seed = run.getint("seed", fallback=None)
    if mode == "sampled" and trials is None:
        raise ConfigParseError("sampled mode needs [run] trials")
    if algorithm != "greedy" and seed is None:
        raise ConfigParseError("randomized algorithms need [run] seed")
    sweep_n = tuple(int(x) for x in run.get("sweep_n", "").split(",") if x.strip())
    sweep_c = tuple(float(x) for x in run.get("sweep_c", "").split(",") if x.strip())
    output = parser.get("output", "path", fallback=None)
    return ExperimentConfig(
        function=function, algorithm=algorithm, schedule_lines=schedule_lines,
        k=k, mode=mode, trials=trials, seed=seed,
        budget=run.getint("budget", fallback=DEFAULT_NODE_BUDGET),
        p_min=run.getfloat("p_min", fallback=0.0),
        sweep_n=sweep_n, sweep_c=sweep_c, output=output)


_SCHED_LINE = re.compile(r"indices=\[(?P<idx>[\d,\s]*)\]\s+probs=\[(?P<pr>[-\d.,eE\s]*)\]")


def parse_schedule(lines: dict, k: int) -> OrdinalSchedule:
    """Parse ``i: indices=[...] probs=[...]`` lines into a schedule."""
    steps = []
    for i in range(1, k + 1):
        raw = lines.get(str(i))
        if raw is None:
            raise ConfigParseError(f"[schedule] missing step {i}")
        m = _SCHED_LINE.search(raw)
        if not m:
            raise ConfigParseError(f"bad schedule line for step {i}: {raw!r}")
        idx = tuple(int(x) for x in m.group("idx").split(",") if x.strip())
        pr = tuple(float(x) for x in m.group("pr").split(",") if x.strip())
        steps.append((idx, pr))
    try:
        return OrdinalSchedule(k, tuple(steps), name="custom")
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


def build_algorithm(cfg: ExperimentConfig):
    if cfg.algorithm == "greedy":
        return greedy_rule()
    if cfg.algorithm == "randgreedy":
        return randomized_greedy_rule()
    if cfg.algorithm == "proportional":
        return proportional_greedy_rule()
    return parse_schedule(cfg.schedule_lines, cfg.k)


def _spec_for(cfg: ExperimentConfig, n: Optional[int] = None,
              c: Optional[float] = None) -> FunctionSpec:
    kv = dict(cfg.function)
    if n is not None:
        kv["n"] = n
    if c is not None:
        kv["c"] = c
    try:
        return FunctionSpec.from_mapping(kv)
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


RUN_CSV_HEADER = "function,n,k,c,algorithm,worst_case,average,bound_ub,bound_lb,mode,runtime_s"


def _run_point(cfg: ExperimentConfig, n, c) -> str:
    spec = _spec_for(cfg, n, c)
    oracle = build_function(spec)
    alg = build_algorithm(cfg)
    t0 = time.perf_counter()
    report = worst_case_sensitivity(
        alg, oracle, cfg.k, mode=cfg.mode, seed=cfg.seed or 0,
        trials=cfg.trials, p_min=cfg.p_min, node_budget=cfg.budget,
        alg_name=cfg.algorithm)
    elapsed = time.perf_counter() - t0
    c_meas = _try_curvature(oracle)
    if c_meas is not None:
        attach_bounds(report, c_meas, cfg.k)
    ub = report.bounds.get("upper")
    lb = report.bounds.get("lower")
    return (f"{spec.family},{oracle.n},{cfg.k},{'' if c_meas is None else repr(c_meas)},"
            f"{cfg.algorithm},{report.worst_case!r},{report.average!r},"
            f"{'' if ub is None else repr(ub)},{'' if lb is None else repr(lb)},"
            f"{cfg.mode},{elapsed:.3f}")


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Execute a config and return CSV lines: the header, then one row per
    sweep point (n major, c minor), computed in order."""
    points = itertools.product(cfg.sweep_n or (None,), cfg.sweep_c or (None,))
    return [RUN_CSV_HEADER] + [_run_point(cfg, n, c) for n, c in points]


def _try_curvature(oracle: ValueOracle) -> Optional[float]:
    try:
        return curvature(oracle)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class CheckRow:
    check: str
    params: str
    measured: str
    threshold: str
    comparator: str
    passed: bool


@dataclass
class SuiteResult:
    suite: str
    rows: list[CheckRow] = field(default_factory=list)

    def add(self, check: str, params: str, measured, threshold, comparator: str,
            passed: bool):
        def fmt(x):
            return (repr(x) if isinstance(x, float) else str(x)).replace(",", ";")
        self.rows.append(CheckRow(check, params.replace(",", ";"), fmt(measured),
                                  fmt(threshold), comparator, passed))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        out = ["suite,check,params,measured,threshold,comparator,pass"]
        for r in self.rows:
            out.append(f"{self.suite},{r.check},{r.params},{r.measured},"
                       f"{r.threshold},{r.comparator},{'yes' if r.passed else 'no'}")
        return "\n".join(out) + "\n"

    def print_lines(self, stream=None):
        stream = stream or sys.stdout
        for r in self.rows:
            tag = "PASS" if r.passed else "FAIL"
            print(f"{tag} {self.suite}/{r.check} [{r.params}] "
                  f"measured={r.measured} {r.comparator} {r.threshold}", file=stream)
        n_ok = sum(r.passed for r in self.rows)
        print(f"suite {self.suite}: {n_ok}/{len(self.rows)} checks passed", file=stream)


def suite_curvature(seed: int = 0) -> SuiteResult:
    """Target-curvature recovery for the four curvature-parameterized families."""
    result = SuiteResult("curvature")
    grid = [
        ("curvature_det_lb", lambda c: FunctionSpec("curvature_det_lb", n=7, k=3, c=c)),
        ("curvature_rand_lb", lambda c: FunctionSpec("curvature_rand_lb", n=13, k=3, c=c)),
        ("greedi_lb", lambda c: FunctionSpec("greedi_lb", n=16, c=c)),
        ("appendixD_lb", lambda c: FunctionSpec("appendixD_lb", n=12, c=c)),
    ]
    for family, make in grid:
        for c in (0.25, 0.5, 0.75, 1.0):
            measured = curvature(build_function(make(c)))
            result.add("target_curvature", f"family={family};c={c:g}",
                       measured, c, "== (1e-9)", abs(measured - c) <= 1e-9)
    return result


def suite_structure(seed: int = 0) -> SuiteResult:
    """Exhaustive monotone-submodularity checks for every shipped family default."""
    result = SuiteResult("structure")
    for spec in shipped_default_specs(12):
        oracle = build_function(spec)
        report = check_monotone_submodular(oracle, mode="exhaustive")
        result.add("monotone_submodular", f"family={spec.family};n={oracle.n}",
                   f"{len(report.violations)}_violations", "0_violations", "==",
                   report.ok)
    return result


def suite_detgreedy_lb(seed: int = 0) -> SuiteResult:
    """Deterministic greedy on the bounded-curvature hard instance: worst-case
    sensitivity at least k (measured value is 2k)."""
    result = SuiteResult("detgreedy-lb")
    for k in (3, 5, 8):
        spec = FunctionSpec("curvature_det_lb", n=2 * k + 1, k=k, c=0.5)
        oracle = build_function(spec)
        report = worst_case_sensitivity(greedy_rule(), oracle, k, alg_name="greedy")
        result.add("worst_case_ge_k", f"k={k};n={oracle.n};c=0.5;exact={report.worst_case!r}",
                   report.worst_case, float(k), ">=", report.worst_case >= k)
    return result


def suite_randgreedy_lb(seed: int = 0) -> SuiteResult:
    """Randomized greedy on the cascade-free hard instance: exact EMD after
    deleting the heavy element beats 2k(1 - 2((k-1)/k)^k)."""
    result = SuiteResult("randgreedy-lb")
    for k, n in ((3, 16), (4, 20)):
        oracle = build_function(FunctionSpec("randgreedy_lb", n=n, k=k))
        rule = randomized_greedy_rule()
        d1 = exact_output_distribution(rule, oracle, k)
        d2 = exact_output_distribution(rule, oracle, k, allowed=oracle.full_mask & ~1)
        value, _ = emd(d1, d2)
        bound = bound_randgreedy_lb(k)
        result.add("emd_ge_closed_form", f"k={k};n={n}", value, bound, ">= (-1e-9)",
                   value >= bound - 1e-9)
    return result


def suite_prop_lb(seed: int = 0) -> SuiteResult:
    """Proportional-rule hardness: block-confinement probabilities and the
    resulting sensitivity, exact enumeration, delta = 1/(8nk).

    Cap: at n = 16 the two supports are ~12870 x 6435 sets, so the
    sensitivity row there uses the exact inclusion-probability lower bound
    on the EMD (sound for a >= threshold) instead of the full solve; the
    n in {8, 12} rows are full EMD.
    """
    result = SuiteResult("prop-lb")
    rule = proportional_greedy_rule()
    for n in (8, 12, 16):
        k = n // 2
        delta = 1.0 / (8 * n * k)
        oracle = build_function(FunctionSpec("prop_lb", n=n))
        first_block = (1 << (n // 2)) - 1
        d1 = exact_output_distribution(rule, oracle, k)
        p1 = sum(p for m, p in sorted(d1.probs.items()) if m & ~first_block == 0)
        result.add("claim_first_block", f"n={n};k={k};delta={delta!r}", p1,
                   1.0 - delta, ">", p1 > 1.0 - delta)
        d2 = exact_output_distribution(rule, oracle, k, allowed=oracle.full_mask & ~1)
        second_block = ((1 << n) - 1) ^ first_block
        p2 = sum(p for m, p in sorted(d2.probs.items()) if m & ~second_block == 0)
        result.add("claim_second_block", f"n={n};k={k};delta={delta!r}", p2,
                   1.0 - k * delta, ">", p2 > 1.0 - k * delta)
        if n <= 12:
            value, _ = emd(d1, d2)
            result.add("sensitivity_ge_0.9_2k", f"n={n};k={k};emd=full", value,
                       0.9 * 2 * k, ">=", value >= 0.9 * 2 * k)
        else:
            value = inclusion_probability_lower_bound(d1, d2)
            result.add("sensitivity_ge_0.9_2k", f"n={n};k={k};emd=inclusion_lb",
                       value, 0.9 * 2 * k, ">=", value >= 0.9 * 2 * k)
    return result


def random_coverage_instance(n: int, seed: int, universe: int = 16) -> ValueOracle:
    """Random weighted-coverage plus modular mixture; monotone submodular."""
    rng = derive_rng(seed, 0xC07)
    covers = [int(rng.integers(0, 1 << universe)) for _ in range(n)]
    item_w = rng.uniform(0.2, 1.0, size=universe).tolist()
    unit_w = rng.uniform(0.0, 0.4, size=n).tolist()

    def fn(mask: int) -> float:
        covered = 0
        m = mask
        total = 0.0
        while m:
            b = m & -m
            e = b.bit_length() - 1
            covered |= covers[e]
            total += unit_w[e]
            m ^= b
        cm = covered
        while cm:
            cb = cm & -cm
            total += item_w[cb.bit_length() - 1]
            cm ^= cb
        return total

    return ValueOracle(n, fn, name=f"[coverage,n={n},seed={seed}]")


def _exhaustive_opt(oracle: ValueOracle, k: int) -> float:
    best = 0.0
    for combo in itertools.combinations(range(oracle.n), k):
        best = max(best, oracle.value(mask_of(combo)))
    return best


def suite_prop_approx(seed: int = 0) -> SuiteResult:
    """Proportional greedy approximation factor 1 - e^{-c/(1-c)} at k = c n,
    on 20 random coverage+modular instances, against exhaustive OPT."""
    result = SuiteResult("prop-approx")
    rule = proportional_greedy_rule()
    n = 10
    idx = 0
    for c in (0.3, 0.5):
        k = round(c * n)
        factor = bound_prop_greedy_approx(c)
        for _ in range(10):
            oracle = random_coverage_instance(n, seed=1000 + idx)
            idx += 1
            dist = exact_output_distribution(rule, oracle, k)
            expected = dist.expected_value(oracle)
            opt = _exhaustive_opt(oracle, k)
            result.add("expected_ge_factor_opt",
                       f"c={c:g};k={k};instance={idx};opt={opt!r}",
                       expected, factor * opt, ">= (-1e-9)",
                       expected >= factor * opt - 1e-9)
    return result


# (family, n, k, curvature grid); None sweeps the family's own fixed curvature
_PROP_UB_GRID = [
    ("modular", 10, 4, (None,)),
    ("prop_lb", 12, 2, (None,)),
    ("prop_lb", 12, 5, (None,)),
    ("randgreedy_lb", 12, 2, (None,)),
    ("curvature_det_lb", 9, 4, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("curvature_rand_lb", 9, 2, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("large_element", 10, 4, (None,)),
    ("near_equality", 10, 4, (0.25, 0.5, 0.75, 1.0)),
    ("greedi_lb", 10, 4, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("framework_lb", 10, 3, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("appendixD_lb", 9, 2, (0.25, 0.5, 0.75, 1.0)),
    ("avg_prop_lb", 10, 4, (None,)),
    ("avg_randgreedy_lb", 10, 4, (None,)),
    ("avg_curvature_lb", 10, 4, (0.25, 0.5, 0.75, 1.0)),
    ("avg_greedi_lb", 10, 4, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("avg_framework_lb", 10, 4, (0.0, 0.25, 0.5, 0.75, 1.0)),
]


def _prop_ub_spec(family: str, n: int, k: int, c) -> FunctionSpec:
    if family == "modular":
        return FunctionSpec("modular", n=n, weights=tuple(float(n - i) for i in range(n)))
    if family == "near_equality":
        return FunctionSpec("near_equality", n=n, c=c, i_max=k)
    if family in ("prop_lb", "greedi_lb", "appendixD_lb"):
        return FunctionSpec(family, n=n, c=c)
    return FunctionSpec(family, n=n, k=k, c=c)


def suite_prop_ub(seed: int = 0) -> SuiteResult:
    """Proportional greedy worst-case sensitivity against the closed-form
    upper bound ((1-sqrt(1-c))^2/c)(k-1)+2 at the measured curvature.

    The separation-cascade families (prop_lb, avg_prop_lb) exceed the bound:
    their measured sensitivity approaches 2k while the bound is k+1 at c=1,
    matching the proportional-rule lower-bound construction.  Those rows
    report FAIL; the suite surfaces the discrepancy rather than hiding it.
    """
    result = SuiteResult("prop-ub")
    rule = proportional_greedy_rule()
    for family, n, k, cs in _PROP_UB_GRID:
        for c in cs:
            spec = _prop_ub_spec(family, n, k, c)
            try:
                oracle = build_function(spec)
            except ValueError:
                continue   # grid point invalid for that family (e.g. c=0 spacing)
            c_meas = curvature(oracle)
            report = worst_case_sensitivity(rule, oracle, k, p_min=1e-13,
                                            alg_name="proportional")
            bound = bound_prop_greedy_sensitivity(c_meas, k)
            params = f"family={family};n={oracle.n};k={k};c_param={'-' if c is None else c};c={c_meas!r}"
            result.add("wc_le_upper_bound", params, report.worst_case,
                       bound, "<= (+1e-6)", report.worst_case <= bound + 1e-6)
    return result


def suite_appendixd_lb(seed: int = 7) -> SuiteResult:
    """Tight lower-bound instance: sensitivity trend over n and the
    selection-probability bounds for the two weight classes."""
    result = SuiteResult("appendixd-lb")
    rule = proportional_greedy_rule()
    c, k = 0.75, 2
    lb = bound_prop_greedy_sensitivity_lb(c, k)
    values = []
    for n in (12, 24):
        oracle = build_function(FunctionSpec("appendixD_lb", n=n, c=c))
        report = worst_case_sensitivity(rule, oracle, k, alg_name="proportional")
        values.append(report.worst_case)
        result.add("exact_sensitivity", f"n={n};k={k};c={c}", report.worst_case,
                   0.0, ">=", report.worst_case >= 0.0)
    oracle = build_function(FunctionSpec("appendixD_lb", n=48, c=c))
    report = worst_case_sensitivity(rule, oracle, k, mode="sampled",
                                    trials=100_000, seed=seed, elements=[0],
                                    bootstrap=200, alg_name="proportional")
    values.append(report.worst_case)
    result.add("sampled_sensitivity_n48",
               f"n=48;k={k};c={c};trials=100000;halfwidth={report.per_element[0].bootstrap_halfwidth!r}",
               report.worst_case, 0.0, ">=", report.worst_case >= 0.0)
    monotone = all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))
    result.add("trend_non_decreasing", f"values={values!r}", "monotone" if monotone else "dips",
               "monotone", "==", monotone)
    result.add("reaches_0.6_lower_bound", f"largest_n=48", values[-1], 0.6 * lb, ">=",
               values[-1] >= 0.6 * lb)
    # forced-heavy-element selection probabilities vs the closed-form bounds
    n = 12
    oracle = build_function(FunctionSpec("appendixD_lb", n=n, c=c))
    dist = exact_output_distribution(rule, oracle, k, start_mask=1)
    incl = dist.inclusion_probabilities()
    n_a = oracle.meta["n_a"]
    p_a = min(incl[e] for e in range(1, 1 + n_a))
    p_b = max(incl[e] for e in range(1 + n_a, n + 1))
    pa_lb, pb_ub = bound_pA_pB(k, n, c)
    result.add("p_A_lower_bound", f"n={n};k={k};c={c}", float(p_a), pa_lb, ">=", p_a >= pa_lb)
    result.add("p_B_upper_bound", f"n={n};k={k};c={c}", float(p_b), pb_ub, "<=", p_b <= pb_ub)
    return result


def _simple_transport_bruteforce(a, b, cost):
    """Vertex enumeration over the transportation polytope (suite-local
    cross-check; the pytest oracle is an independent implementation)."""
    r, c = len(a), len(b)
    cells = [(i, j) for i in range(r) for j in range(c)]
    best = None
    for arcs in itertools.combinations(cells, r + c - 1):
        flows = {}
        rows = {i: [arc for arc in arcs if arc[0] == i] for i in range(r)}
        cols = {j: [arc for arc in arcs if arc[1] == j] for j in range(c)}
        if any(not v for v in rows.values()) or any(not v for v in cols.values()):
            continue
        supply = {("r", i): a[i] for i in range(r)}
        supply.update({("c", j): b[j] for j in range(c)})
        incident = {("r", i): list(v) for i, v in rows.items()}
        incident.update({("c", j): list(v) for j, v in cols.items()})
        live = set(arcs)
        ok = True
        while live:
            leaf = next((node for node, lst in incident.items() if len(lst) == 1), None)
            if leaf is None:
                ok = False
                break
            (i, j) = incident[leaf][0]
            f = supply[leaf]
            flows[(i, j)] = f
            supply[("r", i)] -= f
            supply[("c", j)] -= f
            live.discard((i, j))
            del incident[leaf]
            other = ("c", j) if leaf[0] == "r" else ("r", i)
            incident[other] = [arc for arc in incident[other] if arc != (i, j)]
            if not incident[other]:
                if live:
                    ok = False
                    break
                del incident[other]
        if not ok or not flows or min(flows.values()) < -1e-12:
            continue
        value = sum(f * cost[i][j] for (i, j), f in flows.items())
        if best is None or value < best:
            best = value
    return best


def _random_subset_distribution(rng, n, k, support) -> OutputDistribution:
    masks = set()
    while len(masks) < support:
        ids = rng.choice(n, size=k, replace=False)
        masks.add(int(sum(1 << int(e) for e in ids)))
    probs = rng.random(len(masks))
    probs = probs / probs.sum()
    return OutputDistribution(n, k, dict(zip(sorted(masks), probs.tolist())))


def suite_emd_solver(seed: int = 0) -> SuiteResult:
    """Solver correctness: brute-force agreement on small instances, metric
    axioms, and the inclusion-probability lower bound."""
    result = SuiteResult("emd-solver")
    rng = derive_rng(seed, 0xE3D)
    n, k = 6, 3
    worst = 0.0
    for _ in range(100):
        d1 = _random_subset_distribution(rng, n, k, int(rng.integers(1, 5)))
        d2 = _random_subset_distribution(rng, n, k, int(rng.integers(1, 5)))
        value, plan = emd(d1, d2)
        ref = _simple_transport_bruteforce(
            [d1.probs[m] for m in d1.support()],
            [d2.probs[m] for m in d2.support()],
            [[sym_diff_cost(s, t) for t in d2.support()] for s in d1.support()])
        worst = max(worst, abs(value - ref))
    result.add("vertex_enumeration_agreement", "100_instances_le_4x4", worst,
               1e-9, "<=", worst <= 1e-9)
    axiom_bad = 0
    incl_bad = 0
    for _ in range(100):
        d1, d2, d3 = (_random_subset_distribution(rng, n, k, int(rng.integers(1, 6)))
                      for _ in range(3))
        e12 = emd(d1, d2)[0]
        e21 = emd(d2, d1)[0]
        e13 = emd(d1, d3)[0]
        e23 = emd(d2, d3)[0]
        e11 = emd(d1, d1)[0]
        if e11 > 1e-12 or abs(e12 - e21) > 1e-9 or e13 > e12 + e23 + 1e-9:
            axiom_bad += 1
        if inclusion_probability_lower_bound(d1, d2) > e12 + 1e-9:
            incl_bad += 1
    result.add("metric_axioms", "100_random_triples", f"{axiom_bad}_violations",
               "0_violations", "==", axiom_bad == 0)
    result.add("inclusion_lb_le_emd", "100_random_pairs", f"{incl_bad}_violations",
               "0_violations", "==", incl_bad == 0)
    return result


def suite_greedi_lb(seed: int = 0) -> SuiteResult:
    """Distributed greedy hardness: sampled sensitivity of the two-phase
    distributed greedy on its hard instance grows with n and reaches 0.8 k.

    Deleting the heavy element is the analytical witness; the scan covers
    that element only (a lower bound on the max over all deletions).
    """
    result = SuiteResult("greedi-lb")
    k, m, c, trials = 4, 8, 0.5, 2000
    values = []
    for n in (256, 1024, 4096):
        oracle = build_function(FunctionSpec("greedi_lb", n=n, c=c))
        reduced = restrict(oracle, 0)

        def run_full(t, _o=oracle):
            return greedi(_o, k, m, seed=(seed << 20) + 2 * t)[0]

        def run_reduced(t, _o=reduced):
            return _o.to_original_ids(greedi(_o, k, m, seed=(seed << 20) + 2 * t + 1)[0])

        from .distsim import sampled_distribution
        d1 = sampled_distribution(run_full, trials, oracle.n, k)
        d2 = sampled_distribution(run_reduced, trials, oracle.n, k)
        value, _ = emd(d1, d2)
        values.append(value)
        result.add("sampled_sensitivity", f"n={n};k={k};m={m};c={c};trials={trials}",
                   value, 0.0, ">=", value >= 0.0)
    monotone = all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))
    result.add("trend_non_decreasing", f"values={values!r}",
               "monotone" if monotone else "dips", "monotone", "==", monotone)
    result.add("largest_n_ge_0.8k", f"n=4096;k={k}", values[-1], 0.8 * k, ">=",
               values[-1] >= 0.8 * k)
    return result


def suite_framework_lb(seed: int = 0) -> SuiteResult:
    """Pool-growing framework on its hard instance: the first-round pool
    captures every heavy element in at least 99% of seeds."""
    result = SuiteResult("framework-lb")
    n, k, c = 1024, 4, 0.5
    cfg = MpcConfig(machines=8, groups=2, rounds=3)
    oracle = build_function(FunctionSpec("framework_lb", n=n, k=k, c=c))
    heavy = (1 << k) - 1
    seeds = 300
    hits = 0
    for t in range(seeds):
        _, trace = barbosa_framework(oracle, k, cfg, None, seed=(seed << 20) + t)
        round1 = 0
        for row in trace.rows:
            if row.round == 1:
                round1 |= row.solution
        if round1 & heavy == heavy:
            hits += 1
    share = hits / seeds
    result.add("pool_captures_heavy", f"n={n};k={k};g=2;m=8;R=3;seeds={seeds}",
               share, 0.99, ">=", share >= 0.99)
    return result


def suite_avg_sensitivity(seed: int = 0) -> SuiteResult:
    """Average sensitivity trend on the indicator near-equality family with
    deterministic greedy: a single beta > 0 with avg >= beta k^2/n across
    n in {12, 16, 20}, and worst >= average on every report."""
    result = SuiteResult("avg-sensitivity")
    ratios = []
    for n in (12, 16, 20):
        k = n // 2
        oracle = build_function(FunctionSpec("avg_curvature_lb", n=n, k=k, c=0.5))
        report = average_sensitivity(greedy_rule(), oracle, k, alg_name="greedy")
        ratio = report.average * n / (k * k)
        ratios.append(ratio)
        result.add("worst_ge_average", f"n={n};k={k}",
                   report.worst_case, report.average, ">=",
                   report.worst_case >= report.average - 1e-12)
        result.add("avg_ratio", f"n={n};k={k};avg={report.average!r}", ratio, 0.0,
                   ">", ratio > 0.0)
    beta = min(ratios)
    result.add("fitted_beta_positive", f"ratios={ratios!r}", beta, 0.0, ">", beta > 0.0)
    return result


SUITES: dict[str, tuple[str, Callable[[int], SuiteResult]]] = {
    "curvature": ("target-curvature recovery for the curvature families", suite_curvature),
    "structure": ("exhaustive monotone-submodularity checks, all families", suite_structure),
    "detgreedy-lb": ("deterministic greedy hardness instance", suite_detgreedy_lb),
    "randgreedy-lb": ("randomized greedy hardness instance", suite_randgreedy_lb),
    "prop-lb": ("proportional-rule hardness: block claims and sensitivity", suite_prop_lb),
    "prop-approx": ("proportional greedy approximation factor at k = c n", suite_prop_approx),
    "prop-ub": ("proportional greedy sensitivity vs closed-form upper bound", suite_prop_ub),
    "appendixd-lb": ("tight lower-bound instance: trend and p_A/p_B", suite_appendixd_lb),
    "emd-solver": ("EMD solver vs vertex enumeration; metric axioms", suite_emd_solver),
    "greedi-lb": ("distributed greedy sampled sensitivity trend", suite_greedi_lb),
    "framework-lb": ("pool-growing framework heavy-element capture", suite_framework_lb),
    "avg-sensitivity": ("average sensitivity trend, k = n/2", suite_avg_sensitivity),
}


def run_suite(suite_id: str, outdir: Optional[str] = None, seed: int = 0) -> SuiteResult:
    if suite_id not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite_id!r}; known: {', '.join(sorted(SUITES))}")
    _, runner = SUITES[suite_id]
    result = runner(seed)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"{suite_id}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write(result.to_csv())
    return result


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    rows = run_experiment(cfg)
    text = "\n".join(rows) + "\n"
    if cfg.output:
        with open(cfg.output, "w", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_reproduce(args) -> int:
    result = run_suite(args.suite, outdir=args.outdir, seed=args.seed)
    result.print_lines()
    return 0


def _cmd_emd(args) -> int:
    with open(args.file1) as fh:
        text1 = fh.read()
    with open(args.file2) as fh:
        text2 = fh.read()
    d1 = OutputDistribution.from_csv(text1, n=args.n)
    d2 = OutputDistribution.from_csv(text2, n=args.n)
    for d in (d1, d2):
        if any(mask >> args.n for mask in d.probs):
            raise ConfigParseError("distribution support exceeds declared ground size")
        d.validate()
    value, plan = emd(d1, d2)
    print(f"emd = {value!r}")
    print(f"support = {len(plan.sources)}x{len(plan.targets)}, "
          f"reduced = {plan.reduced_rows}x{plan.reduced_cols}, "
          f"pivots = {plan.pivots} ({plan.bland_pivots} under Bland's rule), "
          f"mass_gap = {plan.mass_gap!r}")
    print(f"certificate: reduced_cost = {plan.max_negative_reduced_cost!r}, "
          f"marginal = {plan.max_marginal_residual!r}, "
          f"slackness = {plan.max_slackness_violation!r}")
    if args.plan:
        with open(args.plan, "w", newline="\n") as fh:
            fh.write(plan.to_csv())
    return 0


def _cmd_list_suites(args) -> int:
    for suite_id in sorted(SUITES):
        print(f"{suite_id}: {SUITES[suite_id][0]}")
    return 0


def _cmd_check_function(args) -> int:
    parser = configparser.ConfigParser()
    if not parser.read(args.config) or "function" not in parser:
        raise ConfigParseError(f"cannot read [function] from {args.config!r}")
    spec = FunctionSpec.from_mapping(dict(parser["function"]))
    oracle = build_function(spec)
    mode = "exhaustive" if oracle.n <= 16 else "sampled"
    report = check_monotone_submodular(oracle, mode=mode)
    print(report.summary())
    for v in report.violations[:10]:
        print(f"  {v.kind}: S={v.base:#x} e={v.element} ctx={v.context} gap={v.gap!r}")
    try:
        print(f"curvature = {curvature(oracle)!r}")
    except Exception as exc:
        print(f"curvature not defined: {exc}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subsens",
        description="sensitivity experiments for submodular maximization")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a fixed reproduction suite")
    p_rep.add_argument("suite")
    p_rep.add_argument("--outdir", default=None)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.set_defaults(fn=_cmd_reproduce)

    p_emd = sub.add_parser("emd", help="EMD between two distribution CSVs")
    p_emd.add_argument("file1")
    p_emd.add_argument("file2")
    p_emd.add_argument("--n", type=int, required=True, help="ground-set size")
    p_emd.add_argument("--plan", default=None, help="write the transport plan CSV here")
    p_emd.set_defaults(fn=_cmd_emd)

    p_ls = sub.add_parser("list-suites", help="list reproduction suites")
    p_ls.set_defaults(fn=_cmd_list_suites)

    p_chk = sub.add_parser("check-function", help="structural checks for a [function] config")
    p_chk.add_argument("config")
    p_chk.set_defaults(fn=_cmd_check_function)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigParseError, UnknownSuiteError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NodeBudgetExceededError, SupportCapExceededError, PoolOverflowError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
