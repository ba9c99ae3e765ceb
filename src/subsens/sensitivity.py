"""Worst-case and average sensitivity measurements, plus every closed-form
bound the analysis provides for side-by-side comparison.

Sensitivity of an algorithm on f is the (max or mean over deleted elements
e of the) earth mover's distance between the output distributions on f and
on f with e removed.  f with e removed is run on f itself with the pool
E minus e, so every distribution and EMD is in the original ids and the
deleted element never appears in the deletion run's support.

Deletion orbits: an exact scan whose rule declares ``equivariant = True``
on an oracle with ``blocks`` measures the first scanned member e0 of each
run of the blocks.  Each later scanned member e of the run takes e0's EMD
and e0's deletion distribution relabelled by the order-preserving map from
E minus e0 to E minus e; its inclusion bound is computed on its own.
Non-equivariant rules, ordinal schedules, oracles without blocks and every
sampled scan (each deletion draws its own stream, keyed ``(seed, 1, e)``)
measure each deletion on its own.  Blocks are taken on trust: an oracle
whose declared blocks are not exactly invariant gets wrong orbit values
without any error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algorithms import derive_rng
from .distributions import (Algorithm, OutputDistribution, _sample,
                            exact_output_distribution, DEFAULT_NODE_BUDGET)
from .oracle import InvalidElementError, ValueOracle, ids_of
# unused here; perfbench's tracer wraps ``sensitivity.restrict`` by name
from .oracle import restrict  # noqa: F401
from .transport import emd, inclusion_probability_lower_bound


class DegenerateDError(ValueError):
    """The denominator D = (1-alpha) n + (1-c) alpha n does not exceed k."""


LB_CONSTANT_NOTE = (
    "lower-bound constant implemented as (1-sqrt(1-c))^2/c * k, matching the "
    "derivation it is paired with; the '(1-(1-sqrt(c))^2)/c' rendering "
    "sometimes quoted for it is inconsistent with that derivation")


@dataclass(frozen=True)
class ElementSensitivity:
    element: int
    emd: float
    inclusion_lb: float
    mode: str
    trials: Optional[int] = None
    bootstrap_halfwidth: Optional[float] = None


@dataclass
class SensitivityReport:
    algorithm: str
    function: str
    n: int
    k: int
    mode: str
    per_element: tuple[ElementSensitivity, ...]
    aggregate: str = "worst_case"       # which aggregate the caller asked for
    trials: Optional[int] = None
    bounds: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def worst_case(self) -> float:
        return max(r.emd for r in self.per_element)

    @property
    def worst_element(self) -> int:
        best = max(self.per_element, key=lambda r: (r.emd, -r.element))
        return best.element

    @property
    def average(self) -> float:
        return sum(r.emd for r in self.per_element) / len(self.per_element)

    def validate(self):
        limit = 2 * self.k + 1e-9
        for r in self.per_element:
            if r.emd < -1e-12 or r.emd > limit:
                raise ValueError(f"per-element EMD {r.emd} outside [0, 2k]")
        if self.worst_case < self.average - 1e-12:
            raise ValueError("worst-case below average")
        return self

    def to_csv(self) -> str:
        lines = ["deleted_element,emd,mode,trials"]
        for r in self.per_element:
            lines.append(f"{r.element},{r.emd!r},{r.mode},{r.trials if r.trials else ''}")
        lines.append("")
        lines.append("worst_case,average,bound_ub,bound_lb,pass")
        ub = self.bounds.get("upper")
        lb = self.bounds.get("lower")
        ok = self.bounds.get("pass")
        lines.append(
            f"{self.worst_case!r},{self.average!r},"
            f"{'' if ub is None else repr(ub)},{'' if lb is None else repr(lb)},"
            f"{'' if ok is None else ok}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse_csv(cls, text: str) -> dict:
        """Round-trip helper: per-element values and the summary row."""
        lines = text.splitlines()
        if not lines or lines[0] != "deleted_element,emd,mode,trials":
            raise ValueError("not a SensitivityReport CSV")
        rows = []
        i = 1
        while i < len(lines) and lines[i].strip():
            e, v, mode, trials = lines[i].split(",")
            rows.append((int(e), float(v), mode, int(trials) if trials else None))
            i += 1
        summary = {}
        if i + 1 < len(lines) and lines[i + 1] == "worst_case,average,bound_ub,bound_lb,pass":
            parts = lines[i + 2].split(",") if i + 2 < len(lines) else []
            if len(parts) != 5:
                raise ValueError(f"summary row needs 5 fields, got {len(parts)}")
            summary = {"worst_case": float(parts[0]), "average": float(parts[1]),
                       "bound_ub": float(parts[2]) if parts[2] else None,
                       "bound_lb": float(parts[3]) if parts[3] else None,
                       "pass": parts[4] or None}
        return {"rows": rows, "summary": summary}


def _distribution(alg, oracle, k, mode, trials, key, allowed,
                  p_min, node_budget) -> OutputDistribution:
    if mode == "exact":
        return exact_output_distribution(alg, oracle, k, p_min=p_min,
                                         node_budget=node_budget, allowed=allowed)
    if mode == "sampled":
        if not trials:
            raise ValueError("sampled mode needs trials")
        return _sample(alg, oracle, k, trials, key, allowed)
    raise ValueError(f"unknown mode {mode!r}")


def _bootstrap_halfwidth(d1: OutputDistribution, d2: OutputDistribution,
                         resamples: int, seed_key: tuple) -> Optional[float]:
    """Percentile half-width of the EMD over multinomial resamples."""
    if resamples <= 0 or not d1.trials or not d2.trials:
        return None
    rng = derive_rng(*seed_key, 0xB007)
    s1, s2 = d1.support(), d2.support()
    p1 = np.array([d1.probs[m] for m in s1])
    p2 = np.array([d2.probs[m] for m in s2])
    values = []
    for _ in range(resamples):
        c1 = rng.multinomial(d1.trials, p1 / p1.sum())
        c2 = rng.multinomial(d2.trials, p2 / p2.sum())
        r1 = OutputDistribution(d1.n, d1.k, {m: c / d1.trials for m, c in zip(s1, c1) if c},
                                mode="empirical", trials=d1.trials)
        r2 = OutputDistribution(d2.n, d2.k, {m: c / d2.trials for m, c in zip(s2, c2) if c},
                                mode="empirical", trials=d2.trials)
        values.append(emd(r1, r2)[0])
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float((hi - lo) / 2)


def _sensitivity_scan(alg, oracle, k, mode, seed, trials, elements, p_min,
                      node_budget, bootstrap, aggregate, alg_name) -> SensitivityReport:
    n = oracle.n
    base = _distribution(alg, oracle, k, mode, trials, (seed, 0), None,
                         p_min, node_budget)
    # deleting e or e' of one run leaves functions that differ by a
    # relabelling inside the run, under which an equivariant rule's base
    # distribution is invariant: the run's deletions share one EMD
    run_of = {}
    if mode == "exact" and oracle.blocks and getattr(alg, "equivariant", False):
        run_of = {e: run for run in oracle.blocks for e in ids_of(run)}
    shared = None       # (run, e0, e0's deletion distribution, its EMD)
    results = []
    for e in sorted(range(n) if elements is None else elements):
        run = run_of.get(e)
        if run is not None and shared is not None and shared[0] == run:
            _, e0, d0, value = shared
            # the order-preserving map from E minus e0 to E minus e
            d2 = d0.remapped(tuple(x - (e0 < x <= e) for x in range(n)), n)
        else:
            d2 = _distribution(alg, oracle, k, mode, trials, (seed, 1, e),
                               oracle.full_mask & ~(1 << e), p_min, node_budget)
            value = float(emd(base, d2)[0])
            shared = (run, e, d2, value)
        # not shared: the bound sums in e's own id order, which can move its last bit
        lb = float(inclusion_probability_lower_bound(base, d2))
        half = None
        if mode == "sampled":
            half = _bootstrap_halfwidth(base, d2, bootstrap, (seed, 2, e))
        results.append(ElementSensitivity(e, value, lb, mode,
                                          trials if mode == "sampled" else None, half))
    report = SensitivityReport(
        algorithm=alg_name or getattr(alg, "name", type(alg).__name__),
        function=oracle.name, n=n, k=k, mode=mode,
        per_element=tuple(results), aggregate=aggregate,
        trials=trials if mode == "sampled" else None)
    return report.validate()


def worst_case_sensitivity(alg: Algorithm, oracle: ValueOracle, k: int,
                           mode: str = "exact", seed: int = 0,
                           trials: Optional[int] = None,
                           elements: Optional[Sequence[int]] = None,
                           p_min: float = 0.0,
                           node_budget: int = DEFAULT_NODE_BUDGET,
                           bootstrap: int = 200,
                           alg_name: str = "") -> SensitivityReport:
    """max_e EMD(A(f), A(f minus e)); restrict ``elements`` to scan a known
    witness set (the reported max is then a lower bound on the true max).
    ``elements`` must be nonempty, distinct ids of the ground set."""
    if elements is not None:
        if not elements:
            raise ValueError("elements is empty")
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate elements in {list(elements)}")
        bad = [e for e in elements if not 0 <= e < oracle.n]
        if bad:
            raise InvalidElementError(
                f"elements {bad} outside ground set of size {oracle.n}")
    return _sensitivity_scan(alg, oracle, k, mode, seed, trials, elements,
                             p_min, node_budget, bootstrap, "worst_case", alg_name)


def average_sensitivity(alg: Algorithm, oracle: ValueOracle, k: int,
                        mode: str = "exact", seed: int = 0,
                        trials: Optional[int] = None,
                        p_min: float = 0.0,
                        node_budget: int = DEFAULT_NODE_BUDGET,
                        bootstrap: int = 200,
                        alg_name: str = "") -> SensitivityReport:
    """Uniform average over all deleted elements (never a partial scan)."""
    return _sensitivity_scan(alg, oracle, k, mode, seed, trials, None,
                             p_min, node_budget, bootstrap, "average", alg_name)


# ---------------------------------------------------------------------------
# closed-form bounds


def bound_prop_greedy_sensitivity(c: float, k: int) -> float:
    """((1 - sqrt(1-c))^2 / c) * (k - 1) + 2, continuously extended to 2 at c=0."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"c={c} outside [0, 1]")
    if c == 0.0:
        return 2.0
    return ((1.0 - math.sqrt(1.0 - c)) ** 2 / c) * (k - 1) + 2.0


def bound_prop_greedy_sensitivity_lb(c: float, k: int) -> float:
    """((1 - sqrt(1-c))^2 / c) * k, the eps-free limit of the lower bound."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c={c} outside (0, 1]")
    return ((1.0 - math.sqrt(1.0 - c)) ** 2 / c) * k


def bound_prop_greedy_approx(c: float) -> float:
    """1 - exp(-c / (1 - c)) for c in [0, 1); the c=1 limit (1) is excluded."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c={c} outside [0, 1)")
    return 1.0 - math.exp(-c / (1.0 - c))


def bound_randgreedy_lb(k: int) -> float:
    """2k (1 - 2 ((k-1)/k)^k)."""
    if k < 2:
        raise ValueError(f"k={k} must be >= 2")
    return 2.0 * k * (1.0 - 2.0 * ((k - 1) / k) ** k)


def bound_pA_pB(k: int, n: int, c: float) -> tuple[float, float]:
    """Lower bound on p_A and upper bound on p_B for the heavy-element
    instance: p_A >= k/D (1 - (k-1)/(2(D-k))), p_B <= (1-c) k / (D-k),
    with alpha = (1 - sqrt(1-c))/c and D = (1-alpha) n + (1-c) alpha n
    (equivalently D = n sqrt(1-c)).

    At c = 1 the weight classes degenerate (no unit-class elements, the
    discounted class contributes nothing), so both bounds are returned as 0
    without touching the vanishing denominator.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c={c} outside (0, 1]")
    if c == 1.0:
        return 0.0, 0.0
    alpha = (1.0 - math.sqrt(1.0 - c)) / c
    d = (1.0 - alpha) * n + (1.0 - c) * alpha * n
    if d <= k:
        raise DegenerateDError(f"D={d} <= k={k}")
    p_a = (k / d) * (1.0 - (k - 1) / (2.0 * (d - k)))
    p_b = (1.0 - c) * k / (d - k)
    return p_a, p_b


def attach_bounds(report: SensitivityReport, c: float, k: int) -> SensitivityReport:
    """Record the upper/lower closed-form bounds and a pass flag on a report."""
    upper = bound_prop_greedy_sensitivity(c, k)
    lower = bound_prop_greedy_sensitivity_lb(c, k) if c > 0 else None
    report.bounds = {
        "c": c,
        "upper": upper,
        "lower": lower,
        "pass": "yes" if report.worst_case <= upper + 1e-6 else "no",
    }
    report.notes = report.notes + (LB_CONSTANT_NOTE,)
    return report
