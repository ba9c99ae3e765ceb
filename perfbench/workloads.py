"""The benchmark's four workloads.

Each workload builds its instances from the seed (set-up), lists the
operations of one pass, and checks the results of a pass against the
independent code in ``reference.py``.  Operations call subsens through its
module attributes at call time, so the tracer's wrappers see every call.
Family constants used by the checks (blocks, OPT, alpha) are transcribed
from the families' definitions rather than read from the oracles.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import reference as ref
import subsens.algorithms as algorithms
import subsens.distributions as distributions
import subsens.distsim as distsim
import subsens.oracle as oracle_mod
import subsens.sensitivity as sensitivity
import subsens.transport as transport
from subsens.oracle import FunctionSpec, build_function


class Checks:
    """Collects named pass/fail results."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = ""):
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def _mask(ids) -> int:
    return sum(1 << e for e in ids)


def _full(n: int) -> int:
    return (1 << n) - 1


def _split(blocks: list[int], e: int) -> list[int]:
    """Blocks refined by the stabilizer of e: e becomes its own block."""
    bit = 1 << e
    return [b & ~bit for b in blocks if b & ~bit] + [bit]


def _check_plan(checks: Checks, label: str, p: dict, q: dict, value: float, plan):
    problems = ref.certificate_violations(p, q, plan, value)
    checks(f"{label}: duality certificate", not problems, "; ".join(problems))


def _check_emd_bounds(checks: Checks, label: str, value: float, p: dict, q: dict,
                      n: int, k: int, slack: float = 1e-9):
    """2 TV <= EMD <= 2k TV and EMD >= sum_e |P(e in S) - Q(e in S)|."""
    tv = ref.tv(p, q)
    incl = ref.inclusion_bound(p, q, n)
    checks(f"{label}: 2TV <= EMD", 2 * tv <= value + slack, f"2TV={2 * tv!r} EMD={value!r}")
    checks(f"{label}: EMD <= 2k TV", value <= 2 * k * tv + slack,
           f"EMD={value!r} 2kTV={2 * k * tv!r}")
    checks(f"{label}: EMD >= inclusion bound", value >= incl - slack,
           f"EMD={value!r} bound={incl!r}")
    return incl


def _as_distribution(n: int, k: int, probs: dict, **kw):
    return distributions.OutputDistribution(n, k, dict(probs), **kw)


class Workload:
    name = ""
    rules: list = []
    # operation name -> exception class name it is known to fail with
    known_failures: dict[str, str] = {}

    def operations(self) -> list:
        """[(name, callable(results_so_far) -> result)] for one pass."""
        raise NotImplementedError

    def check(self, results: dict, checks: Checks):
        """Check every result present; failed operations have none."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ExactScan(Workload):
    """Exact worst-case scans with proportional greedy; transport-bound."""

    name = "exact-scan"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        weights = tuple(float(w) for w in rng.choice(np.arange(1, 1001), size=10, replace=False))
        self.rule = algorithms.proportional_greedy_rule()
        self.rules = [self.rule]
        # greedi_lb: {e_1}, e_2..e_{n/2}, e_{n/2+1}..e_n
        greedi_blocks = [1, _mask(range(1, 5)), _mask(range(5, 10))]
        # appendixD_lb: {e*}, A = (1-alpha) n ids, B = alpha n ids
        alpha = (1 - math.sqrt(1 - 0.75)) / 0.75
        n_a = 24 - round(alpha * 24)
        appd_blocks = [1, _mask(range(1, 1 + n_a)), _mask(range(1 + n_a, 25))]
        self.cases = [
            ("greedi_lb n=10 k=4", build_function(FunctionSpec("greedi_lb", n=10, c=0.5)),
             4, greedi_blocks),
            ("appendixD_lb n=24 k=2", build_function(FunctionSpec("appendixD_lb", n=24, c=0.75)),
             2, appd_blocks),
            ("modular n=10 k=4", build_function(FunctionSpec("modular", n=10, weights=weights)),
             4, None),
        ]

    def operations(self):
        def scan(f, k):
            return lambda _: sensitivity.worst_case_sensitivity(self.rule, f, k,
                                                                alg_name="proportional")
        return [(label, scan(f, k)) for label, f, k, _ in self.cases]

    def check(self, results, checks):
        for label, f, k, blocks in self.cases:
            if label not in results:
                continue
            report = results[label]
            n = f.n
            checks(f"{label}: every element scanned",
                   [r.element for r in report.per_element] == list(range(n)))
            base, _ = ref.enumerate_proportional(f, k)
            checks(f"{label}: reference mass", abs(ref.total_mass(base) - 1) <= 1e-9)
            if blocks:
                gap = ref.invariance_gap(base, blocks)
                checks(f"{label}: base distribution block-invariant", gap <= 1e-12, f"gap={gap!r}")
            worst = max(report.per_element, key=lambda r: r.emd)
            for r in report.per_element:
                tag = f"{label} del {r.element}"
                deleted, _ = ref.enumerate_proportional(f, k, _full(n) & ~(1 << r.element))
                incl = _check_emd_bounds(checks, tag, r.emd, base, deleted, n, k)
                checks(f"{tag}: inclusion bound", abs(incl - r.inclusion_lb) <= 1e-9,
                       f"reference {incl!r} vs {r.inclusion_lb!r}")
                if blocks:
                    refined = _split(blocks, r.element)
                    gap = ref.invariance_gap(deleted, refined)
                    checks(f"{tag}: deletion block-invariant", gap <= 1e-12, f"gap={gap!r}")
                    exact = ref.lumped_emd(base, deleted, refined)
                    checks(f"{tag}: EMD equals orbit-lumped EMD", abs(exact - r.emd) <= 1e-7,
                           f"lumped {exact!r} vs {r.emd!r}")
                if r is worst:
                    value, plan = transport.emd(_as_distribution(n, k, base),
                                                _as_distribution(n, k, deleted))
                    _check_plan(checks, tag, base, deleted, value, plan)
                    checks(f"{tag}: re-solve matches scan", abs(value - r.emd) <= 1e-9,
                           f"{value!r} vs {r.emd!r}")


# ---------------------------------------------------------------------------


class ExactDP(Workload):
    """Exact distributions whose cost is the level DP and the oracle."""

    name = "exact-dp"
    PRUNED_SCAN = "prop_lb n=16 k=8 scan p_min=1e-9"
    known_failures = {PRUNED_SCAN: "InfeasibleMarginalsError"}
    P_MIN = 1e-13

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.prop = algorithms.proportional_greedy_rule()
        self.greedy = algorithms.greedy_rule()
        self.rules = [self.prop, self.greedy]
        # cascade ratio at or above the family default 8 n^2: a larger ratio
        # only strengthens the block-confinement claims, the DP shape is fixed
        self.claims = []
        for n in (16, 14):
            ratio = 8 * n * n + int(rng.integers(0, 8 * n * n))
            self.claims.append((f"prop_lb n={n} k={n // 2} claims", n,
                                build_function(FunctionSpec("prop_lb", n=n, ratio=ratio))))
        # the criterion-7 scans of the proportional upper-bound suite
        self.crit7 = [
            ("prop_lb n=12 k=2 scan p_min=1e-13", build_function(FunctionSpec("prop_lb", n=12)), 2),
            ("prop_lb n=12 k=5 scan p_min=1e-13", build_function(FunctionSpec("prop_lb", n=12)), 5),
            ("avg_prop_lb n=10 k=4 scan p_min=1e-13",
             build_function(FunctionSpec("avg_prop_lb", n=10, k=4)), 4),
        ]
        c = 0.4 + 0.2 * float(rng.random())
        self.averages = [
            (f"avg_curvature_lb n={n} k={n // 2} average", n // 2,
             build_function(FunctionSpec("avg_curvature_lb", n=n, k=n // 2, c=c)))
            for n in (12, 16, 20)]
        self.pruned = build_function(FunctionSpec("prop_lb", n=16))

    def operations(self):
        def claims(f, k):
            def op(_):
                d1 = distributions.exact_output_distribution(self.prop, f, k)
                reduced = oracle_mod.restrict(f, 0)
                d2 = distributions.exact_output_distribution(self.prop, reduced, k)
                d2 = d2.remapped(reduced.index_map, f.n)
                return d1, d2, transport.inclusion_probability_lower_bound(d1, d2)
            return op

        def scan(f, k, p_min):
            return lambda _: sensitivity.worst_case_sensitivity(
                self.prop, f, k, p_min=p_min, alg_name="proportional")

        def average(f, k):
            return lambda _: sensitivity.average_sensitivity(self.greedy, f, k, alg_name="greedy")

        ops = [(label, claims(f, n // 2)) for label, n, f in self.claims]
        ops += [(label, scan(f, k, self.P_MIN)) for label, f, k in self.crit7]
        ops += [(label, average(f, k)) for label, k, f in self.averages]
        ops.append((self.PRUNED_SCAN, scan(self.pruned, 8, 1e-9)))
        return ops

    def check(self, results, checks):
        for label, n, _ in self.claims:
            if label in results:
                self._check_claims(checks, label, n, results[label])
        for label, f, k in self.crit7:
            if label in results:
                self._check_pruned_scan(checks, label, f, k, results[label])
        for label, k, f in self.averages:
            if label in results:
                self._check_average(checks, label, f, k, results[label])
        if self.PRUNED_SCAN in results:
            # the scan fails today; once mended its result must still be sound
            report = results[self.PRUNED_SCAN]
            checks(f"{self.PRUNED_SCAN}: values within [0, 2k]",
                   all(0 <= r.emd <= 16 + 1e-9 for r in report.per_element))
            checks(f"{self.PRUNED_SCAN}: worst case >= 0.9 * 2k", report.worst_case >= 0.9 * 16,
                   f"{report.worst_case!r}")

    @staticmethod
    def _check_claims(checks, label, n, result):
        d1, d2, incl = result
        k = n // 2
        delta = 1.0 / (8 * n * k)
        first = _full(n // 2)
        second = _full(n) ^ first
        for tag, d in (("base", d1), ("witness", d2)):
            mass = ref.total_mass(d.probs)
            checks(f"{label} {tag}: mass 1", abs(mass - 1) <= 1e-9, f"{mass!r}")
            checks(f"{label} {tag}: sets of size k",
                   all(ref.popcount(m) == k for m in d.probs))
        checks(f"{label}: deleted element absent", all(not m & 1 for m in d2.probs))
        p1 = math.fsum(p for m, p in d1.probs.items() if not m & ~first)
        p2 = math.fsum(p for m, p in d2.probs.items() if not m & ~second)
        checks(f"{label}: p1 > 1 - delta", p1 > 1 - delta, f"p1={p1!r}")
        checks(f"{label}: p2 > 1 - k delta", p2 > 1 - k * delta, f"p2={p2!r}")
        own = ref.inclusion_bound(d1.probs, d2.probs, n)
        checks(f"{label}: inclusion bound", abs(own - incl) <= 1e-9, f"{own!r} vs {incl!r}")
        floor = 2 * k * (1 - (k + 1) * delta)
        checks(f"{label}: inclusion bound >= 2k(1-(k+1)delta)", own >= floor,
               f"{own!r} < {floor!r}")

    def _check_pruned_scan(self, checks, label, f, k, report):
        n = f.n
        checks(f"{label}: every element scanned",
               [r.element for r in report.per_element] == list(range(n)))
        base, lost_base = ref.enumerate_proportional(f, k, p_min=self.P_MIN)
        worst = max(report.per_element, key=lambda r: r.emd)
        for r in report.per_element:
            tag = f"{label} del {r.element}"
            deleted, lost = ref.enumerate_proportional(f, k, _full(n) & ~(1 << r.element),
                                                       p_min=self.P_MIN)
            # path pruning drops at least the mass the set-level DP drops, so
            # both pairs lie within lost_base + lost of the unpruned pair
            slack = 4 * k * (lost_base + lost) + 1e-9
            _check_emd_bounds(checks, tag, r.emd, base, deleted, n, k, slack)
            if r is worst and math.perm(n, k) <= 10_000:
                # certificate on the unpruned pair, where ordered enumeration is cheap
                full_base, _ = ref.enumerate_proportional(f, k)
                full_del, _ = ref.enumerate_proportional(f, k, _full(n) & ~(1 << r.element))
                value, plan = transport.emd(_as_distribution(n, k, full_base),
                                            _as_distribution(n, k, full_del))
                _check_plan(checks, tag, full_base, full_del, value, plan)
                checks(f"{tag}: unpruned re-solve near scan", abs(value - r.emd) <= slack,
                       f"{value!r} vs {r.emd!r}")

    @staticmethod
    def _check_average(checks, label, f, k, report):
        n = f.n
        chosen = ref.greedy(f, k)
        distances = []
        for r in report.per_element:
            d = ref.popcount(chosen ^ ref.greedy(f, k, _full(n) & ~(1 << r.element)))
            distances.append(d)
            checks(f"{label} del {r.element}: EMD of point masses", r.emd == d,
                   f"{r.emd!r} vs {d}")
        checks(f"{label}: every element scanned", len(distances) == n)
        mean = sum(distances) / n
        checks(f"{label}: average", abs(report.average - mean) <= 1e-12,
               f"{report.average!r} vs {mean!r}")


# ---------------------------------------------------------------------------


class Sampled(Workload):
    """Sampled witness scans with bootstrap half-widths."""

    name = "sampled"
    SCANS = 12
    TRIALS = 250
    BOOTSTRAP = 10
    N, K, C = 48, 2, 0.75

    def __init__(self, seed: int):
        # independent sub-seeds: one scan's EMD pivot count varies with its
        # sample, so a pass averages over several samples
        self.seeds = [(seed << 8) + j for j in range(self.SCANS)]
        self.rule = algorithms.proportional_greedy_rule()
        self.rules = [self.rule]
        self.f = build_function(FunctionSpec("appendixD_lb", n=self.N, c=self.C))

    @staticmethod
    def label(sub_seed: int) -> str:
        return f"appendixD_lb n=48 k=2 sampled scan of e*, seed {sub_seed}"

    def operations(self):
        def scan(sub_seed):
            return lambda _: sensitivity.worst_case_sensitivity(
                self.rule, self.f, self.K, mode="sampled", trials=self.TRIALS, seed=sub_seed,
                elements=[0], bootstrap=self.BOOTSTRAP, alg_name="proportional")
        return [(self.label(s), scan(s)) for s in self.seeds]

    def check(self, results, checks):
        f, k, trials = self.f, self.K, self.TRIALS
        label = "appendixD_lb n=48 k=2 sampled"
        n = f.n
        alpha = (1 - math.sqrt(1 - self.C)) / self.C
        n_a = self.N - round(alpha * self.N)
        blocks = [1, _mask(range(1, 1 + n_a)), _mask(range(1 + n_a, n))]
        base = ref.proportional_k2(f)
        deleted = ref.proportional_k2(f, _full(n) & ~1)
        for tag, d in (("base", base), ("deletion", deleted)):
            gap = ref.invariance_gap(d, blocks)
            checks(f"{label}: reference {tag} block-invariant", gap <= 1e-12, f"gap={gap!r}")
        exact = ref.lumped_emd(base, deleted, blocks)
        values, halves = [], []
        for sub_seed in self.seeds:
            tag = self.label(sub_seed)
            if tag not in results:
                continue
            (r,) = results[tag].per_element
            checks(f"{tag}: witness and trials", r.element == 0 and r.trials == trials)
            checks(f"{tag}: bootstrap half-width positive",
                   r.bootstrap_halfwidth is not None and r.bootstrap_halfwidth > 0)
            checks(f"{tag}: EMD is a multiple of 1/trials",
                   abs(r.emd * trials - round(r.emd * trials)) <= 1e-6, f"{r.emd!r}")
            checks(f"{tag}: inclusion bound <= EMD", r.inclusion_lb <= r.emd + 1e-9)
            values.append(r.emd)
            halves.append(r.bootstrap_halfwidth or 0.0)
        # the scans are independent: their mean has standard error of about
        # h / (1.96 sqrt(scans)); the plug-in EMD is biased upward, by about
        # one half-width at 250 trials (see README), and 2 h is allowed for it
        if not values:
            return
        half = statistics.median(halves)
        mean = statistics.fmean(values)
        spread = 3 * half / math.sqrt(len(values))
        checks(f"{label}: mean of {len(values)} scans near the exact EMD",
               exact - spread <= mean <= exact + 2 * half + spread,
               f"mean {mean!r} exact {exact!r} half-width {half!r}")
        # certificate of a solve on empirical measures drawn from the reference
        rng = np.random.default_rng(self.seeds)
        empirical = []
        for d in (base, deleted):
            sets = sorted(d)
            counts = rng.multinomial(trials, np.array([d[m] for m in sets]) / ref.total_mass(d))
            empirical.append({m: c / trials for m, c in zip(sets, counts) if c})
        p, q = empirical
        value, plan = transport.emd(
            _as_distribution(n, k, p, mode="empirical", trials=trials),
            _as_distribution(n, k, q, mode="empirical", trials=trials))
        _check_plan(checks, f"{label} empirical re-solve", p, q, value, plan)
        _check_emd_bounds(checks, f"{label} empirical re-solve", value, p, q, n, k)


# ---------------------------------------------------------------------------


class Distributed(Workload):
    """Sampled GreeDi distributions and pool-growing framework runs."""

    name = "distributed"
    N, K, M, C = 1024, 4, 8, 0.5
    TRIALS = 100
    FRAMEWORK_RUNS = 20
    SENSITIVITY = "greedi sensitivity to deleting e_1"

    def __init__(self, seed: int):
        self.base_seed = seed << 20
        self.g = build_function(FunctionSpec("greedi_lb", n=self.N, c=self.C))
        self.g_del = oracle_mod.restrict(self.g, 0)
        self.fw = build_function(FunctionSpec("framework_lb", n=self.N, k=self.K, c=self.C))
        self.cfg = distsim.MpcConfig(machines=8, groups=2, rounds=3)
        self.rules = []

    def _full_run(self, t):
        return distsim.greedi(self.g, self.K, self.M, seed=self.base_seed + 2 * t)[0]

    def _deleted_run(self, t):
        mask = distsim.greedi(self.g_del, self.K, self.M, seed=self.base_seed + 2 * t + 1)[0]
        return self.g_del.to_original_ids(mask)

    def operations(self):
        def sensitivity_of_e1(_):
            d1 = distsim.sampled_distribution(self._full_run, self.TRIALS, self.N, self.K)
            d2 = distsim.sampled_distribution(self._deleted_run, self.TRIALS, self.N, self.K)
            return (d1, d2) + transport.emd(d1, d2)

        ops = [(self.SENSITIVITY, sensitivity_of_e1)]
        for t in range(self.FRAMEWORK_RUNS):
            ops.append((f"framework run {t}",
                        lambda _, t=t: distsim.barbosa_framework(self.fw, self.K, self.cfg, None,
                                                                 seed=self.base_seed + t)))
        return ops

    def check(self, results, checks):
        k = self.K
        if self.SENSITIVITY in results:
            self._check_greedi(checks, results[self.SENSITIVITY])
        heavy = _full(k)
        captured = runs = 0
        for t in range(self.FRAMEWORK_RUNS):
            if f"framework run {t}" not in results:
                continue
            best, trace = results[f"framework run {t}"]
            checks(f"framework run {t}: k elements", ref.popcount(best) == k)
            round1 = 0
            for row in trace.rows:
                if row.round == 1:
                    round1 |= row.solution
            captured += (round1 & heavy) == heavy
            runs += 1
        checks("framework: first round captures every heavy element in >= 99% of seeds",
               captured >= 0.99 * runs, f"{captured} of {runs}")

    def _check_greedi(self, checks, result):
        k, m, c, n = self.K, self.M, self.C, self.N
        ratio = (1 - 1 / math.e) / min(m, k)
        # OPT of greedi_lb: e_1 (weight C = 16 n) plus k-1 tail elements of
        # weight 1 - c/2; without e_1, k mid elements of weight 1
        opt = 16 * n + (k - 1) * (1 - c / 2)
        opt_del = float(k)
        d1, d2, value, plan = result
        for tag, d, best in (("full", d1, opt), ("minus e_1", d2, opt_del)):
            checks(f"greedi {tag}: {self.TRIALS} runs",
                   abs(ref.total_mass(d.probs) - 1) <= 1e-9 and d.trials == self.TRIALS)
            checks(f"greedi {tag}: k elements", all(ref.popcount(s) == k for s in d.probs))
            worst = min(self.g.value(s) for s in d.probs)
            checks(f"greedi {tag}: f >= (1-1/e)/min(m,k) OPT", worst >= ratio * best,
                   f"{worst!r} < {ratio * best!r}")
        checks("greedi minus e_1: e_1 never chosen", all(not s & 1 for s in d2.probs))
        _check_plan(checks, "greedi EMD", d1.probs, d2.probs, value, plan)
        _check_emd_bounds(checks, "greedi EMD", value, d1.probs, d2.probs, n, k)
        for oracle, allowed, tag in ((self.g, _full(n), "full"),
                                     (self.g_del, _full(n) & ~1, "minus e_1")):
            single = distsim.greedi(oracle, k, 1, seed=self.base_seed)[0]
            checks(f"greedi m=1 {tag} equals greedy",
                   oracle.to_original_ids(single) == ref.greedy(self.g, k, allowed))


WORKLOADS = {w.name: w for w in (ExactScan, ExactDP, Sampled, Distributed)}
