"""Sensitivity reports and the closed-form bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsens import (FunctionSpec, attach_bounds, average_sensitivity,
                     bound_pA_pB, bound_prop_greedy_approx,
                     bound_prop_greedy_sensitivity,
                     bound_prop_greedy_sensitivity_lb, bound_randgreedy_lb,
                     build_function, emd, greedy_rule, ids_of,
                     inclusion_probability_lower_bound,
                     proportional_greedy_rule, randomized_greedy_rule, restrict,
                     sampled_output_distribution, shipped_default_specs,
                     worst_case_sensitivity)
from subsens import sensitivity
from subsens.algorithms import (KOutOfRangeError, OrdinalSchedule, derive_rng,
                                independent_sequential, run_sequential,
                                schedule_step_support)
from subsens.distributions import (_sample as _sampled_with_key,
                                   exact_output_distribution, selection_profile)
from subsens.oracle import InvalidElementError
from subsens.sensitivity import DegenerateDError, SensitivityReport, LB_CONSTANT_NOTE


def modular(*weights):
    return build_function(FunctionSpec("modular", n=len(weights),
                                       weights=tuple(float(w) for w in weights)))


# --- closed-form bounds -----------------------------------------------------


def test_upper_bound_values():
    assert bound_prop_greedy_sensitivity(1.0, 10) == pytest.approx(11.0)
    assert bound_prop_greedy_sensitivity(0.75, 10) == pytest.approx(5.0)
    assert bound_prop_greedy_sensitivity(0.0, 10) == pytest.approx(2.0)
    # Taylor limit near zero: (1 - sqrt(1-c))^2 / c -> c / 4
    assert bound_prop_greedy_sensitivity(1e-9, 10) == pytest.approx(2.0, abs=1e-8)
    with pytest.raises(ValueError):
        bound_prop_greedy_sensitivity(1.5, 3)


def test_lower_bound_values():
    assert bound_prop_greedy_sensitivity_lb(1.0, 8) == pytest.approx(8.0)
    assert bound_prop_greedy_sensitivity_lb(0.75, 9) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        bound_prop_greedy_sensitivity_lb(0.0, 5)


def test_lower_bound_below_upper_bound_on_grid():
    for k in (2, 5, 11):
        c = 0.01
        while c <= 1.0:
            assert (bound_prop_greedy_sensitivity_lb(c, k)
                    <= bound_prop_greedy_sensitivity(c, k) + 1e-12)
            c += 0.01


def test_approx_factor_values():
    assert bound_prop_greedy_approx(0.5) == pytest.approx(1 - math.exp(-1))
    assert bound_prop_greedy_approx(0.0) == pytest.approx(0.0)
    assert bound_prop_greedy_approx(1e-6) == pytest.approx(0.0, abs=1e-5)
    assert bound_prop_greedy_approx(0.999) > 0.999
    with pytest.raises(ValueError):
        bound_prop_greedy_approx(1.0)


def test_randgreedy_bound_values():
    assert bound_randgreedy_lb(2) == pytest.approx(2.0)
    assert bound_randgreedy_lb(3) == pytest.approx(66 / 27)
    k = 10_000
    asymptote = 2 * k * (1 - 2 / math.e)
    assert bound_randgreedy_lb(k) / asymptote == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        bound_randgreedy_lb(1)


def test_pA_pB_bounds():
    p_a, p_b = bound_pA_pB(2, 12, 0.75)
    assert p_a == pytest.approx(7 / 24)
    assert p_b == pytest.approx(1 / 8)
    assert bound_pA_pB(2, 12, 1.0) == (0.0, 0.0)
    with pytest.raises(DegenerateDError):
        bound_pA_pB(10, 12, 0.99)   # D = n sqrt(1-c) = 1.2 <= k


# --- worst-case sensitivity -------------------------------------------------


def test_greedy_on_hard_instance_reaches_2k():
    k = 5
    f = build_function(FunctionSpec("curvature_det_lb", n=2 * k + 1, k=k,
                                    c=0.5, scale=200))
    report = worst_case_sensitivity(greedy_rule(), f, k)
    assert report.worst_case == pytest.approx(2 * k)
    assert report.worst_element == 0
    assert report.worst_case >= k


def test_modular_unselected_deletions_cost_nothing():
    f = modular(9, 8, 7, 1, 0.5, 0.25)
    report = worst_case_sensitivity(greedy_rule(), f, 3)
    per = {r.element: r.emd for r in report.per_element}
    for e in (3, 4, 5):
        assert per[e] == pytest.approx(0.0, abs=1e-12)
    for e in (0, 1, 2):
        assert per[e] == pytest.approx(2.0)   # swap with the next-best element


def test_randgreedy_hard_instance_beats_closed_form():
    f = build_function(FunctionSpec("randgreedy_lb", n=16, k=3))
    report = worst_case_sensitivity(randomized_greedy_rule(), f, 3, elements=[0])
    assert report.worst_case >= bound_randgreedy_lb(3) - 1e-9


def test_per_element_emd_at_least_inclusion_bound():
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    report = worst_case_sensitivity(proportional_greedy_rule(), f, 3)
    for r in report.per_element:
        assert r.emd >= r.inclusion_lb - 1e-9
        assert r.emd <= 2 * 3 + 1e-9


# --- average sensitivity ----------------------------------------------------


def test_average_below_worst_case():
    f = build_function(FunctionSpec("avg_greedi_lb", n=10, k=4, c=0.5))
    report = average_sensitivity(randomized_greedy_rule(), f, 3)
    assert report.average <= report.worst_case + 1e-12


def test_average_zero_when_output_always_survives():
    # spread mass so greedy always lands on the top-3 block, which no single
    # deletion outside the block can disturb
    f = modular(50, 40, 30, 0.1, 0.2, 0.3)
    report = average_sensitivity(greedy_rule(), f, 3)
    per = {r.element: r.emd for r in report.per_element}
    assert per[3] == per[4] == per[5] == 0.0
    assert report.average == pytest.approx(sum(per.values()) / 6)


def test_avg_family_trend_point():
    n, k = 12, 6
    f = build_function(FunctionSpec("avg_curvature_lb", n=n, k=k, c=0.5))
    report = average_sensitivity(greedy_rule(), f, k)
    assert report.average * n / k ** 2 > 0.3


# --- sampled mode -----------------------------------------------------------


def test_sampled_mode_matches_exact_roughly():
    f = build_function(FunctionSpec("randgreedy_lb", n=10, k=2))
    rule = randomized_greedy_rule()
    exact = worst_case_sensitivity(rule, f, 2, elements=[0])
    sampled = worst_case_sensitivity(rule, f, 2, mode="sampled", trials=20000,
                                     seed=5, elements=[0], bootstrap=30)
    assert sampled.worst_case == pytest.approx(exact.worst_case, abs=0.1)
    assert sampled.per_element[0].bootstrap_halfwidth is not None
    assert sampled.per_element[0].bootstrap_halfwidth < 0.2


def test_sampled_mode_deterministic():
    f = build_function(FunctionSpec("randgreedy_lb", n=10, k=2))
    rule = randomized_greedy_rule()
    r1 = worst_case_sensitivity(rule, f, 2, mode="sampled", trials=500, seed=9,
                                elements=[0, 1], bootstrap=0)
    r2 = worst_case_sensitivity(rule, f, 2, mode="sampled", trials=500, seed=9,
                                elements=[0, 1], bootstrap=0)
    assert [(r.element, r.emd) for r in r1.per_element] == \
           [(r.element, r.emd) for r in r2.per_element]


def test_sampled_scan_leaves_rational_costs_unread(monkeypatch):
    # every solve of a sampled scan is between two empirical distributions
    # of equal trials; the exact rational is computed only when read
    from subsens import transport
    calls = []
    grid_cost = transport._grid_cost
    monkeypatch.setattr(transport, "_grid_cost", lambda *a: calls.append(a) or grid_cost(*a))
    f = build_function(FunctionSpec("appendixD_lb", n=12, c=0.75))
    worst_case_sensitivity(proportional_greedy_rule(), f, 2, mode="sampled", trials=400,
                           seed=3, elements=[0], bootstrap=5)
    assert calls == []
    d1, d2 = (sampled_output_distribution(proportional_greedy_rule(), f, 2, 400, seed=s)
              for s in (1, 2))
    value, plan = emd(d1, d2)
    assert plan.grid_trials == 400 and calls == []
    assert plan.cost_rational == plan.cost_rational and len(calls) == 1
    assert float(plan.cost_rational) == pytest.approx(value, abs=1e-9)


class SpyRule:
    """Proportional greedy that records every set it is evaluated at."""

    name = "spy"

    def __init__(self):
        self.inner = proportional_greedy_rule()
        self.seen = []

    def probabilities(self, oracle, current, k, allowed=None):
        self.seen.append(current)
        return self.inner.probabilities(oracle, current, k, allowed)


def plain_sampled_counts(alg, oracle, k, trials, seed_key):
    """Per-trial inverse-CDF loop that evaluates the rule at every step,
    drawing from the rule's support scattered into a dense length-n vector
    and skipping zero entries after the search."""
    counts, visited = {}, set()
    for t in range(trials):
        draws = derive_rng(*seed_key, t).random(k)
        current = 0
        for i in range(1, k + 1):
            visited.add(current)
            x = draws[i - 1]
            if isinstance(alg, OrdinalSchedule):
                support = schedule_step_support(alg, oracle, current, i)
                acc, chosen = 0.0, support[-1][0]
                for e, q, _ in support:
                    acc += q
                    if x < acc:
                        chosen = e
                        break
            else:
                probs = np.zeros(oracle.n)
                for e, p in alg.probabilities(oracle, current, k):
                    probs[e] = p
                cum = np.cumsum(probs)
                chosen = int(np.searchsorted(cum, x * cum[-1], side="right"))
                while chosen < oracle.n - 1 and probs[chosen] == 0.0:
                    chosen += 1
            current |= 1 << chosen
        counts[current] = counts.get(current, 0) + 1
    return {m: c / trials for m, c in counts.items()}, visited


def runner_counts(alg, oracle, k, trials, seed_key):
    """The per-trial sequential runners, trial t with seed_key=(*seed_key, t),
    and every set they evaluate the algorithm at."""
    counts, visited = {}, set()
    for t in range(trials):
        runner = independent_sequential if isinstance(alg, OrdinalSchedule) else run_sequential
        mask, trace = runner(oracle, k, alg, 0, seed_key=(*seed_key, t))
        current = 0
        for step in trace.steps:
            visited.add(current)
            current |= 1 << step.element
        counts[mask] = counts.get(mask, 0) + 1
    return {m: c / trials for m, c in counts.items()}, visited


def public_sampler(alg, oracle, k, trials, key):
    return sampled_output_distribution(alg, oracle, k, trials, *key)


# (sampler, its per-trial reference, key): the scan's keyed stream and the
# public sampler's per-step stream
SAMPLERS = {"keyed": (_sampled_with_key, plain_sampled_counts, (3, 1, 0)),
            "per-step": (public_sampler, runner_counts, (3,))}
STATE_SPECS = [FunctionSpec("appendixD_lb", n=12, c=0.75),
               FunctionSpec("modular", n=7, weights=(5, 4, 4, 3, 2, 1, 1))]


@pytest.mark.parametrize("spec, sampler", [
    pytest.param(spec, sampler, id=f"spec{i}" + ("" if sampler == "keyed" else f"-{sampler}"))
    for sampler in SAMPLERS for i, spec in enumerate(STATE_SPECS)])
def test_sampled_evaluates_rule_once_per_state(spec, sampler):
    sample, reference, key = SAMPLERS[sampler]
    f = build_function(spec)
    k, trials = 3, 400
    spy = SpyRule()
    dist = sample(spy, f, k, trials, key)
    expected, visited = reference(proportional_greedy_rule(), f, k, trials, key)
    assert len(spy.seen) == len(set(spy.seen)) <= len(visited)
    assert set(spy.seen) == visited
    assert dist.probs == expected
    schedule = OrdinalSchedule.randomized_greedy(k)
    expected, _ = reference(schedule, f, k, trials, key)
    assert sample(schedule, f, k, trials, key).probs == expected


@pytest.mark.parametrize("elements, error", [([], ValueError),
                                             ([1, 2, 1], ValueError),
                                             ([0, 8], InvalidElementError),
                                             ([-1], InvalidElementError)])
def test_bad_elements_rejected_before_any_work(elements, error):
    f = build_function(FunctionSpec("greedi_lb", n=8, c=0.5))
    spy = SpyRule()
    with pytest.raises(error):
        worst_case_sensitivity(spy, f, 2, elements=elements)
    assert spy.seen == []


@pytest.mark.parametrize("k", [0, 5])
def test_k_outside_range_rejected_on_every_path(k):
    # every path validates k against 1..n as run_sequential does, instead
    # of returning the whole ground set (k=5) or the empty set (k=0)
    f = modular(3, 2, 1)
    rule = proportional_greedy_rule()
    with pytest.raises(KOutOfRangeError, match=f"k={k} outside 1..3"):
        exact_output_distribution(rule, f, k)
    with pytest.raises(KOutOfRangeError, match=f"k={k} outside 1..3"):
        selection_profile(rule, f, k)
    with pytest.raises(KOutOfRangeError, match=f"k={k} outside 1..3"):
        _sampled_with_key(rule, f, k, 10, (0,))
    for mode, trials in (("exact", None), ("sampled", 10)):
        with pytest.raises(KOutOfRangeError, match=f"k={k} outside 1..3"):
            worst_case_sensitivity(rule, f, k, mode=mode, trials=trials)
        with pytest.raises(KOutOfRangeError, match=f"k={k} outside 1..3"):
            average_sensitivity(rule, f, k, mode=mode, trials=trials)


def test_schedule_shorter_than_run_rejected_on_every_path():
    # a schedule built for k=2 has no distribution for step 3: every path
    # says so, as independent_sequential does, instead of indexing past it
    f = modular(6, 5, 4, 3, 2, 1)
    schedule = OrdinalSchedule.randomized_greedy(2)
    message = "schedule built for k=2, run needs 3 steps"
    with pytest.raises(KOutOfRangeError, match=message):
        exact_output_distribution(schedule, f, 3)
    with pytest.raises(KOutOfRangeError, match=message):
        selection_profile(schedule, f, 3)
    with pytest.raises(KOutOfRangeError, match=message):
        sampled_output_distribution(schedule, f, 3, 10, seed=0)
    with pytest.raises(KOutOfRangeError, match=message):
        independent_sequential(f, 3, schedule, 0)
    for mode, trials in (("exact", None), ("sampled", 10)):
        with pytest.raises(KOutOfRangeError, match=message):
            worst_case_sensitivity(schedule, f, 3, mode=mode, trials=trials)
        with pytest.raises(KOutOfRangeError, match=message):
            average_sensitivity(schedule, f, 3, mode=mode, trials=trials)
    # a pool of two needs only two steps
    assert sampled_output_distribution(OrdinalSchedule.greedy(2), f, 3, 10, seed=0,
                                       allowed=0b11).probs == {0b11: 1.0}


@pytest.mark.parametrize("mode, trials", [("exact", None), ("sampled", 10)])
def test_scan_at_k_equal_n_selects_every_remaining_element(mode, trials):
    # k = n is in range; each deletion leaves n - 1 elements, all selected,
    # so every deletion moves the output by exactly one element; greedi_lb
    # declares blocks, so its exact proportional scan shares a measurement
    # per run
    for f in (modular(3, 2, 1), build_function(FunctionSpec("greedi_lb", n=6, c=0.5))):
        for rule in (proportional_greedy_rule(), randomized_greedy_rule()):
            report = worst_case_sensitivity(rule, f, f.n, mode=mode, trials=trials)
            assert [r.emd for r in report.per_element] == pytest.approx([1.0] * f.n,
                                                                       abs=1e-12)


# --- deletion orbits --------------------------------------------------------


# every shipped family, and a head split into two runs by its forced
# element (one declared block, two runs)
ORBIT_SPECS = shipped_default_specs(10) + [FunctionSpec("framework_lb", n=10, k=3, c=0.5, j=2)]
ORBIT_ALGS = {"greedy": lambda k: greedy_rule(),
              "randgreedy": lambda k: randomized_greedy_rule(),
              "proportional": lambda k: proportional_greedy_rule(),
              "schedule": OrdinalSchedule.randomized_greedy}


def plain_scan(alg, f, k):
    """Per-element reference: one restricted run and one EMD per deletion."""
    base = exact_output_distribution(alg, f, k)
    rows = []
    for e in range(f.n):
        reduced = restrict(f, e)
        d2 = exact_output_distribution(alg, reduced, min(k, reduced.n)).remapped(
            reduced.index_map, f.n)
        rows.append((e, float(emd(base, d2)[0]),
                     float(inclusion_probability_lower_bound(base, d2)), "exact"))
    return rows


def assert_report_matches(report, rows):
    assert [(r.element, r.emd, r.inclusion_lb, r.mode) for r in report.per_element] == rows
    worst = max(rows, key=lambda r: (r[1], -r[0]))
    assert report.worst_case == worst[1]
    assert report.worst_element == worst[0]
    assert report.average == sum(r[1] for r in rows) / len(rows)


@pytest.mark.parametrize("name", sorted(ORBIT_ALGS))
@pytest.mark.parametrize("spec", ORBIT_SPECS,
                         ids=[f"{s.family}-j{s.j}" if s.j else s.family for s in ORBIT_SPECS])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_orbit_scan_matches_per_element_scan(spec, name, data):
    f = build_function(spec)
    k = data.draw(st.integers(1, 4))
    alg = ORBIT_ALGS[name](k)
    rows = plain_scan(alg, f, k)
    assert_report_matches(average_sensitivity(alg, f, k), rows)
    assert_report_matches(worst_case_sensitivity(alg, f, k), rows)
    # each run of two or more on its own: every member after the first
    # takes the shared measurement
    for run in f.blocks or ():
        if run & (run - 1):
            members = ids_of(run)
            assert_report_matches(worst_case_sensitivity(alg, f, k, elements=members),
                                  [rows[e] for e in members])
    elements = data.draw(st.one_of(
        st.sampled_from(range(f.n)).map(lambda e: [e]),
        st.lists(st.sampled_from(range(f.n)), min_size=2, unique=True)))
    report = worst_case_sensitivity(alg, f, k, elements=elements)
    assert_report_matches(report, [rows[e] for e in sorted(elements)])


def restricted_run(alg, f, k, e, mode, p_min=0.0, seed=0, trials=None):
    """The deletion of e through ``restrict``: a run in local ids on n - 1
    elements (k clamped to them), mapped back to the ids of f."""
    reduced = restrict(f, e)
    k_reduced = min(k, reduced.n)
    if mode == "exact":
        local = exact_output_distribution(alg, reduced, k_reduced, p_min=p_min)
    else:
        local = _sampled_with_key(alg, reduced, k_reduced, trials, (seed, 1, e))
    return local.remapped(reduced.index_map, f.n)


def outcome(d):
    """Everything a distribution records, in its dict order."""
    return list(d.probs.items()), d.lost_mass, d.nodes_per_level, d.rule_evals


POOL_SPECS = shipped_default_specs(8) + [FunctionSpec("framework_lb", n=8, k=3, c=0.5, j=2)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pool_deletion_matches_restricted_oracle(data):
    # every deletion the scan measures, shared ones included, is the
    # restricted run bit for bit: same masks in the same dict order, the
    # same pruned mass, DP nodes and rule evaluations, EMD and bound
    f = build_function(data.draw(st.sampled_from(POOL_SPECS)))
    k = data.draw(st.integers(1, f.n))
    alg = ORBIT_ALGS[data.draw(st.sampled_from(sorted(ORBIT_ALGS)))](k)
    mode = data.draw(st.sampled_from(["exact", "sampled"]))
    p_min = data.draw(st.sampled_from([0.0, 1e-6, 1e-4])) if mode == "exact" else 0.0
    trials = 40 if mode == "sampled" else None
    elements = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, f.n - 1), min_size=1, unique=True)))
    scanned = sorted(range(f.n) if elements is None else elements)

    def reference():
        if mode == "exact":
            base = exact_output_distribution(alg, f, k, p_min=p_min)
        else:
            base = _sampled_with_key(alg, f, k, trials, (0, 0))
        rows = []
        for e in scanned:
            d2 = restricted_run(alg, f, k, e, mode, p_min, 0, trials)
            rows.append((outcome(d2), float(emd(base, d2)[0]),
                         float(inclusion_probability_lower_bound(base, d2))))
        return rows

    measured = []

    def recording_bound(d1, d2):
        measured.append(outcome(d2))
        return inclusion_probability_lower_bound(d1, d2)

    try:
        expected = reference()
    except ValueError as exc:     # a schedule longer than the pool, say
        with pytest.raises(type(exc)):
            worst_case_sensitivity(alg, f, k, mode=mode, trials=trials,
                                   elements=elements, p_min=p_min, bootstrap=0)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensitivity, "inclusion_probability_lower_bound", recording_bound)
        report = worst_case_sensitivity(alg, f, k, mode=mode, trials=trials,
                                        elements=elements, p_min=p_min, bootstrap=0)
    assert [(r.element, r.emd, r.inclusion_lb) for r in report.per_element] == \
        [(e, row[1], row[2]) for e, row in zip(scanned, expected)]
    assert measured == [row[0] for row in expected]


@pytest.mark.parametrize("mode, trials", [("exact", None), ("sampled", 10)])
def test_scan_of_one_element_ground_set(mode, trials):
    # deleting the only element leaves the empty output: EMD 1
    f = modular(5)
    for rule in (greedy_rule(), proportional_greedy_rule()):
        report = worst_case_sensitivity(rule, f, 1, mode=mode, trials=trials)
        assert [(r.element, r.emd) for r in report.per_element] == [(0, 1.0)]


def count_scan_calls(monkeypatch):
    """Count the base run, the deletion runs (those given a pool) and the
    EMDs a scan makes, through the module attributes the scan looks up at
    call time."""
    calls = {"base": 0, "deletion": 0, "emd": 0}

    def counting_dp(alg, oracle, k, **kwargs):
        calls["base" if kwargs.get("allowed") is None else "deletion"] += 1
        return exact_output_distribution(alg, oracle, k, **kwargs)

    def counting_emd(d1, d2, **kwargs):
        calls["emd"] += 1
        return emd(d1, d2, **kwargs)

    monkeypatch.setattr(sensitivity, "exact_output_distribution", counting_dp)
    monkeypatch.setattr(sensitivity, "emd", counting_emd)
    return calls


@pytest.mark.parametrize("spec, rule, expected", [
    # runs {e_1}, e_2..e_5 and e_6..e_10: one measurement each
    (FunctionSpec("greedi_lb", n=10, c=0.5), proportional_greedy_rule(), (1, 3, 3)),
    # no declared blocks: every deletion is measured
    (FunctionSpec("modular", n=10, weights=tuple(float(10 - i) for i in range(10))),
     proportional_greedy_rule(), (1, 10, 10)),
    # greedy breaks ties by lowest id, so it is not equivariant
    (FunctionSpec("greedi_lb", n=10, c=0.5), greedy_rule(), (1, 10, 10)),
], ids=["proportional-greedi_lb", "proportional-modular", "greedy-greedi_lb"])
def test_exact_scan_measures_once_per_orbit(monkeypatch, spec, rule, expected):
    f = build_function(spec)
    calls = count_scan_calls(monkeypatch)
    worst_case_sensitivity(rule, f, 4)
    assert (calls["base"], calls["deletion"], calls["emd"]) == expected


def test_sampled_scan_draws_one_stream_per_element(monkeypatch):
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    keys = []

    def recording_sample(alg, oracle, k, trials, key, allowed=None):
        keys.append((key, allowed))
        return _sampled_with_key(alg, oracle, k, trials, key, allowed)

    monkeypatch.setattr(sensitivity, "_sample", recording_sample)
    calls = count_scan_calls(monkeypatch)
    worst_case_sensitivity(proportional_greedy_rule(), f, 4, mode="sampled",
                           trials=50, seed=3, elements=[1, 2], bootstrap=0)
    assert keys == [((3, 0), None), ((3, 1, 1), 0x3FD), ((3, 1, 2), 0x3FB)]
    assert calls["emd"] == 2


def test_only_proportional_rule_declares_equivariance():
    assert proportional_greedy_rule().equivariant
    assert not greedy_rule().equivariant
    assert not randomized_greedy_rule().equivariant
    assert not hasattr(OrdinalSchedule.randomized_greedy(3), "equivariant")


# --- report mechanics -------------------------------------------------------


def test_report_csv_round_trip():
    f = build_function(FunctionSpec("curvature_det_lb", n=7, k=3, c=0.5))
    report = worst_case_sensitivity(proportional_greedy_rule(), f, 3)
    attach_bounds(report, 0.5, 3)
    parsed = SensitivityReport.parse_csv(report.to_csv())
    assert len(parsed["rows"]) == 7
    for (e, v, mode, trials), r in zip(parsed["rows"], report.per_element):
        assert e == r.element and v == r.emd and mode == r.mode
    assert parsed["summary"]["worst_case"] == report.worst_case
    assert parsed["summary"]["bound_ub"] == report.bounds["upper"]


def test_report_csv_with_truncated_summary_rejected():
    # a CSV that ends after the summary header, or whose summary row has
    # fewer than 5 fields, raises ValueError instead of IndexError
    head = "deleted_element,emd,mode,trials\n0,1.5,exact,\n\n" \
           "worst_case,average,bound_ub,bound_lb,pass\n"
    for text in (head, head + "1.5,1.5,2.0\n"):
        with pytest.raises(ValueError, match="summary row"):
            SensitivityReport.parse_csv(text)


def test_attach_bounds_flags_constant_discrepancy():
    f = build_function(FunctionSpec("greedi_lb", n=8, c=0.5))
    report = worst_case_sensitivity(proportional_greedy_rule(), f, 2)
    attach_bounds(report, 0.5, 2)
    assert LB_CONSTANT_NOTE in report.notes
    assert report.bounds["pass"] in ("yes", "no")
