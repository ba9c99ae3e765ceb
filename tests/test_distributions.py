"""Exact enumeration, sampling, and selection profiles."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsens import (FunctionSpec, OrdinalSchedule, build_function,
                     exact_output_distribution, greedy_rule,
                     independent_sequential, proportional_greedy_rule,
                     randomized_greedy_rule, run_sequential,
                     sampled_output_distribution, selection_profile,
                     shipped_default_specs, deterministic_greedy, restrict,
                     tv_distance, worst_case_sensitivity)
from subsens.algorithms import IndexBeyondRemainingError, schedule_step_support
from subsens.distributions import (DEFAULT_NODE_BUDGET, NodeBudgetExceededError,
                                   OutputDistribution, _level_dp)
from subsens.oracle import ValueOracle, ids_of

from _oracles import ordered_selection_enumeration


def modular(*weights):
    return build_function(FunctionSpec("modular", n=len(weights),
                                       weights=tuple(float(w) for w in weights)))


# --- exact enumeration ------------------------------------------------------


def test_deterministic_greedy_is_point_mass():
    f = build_function(FunctionSpec("curvature_det_lb", n=9, k=4, c=0.5))
    d = exact_output_distribution(greedy_rule(), f, 4)
    direct, _ = deterministic_greedy(f, 4)
    assert d.probs == {direct: 1.0}


def test_randgreedy_forced_exhaustion():
    f = modular(4, 3, 2)
    d = exact_output_distribution(randomized_greedy_rule(), f, 3)
    assert d.probs == pytest.approx({0b111: 1.0})


def test_randgreedy_tail_count_distribution_referees_closed_form():
    """Enumerated tail-count mass vs the claimed p_{k-i-1}/k closed form.

    The claimed form is exact for every positive tail count; at zero it
    misses the extra ((k-1)/k)^k mass from runs that never pick the heavy
    element.  The enumeration is the referee: we assert the true values.
    """
    for k, n in ((2, 10), (3, 16), (4, 20)):
        f = build_function(FunctionSpec("randgreedy_lb", n=n, k=k))
        d = exact_output_distribution(randomized_greedy_rule(), f, k)
        tail_mask = f.meta["tail"]
        by_count = {}
        for mask, p in d.probs.items():
            i = (mask & tail_mask).bit_count()
            by_count[i] = by_count.get(i, 0.0) + p
        p_ratio = (k - 1) / k
        for i in range(1, k):
            claimed = p_ratio ** (k - i - 1) / k
            assert by_count.get(i, 0.0) == pytest.approx(claimed, abs=1e-12), (k, i)
        zero_true = p_ratio ** (k - 1) / k + p_ratio ** k
        assert by_count.get(0, 0.0) == pytest.approx(zero_true, abs=1e-12)
        # the claimed i = 0 value is the same expression without the extra term
        assert by_count.get(0, 0.0) > p_ratio ** (k - 1) / k


def test_node_budget_exceeded():
    f = build_function(FunctionSpec("appendixD_lb", n=14, c=0.75))
    with pytest.raises(NodeBudgetExceededError):
        exact_output_distribution(proportional_greedy_rule(), f, 4, node_budget=50)


def test_exact_distribution_validates():
    f = modular(3, 2, 1, 1)
    d = exact_output_distribution(randomized_greedy_rule(), f, 2)
    assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(m.bit_count() == 2 for m in d.probs)


ENUM_SPECS = [s for s in shipped_default_specs(8) if s.n <= 8]
ENUM_ALGORITHMS = {"greedy": greedy_rule(), "randgreedy": randomized_greedy_rule(),
                   "proportional": proportional_greedy_rule(),
                   "schedule": OrdinalSchedule.randomized_greedy(3)}


def step_probs(alg, oracle, k):
    if isinstance(alg, OrdinalSchedule):
        return lambda current, step: [
            (e, q) for e, q, _ in schedule_step_support(alg, oracle, current, step)]
    return lambda current, step: alg.probabilities(oracle, current, k)


@pytest.mark.parametrize("name", ENUM_ALGORITHMS)
@pytest.mark.parametrize("spec", ENUM_SPECS, ids=lambda s: s.family)
def test_level_dp_matches_ordered_enumeration(spec, name):
    alg, k = ENUM_ALGORITHMS[name], 3
    f = build_function(spec)
    walk = step_probs(alg, f, k)
    for start in (0, 0b1, 0b100):
        expected, profile = ordered_selection_enumeration(f.n, k, walk, start)
        d = exact_output_distribution(alg, f, k, start_mask=start)
        assert d.k == k + start.bit_count()
        assert sorted(d.probs) == sorted(expected)
        for mask, p in expected.items():
            assert d.probs[mask] == pytest.approx(p, rel=0, abs=1e-12)
        if start == 0:
            prof = selection_profile(alg, f, k)
            assert np.allclose(prof.p, profile, rtol=0, atol=1e-12)


def test_pool_smaller_than_k_selects_the_whole_pool():
    f = modular(5, 4, 3, 2, 1)
    allowed = 0b00110
    for rule in (greedy_rule(), randomized_greedy_rule(), proportional_greedy_rule()):
        mask, trace = run_sequential(f, 3, rule, seed=0, allowed=allowed)
        assert mask == allowed and len(trace.steps) == 2
        d = exact_output_distribution(rule, f, 3, allowed=allowed)
        assert list(d.probs) == [allowed] and d.k == 2
        prof = selection_profile(rule, f, 3, allowed=allowed)
        assert prof.k == 2 and prof.P[-1].tolist() == pytest.approx([0, 1, 1, 0, 0])
        d = sampled_output_distribution(rule, f, 3, trials=20, seed=1, allowed=allowed)
        assert d.probs == {allowed: 1.0} and d.k == 2


def test_start_mask_conditions_the_run():
    f = build_function(FunctionSpec("appendixD_lb", n=9, c=0.75))
    d = exact_output_distribution(proportional_greedy_rule(), f, 2, start_mask=1)
    assert all(m & 1 for m in d.probs)
    assert all(m.bit_count() == 3 for m in d.probs)


def test_pruning_reports_lost_mass():
    f = build_function(FunctionSpec("prop_lb", n=8))
    d = exact_output_distribution(proportional_greedy_rule(), f, 4, p_min=1e-6)
    assert 0 < d.lost_mass < 1e-2
    assert sum(d.probs.values()) == pytest.approx(1.0 - d.lost_mass, abs=1e-9)


# --- signature memo ---------------------------------------------------------


def test_dp_records_nodes_per_level_and_rule_evals():
    f = build_function(FunctionSpec("prop_lb", n=12))
    d = exact_output_distribution(proportional_greedy_rule(), f, 5)
    # every set of up to four elements is reached
    assert d.nodes_per_level == tuple(math.comb(12, i) for i in range(5))
    # runs {e_1}, e_2..e_6 and six singletons: sets of size 0..4 have
    # 1 + 8 + 29 + 64 + 99 distinct per-run counts
    assert d.rule_evals == 201
    by_size = {}
    for mask in range(1 << 12):
        if mask.bit_count() < 5:
            by_size.setdefault(mask.bit_count(), set()).add(
                tuple((mask & run).bit_count() for run in f.blocks))
    assert [len(by_size[i]) for i in range(5)] == [1, 8, 29, 64, 99]
    # rules not marked equivariant, and oracles without blocks, are
    # evaluated at every node
    for rule, nodes in ((greedy_rule(), (1,) * 5),
                        (randomized_greedy_rule(), (1, 5, 19, 60, 155))):
        g = exact_output_distribution(rule, f, 5)
        assert g.nodes_per_level == nodes and g.rule_evals == sum(nodes)
    plain = ValueOracle(f.n, f._fn, check_empty=False)
    assert plain.signature(0b1011) == 0b1011
    u = exact_output_distribution(proportional_greedy_rule(), plain, 5)
    assert u == d and u.rule_evals == sum(u.nodes_per_level) == 794
    # carried through remapped; not compared, not written to the CSV
    reduced = restrict(f, 3)
    local = exact_output_distribution(proportional_greedy_rule(), reduced, 5)
    moved = local.remapped(reduced.index_map, f.n)
    assert (moved.nodes_per_level, moved.rule_evals) == (local.nodes_per_level,
                                                         local.rule_evals)
    bare = replace(d, nodes_per_level=(), rule_evals=0)
    assert bare == d and bare.to_csv() == d.to_csv()
    s = sampled_output_distribution(proportional_greedy_rule(), f, 5, trials=20, seed=0)
    assert (s.nodes_per_level, s.rule_evals) == ((), 0)


def test_signature_memo_is_scoped_to_one_call():
    # a memo kept on the oracle or across calls would make the later
    # calls on one oracle cheaper than the same call on a fresh oracle
    spec = FunctionSpec("prop_lb", n=10)
    rule = proportional_greedy_rule()
    calls = (lambda f: exact_output_distribution(rule, f, 4),
             lambda f: selection_profile(rule, f, 4))
    fresh = []
    for call in calls:
        f = build_function(spec)
        call(f)
        fresh.append(f.calls)
    shared = build_function(spec)
    for call, expected in zip(calls, fresh):
        for _ in range(2):
            before = shared.calls
            call(shared)
            assert shared.calls - before == expected
    d = exact_output_distribution(rule, shared, 4)
    assert d.rule_evals < sum(d.nodes_per_level)


BLOCKED_SPECS = [s for s in shipped_default_specs(8) if build_function(s).blocks]
MEMO_RULES = {"greedy": greedy_rule, "randgreedy": randomized_greedy_rule,
              "proportional": proportional_greedy_rule}


def per_node(rule):
    """The same rule with the signature memo off."""
    plain = copy.copy(rule)
    plain.equivariant = False
    return plain


def dp_outcome(alg, oracle, k, budget, p_min, start, allowed):
    profile = np.zeros((min(k, oracle.n), oracle.n))
    try:
        level, lost, nodes, _ = _level_dp(alg, oracle, k, budget, p_min, start,
                                          allowed, profile)
    except NodeBudgetExceededError as exc:
        return str(exc)
    return list(level.items()), lost, nodes, profile.tolist()


def lowest_members(oracle, mask):
    """The set with mask's count in each run, made of each run's lowest ids."""
    out = 0
    for run in oracle.blocks:
        out |= sum(1 << e for e in ids_of(run)[:(mask & run).bit_count()])
    return out


def moved(oracle, pairs, current):
    """Pairs given per run to current's own remaining members, in id order."""
    run_of = {e: run for run in oracle.blocks for e in ids_of(run)}
    return [(e, p) for run, p in dict.fromkeys((run_of[e], p) for e, p in pairs)
            for e in ids_of(run & ~current)]


@settings(max_examples=500, deadline=None)
@given(spec=st.sampled_from(BLOCKED_SPECS), name=st.sampled_from(sorted(MEMO_RULES)),
       deleted=st.lists(st.integers(0, 11), max_size=2), k=st.integers(2, 5),
       pool=st.one_of(st.none(), st.integers(0, 2**12 - 1)),
       start=st.lists(st.integers(0, 11), max_size=2),
       p_min=st.sampled_from([0.0, 1e-3, 0.02, 0.1]),
       budget=st.one_of(st.just(DEFAULT_NODE_BUDGET), st.integers(1, 300)),
       mask=st.integers(0, 2**12 - 1), other=st.integers(0, 2**12 - 1),
       flip=st.integers(0, 11))
def test_signature_memo_matches_per_node_dp(spec, name, deleted, k, pool, start,
                                            p_min, budget, mask, other, flip):
    f = build_function(spec)
    for e in deleted:
        f = restrict(f, e % f.n)
    full = f.full_mask
    mask, other = mask & full, other & full
    # all sets of one DP level have one size, so a signature that drops a
    # run still keys the memo right; check it on masks of any size
    counts = [(mask & run).bit_count() for run in f.blocks]
    assert f.signature(mask) == f.signature(lowest_members(f, mask))
    assert f.signature(mask) != f.signature(mask ^ (1 << flip % f.n))
    assert (f.signature(mask) == f.signature(other)) == (
        counts == [(other & run).bit_count() for run in f.blocks])
    rule = MEMO_RULES[name]()
    if rule.equivariant and mask != full:
        # what the memo relies on: at the lowest members of mask's counts
        # the rule gives each run's probability to mask's own remaining
        # members of the run.  A greedy DP has one node per level, so only
        # this shows a tie-breaking rule wrongly marked equivariant.
        at_lowest = rule.probabilities(f, lowest_members(f, mask), k)
        assert moved(f, at_lowest, mask) == rule.probabilities(f, mask, k)
    allowed = None if pool is None else pool & full
    start_mask = sum({1 << e % f.n for e in start})
    args = (f, k, budget, p_min, start_mask, allowed)
    assert dp_outcome(rule, *args) == dp_outcome(per_node(rule), *args)


# --- sampling ---------------------------------------------------------------


def test_sampled_deterministic_point_mass():
    f = modular(5, 4, 3, 2)
    d = sampled_output_distribution(greedy_rule(), f, 2, trials=50, seed=1)
    assert d.probs == {0b11: 1.0}
    assert d.trials == 50


def test_sampled_close_to_exact():
    f = modular(*range(10, 0, -1))
    rule = randomized_greedy_rule()
    exact = exact_output_distribution(rule, f, 3)
    emp = sampled_output_distribution(rule, f, 3, trials=100_000, seed=3)
    assert tv_distance(exact, emp) < 0.02


def sampler_algorithms(k):
    return {"greedy": greedy_rule(), "randgreedy": randomized_greedy_rule(),
            "proportional": proportional_greedy_rule(),
            "schedule-greedy": OrdinalSchedule.greedy(k),
            "schedule-randgreedy": OrdinalSchedule.randomized_greedy(k),
            # ranks listed out of order, so the walk order matters
            "schedule-custom": OrdinalSchedule(k, (((2, 1), (0.6, 0.4)),) * k)}


def _outcome(call):
    """A call's result, or the type and message of the error it raised."""
    try:
        return call()
    except IndexBeyondRemainingError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(ENUM_SPECS), name=st.sampled_from(sorted(sampler_algorithms(1))),
       k=st.integers(1, 4), pool=st.one_of(st.none(), st.integers(0, 255)),
       seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 4))
def test_sampled_trials_match_sequential_runners(spec, name, k, pool, seed, trials):
    # trial t of the memoized sampler is the runner's run with
    # seed_key=(seed, t); trials do not depend on how many are drawn, so
    # the distribution of t + 1 trials minus that of t is trial t's mask
    f = build_function(spec)
    k = min(k, f.n)
    alg = sampler_algorithms(k)[name]
    allowed = None if pool is None else pool & f.full_mask
    runner = independent_sequential if isinstance(alg, OrdinalSchedule) else run_sequential
    runs = [_outcome(lambda: runner(f, k, alg, seed, allowed=allowed,
                                    seed_key=(seed, t))[0])
            for t in range(trials)]
    previous = {}
    for t in range(trials):
        sampled = _outcome(lambda: sampled_output_distribution(
            alg, f, k, t + 1, seed, allowed=allowed))
        if isinstance(sampled, tuple):
            # the sampler stops at the first trial that fails, with its error
            assert sampled == next(r for r in runs[:t + 1] if isinstance(r, tuple))
            return
        counts = {m: round(p * (t + 1)) for m, p in sampled.probs.items()}
        drawn = {m: c - previous.get(m, 0) for m, c in counts.items()
                 if c != previous.get(m, 0)}
        assert drawn == {runs[t]: 1}, t
        previous = counts


def test_sampled_seed_determinism():
    f = build_function(FunctionSpec("randgreedy_lb", n=10, k=2))
    d1 = sampled_output_distribution(randomized_greedy_rule(), f, 2, trials=400, seed=11)
    d2 = sampled_output_distribution(randomized_greedy_rule(), f, 2, trials=400, seed=11)
    assert d1.probs == d2.probs


def test_sampled_needs_positive_trials():
    f = modular(1, 2)
    with pytest.raises(ValueError):
        sampled_output_distribution(greedy_rule(), f, 1, trials=0, seed=0)
    # the scan's sampler checks its trials too, before any draw
    with pytest.raises(ValueError, match="trials must be >= 1, got -3"):
        worst_case_sensitivity(greedy_rule(), f, 1, mode="sampled", trials=-3)


# --- selection profile ------------------------------------------------------


def test_profile_first_step_uniform_top_k():
    f = modular(*range(12, 0, -1))
    prof = selection_profile(randomized_greedy_rule(), f, 4)
    assert prof.p[0, 0] == pytest.approx(0.25)
    assert prof.p[0, 4:].sum() == 0.0


def test_profile_deterministic_is_indicator():
    f = build_function(FunctionSpec("curvature_det_lb", n=9, k=4, c=0.5))
    prof = selection_profile(greedy_rule(), f, 4)
    assert set(np.unique(np.round(prof.P, 12))) <= {0.0, 1.0}


def test_profile_large_element_coverage_condition():
    # by the step floor((1 - alpha/2) k), the first k elements carry at least
    # alpha k / 2 cumulative selection mass, alpha = 1 - 1/e
    alpha = 1 - 1 / math.e
    for k, n in ((3, 9), (4, 12)):
        f = build_function(FunctionSpec("large_element", n=n, k=k))
        prof = selection_profile(OrdinalSchedule.randomized_greedy(k), f, k)
        t = math.ceil((1 - alpha / 2) * k)
        total = sum(prof.P[t - 1, e] for e in range(k))
        assert total >= alpha * k / 2


def test_profile_consistent_with_distribution():
    f = build_function(FunctionSpec("randgreedy_lb", n=12, k=3))
    rule = randomized_greedy_rule()
    d = exact_output_distribution(rule, f, 3)
    prof = selection_profile(rule, f, 3)
    incl = d.inclusion_probabilities()
    assert np.allclose(incl, prof.P[-1], atol=1e-9)


def test_profile_rows_sum_to_one_and_P_monotone():
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    prof = selection_profile(proportional_greedy_rule(), f, 4)
    assert np.allclose(prof.p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.diff(prof.P, axis=0) >= -1e-12)


# --- serialization ----------------------------------------------------------


def test_distribution_csv_round_trip():
    f = build_function(FunctionSpec("randgreedy_lb", n=10, k=2))
    d = exact_output_distribution(randomized_greedy_rule(), f, 2)
    again = OutputDistribution.from_csv(d.to_csv(), n=10)
    assert again.probs == d.probs


def test_pruned_distribution_csv_round_trip_keeps_lost_mass():
    f = build_function(FunctionSpec("prop_lb", n=12))
    d = exact_output_distribution(proportional_greedy_rule(), f, 5, p_min=1e-6)
    assert d.lost_mass > 0
    text = d.to_csv()
    assert text.splitlines()[-1] == f"lost_mass,{d.lost_mass!r}"
    again = OutputDistribution.from_csv(text, n=12)
    assert again.probs == d.probs and again.lost_mass == d.lost_mass
    assert again.k == 5
    unpruned = exact_output_distribution(proportional_greedy_rule(), f, 2)
    assert "lost_mass" not in unpruned.to_csv()


def test_profile_csv_shape():
    f = modular(3, 2, 1)
    prof = selection_profile(randomized_greedy_rule(), f, 2)
    lines = prof.to_csv().strip().splitlines()
    assert lines[0] == "step,element,p,P"
    assert len(lines) == 1 + 2 * 3
