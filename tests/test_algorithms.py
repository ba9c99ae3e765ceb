"""Decision rules, schedules, and sequential runs."""

import numpy as np
import pytest

from subsens import (FunctionSpec, OrdinalSchedule, ValueOracle, build_function,
                     deterministic_greedy, ids_of, mask_of,
                     independent_sequential, proportional_greedy_rule,
                     randomized_greedy_rule, greedy_rule, restrict,
                     run_sequential)
from subsens.algorithms import (IndexBeyondRemainingError, KOutOfRangeError,
                                NegativeMarginalError)
from subsens.harness import random_coverage_instance

from _oracles import exhaustive_opt


def modular(*weights):
    return build_function(FunctionSpec("modular", n=len(weights),
                                       weights=tuple(float(w) for w in weights)))


# --- deterministic greedy ---------------------------------------------------


def test_greedy_topk_on_modular():
    f = modular(5, 4, 3, 2, 1)
    mask, trace = deterministic_greedy(f, 2)
    assert ids_of(mask) == [0, 1]
    assert [s.element for s in trace.steps] == [0, 1]
    assert [s.marginal for s in trace.steps] == [5.0, 4.0]


def test_greedy_on_curvature_instance_skips_gated_block():
    f = build_function(FunctionSpec("curvature_det_lb", n=7, k=3, c=0.5, scale=100))
    mask, _ = deterministic_greedy(f, 3)
    picked = ids_of(mask)
    assert picked[0] == 0
    assert set(picked[1:]) <= {4, 5, 6}     # the (1 - c/2) block


def test_greedy_after_deleting_heavy_element():
    f = build_function(FunctionSpec("curvature_det_lb", n=7, k=3, c=0.5, scale=100))
    g = restrict(f, 0)
    mask, _ = deterministic_greedy(g, 3)
    assert [g.index_map[e] for e in ids_of(mask)] == [1, 2, 3]


def test_greedy_tie_break_lowest_id():
    f = modular(1, 1, 1, 1)
    mask, _ = deterministic_greedy(f, 2)
    assert ids_of(mask) == [0, 1]


def test_k_out_of_range():
    f = modular(1, 2)
    with pytest.raises(KOutOfRangeError):
        deterministic_greedy(f, 0)
    with pytest.raises(KOutOfRangeError):
        deterministic_greedy(f, 3)


# --- rules ------------------------------------------------------------------


def test_randgreedy_uniform_over_top_k():
    f = modular(3, 2, 1)
    p = randomized_greedy_rule().probabilities(f, 0, 3)
    assert [e for e, _ in p] == [0, 1, 2]
    assert np.allclose([q for _, q in p], [1 / 3, 1 / 3, 1 / 3])


def test_randgreedy_first_step_on_hard_instance():
    f = build_function(FunctionSpec("randgreedy_lb", n=16, k=3))
    p = randomized_greedy_rule().probabilities(f, 0, 3)
    # heavy element plus the two lowest-id unit elements, nothing else
    assert [e for e, _ in p] == [0, 1, 2]
    assert [q for _, q in p] == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_randgreedy_pads_when_pool_smaller_than_k():
    f = modular(3, 2, 1)
    p = randomized_greedy_rule().probabilities(f, mask_of([0]), 5)
    assert [e for e, _ in p] == [1, 2]
    assert np.allclose([q for _, q in p], [0.5, 0.5])


def test_proportional_rule_direct_proportion():
    f = modular(3, 1)
    p = proportional_greedy_rule().probabilities(f, 0, 2)
    assert [e for e, _ in p] == [0, 1]
    assert np.allclose([q for _, q in p], [0.75, 0.25])


def test_proportional_rule_uniform_on_equal_marginals():
    f = modular(2, 2, 2, 2)
    p = proportional_greedy_rule().probabilities(f, 0, 4)
    assert [e for e, _ in p] == [0, 1, 2, 3]
    assert np.allclose([q for _, q in p], 0.25)


def test_proportional_rule_on_appendixD_after_heavy():
    c = 0.75
    f = build_function(FunctionSpec("appendixD_lb", n=12, c=c))
    n_a, n_b = f.meta["n_a"], f.meta["n_b"]
    p = dict(proportional_greedy_rule().probabilities(f, mask_of([0]), 2))
    total = n_a * 1.0 + n_b * (1 - c)
    assert sorted(p) == list(range(1, 13))
    for e in range(1 + n_a, 13):
        assert p[e] == pytest.approx((1 - c) / total)


def test_proportional_rule_zero_marginals_fallback():
    f = ValueOracle(4, lambda m: min(1, m.bit_count()) * 1.0, name="any-one")
    p = proportional_greedy_rule().probabilities(f, mask_of([2]), 2)
    assert [e for e, _ in p] == [0, 1, 3]
    assert np.allclose([q for _, q in p], [1 / 3, 1 / 3, 1 / 3])


def test_proportional_rule_rejects_nonmonotone():
    f = ValueOracle(3, lambda m: -float(m.bit_count()), name="neg", check_empty=False)
    with pytest.raises(NegativeMarginalError):
        proportional_greedy_rule().probabilities(f, 0, 2)


def test_rule_vectors_are_probability_vectors():
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    for rule in (greedy_rule(), randomized_greedy_rule(), proportional_greedy_rule()):
        for current in (0, 0b1, 0b1010, 0b1111):
            p = rule.probabilities(f, current, 3)
            ids = [e for e, _ in p]
            assert ids == sorted(set(ids))
            assert all(q > 0 for _, q in p)
            assert sum(q for _, q in p) == pytest.approx(1.0, abs=1e-12)
            assert not set(ids) & set(ids_of(current))


# --- run_sequential ---------------------------------------------------------


def test_greedy_rule_run_matches_deterministic_greedy():
    for spec in (FunctionSpec("greedi_lb", n=10, c=0.5),
                 FunctionSpec("curvature_rand_lb", n=9, k=2, c=0.75)):
        f = build_function(spec)
        direct, _ = deterministic_greedy(f, 4)
        via_rule, _ = run_sequential(f, 4, greedy_rule(), seed=9)
        assert direct == via_rule


def test_proportional_exhausts_tiny_ground_set():
    f = modular(1, 1)
    for seed in range(5):
        mask, _ = run_sequential(f, 2, proportional_greedy_rule(), seed=seed)
        assert mask == 0b11


def test_run_sequential_reproducible():
    f = build_function(FunctionSpec("randgreedy_lb", n=12, k=2))
    m1, t1 = run_sequential(f, 2, randomized_greedy_rule(), seed=123)
    m2, t2 = run_sequential(f, 2, randomized_greedy_rule(), seed=123)
    assert m1 == m2
    assert t1 == t2


def test_run_sequential_trace_shape():
    f = modular(4, 3, 2, 1)
    mask, trace = run_sequential(f, 3, proportional_greedy_rule(), seed=0)
    assert len(trace.steps) == 3
    assert len(set(s.element for s in trace.steps)) == 3
    assert trace.mask == mask


# --- independent sequential -------------------------------------------------


def test_rank1_schedule_reproduces_greedy():
    f = build_function(FunctionSpec("curvature_det_lb", n=9, k=4, c=0.5))
    sched = OrdinalSchedule.greedy(4)
    direct, _ = deterministic_greedy(f, 4)
    via_sched, _ = independent_sequential(f, 4, sched, seed=5)
    assert direct == via_sched


def test_uniform_schedule_matches_randomized_greedy_distribution():
    from subsens import exact_output_distribution
    f = build_function(FunctionSpec("randgreedy_lb", n=10, k=2))
    d_rule = exact_output_distribution(randomized_greedy_rule(), f, 2)
    d_sched = exact_output_distribution(OrdinalSchedule.randomized_greedy(2), f, 2)
    assert set(d_rule.probs) == set(d_sched.probs)
    for m, p in d_rule.probs.items():
        assert d_sched.probs[m] == pytest.approx(p, abs=1e-12)


def test_point_mass_on_second_rank():
    f = modular(5, 4, 3)
    sched = OrdinalSchedule(1, (((2,), (1.0,)),), name="second")
    mask, _ = independent_sequential(f, 1, sched, seed=0)
    assert ids_of(mask) == [1]


def test_schedule_beyond_remaining_pool_aborts():
    f = modular(5, 4, 3)
    sched = OrdinalSchedule(2, (((4,), (1.0,)), ((1,), (1.0,))), name="too-far")
    with pytest.raises(IndexBeyondRemainingError):
        independent_sequential(f, 2, sched, seed=0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        OrdinalSchedule(1, (((0,), (1.0,)),))           # ranks are 1-based
    with pytest.raises(ValueError):
        OrdinalSchedule(1, (((1, 2), (0.7, 0.2)),))     # must sum to 1
    with pytest.raises(ValueError):
        OrdinalSchedule(1, (((1, 2), (1.0, 0.0)),))     # exact support
    with pytest.raises(KOutOfRangeError):
        OrdinalSchedule(3, (((1,), (1.0,)),))


# --- algorithm-level invariants ---------------------------------------------


def test_greedy_one_minus_one_over_e():
    for seed in range(6):
        f = random_coverage_instance(9, seed=seed)
        k = 3
        mask, _ = deterministic_greedy(f, k)
        opt = exhaustive_opt(f, k)
        assert f.value(mask) >= (1 - 1 / np.e) * opt - 1e-9


def test_permutation_equivariance():
    w = (9.0, 5.0, 7.0, 1.0, 3.0)
    f = modular(*w)
    perm = [2, 0, 4, 1, 3]     # new id of each old id
    wp = [0.0] * 5
    for old, new in enumerate(perm):
        wp[new] = w[old]
    g = modular(*wp)
    mask_f, _ = deterministic_greedy(f, 3)
    mask_g, _ = deterministic_greedy(g, 3)
    relabeled = 0
    for e in ids_of(mask_f):
        relabeled |= 1 << perm[e]
    assert relabeled == mask_g


def test_scaling_invariance():
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    scaled = ValueOracle(10, lambda m: 7.5 * f._fn(m), name="scaled")
    d1, _ = deterministic_greedy(f, 3)
    d2, _ = deterministic_greedy(scaled, 3)
    assert d1 == d2
    for rule in (randomized_greedy_rule(), proportional_greedy_rule()):
        p1 = rule.probabilities(f, 0b1, 3)
        p2 = rule.probabilities(scaled, 0b1, 3)
        assert [e for e, _ in p1] == [e for e, _ in p2]
        assert np.allclose([q for _, q in p1], [q for _, q in p2], atol=1e-12)
