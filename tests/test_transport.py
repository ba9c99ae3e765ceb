"""Exact EMD solver: hand examples, brute-force agreement, metric axioms,
duality certificates, serialization, differential tests of the difference
solve against brute force and the full-matrix simplex, and of the
rooted-tree simplex against the frozen depth-first one."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsens import (FunctionSpec, OutputDistribution, build_function, emd,
                     exact_output_distribution,
                     inclusion_probability_lower_bound, mask_of,
                     proportional_greedy_rule, restrict, sym_diff_cost,
                     tv_distance, worst_case_sensitivity)
from subsens.transport import (InfeasibleMarginalsError,
                               SupportCapExceededError, _grid_cost,
                               _network_simplex, _shared_trials)

from _dfs_simplex import dfs_network_simplex
from _oracles import bruteforce_emd


def dist(n, k, mapping, **kw):
    return OutputDistribution(n, k, dict(mapping), **kw)


# --- symmetric difference cost ----------------------------------------------


def test_sym_diff_identical():
    assert sym_diff_cost(0b1011, 0b1011) == 0


def test_sym_diff_hand_count():
    s = mask_of([0, 1, 2])
    t = mask_of([0, 3])
    assert sym_diff_cost(s, t) == 3


def test_sym_diff_disjoint_k_sets():
    assert sym_diff_cost(0b000111, 0b111000) == 6


# --- EMD hand examples ------------------------------------------------------


def test_emd_identity_is_zero():
    d = dist(4, 2, {0b0011: 0.25, 0b0110: 0.75})
    value, plan = emd(d, d)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_emd_point_masses():
    d1 = dist(5, 2, {0b00011: 1.0})
    d2 = dist(5, 2, {0b11000: 1.0})
    value, _ = emd(d1, d2)
    assert value == pytest.approx(4.0)


def test_emd_two_point_example():
    d1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5})
    d2 = dist(4, 1, {0b0001: 1.0})
    value, plan = emd(d1, d2)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert tv_distance(d1, d2) == pytest.approx(0.5)


def test_emd_mass_mismatch_rejected():
    d1 = dist(3, 1, {0b001: 0.6, 0b010: 0.6})
    d2 = dist(3, 1, {0b001: 1.0})
    with pytest.raises(InfeasibleMarginalsError):
        emd(d1, d2)


def test_emd_rejects_a_gap_no_target_can_absorb():
    kept = dist(3, 1, {0b001: 0.3}, lost_mass=0.7)
    pruned_away = dist(3, 1, {}, lost_mass=1.0)
    for d1, d2 in ((kept, pruned_away), (pruned_away, kept)):
        with pytest.raises(InfeasibleMarginalsError, match="lost 0.7 and 1.0|lost 1.0 and 0.7"):
            emd(d1, d2)
    # the largest target (0.5) cannot take a gap of -0.6
    more = dist(3, 1, {0b001: 0.5, 0b010: 0.4}, lost_mass=0.1)
    with pytest.raises(InfeasibleMarginalsError, match="0.3 vs 0.9"):
        emd(dist(3, 1, {0b100: 0.3}, lost_mass=0.7), more)


# a pruned scan (proportional greedy, p_min=1e-2, deletion of element 0) whose
# deletion keeps mass the base run lost, or keeps none at all
PRUNED_GAPS = [
    (FunctionSpec("near_equality", n=8, c=0.5, i_max=3), 4),
    (FunctionSpec("avg_curvature_lb", n=8, k=4, c=0.5), 5),
    (FunctionSpec("avg_greedi_lb", n=8, k=4, c=0.5), 5),
    (FunctionSpec("curvature_det_lb", n=11, k=5, c=0.5), 3),
    (FunctionSpec("curvature_rand_lb", n=9, k=2, c=0.5), 3),
    (FunctionSpec("appendixD_lb", n=8, c=0.75), 3),
]


@pytest.mark.parametrize("spec, k", PRUNED_GAPS, ids=lambda x: getattr(x, "family", x))
def test_pruned_scan_mass_gap_is_typed(spec, k):
    with pytest.raises(InfeasibleMarginalsError, match="mass gap .*lost"):
        worst_case_sensitivity(proportional_greedy_rule(), build_function(spec), k,
                               p_min=1e-2, elements=[0])


def test_support_cap():
    d1 = dist(6, 2, {mask_of([0, e]): 1 / 5 for e in range(1, 6)})
    with pytest.raises(SupportCapExceededError):
        emd(d1, d1, support_cap=5)


def test_ground_set_mismatch():
    d1 = dist(4, 1, {0b1: 1.0})
    d2 = dist(5, 1, {0b1: 1.0})
    with pytest.raises(ValueError):
        emd(d1, d2)


# --- solver correctness -----------------------------------------------------


def _random_dist(rng, n, k, support):
    masks = set()
    while len(masks) < support:
        ids = rng.choice(n, size=k, replace=False)
        masks.add(int(sum(1 << int(e) for e in ids)))
    p = rng.random(len(masks))
    p /= p.sum()
    return dist(n, k, dict(zip(sorted(masks), p)))


def test_emd_matches_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d1 = _random_dist(rng, 6, 3, int(rng.integers(1, 5)))
        d2 = _random_dist(rng, 6, 3, int(rng.integers(1, 5)))
        value, _ = emd(d1, d2)
        ref = bruteforce_emd(
            [d1.probs[m] for m in d1.support()],
            [d2.probs[m] for m in d2.support()],
            [[sym_diff_cost(s, t) for t in d2.support()] for s in d1.support()])
        assert value == pytest.approx(ref, abs=1e-9)


def test_emd_metric_axioms():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d1, d2, d3 = (_random_dist(rng, 6, 3, int(rng.integers(1, 6)))
                      for _ in range(3))
        e12 = emd(d1, d2)[0]
        e21 = emd(d2, d1)[0]
        e13 = emd(d1, d3)[0]
        e23 = emd(d2, d3)[0]
        assert emd(d1, d1)[0] <= 1e-12
        assert e12 == pytest.approx(e21, abs=1e-9)
        assert e13 <= e12 + e23 + 1e-9


def test_inclusion_bound_below_emd():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d1 = _random_dist(rng, 6, 3, int(rng.integers(1, 6)))
        d2 = _random_dist(rng, 6, 3, int(rng.integers(1, 6)))
        value, _ = emd(d1, d2)
        assert inclusion_probability_lower_bound(d1, d2) <= value + 1e-9


def test_inclusion_bound_tight_on_disjoint_point_masses():
    d1 = dist(8, 3, {0b00000111: 1.0})
    d2 = dist(8, 3, {0b01110000: 1.0})
    lb = inclusion_probability_lower_bound(d1, d2)
    value, _ = emd(d1, d2)
    assert lb == pytest.approx(6.0)
    assert value == pytest.approx(6.0)


def test_inclusion_bound_zero_on_identical():
    d = dist(5, 2, {0b00011: 0.5, 0b00110: 0.5})
    assert inclusion_probability_lower_bound(d, d) == pytest.approx(0.0)


def test_emd_bounded_by_2k():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        d1 = _random_dist(rng, 8, k, int(rng.integers(1, 5)))
        d2 = _random_dist(rng, 8, k, int(rng.integers(1, 5)))
        value, _ = emd(d1, d2)
        assert value <= 2 * k + 1e-9


# --- plan and certificate ---------------------------------------------------


def test_plan_marginals_and_certificate():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d1 = _random_dist(rng, 7, 3, int(rng.integers(2, 6)))
        d2 = _random_dist(rng, 7, 3, int(rng.integers(2, 6)))
        value, plan = emd(d1, d2)
        assert plan.certificate_ok()
        assert plan.max_marginal_residual <= 1e-9
        # row/column sums reproduce the inputs
        row = {}
        col = {}
        for s, t, m in plan.entries:
            row[s] = row.get(s, 0.0) + m
            col[t] = col.get(t, 0.0) + m
        for s, p in d1.probs.items():
            assert row.get(s, 0.0) == pytest.approx(p, abs=1e-9)
        for t, p in d2.probs.items():
            assert col.get(t, 0.0) == pytest.approx(p, abs=1e-9)
        # duality: dual objective equals the primal optimum
        dual = (sum(plan.potentials_source[i] * d1.probs[s]
                    for i, s in enumerate(plan.sources))
                + sum(plan.potentials_target[j] * d2.probs[t]
                      for j, t in enumerate(plan.targets)))
        assert dual == pytest.approx(value, abs=1e-7)


def test_rational_cost_for_matched_empirical_pairs():
    d1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5}, mode="empirical", trials=8)
    d2 = dist(4, 1, {0b0001: 0.75, 0b0100: 0.25}, mode="empirical", trials=8)
    value, plan = emd(d1, d2)
    assert plan.cost_rational is not None
    assert plan.cost_rational == Fraction(value).limit_denominator(1000)
    # exact vs exact gets no rational
    e1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5})
    assert emd(e1, e1)[1].cost_rational is None


def test_plan_csv_round_trip_values():
    d1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5})
    d2 = dist(4, 1, {0b0001: 1.0})
    _, plan = emd(d1, d2)
    lines = plan.to_csv().strip().splitlines()
    assert lines[0] == "source_hex,target_hex,mass,cost_contrib"
    total = 0.0
    for ln in lines[1:]:
        s, t, m, cc = ln.split(",")
        assert float(cc) == pytest.approx(float(m) * sym_diff_cost(int(s, 16), int(t, 16)))
        total += float(cc)
    assert total == pytest.approx(plan.cost)


def test_tv_distance_disjoint_supports():
    d1 = dist(4, 1, {0b0001: 1.0})
    d2 = dist(4, 1, {0b0010: 1.0})
    assert tv_distance(d1, d2) == pytest.approx(1.0)


def test_degenerate_mass_patterns_agree_with_bruteforce():
    # near-zero masses break exact supply/demand balance in float; the
    # initial-basis construction must stay a spanning tree regardless
    rng = np.random.default_rng(99)
    for _ in range(150):
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        a = rng.random(r)
        a[rng.random(r) < 0.4] = 1e-12
        a /= a.sum()
        b = rng.random(c)
        b[rng.random(c) < 0.4] = 1e-12
        b /= b.sum()
        d1 = dist(6, 2, dict(zip([0b11 << i for i in range(r)], a)))
        d2 = dist(6, 2, dict(zip([0b11 << i for i in range(c)], b)))
        value, plan = emd(d1, d2)
        ref = bruteforce_emd(list(a), list(b),
                             [[sym_diff_cost(s, t) for t in d2.support()]
                              for s in d1.support()])
        assert value == pytest.approx(ref, abs=1e-9)
        assert plan.certificate_ok()


def test_extreme_mass_ratio_cascade_shape():
    # regression: pruned cascade distributions mix ~1e-22 and ~0.999 masses
    from subsens import (FunctionSpec, build_function, exact_output_distribution,
                         proportional_greedy_rule, restrict)
    f = build_function(FunctionSpec("prop_lb", n=12))
    rule = proportional_greedy_rule()
    d1 = exact_output_distribution(rule, f, 5, p_min=1e-13)
    red = restrict(f, 1)
    d2 = exact_output_distribution(rule, red, 5, p_min=1e-13).remapped(red.index_map, 12)
    value, plan = emd(d1, d2)
    assert plan.certificate_ok()
    assert 0.0 <= value <= 10.0


def test_emd_accepts_gap_explained_by_lost_mass():
    d1 = dist(3, 1, {0b001: 0.5, 0b010: 0.5 - 4e-7}, lost_mass=4e-7)
    d2 = dist(3, 1, {0b001: 0.25, 0b100: 0.75})
    value, plan = emd(d1, d2)
    assert plan.mass_gap == pytest.approx(-4e-7, abs=1e-15)
    assert plan.certificate_ok()
    assert value == pytest.approx(1.5, abs=1e-6)


def test_pruned_scan_completes_within_lost_mass():
    from subsens import (FunctionSpec, build_function, exact_output_distribution,
                         proportional_greedy_rule, restrict, worst_case_sensitivity)
    f = build_function(FunctionSpec("prop_lb", n=12))
    rule = proportional_greedy_rule()
    k = 5
    pruned = worst_case_sensitivity(rule, f, k, p_min=1e-6, alg_name="proportional")
    fine = worst_case_sensitivity(rule, f, k, p_min=1e-13, alg_name="proportional")
    base_lost = exact_output_distribution(rule, f, k, p_min=1e-6).lost_mass
    assert base_lost > 0
    for r, ref in zip(pruned.per_element, fine.per_element):
        assert r.element == ref.element
        assert 0.0 <= r.emd <= 2 * k
        red = restrict(f, r.element)
        lost = base_lost + exact_output_distribution(rule, red, k, p_min=1e-6).lost_mass
        assert abs(r.emd - ref.emd) <= 4 * k * lost + 1e-9


# --- difference solve vs brute force and the plain full-matrix path ----------


def _recheck_plan(d1, d2, value, plan, tol=1e-9):
    """Marginals, dual feasibility on every pair and strong duality,
    recomputed from the plan without the solver's own residuals."""
    assert plan.sources == sorted(d1.probs)
    assert plan.targets == sorted(d2.probs)
    out_mass, in_mass, primal = {}, {}, 0.0
    for s, t, m in plan.entries:
        assert m >= 0
        out_mass[s] = out_mass.get(s, 0.0) + m
        in_mass[t] = in_mass.get(t, 0.0) + m
        primal += m * (s ^ t).bit_count()
    for s, p in d1.probs.items():
        assert out_mass.get(s, 0.0) == pytest.approx(p, abs=tol)
    for t, q in d2.probs.items():
        assert in_mass.get(t, 0.0) == pytest.approx(q, abs=tol)
    u, v = plan.potentials_source, plan.potentials_target
    for i, s in enumerate(plan.sources):
        for j, t in enumerate(plan.targets):
            assert u[i] + v[j] <= (s ^ t).bit_count() + 1e-9
    dual = (sum(u[i] * d1.probs[s] for i, s in enumerate(plan.sources))
            + sum(v[j] * d2.probs[t] for j, t in enumerate(plan.targets)))
    assert dual == pytest.approx(value, abs=1e-7)
    assert primal == pytest.approx(value, abs=1e-9)


_TRIPLES = [m for m in range(1 << 6) if m.bit_count() == 3]


def _normalized(masks, weights, total=1.0):
    scale = total / sum(weights)
    return {m: w * scale for m, w in zip(masks, weights)}


@st.composite
def _shared_support_pairs(draw):
    """(kind, p, q) over 3-subsets of 6 elements with at most 4 sets each."""
    kind = draw(st.sampled_from(["identical", "nested", "disjoint", "partial",
                                 "equal_shared"]))
    pool = draw(st.permutations(_TRIPLES))

    def weights(size):
        return draw(st.lists(st.integers(1, 20), min_size=size, max_size=size))

    if kind == "identical":
        masks = pool[:draw(st.integers(1, 4))]
        p = _normalized(masks, weights(len(masks)))
        return kind, p, dict(p)
    if kind == "equal_shared":
        h = draw(st.integers(1, 3))
        x = draw(st.integers(1, 4 - h))
        y = draw(st.integers(1, 4 - h))
        shared, only1, only2 = pool[:h], pool[h:h + x], pool[h + x:h + x + y]
        w = weights(h + x)
        p = _normalized(shared + only1, w)
        rest = 1.0 - sum(p[m] for m in shared)
        q = {m: p[m] for m in shared}
        q.update(_normalized(only2, weights(y), rest))
        return kind, p, q
    r = draw(st.integers(1, 4))
    if kind == "nested":
        r = max(r, 2)
        s1, s2 = pool[:r], pool[:draw(st.integers(1, r - 1))]
    elif kind == "disjoint":
        s1, s2 = pool[:r], pool[r:r + draw(st.integers(1, 4))]
    else:
        r = max(r, 2)
        overlap = draw(st.integers(1, r - 1))
        s1 = pool[:r]
        s2 = pool[r - overlap:r - overlap + draw(st.integers(overlap + 1, 4))]
    return kind, _normalized(s1, weights(len(s1))), _normalized(s2, weights(len(s2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_shared_support_pairs())
def test_difference_solve_matches_bruteforce_on_shared_supports(case):
    kind, p, q = case
    d1, d2 = dist(6, 3, p), dist(6, 3, q)
    value, plan = emd(d1, d2)
    ref = bruteforce_emd([p[s] for s in d1.support()], [q[t] for t in d2.support()],
                         [[(s ^ t).bit_count() for t in d2.support()]
                          for s in d1.support()])
    assert value == pytest.approx(ref, abs=1e-9)
    _recheck_plan(d1, d2, value, plan)
    if kind == "identical":
        assert (plan.reduced_rows, plan.reduced_cols, plan.pivots) == (0, 0, 0)
        assert value == 0.0
    # only sets with p > q (rows) or q > p (columns) are transported, plus
    # at most one set where the float residue of the total masses lands
    assert plan.reduced_rows <= sum(1 for s in p if p[s] > q.get(s, 0.0)) + 1
    assert plan.reduced_cols <= sum(1 for t in q if q[t] > p.get(t, 0.0)) + 1


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_multiword_masks_match_bruteforce(seed):
    # n > 64 takes several uint64 words per mask in the cost matrix
    rng = np.random.default_rng(seed)
    n = 150
    masks = set()
    while len(masks) < 6:
        masks.add(int(sum(1 << int(e) for e in rng.choice(n, size=4, replace=False))))
    masks = sorted(masks)
    p = _normalized(masks[:3], list(rng.integers(1, 10, size=3)))
    q = _normalized(masks[2:5], list(rng.integers(1, 10, size=3)))
    d1, d2 = dist(n, 4, p), dist(n, 4, q)
    value, plan = emd(d1, d2)
    ref = bruteforce_emd(list(p.values()), list(q.values()),
                         [[(s ^ t).bit_count() for t in q] for s in p])
    assert value == pytest.approx(ref, abs=1e-9)
    _recheck_plan(d1, d2, value, plan)


def _plain_emd(d1, d2):
    """_network_simplex run directly on the full r x c matrix, no cancelling."""
    sources, targets = d1.support(), d2.support()
    a = np.array([d1.probs[m] for m in sources])
    b = np.array([d2.probs[m] for m in targets])
    b[int(np.argmax(b))] += a.sum() - b.sum()
    cost = np.array([[float((s ^ t).bit_count()) for t in targets] for s in sources])
    basis, flows, *_ = _network_simplex(a, b, cost)
    return sum(f * cost[i, j] for (i, j), f in zip(basis, flows))


def test_difference_solve_matches_plain_path_on_greedi_lb():
    from subsens import (FunctionSpec, build_function, exact_output_distribution,
                         proportional_greedy_rule, restrict)
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    rule = proportional_greedy_rule()
    base = exact_output_distribution(rule, f, 4)
    for e in range(f.n):
        red = restrict(f, e)
        d2 = exact_output_distribution(rule, red, 4).remapped(red.index_map, f.n)
        value, plan = emd(base, d2)
        assert abs(value - _plain_emd(base, d2)) <= 1e-9
        assert plan.reduced_rows < len(plan.sources)
        _recheck_plan(base, d2, value, plan)


# --- rooted spanning tree against the frozen depth-first solver -------------


@st.composite
def _simplex_inputs(draw, kind):
    """Balanced (a, b, cost) as emd hands them to the solver.

    single: one row or one column; ties: integer |S △ T| costs over a few
    bits, so many cells tie; equal: uniform masses, whose equal partial sums
    make degenerate pivots, and float costs; random: random positive masses
    and float costs.
    Hypothesis draws the shape and a seed; numpy fills in the values.
    """
    r = draw(st.integers(4, 16))
    c = draw(st.integers(4, 16))
    if kind == "single":
        if draw(st.booleans()):
            r = 1
        else:
            c = 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "equal":
        a, b = np.full(r, 1.0 / r), np.full(c, 1.0 / c)
    else:
        a = rng.random(r) + 1e-3
        b = rng.random(c) + 1e-3
        a /= a.sum()
        b /= b.sum()
    b[int(np.argmax(b))] += a.sum() - b.sum()
    if kind in ("equal", "random"):
        cost = rng.random((r, c)) * 8
    else:
        bits = draw(st.integers(2, 8))
        s = rng.integers(0, 2 ** bits, size=r)
        t = rng.integers(0, 2 ** bits, size=c)
        cost = np.bitwise_count(s[:, None] ^ t[None, :]).astype(float)
    return a, b, cost


def _assert_matches_dfs_reference(a, b, cost):
    """Solve with both simplexes; returns the Bland pivot count."""
    basis, flows, u, v, pivots, bland = _network_simplex(a.copy(), b.copy(), cost)
    ref_basis, ref_flows, ref_u, ref_v, ref_pivots = dfs_network_simplex(
        a.copy(), b.copy(), cost)
    assert basis == ref_basis
    assert flows == ref_flows
    assert np.array_equal(u, ref_u)
    assert np.array_equal(v, ref_v)
    assert pivots == ref_pivots
    assert 0 <= bland <= pivots
    return bland


@pytest.mark.parametrize("kind", ["single", "ties", "equal", "random"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rooted_tree_simplex_matches_dfs_reference(kind, data):
    # same pivot rule and same cycle orientation: every pivot, flow and
    # potential must agree bit for bit, not merely the optimal value
    a, b, cost = data.draw(_simplex_inputs(kind))
    _assert_matches_dfs_reference(a, b, cost)


def test_bland_fallback_counted_and_matches_dfs_reference():
    # masses below PIVOT_TOL make every pivot that moves only them count as
    # degenerate, so a long enough run switches the solver to Bland's rule
    r, c, eps = 14, 12, 1e-14
    a = np.full(r, eps)
    a[0] = 1 - eps * (r - 1)
    b = np.full(c, eps)
    b[-1] = 1 - eps * (c - 1)
    b[-1] += a.sum() - b.sum()
    cost = (np.arange(r)[:, None] * (np.arange(c)[None, :] + 3) % 5).astype(float)
    assert _assert_matches_dfs_reference(a, b, cost) == 3


@pytest.mark.parametrize("spec, k, total", [
    (FunctionSpec("greedi_lb", n=10, c=0.5), 4, 968),
    (FunctionSpec("appendixD_lb", n=24, c=0.75), 2, 529),
])
def test_proportional_scan_pivot_totals(spec, k, total):
    # totals recorded with the depth-first solver: the rooted tree changes
    # the bookkeeping of a pivot, never which pivot is taken
    f = build_function(spec)
    rule = proportional_greedy_rule()
    base = exact_output_distribution(rule, f, k)
    pivots = bland = 0
    for e in range(f.n):
        red = restrict(f, e)
        d2 = exact_output_distribution(rule, red, k).remapped(red.index_map, f.n)
        plan = emd(base, d2)[1]
        pivots += plan.pivots
        bland += plan.bland_pivots
    assert (pivots, bland) == (total, 0)


# --- exact rational objective -----------------------------------------------


def _fraction_sum(entries, trials):
    """The objective as one Fraction per plan entry."""
    total = Fraction(0)
    for s, t, f in entries:
        total += Fraction(round(f * trials), trials) * sym_diff_cost(s, t)
    return total


@st.composite
def _empirical_pair(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n))
    trials = draw(st.integers(1, 40))
    sets = st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(mask_of)

    def empirical():
        counts = {}
        for m in draw(st.lists(sets, min_size=trials, max_size=trials)):
            counts[m] = counts.get(m, 0) + 1
        return dist(n, k, {m: c / trials for m, c in counts.items()},
                    mode="empirical", trials=trials)

    return empirical(), empirical()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_empirical_pair())
def test_rational_cost_equals_per_entry_fraction_sum(pair):
    d1, d2 = pair
    value, plan = emd(d1, d2)
    assert plan.cost_rational is not None
    assert plan.cost_rational == _fraction_sum(plan.entries, d1.trials)
    assert float(plan.cost_rational) == pytest.approx(value, abs=1e-9)


def test_rational_cost_none_off_grid_mismatched_or_exact():
    d1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5}, mode="empirical", trials=8)
    d2 = dist(4, 1, {0b0001: 0.75, 0b0100: 0.25}, mode="empirical", trials=8)
    on_grid = [(0b0001, 0b0001, 0.5), (0b0010, 0b0001, 0.25), (0b0010, 0b0100, 0.25)]
    assert _grid_cost(on_grid, _shared_trials(d1, d2)) == Fraction(1, 1)
    # 0.0625 is half of 1/8: off the grid of 8 trials
    off_grid = [(0b0001, 0b0001, 0.5), (0b0010, 0b0001, 0.4375),
                (0b0010, 0b0100, 0.0625)]
    assert _grid_cost(off_grid, _shared_trials(d1, d2)) is None
    d3 = dist(4, 1, {0b0001: 0.7, 0b0100: 0.3}, mode="empirical", trials=10)
    assert _grid_cost(on_grid, _shared_trials(d1, d3)) is None
    assert emd(d1, d3)[1].cost_rational is None
    e1 = dist(4, 1, {0b0001: 0.5, 0b0010: 0.5})
    e2 = dist(4, 1, {0b0001: 0.75, 0b0100: 0.25})
    assert _grid_cost(on_grid, _shared_trials(e1, e2)) is None
    assert _grid_cost(on_grid, _shared_trials(d1, e2)) is None
