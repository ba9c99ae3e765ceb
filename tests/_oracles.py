"""Independent brute-force oracles for the test suite.

Everything here is deliberately written without touching the library's own
solver/enumeration code paths: transported flows come from basis
enumeration over the transportation polytope, function values from literal
re-transcriptions of the defining formulas, and optima from exhaustive
subset search.
"""

from __future__ import annotations

import itertools


def bruteforce_emd(a, b, cost):
    """Minimum-cost transportation by enumerating basic feasible solutions.

    Every vertex of the transportation polytope corresponds to a spanning
    tree of the r x c complete bipartite graph (r + c - 1 arcs).  Each
    candidate basis is solved by leaf elimination and kept when the implied
    flows are nonnegative.  Exponential; fine for r, c <= 4.
    """
    r, c = len(a), len(b)
    assert abs(sum(a) - sum(b)) < 1e-9
    cells = [(i, j) for i in range(r) for j in range(c)]
    best = None
    for arcs in itertools.combinations(cells, r + c - 1):
        flows = _solve_tree(a, b, arcs, r, c)
        if flows is None:
            continue
        if min(flows.values()) < -1e-12:
            continue
        value = sum(f * cost[i][j] for (i, j), f in flows.items())
        if best is None or value < best:
            best = value
    return best


def _solve_tree(a, b, arcs, r, c):
    """Leaf-eliminate the (row, col) incidence structure; None if not a tree."""
    remaining = set(arcs)
    supply = {("r", i): a[i] for i in range(r)}
    supply.update({("c", j): -b[j] for j in range(c)})
    incident = {}
    for (i, j) in arcs:
        incident.setdefault(("r", i), []).append((i, j))
        incident.setdefault(("c", j), []).append((i, j))
    if len(incident) < r + c:
        return None  # some node untouched: not spanning
    flows = {}
    active = dict(incident)
    while remaining:
        leaf = next((node for node, arcs_ in active.items() if len(arcs_) == 1), None)
        if leaf is None:
            return None  # cycle
        (i, j) = active[leaf][0]
        f = supply[leaf] if leaf[0] == "r" else -supply[leaf]
        flows[(i, j)] = f
        supply[("r", i)] -= f
        supply[("c", j)] += f
        remaining.discard((i, j))
        del active[leaf]
        other = ("c", j) if leaf[0] == "r" else ("r", i)
        active[other] = [arc for arc in active[other] if arc != (i, j)]
        if not active[other] and remaining:
            return None
    return flows


def ordered_selection_enumeration(n, steps, step_probs, start=0):
    """Set distribution and per-step selection profile of a sequential
    sampler, by walking every ordered selection sequence on its own (no
    merging of sequences that reach the same set).

    ``step_probs(current, step)`` gives the (element, probability) pairs of
    step ``step`` (1-based) from the bitmask ``current``.  Returns
    ({final mask: probability}, profile) where profile[i][e] is the
    probability of selecting e at step i + 1.
    """
    dist = {}
    profile = [[0.0] * n for _ in range(steps)]

    def walk(current, step, mass):
        if step > steps:
            dist[current] = dist.get(current, 0.0) + mass
            return
        for e, p in step_probs(current, step):
            profile[step - 1][e] += mass * p
            walk(current | (1 << e), step + 1, mass * p)

    walk(start, 1, 1.0)
    return dist, profile


def exhaustive_opt(oracle, k):
    """Best value over all subsets of size <= k, by full enumeration."""
    n = oracle.n
    best = 0.0
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for e in combo:
                mask |= 1 << e
            best = max(best, oracle.value(mask))
    return best


# --- literal hand evaluators (keep these dumb and direct) -----------------


def hand_large_element(n, k, eps, members):
    total = 0.0
    for e in members:                      # e is a 0-based id; 1-indexed as e+1
        total += 1.0 if (e + 1) <= k else eps
    return total


def hand_curvature_det_lb(k, c, big, members):
    total = 0.0
    has_first = 0 in members
    for e in members:
        i = e + 1
        if i == 1:
            total += big
        elif 2 <= i <= k + 1:
            total += 1.0 - (c if has_first else 0.0)
        elif k + 2 <= i <= 2 * k + 1:
            total += 1.0 - c / 2.0
    return total


def hand_greedi_lb(n, c, big, members):
    total = 0.0
    has_first = 0 in members
    for e in members:
        i = e + 1
        if i == 1:
            total += big
        elif i <= n // 2:
            total += 1.0 - (c if has_first else 0.0)
        else:
            total += 1.0 - c / 2.0
    return total


def hand_appendixD(n, c, m_scale, n_a, members):
    total = 0.0
    has_star = 0 in members
    for e in members:
        if e == 0:
            total += m_scale
        elif 1 <= e <= n_a:
            total += 1.0
        else:
            total += (1.0 - c) if has_star else 1.0
    return total


def hand_prop_lb(n, ratio, members):
    half = n // 2
    unit_total = half - 1
    b_weights = {}
    below = unit_total
    for i in range(n, half, -1):           # 1-indexed positions n .. n/2+1
        b_weights[i] = ratio * below
        below += b_weights[i]
    big_a = ratio * below
    total = 0
    has_first = 0 in members
    for e in members:
        i = e + 1
        if i == 1:
            total += big_a
        elif i <= half:
            total += 1
        elif not has_first:
            total += b_weights[i]
    return total
