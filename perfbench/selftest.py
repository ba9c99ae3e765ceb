"""Hand-computed cases for the reference code in ``reference.py``.

``run.py`` runs these before every benchmark run; they can also be run
alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
from itertools import combinations
from types import SimpleNamespace

import numpy as np

import reference as ref


class _Modular:
    """f(S) = sum of weights, a stand-in oracle for the enumerators."""

    def __init__(self, weights):
        self.n = len(weights)
        self.weights = weights

    def value(self, mask: int) -> float:
        return float(sum(w for e, w in enumerate(self.weights) if (mask >> e) & 1))


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def _plan(sources, targets, entries, u, v):
    return SimpleNamespace(sources=sources, targets=targets, entries=entries,
                           potentials_source=np.array(u, dtype=float),
                           potentials_target=np.array(v, dtype=float))


def cases():
    """Yield (name, passed) pairs."""
    # 2x2: x11 = a, cost 2.8 - 3a on a in [0.1, 0.4], optimum 1.6
    yield "transport 2x2", _close(ref.min_cost_transport(
        [0.7, 0.3], [0.4, 0.6], [[1.0, 3.0], [2.0, 1.0]]), 1.6)
    # 3x3 with uniform marginals: a third of the best assignment (1 + 2 + 2)
    yield "transport 3x3", _close(ref.min_cost_transport(
        [1 / 3] * 3, [1 / 3] * 3, [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]), 5 / 3)

    # sets 0b011, 0b101 vs 0b011, 0b110; the optimum keeps 0b011
    # in place and moves 0b101 -> 0b110 at cost 2, so EMD = 1.0 with
    # duals u = (0, 2), v = (0, 0)
    p = {0b011: 0.5, 0b101: 0.5}
    q = {0b011: 0.5, 0b110: 0.5}
    good = _plan([0b011, 0b101], [0b011, 0b110],
                 [(0b011, 0b011, 0.5), (0b101, 0b110, 0.5)], [0.0, 2.0], [0.0, 0.0])
    yield "certificate accepts optimal 2x2 plan", ref.certificate_violations(p, q, good, 1.0) == []
    bad_dual = _plan(good.sources, good.targets, good.entries, [0.0, 2.5], [0.0, 0.0])
    yield "certificate rejects infeasible duals", bool(
        ref.certificate_violations(p, q, bad_dual, 1.0))
    bad_flow = _plan(good.sources, good.targets,
                     [(0b011, 0b110, 0.5), (0b101, 0b011, 0.5)], [0.0, 2.0], [0.0, 0.0])
    yield "certificate rejects suboptimal plan", bool(
        ref.certificate_violations(p, q, bad_flow, 2.0))
    yield "certificate rejects wrong value", bool(ref.certificate_violations(p, q, good, 1.5))

    # weights (1, 2, 3), k = 2: P({a,b}) = w_a/6 * w_b/(6-w_a) + w_b/6 * w_a/(6-w_b)
    f = _Modular([1, 2, 3])
    expected = {0b011: 3 / 20, 0b101: 4 / 15, 0b110: 7 / 12}
    dist, lost = ref.enumerate_proportional(f, 2)
    yield "enumerator on weights (1,2,3)", lost == 0 and set(dist) == set(expected) and all(
        _close(dist[m], expected[m]) for m in expected)
    closed = ref.proportional_k2(f)
    yield "k=2 closed form on weights (1,2,3)", set(closed) == set(expected) and all(
        _close(closed[m], expected[m]) for m in expected)
    dist, _ = ref.enumerate_proportional(f, 2, allowed=0b110)
    yield "enumerator with element 0 deleted", dist == {0b110: 1.0}
    # paths 0->1 (1/15) and 1->0 (1/12) fall below 0.09; the rest stay
    dist, lost = ref.enumerate_proportional(f, 2, p_min=0.09)
    yield "enumerator prunes paths below p_min", _close(lost, 1 / 15 + 1 / 12) and _close(
        ref.total_mass(dist) + lost, 1.0)
    yield "greedy takes the lowest id on ties", ref.greedy(_Modular([1, 3, 3]), 2) == 0b110

    # n = 4, blocks {0,1} and {2,3}: uniform over all pairs vs uniform over
    # pairs with one element per block; 1/3 of the mass moves at cost 2
    p = {(1 << a) | (1 << b): 1 / 6 for a, b in combinations(range(4), 2)}
    q = {0b0101: 0.25, 0b1001: 0.25, 0b0110: 0.25, 0b1010: 0.25}
    blocks = [0b0011, 0b1100]
    yield "lumped EMD on two blocks", _close(ref.lumped_emd(p, q, blocks), 2 / 3)
    rows, cols = sorted(p), sorted(q)
    cost = ref.sym_diff_matrix(rows, cols).tolist()
    direct = ref.min_cost_transport([p[m] for m in rows], [q[m] for m in cols], cost)
    yield "lumped EMD equals set-level EMD", _close(direct, 2 / 3)
    yield "invariance gap of invariant pair", ref.invariance_gap(p, blocks) == 0.0 and \
        ref.invariance_gap(q, blocks) == 0.0
    yield "invariance gap flags a missing orbit member", \
        ref.invariance_gap({0b0101: 0.5, 0b1010: 0.5}, blocks) == float("inf")
    yield "2TV and inclusion bound", _close(ref.tv(p, q), 1 / 3) and _close(
        ref.inclusion_bound(p, q, 4), 0.0)


def failures() -> list[str]:
    return [name for name, ok in cases() if not ok]


if __name__ == "__main__":
    failed = failures()
    for name in failed:
        print(f"FAIL {name}")
    print(f"{len(list(cases())) - len(failed)} passed, {len(failed)} failed")
    sys.exit(1 if failed else 0)
