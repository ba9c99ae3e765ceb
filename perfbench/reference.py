"""Reference computations for the benchmark's correctness checks.

Nothing here imports ``subsens``.  Oracles are used only through
``oracle.n`` and ``oracle.value(mask)``; distributions are plain
``{mask: probability}`` dicts; transport plans are read through the
attributes a plan exposes (``sources``, ``targets``, ``entries``,
``potentials_source``, ``potentials_target``).  Deleting element e is
modelled by excluding e from the candidates, so no restricted oracle is
needed.
"""

from __future__ import annotations

import math

import numpy as np


def popcount(x: int) -> int:
    return x.bit_count()


def sym_diff_matrix(rows: list[int], cols: list[int]) -> np.ndarray:
    """|S △ T| for every (row set, column set) pair."""
    return np.array([[(s ^ t).bit_count() for t in cols] for s in rows], dtype=float)


# ---------------------------------------------------------------------------
# algorithms, re-implemented from their definitions


def _candidates(n: int, current: int, allowed: int) -> list[int]:
    return [e for e in range(n) if (allowed >> e) & 1 and not (current >> e) & 1]


def proportional_step(oracle, current: int, allowed: int) -> list[tuple[int, float]]:
    """Proportional greedy: mass proportional to the marginal gain, uniform
    over the candidates when every gain is zero."""
    base = oracle.value(current)
    cands = _candidates(oracle.n, current, allowed)
    gains = [(e, oracle.value(current | 1 << e) - base) for e in cands]
    total = sum(g for _, g in gains if g > 0)
    if total <= 0:
        return [(e, 1.0 / len(cands)) for e in cands]
    return [(e, g / total) for e, g in gains if g > 0]


def enumerate_proportional(oracle, k: int, allowed: int | None = None,
                           p_min: float = 0.0) -> tuple[dict[int, float], float]:
    """Output distribution of proportional greedy by recursion over ordered
    selections.  A path whose probability falls below ``p_min`` is dropped;
    the dropped mass is returned with the distribution."""
    if allowed is None:
        allowed = (1 << oracle.n) - 1
    steps = min(k, popcount(allowed))
    out: dict[int, float] = {}
    lost = 0.0

    def descend(current: int, depth: int, prob: float):
        nonlocal lost
        if depth == steps:
            out[current] = out.get(current, 0.0) + prob
            return
        for e, p in proportional_step(oracle, current, allowed):
            mass = prob * p
            if mass < p_min:
                lost += mass
                continue
            descend(current | 1 << e, depth + 1, mass)

    descend(0, 0, 1.0)
    return out, lost


def proportional_k2(oracle, allowed: int | None = None) -> dict[int, float]:
    """Closed form for k = 2: P({a,b}) = p(a) p(b|a) + p(b) p(a|b)."""
    if allowed is None:
        allowed = (1 << oracle.n) - 1
    out: dict[int, float] = {}
    for a, pa in proportional_step(oracle, 0, allowed):
        for b, pb in proportional_step(oracle, 1 << a, allowed):
            key = (1 << a) | (1 << b)
            out[key] = out.get(key, 0.0) + pa * pb
    return out


def greedy(oracle, k: int, allowed: int | None = None) -> int:
    """Deterministic greedy: largest marginal gain, lowest id on ties."""
    if allowed is None:
        allowed = (1 << oracle.n) - 1
    current = 0
    for _ in range(min(k, popcount(allowed))):
        base = oracle.value(current)
        best, best_gain = -1, None
        for e in _candidates(oracle.n, current, allowed):
            gain = oracle.value(current | 1 << e) - base
            if best_gain is None or gain > best_gain:
                best, best_gain = e, gain
        current |= 1 << best
    return current


# ---------------------------------------------------------------------------
# distances and bounds


def total_mass(p: dict[int, float]) -> float:
    return math.fsum(p.values())


def tv(p: dict[int, float], q: dict[int, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(m, 0.0) - q.get(m, 0.0)) for m in keys)


def inclusion(p: dict[int, float], n: int) -> list[float]:
    out = [0.0] * n
    for mask, prob in p.items():
        for e in range(n):
            if (mask >> e) & 1:
                out[e] += prob
    return out


def inclusion_bound(p: dict[int, float], q: dict[int, float], n: int) -> float:
    """sum_e |P(e in S) - Q(e in S)|, a lower bound on the EMD."""
    return math.fsum(abs(a - b) for a, b in zip(inclusion(p, n), inclusion(q, n)))


def min_cost_transport(supply: list[float], demand: list[float],
                       cost: list[list[float]]) -> float:
    """Optimal transport cost by successive shortest paths (Bellman-Ford on
    the residual graph).  Meant for a few dozen nodes; masses must balance."""
    r, c = len(supply), len(demand)
    if abs(math.fsum(supply) - math.fsum(demand)) > 1e-9:
        raise ValueError("unbalanced transport problem")
    left = list(supply)
    need = list(demand)
    flow = [[0.0] * c for _ in range(r)]
    eps = 1e-15
    for _ in range(100 * (r + c) ** 2):
        # nodes: rows 0..r-1, columns r..r+c-1; sources are rows with supply
        dist = [math.inf] * (r + c)
        prev: list = [None] * (r + c)
        for i in range(r):
            if left[i] > eps:
                dist[i] = 0.0
        for _ in range(r + c):
            changed = False
            for i in range(r):
                if dist[i] < math.inf:
                    for j in range(c):
                        d = dist[i] + cost[i][j]
                        if d < dist[r + j] - 1e-12:
                            dist[r + j], prev[r + j] = d, i
                            changed = True
            for j in range(c):
                if dist[r + j] < math.inf:
                    for i in range(r):
                        if flow[i][j] > eps:
                            d = dist[r + j] - cost[i][j]
                            if d < dist[i] - 1e-12:
                                dist[i], prev[i] = d, r + j
                                changed = True
            if not changed:
                break
        sinks = [j for j in range(c) if need[j] > eps and dist[r + j] < math.inf]
        if not sinks:
            break
        j = min(sinks, key=lambda j: dist[r + j])
        path = []
        node = r + j
        while prev[node] is not None:
            path.append((prev[node], node))
            node = prev[node]
        start = node
        amount = min(left[start], need[j])
        for a, b in path:
            if a >= r:            # backward arc: column a-r gives flow back to row b
                amount = min(amount, flow[b][a - r])
        for a, b in path:
            if a >= r:
                flow[b][a - r] -= amount
            else:
                flow[a][b - r] += amount
        left[start] -= amount
        need[j] -= amount
    else:
        raise RuntimeError("successive shortest paths did not terminate")
    return math.fsum(flow[i][j] * cost[i][j] for i in range(r) for j in range(c))


def orbit_key(mask: int, blocks: list[int]) -> tuple[int, ...]:
    return tuple(popcount(mask & b) for b in blocks)


def lumped(p: dict[int, float], blocks: list[int]) -> dict[tuple, float]:
    out: dict[tuple, float] = {}
    for mask, prob in p.items():
        key = orbit_key(mask, blocks)
        out[key] = out.get(key, 0.0) + prob
    return out


def invariance_gap(p: dict[int, float], blocks: list[int]) -> float:
    """Largest deviation from invariance under permutations inside each
    block: every set of an orbit must be present with the same probability."""
    groups: dict[tuple, list[float]] = {}
    for mask, prob in p.items():
        groups.setdefault(orbit_key(mask, blocks), []).append(prob)
    gap = 0.0
    for key, probs in groups.items():
        orbit = 1
        for b, cnt in zip(blocks, key):
            orbit *= math.comb(popcount(b), cnt)
        if len(probs) != orbit:
            return math.inf
        gap = max(gap, max(probs) - min(probs))
    return gap


def lumped_emd(p: dict[int, float], q: dict[int, float], blocks: list[int]) -> float:
    """EMD between two distributions that are invariant under permutations
    inside each block: for such pairs it equals the transport cost between
    the orbit (count-vector) distributions under the L1 cost."""
    lp, lq = lumped(p, blocks), lumped(q, blocks)
    rows, cols = sorted(lp), sorted(lq)
    cost = [[float(sum(abs(x - y) for x, y in zip(a, b))) for b in cols] for a in rows]
    return min_cost_transport([lp[a] for a in rows], [lq[b] for b in cols], cost)


def certificate_violations(p: dict[int, float], q: dict[int, float], plan,
                           value: float, tol: float = 1e-7) -> list[str]:
    """LP-duality certificate of a transport plan, checked from scratch.

    Confirms the plan's marginals against p and q, dual feasibility
    u_i + v_j <= |S_i △ T_j|, and equality of the primal and dual
    objectives with the reported value.  Returns the violations found."""
    problems = []
    sources, targets = list(plan.sources), list(plan.targets)
    if sources != sorted(p) or targets != sorted(q):
        return ["plan supports differ from the input distributions"]
    out_mass = dict.fromkeys(sources, 0.0)
    in_mass = dict.fromkeys(targets, 0.0)
    primal = []
    for s, t, mass in plan.entries:
        if mass < -1e-12:
            problems.append(f"negative flow {mass!r}")
        out_mass[s] += mass
        in_mass[t] += mass
        primal.append(mass * popcount(s ^ t))
    residual = max(max(abs(out_mass[s] - p[s]) for s in sources),
                   max(abs(in_mass[t] - q[t]) for t in targets))
    if residual > 1e-9:
        problems.append(f"marginal residual {residual:.3g}")
    u = np.asarray(plan.potentials_source, dtype=float)
    v = np.asarray(plan.potentials_target, dtype=float)
    excess = float((u[:, None] + v[None, :] - sym_diff_matrix(sources, targets)).max())
    if excess > tol:
        problems.append(f"dual infeasible by {excess:.3g}")
    primal_obj = math.fsum(primal)
    dual_obj = math.fsum(list(u * np.array([p[s] for s in sources]))
                         + list(v * np.array([q[t] for t in targets])))
    if abs(primal_obj - dual_obj) > tol * max(1.0, abs(primal_obj)):
        problems.append(f"duality gap {primal_obj - dual_obj:.3g}")
    if abs(primal_obj - value) > 1e-9 * max(1.0, abs(value)):
        problems.append(f"plan cost {primal_obj!r} differs from value {value!r}")
    return problems
