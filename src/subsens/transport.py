"""Exact earth mover's distance between subset distributions under the
symmetric-difference ground cost, plus total variation distance and the
inclusion-probability lower bound.

|S △ T| is a metric, so an optimal coupling may leave min(p, q) of every
shared set in place (Kantorovich–Rubinstein duality).  ``emd`` therefore
cancels the shared mass and solves a transportation problem only between
the positive part of p - q (rows) and its negative part (columns), on a
slice of one |S △ T| matrix built with ``np.bitwise_count`` over the
masks' 64-bit words.

The solver is a transportation-specialized network simplex.  Entering arcs
are chosen by most-negative reduced cost; if the objective stalls on
degenerate pivots the solver switches to Bland's rule until it makes
progress, which guarantees termination, and the plan counts those pivots.
The basis is kept as a spanning tree rooted at one node with parent
pointers, so a pivot walks only its cycle and the subtree it detaches.

The reduced dual is extended to every set by the c-transform
phi(x) = min_j (|x △ t_j| - v_j) over the transported columns: sources get
u = phi, transported columns keep their v, and cancelled targets get
v = -phi.  phi is 1-Lipschitz in the metric, so the extension is dual
feasible on the full problem, and the plan (with one diagonal entry per
shared set) meets it with complementary slackness within 1e-7.  Every solve
re-checks that certificate on the full r x c cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .distributions import OutputDistribution


class SupportCapExceededError(RuntimeError):
    """Combined support larger than the configured cap."""


class InfeasibleMarginalsError(ValueError):
    """Input distributions do not carry equal total mass."""


DEFAULT_SUPPORT_CAP = 50_000
PIVOT_TOL = 1e-12
CERT_TOL = 1e-7
MASS_TOL = 1e-9
_WORD = (1 << 64) - 1


def sym_diff_cost(a: int, b: int) -> int:
    """|S △ T| via popcount of xor."""
    return (a ^ b).bit_count()


def tv_distance(d1: OutputDistribution, d2: OutputDistribution) -> float:
    """Half the L1 distance between the two distributions."""
    if d1.n != d2.n:
        raise ValueError(f"ground sets differ: {d1.n} vs {d2.n}")
    keys = set(d1.probs) | set(d2.probs)
    return 0.5 * sum(abs(d1.probs.get(m, 0.0) - d2.probs.get(m, 0.0)) for m in sorted(keys))


def inclusion_probability_lower_bound(d1: OutputDistribution,
                                      d2: OutputDistribution) -> float:
    """sum_e |Pr_1[e in S] - Pr_2[e in S]|; a lower bound on the EMD since
    |S △ S'| = sum_e |1_S(e) - 1_S'(e)| pointwise."""
    if d1.n != d2.n:
        raise ValueError(f"ground sets differ: {d1.n} vs {d2.n}")
    return float(np.abs(d1.inclusion_probabilities() - d2.inclusion_probabilities()).sum())


@dataclass
class TransportPlan:
    """Optimal coupling between two subset distributions.

    ``mass_gap`` is sum(p) - sum(q) before balancing; ``reduced_rows`` and
    ``reduced_cols`` are the supports left to transport after cancelling
    the shared mass; ``bland_pivots`` counts the pivots taken under Bland's
    rule after a degenerate stall; ``grid_trials`` is the trial count of two
    empirical inputs that share it, and None otherwise.
    """

    sources: list[int]               # support masks, row order
    targets: list[int]               # support masks, column order
    entries: list[tuple[int, int, float]]   # (source mask, target mask, mass)
    cost: float
    grid_trials: Optional[int] = None
    potentials_source: Optional[np.ndarray] = None
    potentials_target: Optional[np.ndarray] = None
    max_negative_reduced_cost: float = 0.0
    max_marginal_residual: float = 0.0
    max_slackness_violation: float = 0.0
    pivots: int = 0
    bland_pivots: int = 0
    mass_gap: float = 0.0
    reduced_rows: int = 0
    reduced_cols: int = 0

    @cached_property
    def cost_rational(self) -> Optional[Fraction]:
        """The objective as an exact rational, computed when first read:
        None unless ``grid_trials`` is set and every entry lies on its
        grid."""
        return _grid_cost(self.entries, self.grid_trials)

    def certificate_ok(self, tol: float = CERT_TOL) -> bool:
        return (self.max_negative_reduced_cost <= tol
                and self.max_marginal_residual <= MASS_TOL
                and self.max_slackness_violation <= tol)

    def to_csv(self) -> str:
        lines = ["source_hex,target_hex,mass,cost_contrib"]
        for s, t, mass in self.entries:
            lines.append(f"{s:#x},{t:#x},{mass!r},{mass * sym_diff_cost(s, t)!r}")
        return "\n".join(lines) + "\n"


def _cost_matrix(sources: list[int], targets: list[int]) -> np.ndarray:
    """|S_i △ T_j| for every pair, as floats: popcount of xor, one 64-bit
    word of the masks at a time."""
    bits = max((m.bit_length() for m in sources + targets), default=0)
    cost = np.empty((len(sources), len(targets)))
    xor = np.empty(cost.shape, dtype=np.uint64)
    for w in range(max(1, -(-bits // 64))):
        s = np.array([(m >> (64 * w)) & _WORD for m in sources], dtype=np.uint64)
        t = np.array([(m >> (64 * w)) & _WORD for m in targets], dtype=np.uint64)
        np.bitwise_xor(s[:, None], t[None, :], out=xor)
        if w == 0:
            np.bitwise_count(xor, out=cost)
        else:
            cost += np.bitwise_count(xor)
    return cost


def _leastcost_initial(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Initial basic feasible solution by the least-cost crossing-out rule.

    Cells are visited in ascending (cost, i, j) order; each visited cell with
    both endpoints still active is saturated and deactivates exactly one node
    (ties deactivate the row), so the r + c - 1 chosen arcs form a spanning
    tree just as in the northwest-corner rule, but start near the optimum.
    """
    r, c = cost.shape
    ra, rb = a.tolist(), b.tolist()
    row_active = [True] * r
    col_active = [True] * c
    basis = []
    flows = []
    order_i, order_j = np.divmod(np.argsort(cost, axis=None, kind="stable"), c)
    remaining = r + c
    rows_left, cols_left = r, c
    for i, j in zip(order_i.tolist(), order_j.tolist()):
        if remaining <= 1:
            break
        if not (row_active[i] and col_active[j]):
            continue
        f = min(ra[i], rb[j])
        basis.append((i, j))
        flows.append(f)
        ra[i] -= f
        rb[j] -= f
        # deactivate exactly one endpoint, chosen so neither side dies while
        # the other still has >= 2 live nodes; comparing ra/rb alone is not
        # safe because float residue breaks the exact supply/demand balance
        if cols_left == 1 and rows_left > 1:
            kill_row = True
        elif rows_left == 1 and cols_left > 1:
            kill_row = False
        else:
            kill_row = ra[i] <= rb[j]
        if kill_row:
            row_active[i] = False
            rows_left -= 1
        else:
            col_active[j] = False
            cols_left -= 1
        remaining -= 1
    return basis, flows


def _network_simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Transportation simplex with potentials kept on a rooted spanning tree.

    Entering arc: most negative reduced cost, switching to Bland's rule
    (first negative, row-major) after a run of degenerate pivots.  Leaving
    arc on ties: lexicographically smallest, which keeps Bland's guarantee.

    The basis tree is rooted at row node 0 with parent pointers (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, ch. 11).  A pivot finds its
    cycle by stamping the ancestors of the entering row and climbing from
    the entering column to the first stamped node, walks only the subtree
    below the leaving arc, shifts the potentials of whichever side holds
    the entering column, and re-hangs the subtree from the entering arc.

    Returns (basis, flows, u, v, pivots, bland_pivots); ``bland_pivots``
    counts the pivots taken under Bland's rule.
    """
    r, c = cost.shape
    n_nodes = r + c
    basis, flows = _leastcost_initial(a, b, cost)
    # adjacency: node -> {neighbor: arc index}
    adj: list[dict] = [dict() for _ in range(n_nodes)]
    for idx, (i, j) in enumerate(basis):
        adj[i][r + j] = idx
        adj[r + j][i] = idx
    # node potentials [u, -v], so that a subtree shift is one indexed
    # update; computed from scratch once, maintained incrementally afterwards
    pot = np.zeros(n_nodes)
    parent = [-1] * n_nodes
    parent_arc = [-1] * n_nodes
    seen = [False] * n_nodes
    seen[0] = True
    reached = 1
    stack = [0]
    while stack:
        node = stack.pop()
        for nb, idx in adj[node].items():
            if seen[nb]:
                continue
            seen[nb] = True
            reached += 1
            parent[nb] = node
            parent_arc[nb] = idx
            i, j = basis[idx]
            if nb >= r:
                pot[nb] = pot[i] - cost[i, j]
            else:
                pot[nb] = cost[i, j] + pot[r + j]
            stack.append(nb)
    if reached != n_nodes:
        raise RuntimeError(
            f"initial transportation basis is not spanning ({reached}/{n_nodes})")

    u, neg_v = pot[:r], pot[r:]
    # basic arc coordinates, updated at the leaving index on every pivot
    bi = np.array([i for i, _ in basis], dtype=np.intp)
    bj = np.array([j for _, j in basis], dtype=np.intp)
    rc = np.empty_like(cost)
    stamp = [0] * n_nodes
    outside = np.empty(n_nodes, dtype=bool)
    stall = 0
    bland = False
    pivots = bland_pivots = 0
    max_pivots = 200 * n_nodes * max(r, c) + 1000
    while True:
        np.subtract(cost, u[:, None], out=rc)
        rc += neg_v[None, :]
        rc[bi, bj] = 0.0        # guard float dust on basic arcs
        if bland:
            neg = np.argwhere(rc < -PIVOT_TOL)
            if len(neg) == 0:
                break
            ei, ej = int(neg[0][0]), int(neg[0][1])
        else:
            flat = int(np.argmin(rc))
            ei, ej = divmod(flat, c)
            if rc[ei, ej] >= -PIVOT_TOL:
                break
        rc_enter = float(rc[ei, ej])
        pivots += 1
        if bland:
            bland_pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("network simplex failed to converge")

        # the cycle: row ei climbs to the join of the two root paths, then
        # the path descends to col node r+ej; arcs listed from ei
        goal = r + ej
        node = ei
        while node >= 0:
            stamp[node] = pivots
            node = parent[node]
        down = []
        node = goal
        while stamp[node] != pivots:
            down.append(parent_arc[node])
            node = parent[node]
        join = node
        path = []
        node = ei
        while node != join:
            path.append(parent_arc[node])
            node = parent[node]
        path.extend(reversed(down))

        # pushing theta on the entering arc drains the first path arc at row
        # ei, refills the next, and so on: even walk positions lose flow
        minus_arcs = path[0::2]
        plus_arcs = path[1::2]
        theta = min(flows[idx] for idx in minus_arcs)
        leave = min((idx for idx in minus_arcs if flows[idx] <= theta + 1e-18),
                    key=lambda idx: basis[idx])
        for idx in minus_arcs:
            flows[idx] -= theta
        for idx in plus_arcs:
            flows[idx] += theta

        li, lj = basis[leave]
        del adj[li][r + lj]
        del adj[r + lj][li]
        basis[leave] = (ei, ej)
        bi[leave] = ei
        bj[leave] = ej
        flows[leave] = theta
        # the subtree below the leaving arc, which is now detached
        child = li if parent_arc[li] == leave else r + lj
        sub = [child]
        for node in sub:
            for nb in adj[node]:
                if nb != parent[node]:
                    sub.append(nb)
        # the side holding col ej shifts by the entering reduced cost;
        # shifting the other side by +rc_enter agrees only in exact arithmetic
        # (a child on ei's side of the cycle carries this pivot's stamp)
        goal_below = stamp[child] != pivots
        if goal_below:
            pot[sub] -= rc_enter
        else:
            outside.fill(True)
            outside[sub] = False
            pot[outside] -= rc_enter
        adj[ei][goal] = leave
        adj[goal][ei] = leave
        # re-hang the subtree from the entering arc: reverse the parent
        # pointers from its endpoint inside the subtree up to the old child
        node, prev = (goal, ei) if goal_below else (ei, goal)
        prev_arc = leave
        while True:
            up_node, up_arc = parent[node], parent_arc[node]
            parent[node], parent_arc[node] = prev, prev_arc
            if node == child:
                break
            prev, prev_arc, node = node, up_arc, up_node

        if theta <= PIVOT_TOL:
            stall += 1
            if stall > n_nodes:
                bland = True
        else:
            stall = 0
            bland = False
    return basis, flows, u, -neg_v, pivots, bland_pivots


def emd(d1: OutputDistribution, d2: OutputDistribution, *,
        support_cap: int = DEFAULT_SUPPORT_CAP) -> tuple[float, TransportPlan]:
    """Minimum expected |S △ S'| over couplings of d1 and d2.

    Returns the optimal value and a TransportPlan carrying the coupling and
    an LP-duality certificate over both full supports.  A total-mass gap is
    accepted up to MASS_TOL plus the mass both inputs recorded as pruned,
    and is absorbed into the largest target mass; InfeasibleMarginalsError
    when a support is empty or that mass would turn negative.  When both inputs are
    empirical with the same trial count the plan's ``cost_rational`` gives
    the objective as an exact rational, computed when read.
    """
    if d1.n != d2.n:
        raise ValueError(f"ground sets differ: {d1.n} vs {d2.n}")
    sources = d1.support()
    targets = d2.support()
    if len(sources) + len(targets) > support_cap:
        raise SupportCapExceededError(
            f"support {len(sources)}+{len(targets)} exceeds cap {support_cap}")
    a = np.array([d1.probs[m] for m in sources], dtype=float)
    b = np.array([d2.probs[m] for m in targets], dtype=float)
    gap = float(a.sum() - b.sum())
    masses = f"{a.sum()} vs {b.sum()} (lost {d1.lost_mass} and {d2.lost_mass})"
    if abs(gap) > MASS_TOL + d1.lost_mass + d2.lost_mass:
        raise InfeasibleMarginalsError(f"mass mismatch: {masses}")
    if not len(a) or not len(b) or b.max() + gap < 0:
        raise InfeasibleMarginalsError(f"mass gap {gap} left no target to absorb it: {masses}")
    # absorb the gap so the transportation problem balances
    b[int(np.argmax(b))] += gap
    cost = _cost_matrix(sources, targets)

    # cancel shared mass: min(p, q) of each shared set stays in place
    col_of = {t: j for j, t in enumerate(targets)}
    shared = [(i, col_of[s]) for i, s in enumerate(sources) if s in col_of]
    excess_a, excess_b = a.tolist(), b.tolist()
    kept = []
    for i, j in shared:
        m = min(excess_a[i], excess_b[j])
        excess_a[i] -= m
        excess_b[j] -= m
        kept.append(m)
    rows = [i for i, x in enumerate(excess_a) if x > 0]
    # targets outside the source support stay as columns even at zero mass,
    # so that every target not transported has a source-side c-transform
    shared_cols = {j for _, j in shared}
    cols = [j for j, x in enumerate(excess_b) if x > 0 or j not in shared_cols]

    u = np.zeros(len(sources))
    v = np.zeros(len(targets))
    basis, flows, pivots, bland_pivots = [], [], 0, 0
    if len(rows) and len(cols):
        ar = np.array([excess_a[i] for i in rows])
        br = np.array([excess_b[j] for j in cols])
        br[int(np.argmax(br))] += ar.sum() - br.sum()
        # disjoint supports cancel nothing: solve on the full matrix, uncopied
        uncancelled = len(rows) == len(sources) and len(cols) == len(targets)
        reduced = cost if uncancelled else cost[np.ix_(rows, cols)]
        basis, flows, _, vr, pivots, bland_pivots = _network_simplex(ar, br, reduced)
        del reduced
        # c-transform of the reduced dual extends it to every set
        shifted = cost[:, cols]
        shifted -= vr[None, :]
        u = shifted.min(axis=1)
        del shifted
        v[cols] = vr
    for i, j in shared:
        if excess_b[j] <= 0:        # cancelled target
            v[j] = -u[i]

    entries = []
    total = 0.0
    row_sums = np.zeros(len(sources))
    col_sums = np.zeros(len(targets))
    slack = 0.0
    for (i, j), m in zip(shared, kept):
        row_sums[i] += m
        col_sums[j] += m
        if m > 0:
            entries.append((sources[i], targets[j], m))
            slack = max(slack, abs(u[i] + v[j]))
    for (ri, cj), f in zip(basis, flows):
        i, j = rows[ri], cols[cj]
        row_sums[i] += f
        col_sums[j] += f
        if f > 0:
            entries.append((sources[i], targets[j], float(f)))
            total += f * cost[i, j]
            slack = max(slack, abs(cost[i, j] - u[i] - v[j]))
    entries.sort()
    total = float(total)
    rc = cost - u[:, None]
    rc -= v[None, :]
    plan = TransportPlan(
        sources=sources, targets=targets, entries=entries, cost=total,
        grid_trials=_shared_trials(d1, d2),
        potentials_source=u, potentials_target=v,
        max_negative_reduced_cost=float(max(0.0, -rc.min())),
        max_marginal_residual=float(max(np.abs(row_sums - a).max(),
                                        np.abs(col_sums - b).max())),
        max_slackness_violation=float(slack),
        pivots=pivots, bland_pivots=bland_pivots,
        mass_gap=gap,
        reduced_rows=len(rows), reduced_cols=len(cols),
    )
    if not plan.certificate_ok():
        raise RuntimeError(
            f"EMD certificate failed: rc={plan.max_negative_reduced_cost}, "
            f"residual={plan.max_marginal_residual}, slack={plan.max_slackness_violation}")
    return total, plan


def _shared_trials(d1, d2) -> Optional[int]:
    """The trial count of two empirical inputs, when they share one."""
    if d1.mode == d2.mode == "empirical" and d1.trials and d1.trials == d2.trials:
        return d1.trials
    return None


def _grid_cost(entries, t: Optional[int]) -> Optional[Fraction]:
    """Exact objective of entries on the grid of 1/t; None without t or
    off the grid.

    Basic solutions of a transportation problem with integral marginals are
    integral, and the reduced marginals are differences of counts, so every
    entry, kept in place or transported, should be an integer multiple of
    1/t; verify the rounding before trusting it.
    """
    if not t:
        return None
    total = 0
    for s, tgt, f in entries:
        count = round(f * t)
        if abs(f * t - count) > 1e-6:
            return None
        total += count * sym_diff_cost(s, tgt)
    return Fraction(total, t)
