"""Frozen reference copy of the exact-EMD network simplex as it stood
before the solver kept its spanning tree rooted.

Each pivot here searches the tree for the entering arc's path by depth-first
search and shifts the potentials of the whole component that holds the
entering column.  The library's solver must take the same pivots, in the
same order, and return bit-identical bases, flows and potentials; this copy
is the other side of that differential test.  Do not edit it to follow the
library: it uses numpy only and imports nothing from subsens.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-12


def leastcost_initial(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
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


def dfs_network_simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Transportation simplex with tree-maintained potentials; every pivot
    finds its path by a depth-first search and shifts the component that
    holds the entering column.

    Entering arc: most negative reduced cost, switching to Bland's rule
    (first negative, row-major) after a run of degenerate pivots.  Leaving
    arc on ties: lexicographically smallest, which keeps Bland's guarantee.
    """
    r, c = cost.shape
    n_nodes = r + c
    basis, flows = leastcost_initial(a, b, cost)
    # adjacency: node -> {neighbor: arc index}
    adj: list[dict] = [dict() for _ in range(n_nodes)]
    for idx, (i, j) in enumerate(basis):
        adj[i][r + j] = idx
        adj[r + j][i] = idx
    # node potentials [u, -v], so that a subtree shift is one indexed
    # update; computed from scratch once, maintained incrementally afterwards
    pot = np.zeros(n_nodes)
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
    stall = 0
    bland = False
    pivots = 0
    max_pivots = 200 * n_nodes * max(r, c) + 1000
    parent_arc = [0] * n_nodes
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
        if pivots > max_pivots:
            raise RuntimeError("network simplex failed to converge")

        # unique tree path from row node ei to col node r+ej
        goal = r + ej
        parent = [-1] * n_nodes
        parent[ei] = ei
        stack = [ei]
        while stack:
            node = stack.pop()
            if node == goal:
                break
            for nb, idx in adj[node].items():
                if parent[nb] < 0:
                    parent[nb] = node
                    parent_arc[nb] = idx
                    stack.append(nb)
        path = []
        node = goal
        while node != ei:
            path.append(parent_arc[node])
            node = parent[node]
        path.reverse()

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
        # re-root: the component now containing col ej (after removing the
        # leaving arc) shifts potentials by the entering reduced cost
        comp = [goal]
        mark = {goal}
        for node in comp:
            for nb in adj[node]:
                if nb not in mark:
                    mark.add(nb)
                    comp.append(nb)
        pot[comp] -= rc_enter
        adj[ei][goal] = leave
        adj[goal][ei] = leave

        if theta <= PIVOT_TOL:
            stall += 1
            if stall > n_nodes:
                bland = True
        else:
            stall = 0
            bland = False
    return basis, flows, u, -neg_v, pivots
