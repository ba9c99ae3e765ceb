"""Frozen reference copy of the distributed runs as they stood before
deterministic greedy was memoized by capped run counts: every machine runs
``deterministic_greedy`` on its own pool, and every trace row reads its
value from the oracle.

``subsens.distsim.greedi`` and ``barbosa_framework`` must return the same
best mask and the same trace from it, and raise the same errors; this copy
is the other side of that differential test.  Do not edit it to follow the
library.  It imports from subsens only the pieces the runs called and
still call: deterministic greedy, the key convention (``derive_rng``) and
the trace and configuration types.  The partition is frozen too, with one
``np.packbits`` call per machine, and the rule and schedule runners come
from the frozen ``tests/_reference_runner.py``.
"""

from __future__ import annotations

import numpy as np

from subsens.algorithms import (KOutOfRangeError, OrdinalSchedule,
                                deterministic_greedy, derive_rng)
from subsens.distsim import (DistTrace, DistTraceRow, MpcConfig,
                             PoolOverflowError)

from _reference_runner import independent_sequential, run_sequential


def _partition(n: int, machines: int, rng: np.random.Generator) -> list[int]:
    assignment = rng.integers(0, machines, size=n)
    return [int.from_bytes(np.packbits(assignment == i, bitorder="little").tobytes(), "little")
            for i in range(machines)]


def _run_base(base, oracle, k: int, allowed: int, seed_key: tuple) -> int:
    budget = min(k, allowed.bit_count())
    if budget == 0:
        return 0
    if base is None:
        mask, _ = deterministic_greedy(oracle, budget, allowed=allowed)
    elif isinstance(base, OrdinalSchedule):
        mask, _ = independent_sequential(oracle, budget, base, 0,
                                         allowed=allowed, seed_key=seed_key)
    else:
        mask, _ = run_sequential(oracle, budget, base, 0,
                                 allowed=allowed, seed_key=seed_key)
    return mask


def greedi(oracle, k: int, m: int, seed: int) -> tuple[int, DistTrace]:
    if m < 1:
        raise ValueError(f"need m >= 1 machines, got {m}")
    if k < 1 or k > oracle.n:
        raise KOutOfRangeError(f"k={k} outside 1..{oracle.n}")
    trace = DistTrace()
    shards = _partition(oracle.n, m, derive_rng(seed, 0, 0, 0))
    partials = []
    for i, shard in enumerate(shards, start=1):
        sol = _run_base(None, oracle, k, shard, (seed, 1, 1, i))
        row = DistTraceRow(1, 1, i, shard.bit_count(), sol, oracle.value(sol), shard=shard)
        partials.append(row)
        trace.rows.append(row)
    union = 0
    for row in partials:
        union |= row.solution
    merged = _run_base(None, oracle, k, union, (seed, 2, 1, 0))
    best_value = oracle.value(merged)
    trace.rows.append(DistTraceRow(2, 1, 0, union.bit_count(), merged,
                                   best_value, shard=union))
    best = merged
    for row in partials:
        sol, v = row.solution, row.value
        if v > best_value:
            best, best_value = sol, v
        elif v == best_value and sol != best:
            trace.tie_occurred = True
    trace.round_best = [best_value]
    return best, trace


def barbosa_framework(oracle, k: int, cfg: MpcConfig, base,
                      seed: int) -> tuple[int, DistTrace]:
    if k < 1 or k > oracle.n:
        raise KOutOfRangeError(f"k={k} outside 1..{oracle.n}")
    cfg.check_strict(oracle.n)
    trace = DistTrace()
    pool = 0
    best, best_value = 0, float("-inf")
    for r in range(1, cfg.rounds + 1):
        round_rows = []
        for g in range(1, cfg.groups + 1):
            shards = _partition(oracle.n, cfg.machines, derive_rng(seed, r, g, 0))
            for i, shard in enumerate(shards, start=1):
                allowed = shard | pool
                sol = _run_base(base, oracle, k, allowed, (seed, r, g, i))
                round_rows.append(DistTraceRow(r, g, i, shard.bit_count(), sol,
                                               oracle.value(sol), shard=shard))
        trace.rows += round_rows
        for row in round_rows:
            sol, v = row.solution, row.value
            if v > best_value:
                best, best_value = sol, v
            pool |= sol
        if cfg.strict and cfg.capacity is not None and pool.bit_count() > cfg.capacity:
            raise PoolOverflowError(
                f"pool holds {pool.bit_count()} elements, capacity {cfg.capacity}")
        trace.round_best.append(best_value)
        trace.pool_sizes.append(pool.bit_count())
        trace.pools.append(pool)
    return best, trace
