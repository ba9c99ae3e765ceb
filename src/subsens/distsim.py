"""In-process simulation of distributed executions: two-phase distributed
greedy over a random partition, and the multi-round pool-growing framework
that lifts a centralized algorithm onto groups of machines.

Machines are simulated by masking element visibility: every run sees only
its shard (plus the shared pool), while the oracle object itself is shared
read-only.  Sub-seeds derive from (seed, round, group, machine).

Each ``greedi`` or ``barbosa_framework`` call memoizes deterministic greedy
on an oracle with ``blocks`` by the pool's count in each run, capped at k:
f is invariant inside a run, greedy compares runs in run order and takes
the lowest pool members of the run it picks, and a run holding k or more
pool members cannot run out within k steps.  Machines whose pools share
that key share one solution's per-run counts and its value.  The memo is
local to the call, so back-to-back calls cost the same oracle calls.
Blocks that are not exactly invariant give wrong runs without any error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .algorithms import (DecisionRule, OrdinalSchedule, KOutOfRangeError,
                         deterministic_greedy, derive_rng, run_sequential)
from .oracle import InvalidElementError, ValueOracle


class PoolOverflowError(RuntimeError):
    """Strict-MPC capacity exceeded by the element pool."""


BaseAlgorithm = Union[None, DecisionRule, OrdinalSchedule]  # None = deterministic greedy


@dataclass(frozen=True)
class MpcConfig:
    """Machine/group/round layout for the framework simulation.

    Defaults follow rounds = ceil(1/eps) and groups = ceil(1/(alpha eps));
    ``strict`` additionally enforces machines and capacity below n^0.9 and
    makes pool overflow an error.
    """

    machines: int
    groups: int = 1
    rounds: int = 1
    capacity: Optional[int] = None
    eps: float = 0.2
    alpha: float = 1.0 - 1.0 / math.e
    strict: bool = False

    def __post_init__(self):
        if self.machines < 1 or self.groups < 1 or self.rounds < 1:
            raise ValueError("machines, groups and rounds must all be >= 1")
        if not 0 < self.eps <= 1 or not 0 < self.alpha <= 1:
            raise ValueError("eps and alpha must lie in (0, 1]")

    @classmethod
    def from_accuracy(cls, machines: int, alpha: float, eps: float,
                      capacity: Optional[int] = None, strict: bool = False) -> "MpcConfig":
        rounds = math.ceil(1.0 / eps)
        groups = math.ceil(1.0 / (alpha * eps))
        return cls(machines=machines, groups=groups, rounds=rounds,
                   capacity=capacity, eps=eps, alpha=alpha, strict=strict)

    def check_strict(self, n: int):
        if not self.strict:
            return
        limit = n ** 0.9
        if self.machines >= limit:
            raise ValueError(f"strict MPC needs machines < n^0.9 = {limit:.1f}")
        if self.capacity is not None and self.capacity >= limit:
            raise ValueError(f"strict MPC needs capacity < n^0.9 = {limit:.1f}")


@dataclass(frozen=True)
class DistTraceRow:
    round: int
    group: int
    machine: int          # 0 is the merge step
    shard_size: int
    solution: int
    value: float
    shard: int = 0        # full shard mask (export lines keep the size only)


@dataclass
class DistTrace:
    rows: list[DistTraceRow] = field(default_factory=list)
    round_best: list[float] = field(default_factory=list)
    pool_sizes: list[int] = field(default_factory=list)
    pools: list[int] = field(default_factory=list)
    tie_occurred: bool = False

    def export_lines(self) -> list[str]:
        header = ["round,group,machine,shard_size,solution,value"]
        return header + [
            f"{r.round},{r.group},{r.machine},{r.shard_size},{r.solution:#x},{r.value!r}"
            for r in self.rows]


def _partition(n: int, machines: int, rng: np.random.Generator) -> list[int]:
    """iid-uniform machine assignment; returns one shard mask per machine."""
    dtype = np.min_scalar_type(machines)  # no int64 buffers in the comparison
    assignment = rng.integers(0, machines, size=n).astype(dtype)
    rows = np.packbits(assignment == np.arange(machines, dtype=dtype)[:, None], axis=1,
                       bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _run_base(base: BaseAlgorithm, oracle: ValueOracle, k: int, allowed: int,
              seed_key: tuple, memo: dict) -> tuple[int, float]:
    """One machine's solution on ``allowed`` and its value.

    Deterministic greedy on an oracle with blocks goes through ``memo``,
    keyed by the pool's count in each run capped at k; a hit takes the
    stored count of lowest pool members in each run and the stored value.
    """
    runs = oracle.blocks if base is None else None
    if runs is not None:
        key = tuple(min((allowed & run).bit_count(), k) for run in runs)
        hit = memo.get(key)
        if hit is not None:
            picks, value = hit
            mask = 0
            for i, count in picks:
                members = allowed & runs[i]
                for _ in range(count):
                    low = members & -members
                    mask |= low
                    members ^= low
            return mask, value
    budget = min(k, allowed.bit_count())
    if budget == 0:
        mask = 0
    elif base is None:
        mask, _ = deterministic_greedy(oracle, budget, allowed=allowed)
    else:
        mask, _ = run_sequential(oracle, budget, base, 0,
                                 allowed=allowed, seed_key=seed_key)
    value = oracle.value(mask)
    if runs is not None:
        memo[key] = ([(i, c) for i, run in enumerate(runs)
                      if (c := (mask & run).bit_count())], value)
    return mask, value


def greedi(oracle: ValueOracle, k: int, m: int, seed: int) -> tuple[int, DistTrace]:
    """Two-phase distributed greedy.

    Elements are assigned to machines iid-uniformly; each machine runs the
    deterministic greedy on its shard; the union of the partial solutions is
    re-solved on one machine; the answer is the best of the merged solution
    and the partials.  Ties prefer the merged solution, then the lowest
    machine index (the tie is flagged on the trace).  On an oracle with
    blocks, machines whose pools have the same capped run counts share one
    greedy solution and its value (module docstring).
    """
    if m < 1:
        raise ValueError(f"need m >= 1 machines, got {m}")
    if k < 1 or k > oracle.n:
        raise KOutOfRangeError(f"k={k} outside 1..{oracle.n}")
    trace = DistTrace()
    memo: dict = {}
    shards = _partition(oracle.n, m, derive_rng(seed, 0, 0, 0))
    partials = []
    for i, shard in enumerate(shards, start=1):
        sol, value = _run_base(None, oracle, k, shard, (seed, 1, 1, i), memo)
        row = DistTraceRow(1, 1, i, shard.bit_count(), sol, value, shard=shard)
        partials.append(row)
        trace.rows.append(row)
    union = 0
    for row in partials:
        union |= row.solution
    merged, best_value = _run_base(None, oracle, k, union, (seed, 2, 1, 0), memo)
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


def barbosa_framework(oracle: ValueOracle, k: int, cfg: MpcConfig,
                      base: BaseAlgorithm, seed: int) -> tuple[int, DistTrace]:
    """Multi-round pool-growing framework.

    Each round, every group partitions the ground set over its machines;
    each machine runs the base algorithm on shard plus pool; the incumbent
    keeps the best solution seen and the pool accumulates every round
    solution.  With deterministic greedy as the base on an oracle with
    blocks, machines whose pools have the same capped run counts share one
    solution and its value (module docstring).
    """
    if k < 1 or k > oracle.n:
        raise KOutOfRangeError(f"k={k} outside 1..{oracle.n}")
    cfg.check_strict(oracle.n)
    trace = DistTrace()
    memo: dict = {}
    pool = 0
    best, best_value = 0, float("-inf")
    for r in range(1, cfg.rounds + 1):
        round_rows = []
        for g in range(1, cfg.groups + 1):
            shards = _partition(oracle.n, cfg.machines, derive_rng(seed, r, g, 0))
            for i, shard in enumerate(shards, start=1):
                allowed = shard | pool
                sol, value = _run_base(base, oracle, k, allowed, (seed, r, g, i), memo)
                round_rows.append(DistTraceRow(r, g, i, shard.bit_count(), sol,
                                               value, shard=shard))
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


def sampled_distribution(runner, trials: int, n: int, k: int) -> "OutputDistribution":
    """Empirical output distribution of a distributed runner over seeds
    0..trials-1.  ``runner(seed)`` must return a subset mask of 0..n-1."""
    from .distributions import OutputDistribution
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    counts: dict[int, int] = {}
    for t in range(trials):
        mask = runner(t)
        if mask >> n:
            raise InvalidElementError(f"mask {mask:#x} has bits beyond n={n}")
        counts[mask] = counts.get(mask, 0) + 1
    probs = {mask: c / trials for mask, c in counts.items()}
    return OutputDistribution(n, k, probs, mode="empirical", trials=trials)
