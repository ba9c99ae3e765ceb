"""Frozen reference copy of the sequential runners as they stood before
rules and schedules shared one runner: ``run_sequential`` drew each step
with ``Generator.choice`` over a dense vector of all n ids, and
``independent_sequential`` with ``Generator.choice`` over the schedule's
ranked support, recording the marginal the ranking computed.  The
randomized greedy rule ranked its candidates in place.

``subsens.algorithms.run_sequential`` and ``independent_sequential`` must
return the same mask and trace from them, and raise the same errors; this
copy is the other side of that differential test.  Do not edit it to
follow the library.  It imports from subsens only the pieces the runners
called and still call: the key convention (``derive_rng``), the step count
check, the candidate gains, the schedule's rank resolution and the trace
types.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from subsens.algorithms import (KOutOfRangeError, RunTrace, StepRecord, _check_k,
                                _marginals, derive_rng, schedule_step_support)


def run_sequential(oracle, k: int, rule, seed: int, allowed: Optional[int] = None,
                   seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    steps = _check_k(rule, oracle, k, allowed)
    key = seed_key if seed_key is not None else (seed,)
    current = 0
    records = []
    for i in range(1, steps + 1):
        probs = np.zeros(oracle.n)
        for e, p in rule.probabilities(oracle, current, k, allowed):
            probs[e] = p
        s = probs.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"rule probabilities sum to {s}")
        rng = derive_rng(*key, i)
        e = int(rng.choice(oracle.n, p=probs / s))
        m = oracle.value(current | (1 << e)) - oracle.value(current)
        records.append(StepRecord(i, e, m, float(probs[e])))
        current |= 1 << e
    return current, RunTrace(tuple(records), current)


def independent_sequential(oracle, k: int, schedule, seed: int,
                           allowed: Optional[int] = None,
                           seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    steps = _check_k(schedule, oracle, k, allowed)
    key = seed_key if seed_key is not None else (seed,)
    current = 0
    records = []
    for i in range(1, steps + 1):
        support = schedule_step_support(schedule, oracle, current, i, allowed)
        rng = derive_rng(*key, i)
        idx = int(rng.choice(len(support), p=[q for _, q, _ in support]))
        e, q, m = support[idx]
        records.append(StepRecord(i, e, m, q))
        current |= 1 << e
    return current, RunTrace(tuple(records), current)


def randomized_greedy_probabilities(oracle, current: int, k: int,
                                    allowed: Optional[int] = None) -> list[tuple[int, float]]:
    cands, margs = _marginals(oracle, current, allowed)
    if not cands:
        raise KOutOfRangeError("no candidates left")
    order = sorted(range(len(cands)), key=lambda i: (-margs[i], cands[i]))
    top = sorted(order[:min(k, len(cands))])
    return [(cands[i], 1.0 / len(top)) for i in top]
