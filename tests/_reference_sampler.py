"""Frozen reference copy of the sampler as it stood before it took its
draws in batches: one ``derive_rng`` generator per trial of the keyed
stream, and one per step of every trial of the per-step stream.

``subsens.distributions._sample`` must return the same distribution from
it, with its probabilities in the same insertion order, and raise the same
errors; this copy is the other side of that differential test.  Do not
edit it to follow the library.  It imports from subsens only the pieces
the sampler called and still calls: the key convention (``derive_rng``),
the step count check and the schedule's rank resolution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from subsens.algorithms import (OrdinalSchedule, _check_k, derive_rng,
                                schedule_step_support)
from subsens.distributions import OutputDistribution


def _step_support(alg, oracle, current: int, step: int, k: int,
                  allowed: Optional[int]) -> list[tuple[int, float]]:
    if isinstance(alg, OrdinalSchedule):
        return [(e, q) for e, q, _ in
                schedule_step_support(alg, oracle, current, step, allowed)]
    return alg.probabilities(oracle, current, k, allowed)


def reference_sample(alg, oracle, k: int, trials: int, key: tuple,
                     allowed: Optional[int] = None,
                     per_step: bool = False) -> OutputDistribution:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    steps = _check_k(alg, oracle, k, allowed)
    is_rule = not isinstance(alg, OrdinalSchedule)
    counts: dict[int, int] = {}
    step_cache: dict[int, tuple] = {}
    for t in range(trials):
        draws = None if per_step else derive_rng(*key, t).random(steps)
        current = 0
        for i in range(steps):
            cached = step_cache.get(current)
            if cached is None:
                pairs = _step_support(alg, oracle, current, i + 1, k, allowed)
                elements = [e for e, _ in pairs]
                masses = np.array([p for _, p in pairs])
                if per_step and is_rule:
                    s = np.bincount(elements, masses, oracle.n).sum()
                    if abs(s - 1.0) > 1e-9:
                        raise ValueError(f"rule probabilities sum to {s}")
                    masses /= s
                cum = np.cumsum(masses)
                if per_step:
                    cum /= cum[-1]  # so cum[-1] == 1.0 below
                cached = step_cache[current] = (elements, cum, cum[-1] if is_rule else 1.0)
            elements, cum, scale = cached
            draw = derive_rng(*key, t, i + 1).random() if per_step else draws[i]
            idx = int(cum.searchsorted(draw * scale, side="right"))
            current |= 1 << elements[min(idx, len(elements) - 1)]
        counts[current] = counts.get(current, 0) + 1
    probs = {mask: c / trials for mask, c in counts.items()}
    return OutputDistribution(oracle.n, steps, probs, mode="empirical",
                              trials=trials).validate()
