"""Sequential maximization algorithms: greedy variants, decision-rule runs,
and ordinal-schedule (marginal-rank) runs.

Tie-breaking is everywhere by lowest element id, which makes deterministic
runs a single point mass.  Random draws come from a counter-based Philox
generator keyed by (seed, step) so runs are reproducible independently of
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import ValueOracle, ids_of


class KOutOfRangeError(ValueError):
    """Cardinality budget outside 1..n."""


class NegativeMarginalError(ValueError):
    """A rule met a negative marginal, signalling a non-monotone oracle."""


class IndexBeyondRemainingError(ValueError):
    """An ordinal schedule addressed a rank past the remaining pool."""


PROB_TOL = 1e-12


def derive_rng(*key: int) -> np.random.Generator:
    """Philox generator keyed by an integer tuple; splittable and stable."""
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=key)))


@dataclass(frozen=True)
class StepRecord:
    step: int          # 1-based
    element: int
    marginal: float
    probability: float # probability the rule gave this element at this step


@dataclass(frozen=True)
class RunTrace:
    steps: tuple[StepRecord, ...]
    mask: int

    def elements(self) -> list[int]:
        return [s.element for s in self.steps]


def _marginals(oracle: ValueOracle, current: int,
               allowed: Optional[int]) -> tuple[list[int], list[float]]:
    """Candidates outside ``current`` (within ``allowed``) in ascending id
    order and their marginal gains, one oracle call per block: each block's
    gain is copied to all of its candidates."""
    pool = (allowed if allowed is not None else oracle.full_mask) & ~current
    cands, margs = [], []
    for e, gain, members in oracle.block_gains(current, pool):
        if members & (members - 1):
            ids = ids_of(members)
            cands += ids
            margs += [gain] * len(ids)
        else:
            cands.append(e)
            margs.append(gain)
    return cands, margs


class DecisionRule:
    """Maps (oracle, current set) to a distribution over E \\ S.

    ``probabilities`` returns the sparse support as (element, probability)
    pairs in ascending id order, each probability > 0, summing to 1 within
    1e-12; elements of S and outside ``allowed`` never appear.

    ``equivariant`` declares that relabelling elements inside a block of
    the oracle permutes the rule's output the same way; the exact level DP
    then evaluates the rule once per signature in each level, and exact
    sensitivity scans measure one deletion per run of the blocks.  It
    defaults to False, and a rule that breaks ties by element id must leave
    it so.
    """

    name = "rule"
    equivariant = False

    def probabilities(self, oracle: ValueOracle, current: int, k: int,
                      allowed: Optional[int] = None) -> list[tuple[int, float]]:
        raise NotImplementedError


class GreedyRule(DecisionRule):
    """Point mass on the maximum marginal (lowest id on ties)."""

    name = "greedy"

    def probabilities(self, oracle, current, k, allowed=None):
        cands, margs = _marginals(oracle, current, allowed)
        if not cands:
            raise KOutOfRangeError("no candidates left")
        best = max(range(len(cands)), key=lambda i: (margs[i], -cands[i]))
        return [(cands[best], 1.0)]


class RandomizedGreedyRule(DecisionRule):
    """Uniform over the top min(k, |remaining|) marginals (ties by lowest id).

    The classical rule asks for a top set of size exactly k; when fewer
    than k elements remain we fall back to all remaining so the rule stays
    total.
    """

    name = "randgreedy"

    def probabilities(self, oracle, current, k, allowed=None):
        cands, margs = _marginals(oracle, current, allowed)
        if not cands:
            raise KOutOfRangeError("no candidates left")
        order = sorted(range(len(cands)), key=lambda i: (-margs[i], cands[i]))
        top = sorted(order[:min(k, len(cands))])
        return [(cands[i], 1.0 / len(top)) for i in top]


class ProportionalGreedyRule(DecisionRule):
    """Mass proportional to marginal gain; uniform fallback when all gains
    are zero (the run must still emit k elements)."""

    name = "proportional"
    equivariant = True

    def probabilities(self, oracle, current, k, allowed=None):
        cands, margs = _marginals(oracle, current, allowed)
        if not cands:
            raise KOutOfRangeError("no candidates left")
        neg = min(margs)
        if neg < -1e-9:
            raise NegativeMarginalError(
                f"marginal {neg} < 0 at set {current:#x}; oracle not monotone")
        total = sum(m for m in margs if m > 0)
        if total <= 0:
            return [(e, 1.0 / len(cands)) for e in cands]
        return [(e, m / total) for e, m in zip(cands, margs) if m > 0]


def greedy_rule() -> DecisionRule:
    return GreedyRule()


def randomized_greedy_rule() -> DecisionRule:
    return RandomizedGreedyRule()


def proportional_greedy_rule() -> DecisionRule:
    return ProportionalGreedyRule()


@dataclass(frozen=True)
class OrdinalSchedule:
    """Per-step distributions over marginal ranks (1-based positions).

    ``steps[i-1]`` is a pair (positions, probs) for step i.  Positions are
    defined via k only and never via n.
    """

    k: int
    steps: tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]
    name: str = "schedule"

    def __post_init__(self):
        if len(self.steps) != self.k:
            raise KOutOfRangeError(f"schedule has {len(self.steps)} steps for k={self.k}")
        for positions, probs in self.steps:
            if len(positions) != len(probs) or not positions:
                raise ValueError("each step needs matching nonempty positions/probs")
            if any(p < 1 for p in positions):
                raise ValueError("ordinal positions are 1-based")
            if len(set(positions)) != len(positions):
                raise ValueError("duplicate ordinal positions")
            if any(q < 0 for q in probs) or abs(sum(probs) - 1.0) > PROB_TOL:
                raise ValueError("step distribution must be a probability vector")
            if any(q == 0 for q in probs):
                raise ValueError("distribution must be supported exactly on its positions")

    @classmethod
    def greedy(cls, k: int) -> "OrdinalSchedule":
        return cls(k, tuple((((1,), (1.0,))) for _ in range(k)), name="greedy")

    @classmethod
    def randomized_greedy(cls, k: int) -> "OrdinalSchedule":
        positions = tuple(range(1, k + 1))
        probs = tuple(1.0 / k for _ in range(k))
        return cls(k, tuple((positions, probs) for _ in range(k)), name="randgreedy")

    def step(self, i: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        return self.steps[i - 1]


def _sorted_by_marginal(oracle: ValueOracle, current: int,
                        allowed: Optional[int]) -> tuple[list[int], list[float]]:
    cands, margs = _marginals(oracle, current, allowed)
    order = sorted(range(len(cands)), key=lambda i: (-margs[i], cands[i]))
    return [cands[i] for i in order], [margs[i] for i in order]


def schedule_step_support(schedule: OrdinalSchedule, oracle: ValueOracle, current: int,
                          step: int, allowed: Optional[int] = None
                          ) -> list[tuple[int, float, float]]:
    """Resolve one schedule step to (element, probability, marginal) triples."""
    ranked, margs = _sorted_by_marginal(oracle, current, allowed)
    positions, probs = schedule.step(step)
    if max(positions) > len(ranked):
        raise IndexBeyondRemainingError(
            f"step {step} addresses rank {max(positions)} but only "
            f"{len(ranked)} elements remain")
    return [(ranked[p - 1], q, margs[p - 1]) for p, q in zip(positions, probs)]


def _check_k(alg, oracle: ValueOracle, k: int, allowed: Optional[int]) -> int:
    """Steps of a run, min(k, |pool|); k outside 1..n, or a schedule with
    fewer steps than that, raises KOutOfRangeError."""
    if k < 1 or k > oracle.n:
        raise KOutOfRangeError(f"k={k} outside 1..{oracle.n}")
    steps = min(k, (allowed if allowed is not None else oracle.full_mask).bit_count())
    if isinstance(alg, OrdinalSchedule) and alg.k < steps:
        raise KOutOfRangeError(f"schedule built for k={alg.k}, run needs {steps} steps")
    return steps


def deterministic_greedy(oracle: ValueOracle, k: int,
                         allowed: Optional[int] = None) -> tuple[int, RunTrace]:
    """Argmax-marginal greedy; ties broken by lowest element id.

    Scans one representative per block (its lowest remaining id): members
    of a block share their gain, so the first strict maximum in id order is
    the same element the per-element scan picks."""
    steps = _check_k(None, oracle, k, allowed)
    pool = allowed if allowed is not None else oracle.full_mask
    current = 0
    records = []
    for i in range(1, steps + 1):
        best_e, best_m = -1, None
        for e, m, _ in oracle.block_gains(current, pool & ~current):
            if best_m is None or m > best_m:
                best_e, best_m = e, m
        current |= 1 << best_e
        records.append(StepRecord(i, best_e, best_m, 1.0))
    return current, RunTrace(tuple(records), current)


def run_sequential(oracle: ValueOracle, k: int, rule: DecisionRule, seed: int,
                   allowed: Optional[int] = None,
                   seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    """Draw k elements without replacement according to the rule.

    Reproducible: the draw at step i uses a generator keyed by (seed, i)
    (or (*seed_key, i) when a composite key is supplied).
    """
    steps = _check_k(rule, oracle, k, allowed)
    key = seed_key if seed_key is not None else (seed,)
    current = 0
    records = []
    for i in range(1, steps + 1):
        # draw over all n ids, as the streams were defined: the dense sum
        # need not equal the sum of the pairs bit for bit
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


def independent_sequential(oracle: ValueOracle, k: int, schedule: OrdinalSchedule,
                           seed: int, allowed: Optional[int] = None,
                           seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    """Rank-based sequential run: sort remaining elements by marginal
    (descending, ties by lowest id) and pick a rank from the step's
    distribution.  Aborts with IndexBeyondRemainingError when the schedule
    addresses a rank past the remaining pool.
    """
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
