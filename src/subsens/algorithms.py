"""Sequential maximization algorithms: greedy variants, decision-rule runs,
and ordinal-schedule (marginal-rank) runs.

Tie-breaking is everywhere by lowest element id, which makes deterministic
runs a single point mass.  Random draws come from a counter-based Philox
generator keyed by (seed, step) so runs are reproducible independently of
scheduling.  ``run_sequential`` runs rules and schedules alike: each step
searches the per-step sampler's table (``_step_table``) for one draw.
"""

from __future__ import annotations

import operator
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
    """Philox generator keyed by an integer tuple; splittable and stable.

    The reference for ``derive_uniforms``, which the sampler draws from;
    the sequential runners, the bootstrap and ``distsim`` draw from it."""
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy=key)))


_M32 = 0xFFFFFFFF


def _key_words(key: tuple) -> list[int]:
    """The little-endian 32-bit words of each int, as ``SeedSequence``
    assembles its entropy; 0 gives one word."""
    words = []
    for w in key:
        w = operator.index(w)
        if w < 0:
            raise ValueError("expected non-negative integer")
        words.append(w & _M32)
        while w > _M32:
            w >>= 32
            words.append(w & _M32)
    return words


def _hashmix(const: int, mult: int):
    """``SeedSequence``'s hash of one 32-bit word, whose constant advances
    by ``mult`` at every call."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    """``SeedSequence``'s mix of a pool word with a hashed word."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ (r >> 16)


def _seed_state(entropy: list) -> tuple[np.ndarray, np.ndarray]:
    """``SeedSequence(entropy).generate_state(2, uint64)`` for words that
    are ints or uint64 arrays: a pool of 4 hashed words, cross-mixed, with
    words past the fourth mixed in after; then each pool word hashed once
    more, paired low then high.  Every product is masked to 32 bits."""
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool))
    return state[0] | (state[1] << 32), state[2] | (state[3] << 32)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of a 64-bit constant and
    each word of ``b``, from 32-bit halves in uint64."""
    a_lo, a_hi = np.uint64(a & _M32), np.uint64(a >> 32)
    b_lo, b_hi = b & _M32, b >> 32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), b * np.uint64(a)


def _philox(counter: int, k0: np.ndarray, k1: np.ndarray) -> list[np.ndarray]:
    """Philox4x64-10 of the counter (counter, 0, 0, 0) under each key."""
    ctr = [np.full(k0.shape, counter, dtype=np.uint64)] + [np.zeros(k0.shape, np.uint64)] * 3
    for rnd in range(10):
        if rnd:
            k0 = k0 + np.uint64(0x9E3779B97F4A7C15)
            k1 = k1 + np.uint64(0xBB67AE8584CAA73B)
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, ctr[0])
        hi1, lo1 = _mulhilo(0xCA5A826395121157, ctr[2])
        ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0]
    return ctr


def derive_uniforms(prefix: tuple, trials: int, count: int, suffix: tuple = (),
                    first: int = 0) -> np.ndarray:
    """Row r is ``derive_rng(*prefix, t, *suffix).random(count)`` with
    t = first + r, bit for bit, for ``trials`` rows computed together; t
    must stay below 2**32, so that it is one key word.  Its temporaries
    are a few uint64 words per row, so callers ask for a block of rows at
    a time.

    It follows numpy's ``SeedSequence`` and Philox4x64-10 (Salmon et al.,
    SC 2011), whose counter is bumped before each 4-word block, so the
    first block is (1, 0, 0, 0); ``random()`` is ``(u >> 11) * 2**-53``.
    A negative key int raises ``ValueError`` as ``SeedSequence`` does.
    """
    t = np.arange(first, first + trials, dtype=np.uint64)
    k0, k1 = _seed_state([*_key_words(prefix), t, *_key_words(suffix)])
    out = np.empty((trials, count))
    for block in range(0, count, 4):
        words = _philox(block // 4 + 1, k0, k1)
        for j in range(min(4, count - block)):
            out[:, block + j] = (words[j] >> 11) * 2.0 ** -53
    return out


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
        ranked, _ = _sorted_by_marginal(oracle, current, allowed)
        if not ranked:
            raise KOutOfRangeError("no candidates left")
        top = sorted(ranked[:k])
        return [(e, 1.0 / len(top)) for e in top]


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


def _step_support(alg: DecisionRule | OrdinalSchedule, oracle: ValueOracle, current: int,
                  step: int, k: int, allowed: Optional[int]) -> list[tuple[int, float]]:
    """(element, probability) pairs for one step, each > 0: a rule's in
    ascending id order, a schedule's in the order it lists its ranks."""
    if isinstance(alg, OrdinalSchedule):
        return [(e, q) for e, q, _ in
                schedule_step_support(alg, oracle, current, step, allowed)]
    return alg.probabilities(oracle, current, k, allowed)


def _step_table(alg: DecisionRule | OrdinalSchedule, pairs: list[tuple[int, float]],
                n: int) -> np.ndarray:
    """The cumulative table ``Generator.choice`` searches for one step's
    ``random()``: a rule's masses are first divided by their sum over all
    n ids, which need not equal the sum of the pairs bit for bit, and must
    lie within 1e-9 of 1; the cumsum is then divided by its last entry, so
    it ends at 1.0 and a draw always lands inside it."""
    masses = np.array([p for _, p in pairs])
    if not isinstance(alg, OrdinalSchedule):
        s = np.bincount([e for e, _ in pairs], masses, n).sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"rule probabilities sum to {s}")
        masses /= s
    cum = np.cumsum(masses)
    cum /= cum[-1]
    return cum


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


def run_sequential(oracle: ValueOracle, k: int,
                   rule: DecisionRule | OrdinalSchedule, seed: int,
                   allowed: Optional[int] = None,
                   seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    """Draw k elements without replacement, each step from the rule's
    pairs or the schedule's ranks (``_step_support``).

    Reproducible: step i picks by one ``random()`` of the generator keyed
    by (seed, i) (or (*seed_key, i) when a composite key is supplied),
    searched in ``_step_table``, as ``Generator.choice`` does.  A schedule
    that addresses a rank past the remaining pool raises
    IndexBeyondRemainingError.
    """
    steps = _check_k(rule, oracle, k, allowed)
    key = seed_key if seed_key is not None else (seed,)
    current = 0
    records = []
    for i in range(1, steps + 1):
        pairs = _step_support(rule, oracle, current, i, k, allowed)
        cum = _step_table(rule, pairs, oracle.n)
        e, p = pairs[int(cum.searchsorted(derive_rng(*key, i).random(), side="right"))]
        m = oracle.value(current | (1 << e)) - oracle.value(current)
        records.append(StepRecord(i, e, m, float(p)))
        current |= 1 << e
    return current, RunTrace(tuple(records), current)


def independent_sequential(oracle: ValueOracle, k: int, schedule: OrdinalSchedule,
                           seed: int, allowed: Optional[int] = None,
                           seed_key: Optional[tuple] = None) -> tuple[int, RunTrace]:
    """Rank-based sequential run: ``run_sequential`` with a schedule, which
    sorts the remaining elements by marginal (descending, ties by lowest
    id) and picks a rank from the step's distribution."""
    return run_sequential(oracle, k, schedule, seed, allowed, seed_key)
