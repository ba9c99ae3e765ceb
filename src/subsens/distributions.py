"""Output distributions of (randomized) sequential algorithms, computed
exactly by execution-tree enumeration or empirically by sampling, plus the
per-step selection profile p_i(e) / P_i(e).

The exact enumerator is a level-by-level forward DP whose nodes are the
unordered current sets: every supported rule depends only on (oracle, S),
and schedules only add the step index, which equals |S| + 1.  A rule
marked ``equivariant`` on an oracle with ``blocks`` is evaluated once per
signature (the set's count in each run of the blocks) in each level, and
the other sets of that signature take its probabilities for their own
members.  Exact distributions of such rules therefore rely on the blocks
being exactly invariant: blocks that are not give wrong distributions
without any error.  Other rules, schedules and oracles without blocks are
evaluated at every node.

The sampler's per-step stream searches the step table of ``run_sequential``
(``algorithms._step_table``); only the scan's keyed stream has its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .algorithms import (DecisionRule, OrdinalSchedule, _check_k, _step_support,
                         _step_table, derive_uniforms)
from .oracle import ValueOracle, GroundSet, ids_of

Algorithm = Union[DecisionRule, OrdinalSchedule]


class NodeBudgetExceededError(RuntimeError):
    """Execution tree wider than the configured branch budget; sample instead."""


DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class OutputDistribution:
    """Probability distribution over canonical subsets (bitmasks).

    mode is "exact" (enumerated; probabilities sum to 1 within 1e-9 minus
    any pruned mass, which is recorded) or "empirical" (counts / trials).
    An exact distribution also records what its level DP cost: the nodes
    expanded in each level and the rule evaluations made, fewer than the
    nodes where sets share a signature.  Both stay out of comparisons and
    of ``to_csv``; sampled distributions leave them empty.
    """

    n: int
    k: int
    probs: dict[int, float]
    mode: str = "exact"
    trials: Optional[int] = None
    lost_mass: float = 0.0
    nodes_per_level: tuple[int, ...] = field(default=(), compare=False)
    rule_evals: int = field(default=0, compare=False)

    def validate(self, tol: float = 1e-9):
        sizes = {mask.bit_count() for mask in self.probs}
        if len(sizes) > 1:
            raise ValueError(f"support mixes set sizes {sorted(sizes)}")
        if not all(p >= 0 for p in self.probs.values()):
            raise ValueError("negative or NaN probability")
        total = sum(self.probs.values())
        if abs(total + self.lost_mass - 1.0) > tol:
            raise ValueError(f"probabilities sum to {total} (lost {self.lost_mass})")
        return self

    def support(self) -> list[int]:
        return sorted(self.probs)

    def inclusion_probabilities(self) -> np.ndarray:
        """Pr[e in S] per element, in this distribution's id space."""
        out = np.zeros(self.n)
        for mask, p in self.probs.items():
            m = mask
            while m:
                b = m & -m
                out[b.bit_length() - 1] += p
                m ^= b
        return out

    def expected_value(self, oracle: ValueOracle) -> float:
        return sum(p * oracle.value(mask) for mask, p in sorted(self.probs.items()))

    def remapped(self, index_map: tuple[int, ...], n: int) -> "OutputDistribution":
        """Translate support masks through an id map into a larger ground set."""
        remapped = {}
        for mask, p in self.probs.items():
            out = 0
            m = mask
            while m:
                b = m & -m
                out |= 1 << index_map[b.bit_length() - 1]
                m ^= b
            remapped[out] = remapped.get(out, 0.0) + p
        return OutputDistribution(n, self.k, remapped, self.mode, self.trials, self.lost_mass,
                                  self.nodes_per_level, self.rule_evals)

    def to_csv(self) -> str:
        """One row per support set; a pruned distribution ends with a
        ``lost_mass,<mass>`` row (unpruned ones have none)."""
        lines = ["set_bitmask_hex,probability"]
        for mask in sorted(self.probs):
            lines.append(f"{mask:#x},{self.probs[mask]!r}")
        if self.lost_mass > 0:
            lines.append(f"lost_mass,{self.lost_mass!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, n: int, mode: str = "exact",
                 trials: Optional[int] = None) -> "OutputDistribution":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "set_bitmask_hex,probability":
            raise ValueError("not an OutputDistribution CSV")
        probs = {}
        for ln in lines[1:]:
            mask_hex, _, p = ln.partition(",")
            key = mask_hex if mask_hex == "lost_mass" else int(mask_hex, 16)
            if key in probs:
                raise ValueError(f"repeated row for {mask_hex}")
            probs[key] = float(p)
        lost = probs.pop("lost_mass", 0.0)
        k = max((m.bit_count() for m in probs), default=0)
        return cls(n, k, probs, mode=mode, trials=trials, lost_mass=lost)


def _level_dp(alg: Algorithm, oracle: ValueOracle, k: int, node_budget: int,
              p_min: float, start_mask: int, allowed: Optional[int],
              profile: Optional[np.ndarray] = None
              ) -> tuple[dict[int, float], float, tuple[int, ...], int]:
    """Forward DP over the unordered current set, one level per step.

    Runs min(k, |pool minus start_mask|) steps and returns (final level,
    pruned mass, nodes expanded per level, rule evaluations).  When
    ``profile`` is given, row i-1 accumulates the mass of every step-i
    branch, pruned ones included.

    An equivariant rule on an oracle with blocks is evaluated once per
    signature in each level and its pairs are kept as (run, probability);
    every other set of that signature gives the probability to each of its
    own remaining members of the run, in id order.  Members of a run share
    their gain bit for bit, and so their probability.  The counts of the
    current set fix those of the remaining pool, since start_mask minus
    ``allowed`` is in every node.
    """
    GroundSet(oracle.n).require_exact()
    pool = allowed if allowed is not None else oracle.full_mask
    steps = _check_k(alg, oracle, k, pool & ~start_mask)
    runs = oracle.blocks if getattr(alg, "equivariant", False) else None
    run_of = {e: run for run in runs for e in ids_of(run)} if runs else {}
    level = {start_mask: 1.0}
    budget = node_budget
    lost = 0.0
    nodes = []
    evals = 0
    for step in range(1, steps + 1):
        # hold the finished level as two flat lists, not a hash table,
        # while the next one grows: it takes a fraction of the memory
        currents = sorted(level)
        masses = [level[c] for c in currents]
        level = {}
        nodes.append(len(currents))
        memo: dict[Optional[int], list[tuple[int, float]]] = {}
        for current, q in zip(currents, masses):
            sig = oracle.signature(current) if runs else None
            shared = memo.get(sig)
            if shared is None:
                pairs = _step_support(alg, oracle, current, step, k, allowed)
                evals += 1
                if runs:
                    shared = memo[sig] = []
                    for e, p in pairs:
                        if not shared or shared[-1][0] != run_of[e]:
                            shared.append((run_of[e], p))
            else:
                pairs = []
                rem = pool & ~current
                for run, p in shared:
                    m = run & rem
                    while m:
                        b = m & -m
                        pairs.append((b.bit_length() - 1, p))
                        m ^= b
            budget -= len(pairs)
            if budget < 0:
                raise NodeBudgetExceededError(
                    f"node budget {node_budget} exhausted at step {step}; "
                    "use sampled_output_distribution")
            for e, p in pairs:
                mass = q * p
                if profile is not None:
                    profile[step - 1, e] += mass
                if mass < p_min:
                    lost += mass
                    continue
                key = current | (1 << e)
                level[key] = level.get(key, 0.0) + mass
    return level, lost, tuple(nodes), evals


def exact_output_distribution(alg: Algorithm, oracle: ValueOracle, k: int, *,
                              node_budget: int = DEFAULT_NODE_BUDGET,
                              p_min: float = 0.0, start_mask: int = 0,
                              allowed: Optional[int] = None) -> OutputDistribution:
    """Enumerate the output distribution exactly (up to float accumulation).

    ``p_min`` > 0 prunes branches whose path probability falls below it; the
    dropped mass is reported in ``lost_mass``.  ``start_mask`` conditions the
    run on a forced initial set; k more elements (or all that ``allowed``
    leaves) are then selected.  k outside 1..n raises ``KOutOfRangeError``,
    as in ``run_sequential``.
    """
    level, lost, nodes, evals = _level_dp(alg, oracle, k, node_budget, p_min,
                                          start_mask, allowed)
    dist = OutputDistribution(oracle.n, len(nodes) + start_mask.bit_count(), level,
                              mode="exact", lost_mass=lost, nodes_per_level=nodes,
                              rule_evals=evals)
    return dist.validate()


# trials per derive_uniforms call.  One array for all 100,000 trials of the
# appendixd-lb suite raised its peak RSS by 0.9 MB, reached in the EMDs that
# follow the sampler; blocks keep each array small.
_DRAW_BLOCK = 4096


def _draws(key: tuple, trials: int, steps: int, per_step: bool):
    """Each trial's draws in trial order, ``random(steps)`` keyed (*key, t)
    or, per step, one ``random()`` keyed (*key, t, i) for each step i."""
    for first in range(0, trials, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, trials - first)
        if not per_step:
            yield from derive_uniforms(key, size, steps, first=first)
            continue
        block = np.empty((size, steps))
        for i in range(steps):
            block[:, i] = derive_uniforms(key, size, 1, (i + 1,), first)[:, 0]
        yield from block


def _sample(alg: Algorithm, oracle: ValueOracle, k: int, trials: int, key: tuple,
            allowed: Optional[int] = None, per_step: bool = False) -> OutputDistribution:
    """Empirical distribution of ``trials`` runs from the empty set.

    The algorithm is evaluated once per distinct current set (the step index
    is its size plus one); its support's elements, cumulative sums and draw
    scale are kept for the rest of the call.  The draws come from
    ``derive_uniforms``, a block of trials at a time, bit for bit those of
    one ``derive_rng`` per substream, so each caller keeps its recorded
    stream.  ``per_step`` (``sampled_output_distribution``): step i of trial
    t searches ``_step_table`` for one ``random()`` of the substream keyed
    (*key, t, i), as ``run_sequential`` does, so trial t is its run with
    ``seed_key=(*key, t)``.  Keyed (the sensitivity scan): trial t draws
    ``random(steps)`` from the substream keyed (*key, t); a rule's
    cumulative sums are searched for the draw times their total, a
    schedule's for the raw draw, and a draw past the last sum takes the
    last element.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    steps = _check_k(alg, oracle, k, allowed)
    is_rule = not isinstance(alg, OrdinalSchedule)
    counts: dict[int, int] = {}
    step_cache: dict[int, tuple] = {}
    for row in _draws(key, trials, steps, per_step):
        current = 0
        for i in range(steps):
            cached = step_cache.get(current)
            if cached is None:
                pairs = _step_support(alg, oracle, current, i + 1, k, allowed)
                if per_step:
                    cum, scale = _step_table(alg, pairs, oracle.n), 1.0
                else:
                    cum = np.cumsum([p for _, p in pairs])
                    scale = cum[-1] if is_rule else 1.0
                cached = step_cache[current] = ([e for e, _ in pairs], cum, scale)
            elements, cum, scale = cached
            idx = int(cum.searchsorted(row[i] * scale, side="right"))
            current |= 1 << elements[min(idx, len(elements) - 1)]
        counts[current] = counts.get(current, 0) + 1
    probs = {mask: c / trials for mask, c in counts.items()}
    return OutputDistribution(oracle.n, steps, probs, mode="empirical",
                              trials=trials).validate()


def sampled_output_distribution(alg: Algorithm, oracle: ValueOracle, k: int,
                                trials: int, seed: int, *,
                                allowed: Optional[int] = None) -> OutputDistribution:
    """Empirical measure of `trials` independent runs.  Step i of trial t
    draws from the substream keyed (seed, t, i), so trial t is the run of
    ``run_sequential`` / ``independent_sequential`` with
    ``seed_key=(seed, t)``."""
    return _sample(alg, oracle, k, trials, (seed,), allowed, per_step=True)


@dataclass
class SelectionProfile:
    """p[i][e]: probability of selecting e at step i (1-based rows);
    P[i][e]: probability of having selected e by step i (cumulative)."""

    n: int
    k: int
    p: np.ndarray  # shape (k, n)
    P: np.ndarray  # shape (k, n)
    lost_mass: float = 0.0

    def validate(self, tol: float = 1e-9):
        if np.any(self.p < -tol) or np.any(self.P > 1 + tol):
            raise ValueError("selection profile outside [0, 1]")
        if np.any(np.diff(self.P, axis=0) < -tol):
            raise ValueError("P[i][e] must be non-decreasing in i")
        row_sums = self.p.sum(axis=1)
        if np.any(row_sums > 1 + tol) or np.any(row_sums < 1 - self.lost_mass - tol):
            raise ValueError(f"step rows sum to {row_sums}")
        return self

    def to_csv(self) -> str:
        lines = ["step,element,p,P"]
        for i in range(self.k):
            for e in range(self.n):
                lines.append(f"{i + 1},{e},{self.p[i, e]!r},{self.P[i, e]!r}")
        return "\n".join(lines) + "\n"


def selection_profile(alg: Algorithm, oracle: ValueOracle, k: int, *,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      p_min: float = 0.0,
                      allowed: Optional[int] = None) -> SelectionProfile:
    """p_i(e) = sum over reach-probability-weighted per-step rule masses."""
    p = np.zeros((min(k, oracle.n), oracle.n))
    _, lost, nodes, _ = _level_dp(alg, oracle, k, node_budget, p_min, 0, allowed,
                                  profile=p)
    p = p[:len(nodes)]
    prof = SelectionProfile(oracle.n, len(nodes), p, np.cumsum(p, axis=0), lost_mass=lost)
    return prof.validate()
