"""The one sequential runner against the two it replaced.

``run_sequential`` runs rules and ordinal schedules alike, searching the
per-step sampler's table for one draw per step; ``independent_sequential``
is that run with a schedule.  Both are checked against
``tests/_reference_runner.py``, a frozen copy of the runners that drew
through ``Generator.choice``, with ``==`` on the mask, every step record
(element, marginal and probability) and the errors raised.
"""

from hypothesis import example, given, settings, strategies as st

from subsens import (OrdinalSchedule, build_function, greedy_rule, independent_sequential,
                     proportional_greedy_rule, randomized_greedy_rule, run_sequential,
                     shipped_default_specs)
from subsens.algorithms import DecisionRule
from subsens.oracle import ValueOracle

import _reference_runner as reference


class HalfRule(DecisionRule):
    """Masses summing to 0.5, which the runner rejects."""

    name = "half"

    def probabilities(self, oracle, current, k, allowed=None):
        return [(e, p / 2) for e, p in
                proportional_greedy_rule().probabilities(oracle, current, k, allowed)]


RULES = {"greedy": greedy_rule(), "randgreedy": randomized_greedy_rule(),
         "proportional": proportional_greedy_rule(), "half": HalfRule()}

# every shipped family; a marginal of `dip` turns negative once 0 and 1 are
# both chosen, so proportional greedy fails on the runs that draw both
ORACLES = {f.name: f for f in (build_function(spec) for n in (8, 12)
                               for spec in shipped_default_specs(n))}
ORACLES["dip"] = ValueOracle(6, lambda m: m.bit_count() - 3.0 * (m & 0b11 == 0b11),
                             name="dip")

KEY_WORD = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))


@st.composite
def schedules(draw, k):
    """A schedule of ``k`` steps, or one step more or fewer, with ranks in
    any order and unequal masses; ranks up to 6 run past small pools."""
    steps = []
    for _ in range(draw(st.integers(max(1, k - 1), k + 1))):
        positions = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(positions),
                                max_size=len(positions)))
        steps.append((tuple(positions), tuple(w / sum(weights) for w in weights)))
    return OrdinalSchedule(len(steps), tuple(steps))


def outcome(call):
    """A run's mask and trace, or the type and message of the error it
    raised."""
    try:
        return call()
    except Exception as exc:  # compared as data below
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), k=st.integers(1, 7),
       alg=st.one_of(st.sampled_from(sorted(RULES)), st.just("schedule")),
       data=st.data(), pool=st.one_of(st.none(), st.integers(0, 2**13 - 1)),
       seed=st.integers(0, 2**64), key=st.one_of(
           st.none(), st.lists(KEY_WORD, min_size=1, max_size=3).map(tuple)))
@example(name="dip", k=3, alg="proportional", data=None, pool=None, seed=1, key=None)
@example(name="dip", k=2, alg="greedy", data=None, pool=None, seed=-1, key=None)
def test_runner_matches_frozen_reference(name, k, alg, data, pool, seed, key):
    f = ORACLES[name]
    allowed = None if pool is None else pool & f.full_mask
    if alg == "schedule":
        schedule = data.draw(schedules(k))
        want = outcome(lambda: reference.independent_sequential(f, k, schedule, seed,
                                                                allowed, key))
        assert outcome(lambda: independent_sequential(f, k, schedule, seed,
                                                      allowed, key)) == want
        assert outcome(lambda: run_sequential(f, k, schedule, seed, allowed, key)) == want
    else:
        rule = RULES[alg]
        want = outcome(lambda: reference.run_sequential(f, k, rule, seed, allowed, key))
        assert outcome(lambda: run_sequential(f, k, rule, seed, allowed, key)) == want


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), k=st.integers(0, 7),
       current=st.integers(0, 2**13 - 1), pool=st.one_of(st.none(), st.integers(0, 2**13 - 1)))
def test_randomized_greedy_rule_matches_frozen_reference(name, k, current, pool):
    f = ORACLES[name]
    current &= f.full_mask
    allowed = None if pool is None else pool & f.full_mask
    want = outcome(lambda: reference.randomized_greedy_probabilities(f, current, k, allowed))
    got = outcome(lambda: randomized_greedy_rule().probabilities(f, current, k, allowed))
    assert got == want
