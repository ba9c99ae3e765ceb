"""The sampler's batched draws against the generators they replace.

``derive_uniforms`` computes the ``derive_rng`` substreams of many trials
at once; it is checked bit for bit against ``derive_rng`` itself.  The
sampler built on it is checked against ``tests/_reference_sampler.py``,
a frozen copy of the sampler that built one generator per trial (and per
step), on the distribution, the insertion order of its probabilities and
the errors raised.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subsens import (FunctionSpec, OrdinalSchedule, build_function, greedy_rule,
                     proportional_greedy_rule, randomized_greedy_rule,
                     shipped_default_specs)
from subsens.algorithms import DecisionRule, derive_rng, derive_uniforms
from subsens.distributions import _DRAW_BLOCK, _draws, _sample
from subsens.oracle import ValueOracle

from _reference_sampler import reference_sample

KEY_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                      st.integers(2**64, 2**96), st.just(0),
                      st.integers(0, 2**63 - 1).map(np.int64))


def derived(prefix, trials, count, suffix=(), first=0):
    return np.array([derive_rng(*prefix, t, *suffix).random(count)
                     for t in range(first, first + trials)]).reshape(trials, count)


@settings(max_examples=200, deadline=None)
@given(prefix=st.lists(KEY_WORDS, max_size=4).map(tuple),
       suffix=st.lists(KEY_WORDS, max_size=1).map(tuple),
       trials=st.integers(1, 300), count=st.integers(0, 9),
       first=st.one_of(st.just(0), st.integers(0, 2**32 - 301)))
# more than four key words, so words past the pool size are mixed in
@example(prefix=(3, 2, 1, 2**64 + 5), suffix=(9,), trials=3, count=9, first=0)
def test_derive_uniforms_matches_derive_rng(prefix, suffix, trials, count, first):
    got = derive_uniforms(prefix, trials, count, suffix, first)
    assert got.shape == (trials, count)
    assert np.array_equal(got, derived(prefix, trials, count, suffix, first))


@pytest.mark.parametrize("prefix,suffix", [((-1,), ()), ((3, -2), ()), ((5,), (-1,)),
                                           ((np.int64(-4),), ())])
def test_derive_uniforms_rejects_negative_words_as_seed_sequence_does(prefix, suffix):
    with pytest.raises(ValueError, match="expected non-negative integer") as expected:
        derived(prefix, 2, 1, suffix)
    with pytest.raises(ValueError) as got:
        derive_uniforms(prefix, 2, 1, suffix)
    assert str(got.value) == str(expected.value)


def test_sampler_draws_span_blocks_of_trials():
    # rows keep their own t across the sampler's blocks of trials, on both
    # streams, up to the last key word t = 2**32 - 1
    trials = 2 * _DRAW_BLOCK + 3
    keyed = np.array(list(_draws((7, 1), trials, 2, per_step=False)))
    per_step = np.array(list(_draws((5,), trials, 3, per_step=True)))
    for t in (0, _DRAW_BLOCK - 1, _DRAW_BLOCK, 2 * _DRAW_BLOCK, trials - 1):
        assert np.array_equal(keyed[t], derive_rng(7, 1, t).random(2)), t
        assert per_step[t].tolist() == [derive_rng(5, t, i).random() for i in (1, 2, 3)], t
    assert np.array_equal(derive_uniforms((9,), 2, 5, (), 2**32 - 2),
                          derived((9,), 2, 5, (), 2**32 - 2))


# --- the sampler against its frozen per-trial reference ---------------------


class HalfRule(DecisionRule):
    """Masses summing to 0.5: the per-step stream rejects them, the keyed
    stream rescales them."""

    name = "half"

    def probabilities(self, oracle, current, k, allowed=None):
        return [(e, p / 2) for e, p in
                proportional_greedy_rule().probabilities(oracle, current, k, allowed)]


def algorithms(k):
    return {"greedy": greedy_rule(), "randgreedy": randomized_greedy_rule(),
            "proportional": proportional_greedy_rule(), "half": HalfRule(),
            "schedule-randgreedy": OrdinalSchedule.randomized_greedy(k),
            # ranks out of order, so the walk order matters; rank 3 runs
            # past small pools
            "schedule-custom": OrdinalSchedule(k, (((2, 1, 3), (0.5, 0.3, 0.2)),) * k)}


# a marginal turns negative once 0 and 1 are both chosen, so proportional
# greedy fails at whichever trial first draws them
DIP = ValueOracle(6, lambda m: m.bit_count() - 3.0 * (m & 0b11 == 0b11), name="dip")
ORACLES = {s.family: build_function(s) for s in shipped_default_specs(8) if s.n <= 8}
ORACLES["dip"] = DIP


def outcome(call):
    """A call's distribution with its insertion order, or the type and
    message of the error it raised."""
    try:
        d = call()
    except Exception as exc:  # compared as data below
        return type(exc), str(exc)
    return d, list(d.probs.items())


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(ORACLES)), name=st.sampled_from(sorted(algorithms(1))),
       k=st.integers(1, 4), pool=st.one_of(st.none(), st.integers(0, 255)),
       key=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
                    min_size=1, max_size=3).map(tuple),
       trials=st.integers(1, 200), per_step=st.booleans())
def test_sampler_matches_frozen_reference(family, name, k, pool, key, trials, per_step):
    f = ORACLES[family]
    alg = algorithms(k)[name]
    allowed = None if pool is None else pool & f.full_mask
    got = outcome(lambda: _sample(alg, f, k, trials, key, allowed, per_step=per_step))
    want = outcome(lambda: reference_sample(alg, f, k, trials, key, allowed,
                                            per_step=per_step))
    assert got == want


@pytest.mark.parametrize("per_step", [False, True])
def test_sampler_rejects_negative_keys_as_the_reference_does(per_step):
    f = ORACLES["greedi_lb"]
    for key in ((-1,), (4, -1)):
        want = outcome(lambda: reference_sample(greedy_rule(), f, 2, 3, key,
                                                per_step=per_step))
        assert want == (ValueError, "expected non-negative integer")
        assert outcome(lambda: _sample(greedy_rule(), f, 2, 3, key,
                                       per_step=per_step)) == want


@pytest.mark.parametrize("per_step", [False, True])
def test_sampler_matches_frozen_reference_across_blocks_of_trials(per_step):
    f = build_function(FunctionSpec("appendixD_lb", n=12, c=0.75))
    alg = proportional_greedy_rule()
    trials = _DRAW_BLOCK + 5
    got = _sample(alg, f, 3, trials, (7, 1), per_step=per_step)
    want = reference_sample(alg, f, 3, trials, (7, 1), per_step=per_step)
    assert outcome(lambda: got) == outcome(lambda: want)
