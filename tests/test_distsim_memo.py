"""Distributed runs against their frozen per-machine reference.

``greedi`` and ``barbosa_framework`` memoize deterministic greedy by each
pool's capped count in every run of the oracle's blocks.  They are checked
against ``tests/_reference_distsim.py``, a frozen copy of the runs that
call ``deterministic_greedy`` on every machine and read every trace row's
value from the oracle, on the best mask, every trace row (shard masks
included), the tie flag, the round incumbents, the pools and the errors
raised.
"""

from hypothesis import example, given, settings, strategies as st

from subsens import (FunctionSpec, MpcConfig, OrdinalSchedule, barbosa_framework,
                     build_function, greedi, randomized_greedy_rule, restrict,
                     shipped_default_specs)

import _reference_distsim as reference

# every shipped family; `modular` and `avg_prop_lb` declare no blocks
ORACLES = {f.name: f for f in (build_function(spec) for n in (8, 12, 16)
                               for spec in shipped_default_specs(n))}

BASES = {"greedy": None, "randgreedy": randomized_greedy_rule(),
         "schedule": OrdinalSchedule.randomized_greedy(3)}


def outcome(call):
    """A run's best mask and trace, or the type and message of the error it
    raised."""
    try:
        best, trace = call()
    except Exception as exc:  # compared as data below
        return type(exc), str(exc)
    return (best, trace.rows, trace.export_lines(), trace.tie_occurred,
            trace.round_best, trace.pools, trace.pool_sizes)


def oracle_of(name, delete):
    f = ORACLES[name]
    return f if delete is None else restrict(f, delete % f.n)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), delete=st.one_of(st.none(), st.integers(0, 15)),
       k=st.integers(1, 9), m=st.integers(1, 6), seed=st.integers(0, 2**40))
@example(name="[greedi_lb,n=16,c=0.5]", delete=None, k=4, m=3, seed=0)
def test_greedi_matches_frozen_reference(name, delete, k, m, seed):
    f = oracle_of(name, delete)
    assert outcome(lambda: greedi(f, k, m, seed)) == \
        outcome(lambda: reference.greedi(f, k, m, seed))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(ORACLES)), delete=st.one_of(st.none(), st.integers(0, 15)),
       k=st.integers(1, 9), base=st.sampled_from(sorted(BASES)),
       machines=st.integers(1, 5), groups=st.integers(1, 3), rounds=st.integers(1, 3),
       capacity=st.one_of(st.none(), st.integers(1, 12)), strict=st.booleans(),
       seed=st.integers(0, 2**40))
@example(name="[framework_lb,n=16,k=6,c=0.5]", delete=None, k=4, base="greedy",
         machines=3, groups=2, rounds=3, capacity=None, strict=False, seed=0)
def test_framework_matches_frozen_reference(name, delete, k, base, machines, groups,
                                            rounds, capacity, strict, seed):
    f = oracle_of(name, delete)
    cfg = MpcConfig(machines=machines, groups=groups, rounds=rounds,
                    capacity=capacity, strict=strict)
    alg = BASES[base]
    assert outcome(lambda: barbosa_framework(f, k, cfg, alg, seed)) == \
        outcome(lambda: reference.barbosa_framework(f, k, cfg, alg, seed))


def test_memo_lives_for_one_call():
    # back-to-back calls on one oracle each cost what the call costs on a
    # fresh oracle: nothing is remembered between calls
    cfg = MpcConfig(machines=4, groups=2, rounds=2)
    runs = [(FunctionSpec("greedi_lb", n=64, c=0.5), lambda f: greedi(f, 4, 4, seed=3)),
            (FunctionSpec("framework_lb", n=64, k=4, c=0.5),
             lambda f: barbosa_framework(f, 4, cfg, None, seed=3))]
    for spec, run in runs:
        fresh = build_function(spec)
        run(fresh)
        cost = fresh.calls
        shared = build_function(spec)
        for _ in range(2):
            before = shared.calls
            run(shared)
            assert shared.calls - before == cost
