"""Interchangeable-element blocks: each declared block is a true symmetry of
its family, restrictions carry it through, and the one-call-per-block gain
sweeps reproduce the per-element sweeps exactly."""

import pytest
from hypothesis import given, settings, strategies as st

from subsens import (FunctionSpec, OrdinalSchedule, ValueOracle, build_function,
                     deterministic_greedy, ids_of, restrict, shipped_default_specs)
from subsens.algorithms import (_marginals, greedy_rule, proportional_greedy_rule,
                                randomized_greedy_rule, schedule_step_support)
from subsens.oracle import InconsistentDimensionsError, _FAMILIES

SPECS = shipped_default_specs()
# the forced element splits the head into two runs
SPLIT_HEAD = FunctionSpec("framework_lb", n=12, k=4, c=0.5, j=2)
UNBLOCKED = {"modular", "avg_prop_lb"}
RULES = (greedy_rule(), randomized_greedy_rule(), proportional_greedy_rule())


def without_blocks(oracle):
    return ValueOracle(oracle.n, oracle._fn, name=oracle.name, index_map=oracle.index_map,
                       meta=oracle.meta, check_empty=False)


def deletions(n):
    """Every one-step deletion and a few two-step ones that hit both ends
    and the middle of the ground set."""
    out = [(e,) for e in range(n)]
    out += [(a, b) for a in (0, n // 2, n - 1) for b in (0, (n - 1) // 2, n - 2)]
    return out


def restricted(oracle, path):
    for e in path:
        oracle = restrict(oracle, e)
    return oracle


def assert_block_symmetry(oracle):
    n = oracle.n
    blocks = oracle.blocks if oracle.blocks is not None else [1 << e for e in range(n)]
    union = 0
    for block in blocks:
        assert block and not block & union
        union |= block
    assert union == oracle.full_mask
    assert list(blocks) == sorted(blocks)
    for block in blocks:
        low = block & -block
        assert (block + low) & block == 0      # one run of consecutive ids
    vals = [oracle._fn(mask) for mask in range(1 << n)]
    for block in blocks:
        members = ids_of(block)
        for a, b in zip(members, members[1:]):
            swap = (1 << a) | (1 << b)
            for mask in range(1 << n):
                if mask >> a & 1 and not mask >> b & 1:
                    assert vals[mask] == vals[mask ^ swap], (oracle.name, a, b, mask)


@pytest.mark.parametrize("spec", SPECS, ids=[s.family for s in SPECS])
def test_blocks_are_exact_symmetries_through_restrictions(spec):
    f = build_function(spec)
    assert (f.blocks is None) == (spec.family in UNBLOCKED)
    assert_block_symmetry(f)
    for path in deletions(f.n):
        assert_block_symmetry(restricted(f, path))


def test_restrict_compresses_blocks():
    f = build_function(FunctionSpec("greedi_lb", n=8, c=0.5))
    assert f.blocks == (0b1, 0b1110, 0b11110000)
    assert restrict(f, 0).blocks == (0b111, 0b1111000)
    assert restrict(f, 2).blocks == (0b1, 0b110, 0b1111000)
    assert restrict(restrict(f, 0), 0).blocks == (0b11, 0b111100)


def test_framework_lb_splits_head_at_forced_element():
    # the declared head-minus-e_j block {e_1, e_3, e_4} is stored as two runs
    f = build_function(SPLIT_HEAD)
    assert_block_symmetry(f)
    assert f.blocks == (0b1, 0b10, 0b1100, 0b110000, 0b111111000000)


def test_blocks_must_partition_ground_set(monkeypatch):
    fn = lambda mask: float(mask.bit_count())
    with pytest.raises(InconsistentDimensionsError):
        ValueOracle(4, fn, blocks=[0b0011, 0b0110, 0b1000])     # overlap
    with pytest.raises(InconsistentDimensionsError):
        ValueOracle(4, fn, blocks=[0b0011, 0b0100])             # misses e_4
    with pytest.raises(InconsistentDimensionsError):
        ValueOracle(4, fn, blocks=[0b1111, 0b10000])            # beyond n
    assert ValueOracle(4, fn, blocks=[0b1100, 0, 0b0011]).blocks == (0b0011, 0b1100)
    assert ValueOracle(4, fn, blocks=[0b1011, 0b0100]).blocks == (0b0011, 0b0100, 0b1000)

    def overlapping(spec):
        return spec.n, fn, {}, [1, (1 << spec.n) - 1]

    monkeypatch.setitem(_FAMILIES, "greedi_lb", overlapping)
    with pytest.raises(InconsistentDimensionsError):
        build_function(FunctionSpec("greedi_lb", n=6, c=0.5))


def test_block_gains_one_call_per_block():
    f = build_function(FunctionSpec("greedi_lb", n=64, c=0.5))
    plain = without_blocks(f)
    current = 0b101
    rem = f.full_mask & ~current
    gains = f.block_gains(current, rem)
    assert f.calls == 1 + 2
    assert [(e, members) for e, _, members in gains] == [
        (1, f.blocks[1] & rem), (32, f.blocks[2])]
    assert plain.block_gains(current, rem) == [
        (e, g, 1 << e) for e, g, members in gains for e in ids_of(members)]
    assert plain.calls == 1 + 62
    assert f.block_gains(current, 0) == [] and f.calls == 3

    f.calls = plain.calls = 0
    assert deterministic_greedy(f, 4) == deterministic_greedy(plain, 4)
    assert f.calls == 4 + 3 + 3 + 3
    assert plain.calls == sum(1 + 64 - i for i in range(4))


def draw_case(data, oracle):
    n = oracle.n
    allowed = data.draw(st.integers(0, oracle.full_mask)) | data.draw(
        st.integers(0, oracle.full_mask))
    if data.draw(st.booleans()) or allowed.bit_count() < 2:
        allowed = None
    pool = allowed if allowed is not None else oracle.full_mask
    current = data.draw(st.integers(0, oracle.full_mask)) & pool
    if (pool & ~current).bit_count() < 1:
        current = 0
    return allowed, current, n


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_sweeps_match_per_element_sweeps(data):
    spec = data.draw(st.sampled_from(SPECS + [SPLIT_HEAD]))
    f = build_function(spec)
    path = data.draw(st.lists(st.integers(0, f.n - 3), max_size=2))
    f = restricted(f, path)
    plain = without_blocks(f)
    allowed, current, n = draw_case(data, f)
    pool = allowed if allowed is not None else f.full_mask
    k = data.draw(st.integers(1, min(n, pool.bit_count())))

    assert deterministic_greedy(f, k, allowed) == deterministic_greedy(plain, k, allowed)
    assert _marginals(f, current, allowed) == _marginals(plain, current, allowed)
    for rule in RULES:
        assert rule.probabilities(f, current, k, allowed) == \
            rule.probabilities(plain, current, k, allowed)
    rem = (pool & ~current).bit_count()
    step = current.bit_count() + 1
    width = data.draw(st.integers(1, rem))
    positions = tuple(data.draw(st.permutations(range(1, rem + 1)))[:width])
    probs = tuple([1.0 / width] * width)
    schedule = OrdinalSchedule(step, tuple((positions, probs) for _ in range(step)))
    assert schedule_step_support(schedule, f, current, step, allowed) == \
        schedule_step_support(schedule, plain, current, step, allowed)
