"""Distributed simulation: two-phase greedy and the pool-growing framework."""

import pytest

from subsens import (FunctionSpec, MpcConfig, ValueOracle, barbosa_framework,
                     build_function, deterministic_greedy, greedi,
                     ids_of, mask_of)
from subsens.algorithms import KOutOfRangeError, derive_rng
from subsens.distsim import PoolOverflowError, _partition, sampled_distribution
from subsens.oracle import InvalidElementError


def modular(*weights):
    return build_function(FunctionSpec("modular", n=len(weights),
                                       weights=tuple(float(w) for w in weights)))


# --- greedi -----------------------------------------------------------------


def test_single_machine_equals_centralized_greedy():
    f = build_function(FunctionSpec("greedi_lb", n=12, c=0.5))
    direct, _ = deterministic_greedy(f, 4)
    for seed in range(3):
        merged, trace = greedi(f, 4, 1, seed=seed)
        assert merged == direct


def test_greedi_modular_recovers_global_topk():
    # every partition puts each of the global top-k on some machine, that
    # machine selects it, so the merged run always recovers the optimum
    f = modular(9, 7, 5, 3, 2, 1)
    for seed in range(60):
        best, trace = greedi(f, 2, 2, seed=seed)
        assert ids_of(best) == [0, 1]
        # per-machine solutions are the local top picks of the recorded shard
        for row in trace.rows:
            if row.machine == 0 or row.shard == 0:
                continue
            local, _ = deterministic_greedy(f, min(2, row.shard.bit_count()),
                                            allowed=row.shard)
            assert row.solution == local


def test_greedi_returns_at_least_best_machine():
    f = build_function(FunctionSpec("greedi_lb", n=32, c=0.5))
    for seed in range(10):
        best, trace = greedi(f, 4, 4, seed=seed)
        best_value = f.value(best)
        for row in trace.rows:
            assert best_value >= row.value - 1e-12


def test_greedi_k_out_of_range():
    f = modular(1, 2, 3)
    with pytest.raises(KOutOfRangeError):
        greedi(f, 4, 2, seed=0)


def test_partition_covers_ground_set_exactly():
    rng = derive_rng(4, 0)
    shards = _partition(50, 7, rng)
    union = 0
    total = 0
    for s in shards:
        assert union & s == 0
        union |= s
        total += s.bit_count()
    assert union == (1 << 50) - 1
    assert total == 50


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1024])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_partition_matches_per_element_assignment(n, m):
    for t in range(3):
        assignment = derive_rng(5, n, m, t).integers(0, m, size=n)
        expected = [0] * m
        for e in range(n):
            expected[int(assignment[e])] |= 1 << e
        assert _partition(n, m, derive_rng(5, n, m, t)) == expected


def test_heavy_machine_gets_enough_tail_elements():
    # balls-in-bins step behind the distributed hardness argument: the
    # machine holding the heavy element also receives at least k-1 elements
    # of the tail half in almost every partition
    n, m, k = 4096, 16, 5
    tail_lo = n // 2
    misses = 0
    seeds = 1000
    for t in range(seeds):
        shards = _partition(n, m, derive_rng(77, t))
        holder = next(s for s in shards if s & 1)
        tail_count = (holder >> tail_lo).bit_count()
        if tail_count < k - 1:
            misses += 1
    assert misses / seeds < 0.01


# --- framework --------------------------------------------------------------


def test_trivial_framework_equals_base():
    f = build_function(FunctionSpec("greedi_lb", n=10, c=0.5))
    cfg = MpcConfig(machines=1, groups=1, rounds=1)
    direct, _ = deterministic_greedy(f, 3)
    best, _ = barbosa_framework(f, 3, cfg, None, seed=2)
    assert best == direct


def test_pool_grows_and_incumbent_improves():
    f = build_function(FunctionSpec("framework_lb", n=64, k=3, c=0.5))
    cfg = MpcConfig(machines=4, groups=2, rounds=3)
    best, trace = barbosa_framework(f, 3, cfg, None, seed=5)
    for a, b in zip(trace.pools, trace.pools[1:]):
        assert a & ~b == 0          # C_{r-1} subset of C_r
    for a, b in zip(trace.round_best, trace.round_best[1:]):
        assert b >= a - 1e-12
    assert f.value(best) == trace.round_best[-1]


def test_framework_first_round_pool_captures_heavies():
    n, k = 128, 3
    f = build_function(FunctionSpec("framework_lb", n=n, k=k, c=0.5))
    cfg = MpcConfig(machines=4, groups=2, rounds=1)
    heavy = (1 << k) - 1
    for seed in range(25):
        _, trace = barbosa_framework(f, k, cfg, None, seed=seed)
        assert trace.pools[0] & heavy == heavy


def test_framework_with_randomized_base_is_reproducible():
    from subsens import randomized_greedy_rule
    f = build_function(FunctionSpec("greedi_lb", n=20, c=0.5))
    cfg = MpcConfig(machines=2, groups=1, rounds=2)
    b1, _ = barbosa_framework(f, 3, cfg, randomized_greedy_rule(), seed=8)
    b2, _ = barbosa_framework(f, 3, cfg, randomized_greedy_rule(), seed=8)
    assert b1 == b2


def test_strict_mpc_validation_and_pool_overflow():
    f = build_function(FunctionSpec("greedi_lb", n=16, c=0.5))
    with pytest.raises(ValueError):
        MpcConfig(machines=16, strict=True).check_strict(16)   # m >= n^0.9
    cfg = MpcConfig(machines=2, groups=2, rounds=3, capacity=4, strict=True)
    with pytest.raises(PoolOverflowError):
        barbosa_framework(f, 4, cfg, None, seed=1)


def test_machine_visibility_is_masked():
    seen = []

    def spy(mask):
        seen.append(mask)
        return float(mask.bit_count())

    f = ValueOracle(12, spy, name="spy")
    allowed = mask_of([1, 3, 5, 7])
    seen.clear()
    deterministic_greedy(f, 3, allowed=allowed)
    assert all(mask & ~allowed == 0 for mask in seen)


def test_config_defaults_from_accuracy():
    cfg = MpcConfig.from_accuracy(machines=8, alpha=0.5, eps=0.2)
    assert cfg.rounds == 5
    assert cfg.groups == 10
    with pytest.raises(ValueError):
        MpcConfig(machines=0)


def test_trace_export_format():
    f = build_function(FunctionSpec("greedi_lb", n=12, c=0.5))
    _, trace = greedi(f, 3, 2, seed=4)
    lines = trace.export_lines()
    assert lines[0] == "round,group,machine,shard_size,solution,value"
    assert all(len(ln.split(",")) == 6 for ln in lines[1:])


def test_distributed_runs_evaluate_each_solution_once():
    # the pick of the best solution reads the value on each trace row, and
    # machines whose pools have the same capped run counts share one greedy
    # run and its value
    f = build_function(FunctionSpec("greedi_lb", n=1024, c=0.5))
    before = f.calls
    _, trace = greedi(f, 4, 8, seed=0)
    assert f.calls - before == 41
    assert all(row.value == f.value(row.solution) for row in trace.rows)
    g = build_function(FunctionSpec("framework_lb", n=1024, k=4, c=0.5))
    before = g.calls
    _, trace = barbosa_framework(g, 4, MpcConfig(machines=8, groups=2, rounds=3), None, seed=0)
    assert g.calls - before == 78
    assert all(row.value == g.value(row.solution) for row in trace.rows)


# --- sampled distributions ----------------------------------------------------


def test_sampled_distribution_rejects_bad_trials_and_masks():
    with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
        sampled_distribution(lambda t: 0b1, 0, 4, 1)
    with pytest.raises(ValueError, match="trials must be >= 1, got -3"):
        sampled_distribution(lambda t: 0b1, -3, 4, 1)
    for bad in (1 << 4, 0b10001, -1):
        with pytest.raises(InvalidElementError, match="has bits beyond n=4"):
            sampled_distribution(lambda t: 0b1 if t < 2 else bad, 5, 4, 1)
    d = sampled_distribution(lambda t: 0b1000 if t % 2 else 0b1, 4, 4, 1)
    assert d.probs == {0b1: 0.5, 0b1000: 0.5}
