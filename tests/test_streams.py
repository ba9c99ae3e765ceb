"""The random streams of the sequential runners and the samplers, pinned to
recorded outputs.  A change to how a rule's support is stored or searched
must not move a single draw, so every value is compared exactly."""

from subsens import (FunctionSpec, OrdinalSchedule, build_function, greedy_rule,
                     proportional_greedy_rule, randomized_greedy_rule,
                     run_sequential, sampled_output_distribution)
from subsens.algorithms import independent_sequential
from subsens.distributions import _sample as _sampled_with_key

K = 3
SEEDS = (0, 1, 7)
TRIALS = 30
FUNCTIONS = {
    # marginal ranks out of id order, so a support walked in id order
    # instead of rank order draws other elements
    "modular": FunctionSpec("modular", n=7, weights=(2, 5, 1, 4, 4, 3, 1)),
    "appendixD": FunctionSpec("appendixD_lb", n=12, c=0.75),
}
RULES = {"greedy": greedy_rule(), "randgreedy": randomized_greedy_rule(),
         "proportional": proportional_greedy_rule()}
SCHEDULE = OrdinalSchedule(K, (((2, 1, 3), (0.5, 0.3, 0.2)),) * K)
ALLOWED = 0b1011010


def _trace(run):
    mask, trace = run
    return mask, [(s.element, s.probability) for s in trace.steps]


def _counts(dist):
    return sorted((mask, round(p * dist.trials)) for mask, p in dist.probs.items())


def observe() -> dict:
    """Every pinned output, keyed by (what, function, algorithm)."""
    out = {}
    for fname, spec in FUNCTIONS.items():
        f = build_function(spec)
        for rname, rule in RULES.items():
            out["run", fname, rname] = [_trace(run_sequential(f, K, rule, seed))
                                        for seed in SEEDS]
        out["run", fname, "schedule"] = [
            _trace(independent_sequential(f, K, SCHEDULE, seed)) for seed in SEEDS]
        for aname, alg in (("randgreedy", RULES["randgreedy"]),
                           ("proportional", RULES["proportional"]),
                           ("schedule", SCHEDULE)):
            out["sampled", fname, aname] = _counts(
                sampled_output_distribution(alg, f, K, TRIALS, seed=5))
            out["keyed", fname, aname] = _counts(
                _sampled_with_key(alg, f, K, TRIALS, (5, 1, 2)))
    f = build_function(FUNCTIONS["modular"])
    out["run", "modular-allowed", "proportional"] = [
        _trace(run_sequential(f, K, RULES["proportional"], seed, allowed=ALLOWED))
        for seed in SEEDS]
    return out


# recorded with the dense rule vectors that preceded the sparse supports
EXPECTED = {
    ('run', 'modular', 'greedy'):
        [(26, [(1, 1.0), (3, 1.0), (4, 1.0)]), (26, [(1, 1.0), (3, 1.0), (4, 1.0)]),
         (26, [(1, 1.0), (3, 1.0), (4, 1.0)])],
    ('run', 'modular', 'randgreedy'):
        [(56, [(3, 0.3333333333333333), (5, 0.3333333333333333), (4, 0.3333333333333333)]),
         (50, [(4, 0.3333333333333333), (1, 0.3333333333333333), (5, 0.3333333333333333)]),
         (26, [(4, 0.3333333333333333), (1, 0.3333333333333333), (3, 0.3333333333333333)])],
    ('run', 'modular', 'proportional'):
        [(112, [(4, 0.2), (5, 0.1875), (6, 0.07692307692307693)]),
         (98, [(5, 0.15), (1, 0.29411764705882354), (6, 0.08333333333333333)]),
         (41, [(5, 0.15), (0, 0.11764705882352941), (3, 0.26666666666666666)])],
    ('run', 'modular', 'schedule'):
        [(35, [(1, 0.3), (5, 0.2), (0, 0.2)]), (25, [(4, 0.2), (3, 0.5), (0, 0.2)]),
         (56, [(4, 0.2), (3, 0.5), (5, 0.5)])],
    ('sampled', 'modular', 'randgreedy'):
        [(11, 2), (19, 2), (25, 3), (26, 8), (35, 3), (42, 1), (50, 5), (56, 6)],
    ('keyed', 'modular', 'randgreedy'):
        [(11, 3), (19, 4), (25, 2), (26, 9), (35, 1), (42, 2), (50, 6), (56, 3)],
    ('sampled', 'modular', 'proportional'):
        [(11, 2), (14, 1), (19, 2), (22, 1), (25, 3), (26, 5), (35, 3), (49, 1), (50, 4),
         (52, 1), (56, 2), (82, 2), (88, 1), (98, 2)],
    ('keyed', 'modular', 'proportional'):
        [(11, 2), (19, 2), (25, 2), (26, 7), (35, 2), (41, 1), (42, 4), (49, 3), (50, 1),
         (56, 1), (74, 1), (82, 1), (84, 1), (97, 1), (112, 1)],
    ('sampled', 'modular', 'schedule'):
        [(11, 3), (26, 12), (41, 1), (42, 4), (50, 2), (56, 8)],
    ('keyed', 'modular', 'schedule'):
        [(11, 2), (19, 2), (25, 2), (26, 6), (41, 1), (42, 4), (49, 1), (50, 1), (56, 11)],
    ('run', 'appendixD', 'greedy'):
        [(7, [(0, 1.0), (1, 1.0), (2, 1.0)]), (7, [(0, 1.0), (1, 1.0), (2, 1.0)]),
         (7, [(0, 1.0), (1, 1.0), (2, 1.0)])],
    ('run', 'appendixD', 'randgreedy'):
        [(26, [(1, 0.3333333333333333), (3, 0.3333333333333333), (4, 0.3333333333333333)]),
         (21, [(2, 0.3333333333333333), (0, 0.3333333333333333), (4, 0.3333333333333333)]),
         (13, [(2, 0.3333333333333333), (0, 0.3333333333333333), (3, 0.3333333333333333)])],
    ('run', 'appendixD', 'proportional'):
        [(3073,
          [(0, 0.993103448275862), (10, 0.041666666666666664), (11, 0.043478260869565216)]),
         (4101, [(0, 0.993103448275862), (2, 0.16666666666666666), (12, 0.05)]),
         (19, [(0, 0.993103448275862), (1, 0.16666666666666666), (4, 0.2)])],
    ('run', 'appendixD', 'schedule'):
        [(25, [(0, 0.3), (3, 0.2), (4, 0.2)]), (22, [(2, 0.2), (1, 0.5), (4, 0.2)]),
         (14, [(2, 0.2), (1, 0.5), (3, 0.5)])],
    ('sampled', 'appendixD', 'randgreedy'):
        [(7, 7), (11, 5), (13, 3), (14, 3), (19, 1), (21, 2), (22, 4), (25, 3), (26, 1),
         (28, 1)],
    ('keyed', 'appendixD', 'randgreedy'):
        [(7, 9), (11, 3), (13, 7), (14, 2), (21, 4), (22, 2), (25, 2), (28, 1)],
    ('sampled', 'appendixD', 'proportional'):
        [(7, 1), (11, 2), (13, 2), (19, 2), (21, 2), (25, 5), (37, 1), (67, 1), (73, 1),
         (97, 1), (131, 1), (137, 1), (145, 1), (161, 1), (261, 1), (265, 1), (515, 1),
         (517, 1), (545, 1), (2065, 1), (2305, 1), (3073, 1)],
    ('keyed', 'appendixD', 'proportional'):
        [(11, 4), (13, 3), (19, 5), (21, 3), (25, 1), (37, 1), (49, 1), (81, 1), (137, 1),
         (259, 1), (769, 1), (1027, 1), (1033, 1), (1041, 1), (2051, 1), (4099, 1), (4105, 1),
         (4161, 1), (4353, 1)],
    ('sampled', 'appendixD', 'schedule'):
        [(7, 12), (11, 4), (13, 2), (14, 8), (19, 3), (26, 1)],
    ('keyed', 'appendixD', 'schedule'):
        [(7, 6), (11, 4), (13, 1), (14, 11), (19, 2), (21, 2), (22, 2), (26, 1), (28, 1)],
    ('run', 'modular-allowed', 'proportional'):
        [(88, [(3, 0.2857142857142857), (4, 0.4), (6, 0.16666666666666666)]),
         (82, [(4, 0.2857142857142857), (1, 0.5), (6, 0.2)]),
         (26, [(4, 0.2857142857142857), (1, 0.5), (3, 0.8)])],
}



def test_streams_match_recorded_outputs():
    observed = observe()
    assert observed.keys() == EXPECTED.keys()
    for key, value in EXPECTED.items():
        assert observed[key] == value, key
