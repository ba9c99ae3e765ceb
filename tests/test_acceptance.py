"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs through the same suite machinery as ``subsens
reproduce`` so the CLI artifacts and this module can never drift apart.
Suites are cached per session; the reproducibility criterion re-runs each
one and compares CSV bytes, and the golden test compares each first run's
bytes with the CSV recorded in ``tests/golden/``.

Criterion 7 is expected to FAIL on the two separation-cascade families
(prop_lb, avg_prop_lb): their measured exact sensitivity approaches 2k,
exceeding the claimed closed-form bound (k+1 at curvature 1), consistent
with the proportional-rule lower-bound construction.  The failure is
genuine, not an implementation artifact; see the suite output for the
exact measured values.
"""

import os

import pytest

from subsens.harness import SUITES, run_suite

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_CACHE: dict[str, object] = {}
_OUTDIRS: dict[str, str] = {}


@pytest.fixture(scope="session")
def suite_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("suites")


def get_suite(suite_id, suite_dir):
    if suite_id not in _CACHE:
        outdir = os.path.join(str(suite_dir), "first", suite_id)
        _CACHE[suite_id] = run_suite(suite_id, outdir=outdir)
        _OUTDIRS[suite_id] = outdir
    return _CACHE[suite_id]


def report(criterion, result, extra=""):
    ok = result.passed if not isinstance(result, list) else all(r.passed for r in result)
    rows = result.rows if not isinstance(result, list) else [
        row for res in result for row in res.rows]
    n_ok = sum(r.passed for r in rows)
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {n_ok}/{len(rows)} checks"
    if extra:
        line += f" ({extra})"
    print(line)
    return ok, [r for r in rows if not r.passed]


def test_criterion_01_curvature_recovery(suite_dir):
    ok, failing = report(1, get_suite("curvature", suite_dir),
                         "curvature == target within 1e-9, four families")
    assert ok, failing


def test_criterion_02_structural_validity(suite_dir):
    ok, failing = report(2, get_suite("structure", suite_dir),
                         "exhaustive monotone+submodular, all families, n <= 12")
    assert ok, failing


def test_criterion_03_deterministic_greedy_hardness(suite_dir):
    result = get_suite("detgreedy-lb", suite_dir)
    ok, failing = report(3, result, "worst-case >= k at k in {3,5,8}; exact value 2k")
    assert ok, failing
    # the derivation says the measured value is exactly 2k; record-check it
    for row in result.rows:
        k = int(row.params.split(";")[0].split("=")[1])
        assert float(row.measured) == pytest.approx(2 * k)


def test_criterion_04_randomized_greedy_hardness(suite_dir):
    ok, failing = report(4, get_suite("randgreedy-lb", suite_dir),
                         "exact EMD >= 2k(1 - 2((k-1)/k)^k) - 1e-9")
    assert ok, failing


def test_criterion_05_proportional_rule_hardness(suite_dir):
    ok, failing = report(5, get_suite("prop-lb", suite_dir),
                         "block claims at delta = 1/(8nk); sensitivity >= 0.9*2k")
    assert ok, failing


def test_criterion_06_proportional_approximation(suite_dir):
    ok, failing = report(6, get_suite("prop-approx", suite_dir),
                         "E[f] >= (1 - e^{-c/(1-c)}) OPT - 1e-9 on 20 instances")
    assert ok, failing


def test_criterion_07_proportional_upper_bound(suite_dir):
    result = get_suite("prop-ub", suite_dir)
    ok, failing = report(7, result, "wc <= ((1-sqrt(1-c))^2/c)(k-1)+2 + 1e-6, all families")
    assert ok, (
        "the closed-form upper bound is violated by the separation-cascade "
        "families, whose measured sensitivity approaches 2k while the bound "
        f"is k+1 at curvature 1; failing cells: "
        + "; ".join(f"{r.params}: measured {r.measured} vs bound {r.threshold}"
                    for r in failing))


def test_criterion_08_proportional_lower_bound(suite_dir):
    ok, failing = report(8, get_suite("appendixd-lb", suite_dir),
                         "trend over n in {12,24,48}, >= 0.6*lb, p_A/p_B bounds")
    assert ok, failing


def test_criterion_09_emd_solver(suite_dir):
    ok, failing = report(9, get_suite("emd-solver", suite_dir),
                         "vertex enumeration, metric axioms, inclusion bound")
    assert ok, failing


def test_criterion_10_distributed_hardness(suite_dir):
    results = [get_suite("greedi-lb", suite_dir), get_suite("framework-lb", suite_dir)]
    ok, failing = report(10, results,
                         "sampled sensitivity >= 0.8k and growing; pool capture >= 99%")
    assert ok, failing


def test_criterion_11_average_sensitivity(suite_dir):
    ok, failing = report(11, get_suite("avg-sensitivity", suite_dir),
                         "avg >= beta k^2/n across n in {12,16,20}; worst >= avg")
    assert ok, failing


def test_criterion_12_reproducibility(suite_dir):
    mismatched = []
    for suite_id in sorted(SUITES):
        get_suite(suite_id, suite_dir)        # ensure first run exists
        second = os.path.join(str(suite_dir), "second", suite_id)
        run_suite(suite_id, outdir=second)
        first_csv = os.path.join(_OUTDIRS[suite_id], f"{suite_id}.csv")
        second_csv = os.path.join(second, f"{suite_id}.csv")
        with open(first_csv, "rb") as fh:
            b1 = fh.read()
        with open(second_csv, "rb") as fh:
            b2 = fh.read()
        if b1 != b2:
            mismatched.append(suite_id)
    ok = not mismatched
    print(f"{'PASS' if ok else 'FAIL'} criterion 12: byte-identical re-runs "
          f"for {len(SUITES) - len(mismatched)}/{len(SUITES)} suites")
    assert ok, f"suites with non-identical CSV bytes: {mismatched}"


def test_suite_cells_are_plain_numbers(suite_dir):
    # a numpy scalar's repr (np.float64(...)) is not a number to a CSV reader
    for suite_id in sorted(SUITES):
        get_suite(suite_id, suite_dir)
        with open(os.path.join(_OUTDIRS[suite_id], f"{suite_id}.csv")) as fh:
            assert "np." not in fh.read(), suite_id


def test_suite_csvs_match_golden(suite_dir):
    # every first run byte for byte against its recorded CSV, prop-ub's
    # three FAIL rows (criterion 7) as they stand
    mismatched = []
    for suite_id in sorted(SUITES):
        get_suite(suite_id, suite_dir)
        with open(os.path.join(_OUTDIRS[suite_id], f"{suite_id}.csv"), "rb") as fh:
            got = fh.read()
        with open(os.path.join(GOLDEN, f"{suite_id}.csv"), "rb") as fh:
            if got != fh.read():
                mismatched.append(suite_id)
    assert not mismatched, f"suites whose CSV differs from tests/golden/: {mismatched}"
