"""Config parsing, the CLI verbs, and CSV artifact round trips."""

import os

import pytest

from subsens import (FunctionSpec, build_function, emd, exact_output_distribution,
                     greedy_rule, proportional_greedy_rule, restrict)
from subsens.harness import (ConfigParseError, UnknownSuiteError, SUITES,
                             main, parse_config, parse_schedule, run_experiment,
                             run_suite, RUN_CSV_HEADER)


MINIMAL = """\
[function]
family = modular
n = 6
weights = 9,8,7,3,2,1

[algorithm]
name = greedy

[run]
k = 2
mode = exact

[output]
path = {out}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing ----------------------------------------------------------


def test_parse_minimal_config(tmp_path):
    path = write(tmp_path, "exp.cfg", MINIMAL.format(out=tmp_path / "rows.csv"))
    cfg = parse_config(path)
    assert cfg.function["family"] == "modular"
    assert cfg.k == 2 and cfg.mode == "exact"
    assert cfg.algorithm == "greedy"


def test_parse_rejects_bad_mode(tmp_path):
    bad = MINIMAL.replace("mode = exact", "mode = magic")
    path = write(tmp_path, "exp.cfg", bad.format(out="x.csv"))
    with pytest.raises(ConfigParseError):
        parse_config(path)


def test_parse_requires_seed_for_randomized(tmp_path):
    bad = MINIMAL.replace("name = greedy", "name = proportional")
    path = write(tmp_path, "exp.cfg", bad.format(out="x.csv"))
    with pytest.raises(ConfigParseError):
        parse_config(path)


def test_parse_requires_k(tmp_path):
    bad = MINIMAL.replace("k = 2\n", "")
    path = write(tmp_path, "exp.cfg", bad.format(out="x.csv"))
    with pytest.raises(ConfigParseError):
        parse_config(path)


def test_schedule_parsing_round_trip():
    lines = {"1": "indices=[1,2] probs=[0.5,0.5]", "2": "indices=[1] probs=[1.0]"}
    sched = parse_schedule(lines, 2)
    assert sched.steps[0] == ((1, 2), (0.5, 0.5))
    assert sched.steps[1] == ((1,), (1.0,))
    with pytest.raises(ConfigParseError):
        parse_schedule({"1": "indices=[1] probs=[0.9]"}, 1)
    with pytest.raises(ConfigParseError):
        parse_schedule({}, 1)


# --- run experiment ----------------------------------------------------------


def test_run_experiment_minimal(tmp_path):
    path = write(tmp_path, "exp.cfg", MINIMAL.format(out=tmp_path / "rows.csv"))
    rows = run_experiment(parse_config(path))
    assert rows[0] == RUN_CSV_HEADER
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert fields[0] == "modular"
    assert float(fields[5]) == pytest.approx(2.0)   # swap cost when a top element dies
    assert fields[9] == "exact"


def test_run_experiment_sweep(tmp_path):
    text = """\
[function]
family = greedi_lb

[algorithm]
name = greedy

[run]
k = 3
mode = exact
sweep_n = 8,12
sweep_c = 0.5,1.0
"""
    path = write(tmp_path, "sweep.cfg", text)
    rows = run_experiment(parse_config(path))
    assert len(rows) == 5   # header + 4 grid points


# --- CLI ---------------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    path = write(tmp_path, "exp.cfg", MINIMAL.format(out=out))
    assert main(["run", path]) == 0
    text = out.read_text()
    assert text.startswith(RUN_CSV_HEADER)
    captured = capsys.readouterr()
    assert RUN_CSV_HEADER in captured.out


def test_cli_bad_family_exits_1(tmp_path, capsys):
    bad = MINIMAL.replace("family = modular", "family = nonsense")
    path = write(tmp_path, "exp.cfg", bad.format(out=tmp_path / "x.csv"))
    assert main(["run", path]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_budget_exhaustion_exits_2(tmp_path, capsys):
    text = """\
[function]
family = greedi_lb
n = 14
c = 0.5

[algorithm]
name = proportional

[run]
k = 5
mode = exact
seed = 1
budget = 10
"""
    path = write(tmp_path, "budget.cfg", text)
    assert main(["run", path]) == 2
    assert "budget" in capsys.readouterr().err


def test_cli_emd_identical_and_point_masses(tmp_path, capsys):
    f = build_function(FunctionSpec("modular", n=6,
                                    weights=(6.0, 5.0, 4.0, 3.0, 2.0, 1.0)))
    d = exact_output_distribution(greedy_rule(), f, 2)
    p1 = write(tmp_path, "d1.csv", d.to_csv())
    assert main(["emd", p1, p1, "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "emd = 0.0" in out
    assert "reduced = 0x0, pivots = 0 (0 under Bland's rule)" in out
    assert "certificate: reduced_cost = 0.0" in out

    a = write(tmp_path, "a.csv", "set_bitmask_hex,probability\n0x3,1.0\n")
    b = write(tmp_path, "b.csv", "set_bitmask_hex,probability\n0x18,1.0\n")
    plan_path = str(tmp_path / "plan.csv")
    assert main(["emd", a, b, "--n", "6", "--plan", plan_path]) == 0
    out = capsys.readouterr().out
    assert "emd = 4.0" in out
    assert "reduced = 1x1, pivots = 0 (0 under Bland's rule)" in out
    assert os.path.exists(plan_path)

    # the least-cost start is not optimal here: two Dantzig pivots, no
    # degenerate stall, so no pivot under Bland's rule
    c = write(tmp_path, "c.csv",
              "set_bitmask_hex,probability\n0xe,0.25\n0x19,0.25\n0x23,0.5\n")
    e = write(tmp_path, "e.csv",
              "set_bitmask_hex,probability\n0xb,0.25\n0x1c,0.25\n0x2a,0.5\n")
    assert main(["emd", c, e, "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "emd = 2.0" in out
    assert "reduced = 3x3, pivots = 2 (0 under Bland's rule)" in out


def test_cli_emd_pruned_distributions(tmp_path, capsys):
    # pruning drops different mass from the two runs; the CSVs must carry
    # lost_mass so the mass gap is accepted as it is in memory
    f = build_function(FunctionSpec("prop_lb", n=12))
    rule = proportional_greedy_rule()
    d1 = exact_output_distribution(rule, f, 5, p_min=1e-6)
    reduced = restrict(f, 0)
    d2 = exact_output_distribution(rule, reduced, 5, p_min=1e-6).remapped(
        reduced.index_map, 12)
    value, _ = emd(d1, d2)
    p1 = write(tmp_path, "base.csv", d1.to_csv())
    p2 = write(tmp_path, "minus0.csv", d2.to_csv())
    assert main(["emd", p1, p2, "--n", "12"]) == 0
    assert f"emd = {value!r}\n" in capsys.readouterr().out


def test_cli_emd_ground_size_mismatch(tmp_path, capsys):
    a = write(tmp_path, "a.csv", "set_bitmask_hex,probability\n0x3,1.0\n")
    big = write(tmp_path, "big.csv", "set_bitmask_hex,probability\n0x300,1.0\n")
    assert main(["emd", a, big, "--n", "6"]) == 1


@pytest.mark.parametrize("rows, message", [
    ("0x3,1.5\n0x5,-0.5\n", "negative or NaN probability"),
    ("0x3,nan\n0x5,1.0\n", "negative or NaN probability"),
    ("0x3,0.5\n0x7,0.5\n", "support mixes set sizes"),
    ("0x3,0.5\n0x3,0.5\n0x5,0.5\n", "repeated row for 0x3"),
    ("0x3,0.5\n0x5,0.5\nlost_mass,0.0\nlost_mass,0.1\n", "repeated row for lost_mass"),
], ids=["negative", "nan", "mixed-sizes", "repeated-mask", "repeated-lost-mass"])
def test_cli_emd_rejects_invalid_distribution(tmp_path, capsys, rows, message):
    good = write(tmp_path, "good.csv", "set_bitmask_hex,probability\n0x3,1.0\n")
    bad = write(tmp_path, "bad.csv", "set_bitmask_hex,probability\n" + rows)
    for args in ([good, bad], [bad, good]):
        assert main(["emd", *args, "--n", "6"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_run_pruned_mass_gap_exits_1(tmp_path, capsys):
    text = """\
[function]
family = curvature_det_lb
n = 11
k = 5
c = 0.5

[algorithm]
name = proportional

[run]
k = 3
mode = exact
seed = 0
p_min = 1e-2
"""
    assert main(["run", write(tmp_path, "pruned.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mass gap") and "lost" in err


def test_cli_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    for suite_id in SUITES:
        assert suite_id in out


def test_cli_check_function(tmp_path, capsys):
    good = write(tmp_path, "fn.cfg", "[function]\nfamily = greedi_lb\nn = 10\nc = 0.5\n")
    assert main(["check-function", good]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "curvature" in out


def test_cli_reproduce_unknown_suite(capsys):
    assert main(["reproduce", "not-a-suite"]) == 1


def test_cli_reproduce_fast_suite(tmp_path, capsys):
    assert main(["reproduce", "curvature", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS curvature/target_curvature" in out
    assert (tmp_path / "curvature.csv").exists()


# --- suite artifacts ---------------------------------------------------------


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")


def test_suite_csv_shape(tmp_path):
    result = run_suite("curvature", outdir=str(tmp_path))
    text = (tmp_path / "curvature.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "suite,check,params,measured,threshold,comparator,pass"
    assert len(lines) == 1 + len(result.rows)
    assert all(len(ln.split(",")) == 7 for ln in lines[1:])
