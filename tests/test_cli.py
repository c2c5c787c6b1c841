"""Command-line surface: dispatch, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

CLI = [sys.executable, "-m", "wreathcount.cli"]


def _subprocess_run(argv, hashseed="0", env_extra=None):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + argv, capture_output=True, env=env)


def _off_by_one(monkeypatch, route):
    """Make classcount's ROUTE (say "brute_force_count") return one more than the count."""
    from wreathcount import classcount

    real = getattr(classcount, route)

    def off_by_one(group, k):
        res = real(group, k)
        res.value += 1
        return res

    monkeypatch.setattr(classcount, route, off_by_one)


def test_count_closed_form_json(run_cli):
    code, out, err = run_cli("count", "--group", "cyclic:3", "--k", "2",
                             "--output", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["method"] == "closed-form"
    assert doc["value"] == "8"
    assert doc["group"] == "cyclic:3"


def test_count_clifford_method(run_cli):
    code, out, _ = run_cli("count", "--group", "symmetric:3", "--k", "2",
                           "--method", "clifford", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "clifford"
    assert doc["value"] == "10"
    assert doc["orbit_count"] == "4"


def test_count_method_all_asserts_agreement(run_cli):
    code, out, _ = run_cli("count", "--group", "cyclic:2", "--k", "2",
                           "--method", "all", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "all:brute+clifford+closed-form"
    assert doc["value"] == "5"
    code, out, _ = run_cli("count", "--group", "gens:4,(1 2)(3 4),(1 3)(2 4)",
                           "--k", "2", "--method", "all", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "all:brute+clifford"  # no closed form here
    assert doc["value"] == "16"
    code, out, _ = run_cli("count", "--group", "cyclic:5", "--k", "2", "--method", "all")
    assert code == 0
    assert out.splitlines()[1].split() == ["cyclic:5", "2", "all:brute+clifford+closed-form", "16"]


def test_count_method_all_disagreement_exits_one(run_cli, monkeypatch):
    _off_by_one(monkeypatch, "brute_force_count")
    code, out, err = run_cli("count", "--group", "cyclic:2", "--k", "2",
                             "--method", "all")
    assert code == 1 and out == ""
    assert err.startswith("error: methods disagree") and err.count("\n") == 1
    assert "Traceback" not in err


def test_count_closed_form_refused_without_family_formula(run_cli):
    code, out, err = run_cli("count", "--group", "dihedral:4", "--k", "2",
                             "--method", "closed-form")
    assert code == 1 and out == ""
    assert "no closed form" in err


def test_count_csv_multiple_groups_in_input_order(run_cli):
    code, out, _ = run_cli("count", "--group", "cyclic:3", "--group",
                           "symmetric:3", "--k", "2", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,k,degree,method,value,orbit_count"
    assert lines[1].startswith("cyclic:3,2,3,closed-form,8")
    assert lines[2].startswith("symmetric:3,2,3,")


def test_count_x_gens_sets_color_count(run_cli):
    # the base group only matters through its class count: C_3 gives k = 3
    code, out, _ = run_cli("count", "--group", "cyclic:2",
                           "--x-gens", "(1 2 3)", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3
    assert doc["value"] == "9"


def test_count_table_output(run_cli):
    code, out, _ = run_cli("count", "--group", "cyclic:3", "--k", "2")
    assert code == 0
    assert "closed-form" in out and "8" in out


def test_usage_errors_exit_one(run_cli):
    assert run_cli("count", "--group", "cyclic:3")[0] == 1
    assert run_cli("count", "--group", "cyclic:3", "--k", "2",
                   "--x-gens", "(1 2)")[0] == 1
    assert run_cli("count", "--group", "nosuch:3", "--k", "2")[0] == 1
    assert run_cli("nosuchcommand")[0] == 1
    assert run_cli("verify", "nosuchsuite")[0] == 1
    assert run_cli("scan", "--seed", "1")[0] == 1  # --seed is verify-only


_PARSER_CASES = {
    "count": ["--group", "cyclic:3", "--group", "dihedral:4", "--k", "2", "--method", "all",
              "--output", "csv", "--budget-max-order", "100"],
    "classify": ["--group", "alternating:5", "--output", "json"],
    "bounds": ["--group", "cyclic:4", "--x-gens", "(1 2)", "--budget-max-lift", "9"],
    "verify": ["oracles", "--seed", "3", "--budget-max-colorings", "7"],
    "scan": ["--m", "2,3", "--k", "3", "--probe-fixed-subsets"],
}


@pytest.mark.parametrize("command", list(_PARSER_CASES))
def test_one_subcommand_parser_parses_helps_and_fails_as_the_full_one(command, capsys):
    from wreathcount.cli import _UsageError, build_parser

    argv = [command, *_PARSER_CASES[command]]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)

    helps = []
    for parser in (build_parser(command), build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "-h"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(f"usage: wreathcount {command} ")

    for bad in (["--bogus"], [*_PARSER_CASES[command], "--bogus", "1"],
                [*_PARSER_CASES[command], "--output", "xml"]):
        errors = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(_UsageError) as exc:
                parser.parse_args([command, *bad])
            errors.append(str(exc.value))
        assert errors[0] == errors[1], bad


def test_an_unknown_command_builds_every_subparser(capsys):
    from wreathcount.cli import build_parser

    for command in ("nosuchcommand", "-h", None):
        with pytest.raises(SystemExit):
            build_parser(command).parse_args(["-h"])
        assert "{count,classify,bounds,verify,scan}" in capsys.readouterr().out


def test_start_up_imports_no_typing_json_or_random():
    # -S: site's .pth files may import these themselves; wreathcount must not
    code = ("import sys, wreathcount.cli; "
            "print(sorted({'typing', 'json', 'random'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_parse_error_reports_column(run_cli):
    code, _, err = run_cli("count", "--group", "gens:4,(1 2", "--k", "2")
    assert code == 1
    assert "column" in err
    # counted in the generator list as typed, with or without a degree
    for spec, column in [("gens:(1 2),(3 y", 10), ("gens:4, (1 2),(3 y", 11)]:
        code, _, err = run_cli("count", "--group", spec, "--k", "2")
        assert (code, err) == (1, "error: bad generator list: unexpected character 'y' "
                                  f"(column {column})\n")


@pytest.mark.parametrize("argv, point", [
    (("--group", "gens:4,(1 2)(2 3)", "--k", "2"), 2),
    (("--group", "gens:(1 1)", "--k", "2"), 1),
    (("--group", "cyclic:3", "--x-gens", "(3 4)(4 5)"), 4),
])
def test_repeated_point_is_named_as_written(run_cli, argv, point):
    code, out, err = run_cli("count", *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f": point {point} appears twice\n")


def test_budget_refusal_exits_two(run_cli):
    code, _, err = run_cli("count", "--group", "dihedral:40", "--k", "2")
    assert code == 2
    assert "bracket: 13743895348 <= value" in err
    # 3**20 colorings pass the census's int32 labels, so clifford refuses; brute
    # refuses 3**20 * 10240 elements, and the refusal carries the bracket
    code, _, err = run_cli("count", "--group", "wreath-cyclic:10", "--k", "3",
                           "--budget-max-colorings", "4000000000")
    assert code == 2
    assert err.splitlines()[-1] == "bracket: 340507 <= value < 1859618350686784401/10240"
    code, _, err = run_cli("count", "--group", "cyclic:4", "--k", "2",
                           "--method", "clifford", "--budget-max-colorings", "8")
    assert code == 2
    assert "budget refusal" in err


def test_budget_refusal_names_the_budget(run_cli):
    code, out, err = run_cli("count", "--group", "cyclic:4", "--k", "2",
                             "--method", "clifford", "--budget-max-colorings", "8")
    assert code == 2 and out == ""
    assert "k**n = 16 exceeds the max_coloring_space budget 8" in err
    assert "scan mode" not in err


@pytest.mark.parametrize("argv, bracket", [
    (["--group", "dihedral:40", "--k", "2"], "13743895348 <= value < 128000068719476736/5"),
    (["--group", "cyclic:4", "--k", "2", "--budget-max-colorings", "8",
      "--budget-max-order", "40"], "4 <= value < 204"),
])
def test_count_method_all_refused_by_every_route_exits_two(run_cli, argv, bracket):
    code, out, err = run_cli("count", *argv, "--method", "all")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"bracket: {bracket}"


def test_count_brute_json_carries_degree(run_cli):
    code, out, _ = run_cli("count", "--group", "dihedral:4", "--k", "2",
                           "--method", "brute", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["method"], doc["degree"], doc["value"]) == ("brute", 4, "20")


@pytest.mark.parametrize("flag", ["--budget-max-order", "--budget-max-colorings",
                                  "--budget-max-lift"])
def test_negative_budget_flag_is_a_usage_error(run_cli, flag):
    code, out, err = run_cli("count", "--group", "cyclic:4", "--k", "2", flag, "-1")
    assert code == 1 and out == ""
    assert err == f"error: argument {flag}: must be >= 0, got -1\n"


def test_negative_budget_env_variable_exits_one(run_cli, monkeypatch):
    # a negative limit would refuse every coloring space and fall through to brute
    monkeypatch.setenv("WREATHCOUNT_MAX_COLORINGS", "-5")
    code, out, err = run_cli("count", "--group", "cyclic:4", "--k", "2")
    assert code == 1 and out == ""
    assert err == "error: WREATHCOUNT_MAX_COLORINGS must be >= 0, got '-5'\n"


def test_tripped_invariant_exits_one_without_traceback(run_cli, monkeypatch):
    from wreathcount import classcount

    monkeypatch.setattr(classcount, "class_count", lambda group: 0)
    code, out, err = run_cli("count", "--group", "dihedral:4", "--k", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "below the orbit-count lower bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["count", "--group", "cyclic:3", "--k", "2"],
                                  ["verify", "formulas"]])
def test_closed_stdout_exits_one_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        res = subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONHASHSEED="0"))
    finally:
        os.close(write_end)
    err = res.stderr.decode()
    assert res.returncode == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_budget_env_variable(run_cli):
    res = _subprocess_run(["count", "--group", "symmetric:5", "--k", "2",
                           "--method", "brute"],
                          env_extra={"WREATHCOUNT_MAX_ORDER": "100"})
    assert res.returncode == 2


def test_bad_budget_env_variable_exits_one():
    res = _subprocess_run(["count", "--group", "cyclic:3", "--k", "2"],
                          env_extra={"WREATHCOUNT_MAX_ORDER": "abc"})
    assert res.returncode == 1
    err = res.stderr.decode()
    assert err.startswith("error: WREATHCOUNT_MAX_ORDER must be an integer")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_classify_json(run_cli):
    code, out, _ = run_cli("classify", "--group", "wreath-cyclic:2",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["transitive"] is True
    assert doc["primitive"] is False
    assert doc["semiprimitive"] is False
    assert doc["normal_subgroups"] == 6
    assert (doc["mu"], doc["base_size"], doc["max_sigma"]) == (2, 2, 3)


def test_classify_csv(run_cli):
    code, out, _ = run_cli("classify", "--group", "cyclic:3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,degree,order,abelian,transitive")
    assert lines[1] == "cyclic:3,3,3,yes,yes,yes,yes,yes,2,3,1,1"


@pytest.mark.parametrize("spec,row", [
    ("alternating:7", "alternating:7,7,2520,no,yes,no,yes,yes,2,3,5,5"),
    ("subsets:7,2", '"subsets:7,2",21,5040,no,yes,no,yes,yes,3,10,4,16'),
], ids=["alternating:7", "subsets:7,2"])
def test_classify_csv_pins_large_normal_lattices(run_cli, spec, row):
    code, out, _ = run_cli("classify", "--group", spec, "--output", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == row


def test_bounds_csv_rows(run_cli):
    code, out, _ = run_cli("bounds", "--group", "symmetric:3", "--k", "2",
                           "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group,name,lhs,rhs,holds,mode,asymptotic"
    names = [line.split(",")[1] for line in lines[1:]]
    assert names == ["count-upper-bound", "min-degree-base-product",
                     "fixed-point-ratio", "cycle-count-half-bound",
                     "log-margin-condition", "no-transposition",
                     "small-order-condition", "nonregular-orbit-count",
                     "nonregular-union-size"]
    assert lines[1].split(",")[2:5] == ["10", "76/3", "true"]


def test_bounds_adds_large_base_rows_for_subset_family(run_cli):
    import csv
    import io

    code, out, _ = run_cli("bounds", "--group", "subsets:5,2", "--k", "2",
                           "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(row[0] == "subsets:5,2" for row in rows[1:])
    names = {row[1] for row in rows[1:]}
    assert {"subset-orbit-bound", "product-orbit-identity",
            "large-base-count-bound"} <= names


def test_bounds_table_includes_semiprimitive_section(run_cli):
    code, out, _ = run_cli("bounds", "--group", "cyclic:4", "--k", "2")
    assert code == 0
    assert "semiprimitive" in out
    code, out, _ = run_cli("bounds", "--group", "symmetric:3", "--k", "2")
    assert code == 0
    assert "semiprimitive" not in out


@pytest.mark.parametrize("spec, section", [("cyclic:4", True), ("alternating:5", False)])
def test_bounds_classifies_the_group_once(run_cli, spy, spec, section):
    from wreathcount import permgroup

    calls = []
    spy(permgroup, "normal_subgroups", calls)
    code, out, _ = run_cli("bounds", "--group", spec, "--k", "2")
    assert code == 0
    assert len(calls) == 1
    assert ("semiprimitive decomposition" in out) == section


def test_bounds_budget_refusal_notes(run_cli):
    code, out, err = run_cli("bounds", "--group", "cyclic:4", "--k", "2",
                             "--budget-max-colorings", "8", "--output", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    refusal = "coloring space k**n = 16 exceeds the max_coloring_space budget 8"
    census_rows = [r for r in doc["reports"] if r["name"].startswith("nonregular-")]
    assert census_rows == [{"name": name, "lhs": None, "rhs": None,
                            "holds": "indeterminate", "mode": "exact", "inputs": {"k": "2"},
                            "note": f"orbit census skipped: {refusal}"}
                           for name in ("nonregular-orbit-count", "nonregular-union-size")]
    semi = doc["semiprimitive"]
    assert semi["e_k"] is None
    assert semi["note"] == f"e_K skipped: {refusal}"


@pytest.mark.parametrize("spec", ["cyclic:4", "wreath-cyclic:4", "subsets-alt:5,2"])
def test_bounds_computes_each_fact_once(run_cli, spy, spec):
    from collections import Counter

    from wreathcount import bounds, classcount, permgroup

    base_dfs, census, streams, normals = [], [], [], []
    reports, block_walks, classified, primitive = [], [], [], []
    spy(permgroup, "_min_base_size", base_dfs)
    spy(classcount, "_seeded_walk", census)  # the one walk and the numpy kernel
    spy(classcount, "_orbit_reps_numpy", census)
    spy(permgroup, "coloring_stabilizers", streams)
    spy(permgroup, "normal_subgroups", normals)
    spy(bounds, "semiprimitive_report", reports)
    spy(permgroup, "all_block_systems", block_walks)
    spy(permgroup, "structure_classify", classified)
    spy(permgroup, "is_primitive", primitive)
    code, _, _ = run_cli("bounds", "--group", spec, "--k", "2", "--output", "json")
    assert code == 0
    assert len(base_dfs) == 1
    assert census and max(Counter(census).values()) == 1  # per group object
    assert streams and max(Counter(streams).values()) == 1
    assert len(normals) == 1
    (group,) = reports
    # the report walks H's block systems once, in block_decomposition; it stops
    # at semiprimitivity before the walk where H is not semiprimitive
    assert block_walks.count(group) == (spec != "wreath-cyclic:4")
    assert classified == [] and group not in primitive


@pytest.mark.parametrize("spec, built", [("subsets:5,2", []), ("product:5,2,1", []),
                                         ("subsets-alt:5,2", ["product"])])
def test_bounds_large_base_rows_count_once(spy, spec, built):
    from wreathcount import actions, bounds, classcount, parse_group_spec

    group = parse_group_spec(spec)
    families, census, singles = [], [], []
    spy(actions, "family", families)
    spy(classcount, "_seeded_walk", census)  # the one walk and the numpy kernel
    spy(classcount, "_orbit_reps_numpy", census)
    spy(bounds, "subset_orbit_count_exact", singles)
    reports, _ = bounds.bounds_report(group, 2)
    rows = {r.name: r for r in reports}
    assert rows["large-base-count-bound"].lhs == 136  # k(X wr S_5 on pairs), k = 2
    assert rows["product-orbit-identity"].holds is True
    assert families == built  # the report counts the group it holds
    assert singles == [5]  # n(S_5, pairs) is counted once
    assert group in census and len(census) == len(set(census)) == 1 + len(built)


def _strict_json(text):
    """json.loads that refuses the non-RFC tokens Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-RFC JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_bounds_float_overflow_exits_zero(run_cli, monkeypatch):
    # float sides past binary64 read "inf", as in table cells: the chain's
    # float(k) ** (n/2), float(k**n/|H|), and 2.0 ** best past 2**1020
    big = str(10 ** 200)
    code, out, err = run_cli("bounds", "--group", "cyclic:9", "--k", big, "--output", "json")
    assert code == 0 and err == ""
    semi = _strict_json(out)["semiprimitive"]
    assert semi["chain_rhs"] == "inf"
    assert semi["chain_holds"] == "indeterminate"  # lhs ~ k**9/9 is past binary64 too
    monkeypatch.setenv("WREATHCOUNT_MAX_SUBGROUP_ORDER", "0")  # e = 5.0 ** (4/3)
    code, out, err = run_cli("bounds", "--group", "cyclic:4", "--k", big, "--output", "json")
    assert code == 0 and err == ""
    assert _strict_json(out)["reports"][0]["rhs"] == "inf"
    code, out, err = run_cli("bounds", "--group", "subsets:5,2", "--k", big, "--output", "json")
    assert code == 0 and err == ""
    assert [r["rhs"] for r in _strict_json(out)["reports"]
            if r["name"] == "subset-orbit-bound"] == ["inf"]


def test_count_prints_values_past_4300_digits():
    # a fresh interpreter holds the default int/str digit limit; Decimal renders
    # the expected value here without it
    k = 10 ** 1000
    proc = _subprocess_run(["count", "--group", "cyclic:5", "--k", str(k), "--output", "json"])
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    assert len(value) > 4300
    assert value == str(Decimal((k ** 5 - k) // 5 + 5 * k))
    proc = _subprocess_run(["count", "--group", "cyclic:2", "--k", "9" * 5000])
    assert proc.returncode == 0, proc.stderr


def test_bounds_json_shape(run_cli):
    code, out, _ = run_cli("bounds", "--group", "cyclic:3", "--k", "2",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "cyclic:3"
    assert doc["k"] == 2
    first = doc["reports"][0]
    assert first["holds"] is True
    assert first["rhs"] == "44/3"
    assert first["inputs"]["e"] == "3"


def test_bounds_json_integral_rationals_print_as_integers(run_cli):
    code, out, _ = run_cli("bounds", "--group", "cyclic:4", "--k", "2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["rhs"] == "36"
    assert doc["semiprimitive"]["chain_rhs"] == "18"


def test_verify_formulas_stdout(run_cli):
    code, out, _ = run_cli("verify", "formulas")
    assert code == 0
    assert out == "".join(f"PASS {name}\n" for name in (
        *(f"fix-subsets formula=direct S_{m} exhaustive" for m in range(1, 7)),
        "fix-subsets formula=direct m=12 sampled",
        "stirling first kind row identities",
        "tuples-of-partitions closed form",
        "cyclic closed form and upper bound",
    )) + "formulas: 10/10 passed\n"


@pytest.mark.parametrize("suite", ["bounds", "formulas"])
def test_passing_verify_renders_no_failure_text(run_cli, spy, suite):
    from wreathcount import permgroup

    rendered = []
    spy(permgroup, "cycle_string", rendered)
    assert run_cli("verify", suite)[0] == 0
    assert rendered == []


def test_verify_failure_lines_name_the_permutation(run_cli, monkeypatch):
    from wreathcount import verify
    from wreathcount.permgroup import is_identity

    sigma_prime, fix_subsets_direct = verify.sigma_prime, verify.fix_subsets_direct
    monkeypatch.setattr(verify, "sigma_prime", lambda p, ell, b: (
        sigma_prime(p, ell, b) if is_identity(p) else 99))
    monkeypatch.setattr(verify, "fix_subsets_direct", lambda p, ell, b: (
        fix_subsets_direct(p, ell, b) if is_identity(p) or ell != 1 else -1))
    fails = [line for suite in ("bounds", "formulas")
             for line in run_cli("verify", suite)[1].splitlines() if line.startswith("FAIL")]
    assert fails[0] == ("FAIL lifted cycle-count-half-bound S_m ell-subsets: "
                        "AssertionError: m=2 ell=1 pi=(1 2): 2*99--1 > 2")
    assert fails[1] == ("FAIL fix-subsets formula=direct S_2 exhaustive: "
                        "AssertionError: m=2 ell=1 pi=(1 2): 0 != -1")


@pytest.mark.parametrize("suite, summary", [("oracles", "0/19"), ("formulas", "8/10"),
                                            ("bounds", "51/67")])
def test_verify_suites_catch_an_off_by_one_clifford_route(run_cli, monkeypatch, suite, summary):
    _off_by_one(monkeypatch, "clifford_count")
    code, out, _ = run_cli("verify", suite)
    assert (code, out.splitlines()[-1]) == (1, f"{suite}: {summary} passed")


def test_verify_oracles_pins_the_value_both_routes_agree_on(run_cli, monkeypatch):
    _off_by_one(monkeypatch, "clifford_count")
    _off_by_one(monkeypatch, "brute_force_count")
    code, out, _ = run_cli("verify", "oracles")
    assert code == 1
    assert "FAIL clifford=brute cyclic:4 k=2: AssertionError: routes agree on 14, golden 13\n" in out


def test_verify_semiprimitive_pins_each_decomposition_shape(run_cli, monkeypatch):
    from wreathcount import verify

    monkeypatch.setitem(verify._DECOMPOSITION_SHAPES, "cyclic:6", (3, 2))
    code, out, _ = run_cli("verify", "semiprimitive")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL decomposition checks cyclic:6 k={k}: AssertionError: "
        f"expected (r, |K|) = (3, 2), got (2, 3)" for k in (2, 3)]


def test_verify_oracles_reports_a_refused_brute_route(run_cli):
    code, out, _ = run_cli("verify", "oracles", "--budget-max-order", "100")
    assert code == 1
    lines = out.splitlines()
    # brute fits the budget only where k**n * |H| <= 100
    refused = [line for line in lines if line.startswith("FAIL clifford=brute ")]
    assert len(refused) == 9
    assert all("brute refused by the budgets" in line for line in refused)
    assert lines[-1] == "oracles: 10/19 passed"


def test_scan_csv(run_cli):
    code, out, _ = run_cli("scan", "--m", "2,3", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,k,n,order,value,bound,holds,mode"
    assert lines[1] == "wreath-cyclic:2|5^m/m,2,4,8,20,25/2,true,exact"
    assert lines[3] == "wreath-cyclic:3|5^m/m,2,6,24,55,125/3,true,exact"
    assert lines[4] == "wreath-cyclic:3|k^n,2,6,24,55,64,false,exact"


def test_scan_csv_rendering(run_cli):
    code, out, _ = run_cli("scan", "--m", "2", "--output", "csv")
    assert code == 0
    assert out.splitlines() == ["param,k,n,order,value,bound,holds,mode",
                                "wreath-cyclic:2|5^m/m,2,4,8,20,25/2,true,exact",
                                "wreath-cyclic:2|k^n,2,4,8,20,16,true,exact"]


def test_scan_probe(run_cli):
    code, out, _ = run_cli("scan", "--m", "4,5", "--probe-fixed-subsets")
    assert code == 0
    assert out == "m=4: clean\nm=5: clean\n"


@pytest.mark.parametrize("argv", [["--m", "2"], ["--probe-fixed-subsets", "--m", "5"]])
def test_scan_refuses_k_below_one(run_cli, spy, argv):
    from wreathcount import actions

    families = []
    spy(actions, "family", families)
    assert run_cli("scan", *argv, "--k", "0") == (1, "", "error: --k must be >= 1\n")
    assert families == []  # refused before any group is built


def test_seed_flag_accepted(run_cli):
    code, _, _ = run_cli("verify", "formulas", "--seed", "7")
    assert code == 0


def test_output_determinism_across_processes():
    argv = ["count", "--group", "cyclic:3", "--group", "symmetric:4",
            "--group", "subsets:5,2", "--k", "2", "--output", "json"]
    first = _subprocess_run(argv, hashseed="0")
    second = _subprocess_run(argv, hashseed="12345")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    argv = ["bounds", "--group", "symmetric:3", "--k", "3", "--output", "csv"]
    assert (_subprocess_run(argv, "1").stdout
            == _subprocess_run(argv, "99").stdout)
    argv = ["bounds", "--group", "cyclic:4", "--k", "2", "--output", "json"]
    first = _subprocess_run(argv, "3")
    assert first.returncode == 0 and '"semiprimitive": {' in first.stdout.decode()
    assert first.stdout == _subprocess_run(argv, "4242").stdout
    argv = ["scan", "--m", "2,3", "--output", "csv"]
    assert (_subprocess_run(argv, "7").stdout
            == _subprocess_run(argv, "8").stdout)
