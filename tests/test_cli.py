"""Command-line behavior: envelopes, exit codes, formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

from blocksmith import cli
from blocksmith.cli import (
    EXIT_EMPTY,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REGRESSION,
    dispatch,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert out.endswith("\n")
    return code, json.loads(out)


def test_envelope_shape_and_digest(capsys):
    code, env = run_json(capsys, "snf", "--matrix", "[[7,1],[1,4]]")
    assert code == EXIT_OK
    assert sorted(env) == ["command", "inputs_digest", "payload", "status"]
    assert env["status"] == "ok"
    assert len(env["inputs_digest"]) == 64
    assert int(env["inputs_digest"], 16) >= 0
    assert env["payload"]["diagonal"] == [1, 27]


def test_output_is_byte_identical(capsys):
    _, first = run(capsys, "enumerate-cartan", "--sum", "13", "--l", "2")
    _, second = run(capsys, "enumerate-cartan", "--sum", "13", "--l", "2")
    assert first == second
    _, other = run(capsys, "enumerate-cartan", "--sum", "13", "--l", "3")
    assert json.loads(first)["inputs_digest"] != json.loads(other)["inputs_digest"]


def test_enumerate_cartan_json(capsys):
    code, env = run_json(capsys, "enumerate-cartan", "--sum", "13", "--l", "2")
    assert code == EXIT_OK
    cands = env["payload"]["candidates"]
    assert len(cands) == 8
    assert sorted(c["det"] for c in cands) == sorted([3, 10, 14, 16, 17, 23, 27, 29])
    assert all("feasibility" in c for c in cands)


def test_enumerate_cartan_feasible_only(capsys):
    _, env = run_json(
        capsys, "enumerate-cartan", "--sum", "13", "--l", "2", "--feasible-only"
    )
    dets = sorted(c["det"] for c in env["payload"]["candidates"])
    assert dets == [3, 16, 17, 23, 27, 29]


def test_enumerate_cartan_csv(capsys):
    code, out = run(
        capsys, "enumerate-cartan", "--sum", "13", "--l", "2", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "matrix,det,elementary_divisors,verdict"
    assert len(lines) == 9
    assert any(line.startswith("5 2 2 4,16,") for line in lines)
    assert any(",not_prime_power" in line for line in lines)


def test_enumerate_cartan_table(capsys):
    code, out = run(
        capsys, "enumerate-cartan", "--sum", "13", "--l", "2", "--format", "table"
    )
    assert code == EXIT_OK and "det=16" in out


def test_solve_gram_ok(capsys):
    code, env = run_json(capsys, "solve-gram", "--gram", "[[5,2],[2,4]]")
    assert code == EXIT_OK
    assert env["payload"]["count"] == 2
    assert [len(s["rows"]) for s in env["payload"]["solutions"]] == [5, 7]


def test_solve_gram_proved_empty(capsys):
    code, env = run_json(
        capsys, "solve-gram", "--gram", "[[2,1],[1,2]]", "--rows", "2"
    )
    assert code == EXIT_EMPTY
    assert env["status"] == "proved_empty"
    assert env["payload"]["count"] == 0


def test_solve_gram_options(capsys):
    code, env = run_json(
        capsys,
        "solve-gram",
        "--gram",
        "[[5,2],[2,4]]",
        "--rows",
        "5",
        "--diag",
        "13,4,5,5,5",
        "--defect-order",
        "16",
    )
    assert code == EXIT_OK
    assert env["payload"]["solutions"] == [
        {"rows": [[2, 1], [1, 0], [0, 1], [0, 1], [0, 1]]}
    ]
    code, env = run_json(
        capsys, "solve-gram", "--gram", "[[5,2],[2,4]]", "--rows", "6..9"
    )
    assert [len(s["rows"]) for s in env["payload"]["solutions"]] == [7]


@pytest.mark.parametrize(
    "pinned",
    [
        ["--fixed", "[[1],[-1],[0]]", "--rows", "5..6", "--signed", "--allow-zero-rows"],
        ["--diag", "1,1", "--defect-order", "2", "--rows", "3..4"],
    ],
)
def test_row_window_without_the_pinned_count_is_invalid_input(capsys, pinned):
    """Pinned inputs fix the row count; a window that leaves it out is a
    malformed problem, not a search whose finds fail verification."""
    code, env = run_json(capsys, "solve-gram", "--gram", "[[2]]", *pinned)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["command"] == "solve-gram"
    assert env["payload"]["error"] == "row_count conflicts with pinned inputs"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rows", "3..2"], "bad row-count range"),
        (["--defect-order", "0"], "defect order must be positive"),
        (["--signed", "--fixed", "[[1],[-1]]", "--fixed", "[[1],[0],[-1]]"],
         "fixed blocks disagree on row count"),
        (["--zero-rows", "0"],
         "zero rows alone do not determine the row count; give row_count"),
        (["--fixed", "[[1],[-1]]", "--diag", "1,1,0", "--defect-order", "2"],
         "diag constraint length mismatch"),
        (["--rows", "2", "--zero-rows", "2"], "zero-row index out of range"),
    ],
)
def test_malformed_gram_problem_is_invalid_input(capsys, argv, message):
    code, env = run_json(capsys, "solve-gram", "--gram", "[[2]]", *argv)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["command"] == "solve-gram"
    assert env["payload"]["error"] == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-gram", "--gram", "[[2]]", "--diag", "a,b"],
         "expected comma-separated integers, got 'a,b'"),
        (["solve-gram", "--gram", "[[2]]", "--rows", "1..x"], "bad row-count range '1..x'"),
        (["solve-gram", "--gram", "[[2]]", "--rows", "x"], "bad row count 'x'"),
        (["contribution", "--q", "[[1],[1]]", "--c", "[[2]]", "--defect-order", "2",
          "--heights"], "--heights needs --p"),
        # an empty item is refused, not dropped
        *(
            (["solve-gram", "--gram", "[[2]]", "--diag", diag, "--defect-order", "2"],
             f"expected comma-separated integers, got {diag!r}")
            for diag in ("", ",", "1,", "1,1,")
        ),
        (["heights", "--diag", "4,,4", "--p", "2"],
         "expected comma-separated integers, got '4,,4'"),
    ],
)
def test_malformed_argument_is_invalid_input(capsys, argv, message):
    code, env = run_json(capsys, *argv)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["command"] == argv[0]
    assert env["payload"]["error"] == message


def test_row_window_with_the_pinned_count_solves(capsys):
    code, env = run_json(
        capsys, "solve-gram", "--gram", "[[2]]", "--diag", "1,1", "--defect-order", "2",
        "--rows", "2..4",
    )
    assert code == EXIT_OK
    assert env["payload"]["solutions"] == [{"rows": [[1], [1]]}]


ROWS_1200 = json.dumps([[1]] * 1200)


def test_pinned_search_deeper_than_the_recursion_limit(capsys):
    """1200 interchangeable rows against one fixed column of ones: the one
    solution has a row 1, a row -1 and 1198 zero rows."""
    code, env = run_json(
        capsys, "solve-gram", "--gram", "[[2]]", "--signed", "--fixed", ROWS_1200,
        "--allow-zero-rows",
    )
    assert code == EXIT_OK and env["payload"]["count"] == 1
    assert env["payload"]["solutions"][0]["rows"] == [[1]] + [[0]] * 1198 + [[-1]]


def test_orthogonal_column_deeper_than_the_recursion_limit(tmp_path, capsys):
    """No column of norm 1 is orthogonal to a column of 1200 ones."""
    rules = [{
        "id": "deep",
        "candidate": [[9, 1], [1, 2]],
        "kind": "solver_run",
        "params": {"orthogonal": {"q1": [[1]] * 1200, "gram_value": 1}},
        "expected_outcome": {"column_count": 0},
    }]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    report = tmp_path / "report.json"
    code, env = run_json(
        capsys, "casebook", "run", "--dim", "13", "--rules", str(f), "--report", str(report)
    )
    assert code == EXIT_OK and env["payload"]["regressions"] == []
    verdicts = [
        v for cand in json.loads(report.read_text())["candidates"] for v in cand["verdicts"]
    ]
    assert [v["outcome"] for v in verdicts if v["rule"] == "deep"] == [
        {"column_count": 0, "proved_empty": True}
    ]


def test_reused_parser_matches_a_fresh_one(capsys):
    """dispatch builds its parser once per process. A sequence of calls
    through it prints byte for byte what each call prints with a freshly
    built parser: a failed parse leaves nothing behind, and the --fixed
    default of the first solve-gram does not reach the second."""
    calls = [
        ["casebook", "run", "--dim", "13"],
        ["solve-gram", "--gram", "[[1,2],[3,4]]"],
        ["solve-gram", "--gram", "[[2]]", "--signed", "--rows", "2", "--fixed", "[[1],[1]]"],
        ["solve-gram", "--gram", "[[2]]", "--signed", "--rows", "2"],
        ["casebook", "run", "--dim", "13"],
    ]
    reused = [run(capsys, *argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        fresh = [run(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _ in reused] == [EXIT_OK, EXIT_INVALID, EXIT_OK, EXIT_OK, EXIT_OK]
    assert reused[2][1] != reused[3][1]


def test_matrix_from_file(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text('{"rows": [[5,2],[2,4]]}', encoding="utf-8")
    code, env = run_json(capsys, "solve-gram", "--gram", str(f))
    assert code == EXIT_OK and env["payload"]["count"] == 2


def test_invalid_inputs(tmp_path, capsys):
    code, env = run_json(capsys, "solve-gram", "--gram", "not json at all")
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert "matrix argument" in env["payload"]["error"]

    bad = tmp_path / "bad.json"
    bad.write_text("[[5,2],[2,", encoding="utf-8")
    code, env = run_json(capsys, "solve-gram", "--gram", str(bad))
    assert code == EXIT_INVALID
    assert "line 1" in env["payload"]["error"]

    code, env = run_json(capsys, "solve-gram", "--gram", "[[1,2],[3,4]]")
    assert code == EXIT_INVALID  # not symmetric

    code, env = run_json(capsys, "enumerate-cartan", "--sum", "99", "--l", "2")
    assert code == EXIT_INVALID

    code, env = run_json(capsys, "brauer-trees", "--edges", "3", "--dim", "13")
    assert code == EXIT_INVALID  # mutually exclusive

    code, env = run_json(capsys, "no-such-command")
    assert code == EXIT_INVALID

    # entries are taken as they are parsed: no coercion to int
    for text in ('[["a"]]', "[[null]]", "[[[1]]]", "[1,2]", '{"rows":[1]}',
                 "[[4.5]]", "[[true]]", '[["4"]]'):
        code, env = run_json(capsys, "solve-gram", "--gram", text)
        assert code == EXIT_INVALID and env["status"] == "invalid_input", text
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"id": "r", "candidate": [[13.0]],
                                  "kind": "solver_run", "params": {}}]))
    code, env = run_json(
        capsys, "casebook", "run", "--dim", "13", "--rules", str(rules)
    )
    assert code == EXIT_INVALID and "non-integer entry" in env["payload"]["error"]


@pytest.mark.parametrize("argv", [["snf", "--matrix"], ["solve-gram", "--gram"]])
def test_overlong_matrix_argument_is_invalid_input(capsys, argv):
    """Not JSON and too long to be a file name: the lookup of the name fails
    with an OSError, which must still give the envelope, not a traceback."""
    text = "x" * 5000
    code, env = run_json(capsys, *argv, text)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["command"] == argv[0]
    assert env["payload"]["error"].startswith("matrix argument is neither valid JSON")
    assert env["payload"]["error"].endswith(f"nor an existing file: {text!r}")


def test_directory_as_matrix_is_invalid_input(tmp_path, capsys):
    code, env = run_json(capsys, "solve-gram", "--gram", str(tmp_path))
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert "cannot read file" in env["payload"]["error"]


def test_rule_without_id_is_invalid_input(tmp_path, capsys):
    rules = [{"candidate": [[9, 1], [1, 2]], "kind": "solver_run", "params": {}}]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    code, env = run_json(capsys, "casebook", "run", "--dim", "13", "--rules", str(f))
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert "lacks id" in env["payload"]["error"]


D14_CANDIDATE = [[6, 1, 0], [1, 2, 1], [0, 1, 2]]
VALID_PARAMS = {"contribution": True, "defect_order": 16, "p": 2}
REF = {"rule": "d14-16-solve", "row_count": 5}
VALUATION = {"p": 2, "required_valuation": 1, "row_indices": [0]}


def run_rules(tmp_path, capsys, rules):
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    return run_json(capsys, "casebook", "run", "--dim", "14", "--rules", str(f))


def probe_rule(**changes):
    rule = {
        "id": "probe",
        "candidate": D14_CANDIDATE,
        "kind": "solver_run",
        "params": VALID_PARAMS,
    }
    rule.update(changes)
    return rule


def test_valid_probe_rule_runs(tmp_path, capsys):
    code, env = run_rules(tmp_path, capsys, [probe_rule()])
    assert code == EXIT_OK and env["status"] == "ok"


@pytest.mark.parametrize(
    "rule, message",
    [
        (probe_rule(kind="congruence", params={}), "lacks p"),
        (probe_rule(kind="brauer_count", params={"l_b": 3}), "lacks quotient"),
        (probe_rule(params=[1]), "params must be a JSON object"),
        (probe_rule(params={"row_count": "x"}), "params.row_count must be"),
        (probe_rule(params={"row_count": [5, "9"]}), "params.row_count must be"),
        (probe_rule(params={"defect_order": 2.5}), "params.defect_order must be an integer"),
        (probe_rule(kind="brauer_count", params={"quotient": "C2", "l_b": True}),
         "params.l_b must be an integer"),
        (probe_rule(params={"zero_rows": [0, 1.0]}), "params.zero_rows must be"),
        (probe_rule(params={"orthogonal": {"q1_from": REF}}), "lacks gram_value"),
        (probe_rule(params={"orthogonal": {"gram_value": 9}}),
         "needs exactly one of q1, q1_from"),
        (probe_rule(params={"fixed_from": REF, "valuation_filter": {
            "p": 2, "required_valuation": 1, "row_indices": [99]}}), "out of range"),
        (probe_rule(params={"valuation_filter": VALUATION}), "needs a fixed row count"),
        (probe_rule(params={"contributon": True}), "unknown keys contributon"),
        (probe_rule(expected={"solution_count": 2}), "unknown keys expected"),
        (probe_rule(kind="congruence", params={"p": 2, "quotient": "C2"}),
         "unknown keys quotient"),
        (probe_rule(kind="external_citation", citation="x", params={"p": 2}),
         "unknown keys p"),
        (probe_rule(params={"orthogonal": {"gram_value": 9, "q1_from": REF},
                            "sign_mode": "signed"}), "unknown keys sign_mode"),
        (probe_rule(params={"orthogonal": {"gram_value": 9, "q1_from": REF,
                                           "sign": False}}), "unknown keys sign"),
        (probe_rule(params={"fixed_from": {"rule": "r", "rows": 5}}),
         "params.fixed_from has unknown keys rows"),
        (probe_rule(params={"fixed_from": REF, "valuation_filter": dict(
            VALUATION, prime=2)}), "valuation_filter has unknown keys prime"),
        (probe_rule(requires_data="fake_cartans"), "requires_data must be"),
        # every row of [[7,1],[1,4]] has 0 < r.adj.r^t < det = 27, so no
        # defect order prime to 3 makes a contribution entry integral
        *(
            (probe_rule(params={"gram": [[7, 1], [1, 4]], "row_count": 7,
                                "defect_order": order, "valuation_filter": VALUATION}),
             "valuation filter: contribution entry is not integral")
            for order in (2, 5)
        ),
        # rules that pass the schema but name data or rules that are not there
        (probe_rule(params={"gram_from_data": "fake_cartans.absent"}),
         "data key 'fake_cartans.absent' is absent"),
        (probe_rule(params={"fixed_from": {"rule": "absent"}}),
         "rule 'absent' has no stored artifacts"),
        (probe_rule(params={"orthogonal": {"gram_value": 9, "q1_from": {"rule": "absent"}}}),
         "rule 'absent' has no stored artifacts"),
        (probe_rule(kind="brauer_count", params={"quotient": "C2", "match_rule": "absent"}),
         "rule 'absent' has no stored artifacts"),
        (probe_rule(kind="brauer_count", params={"quotient": "C99"}),
         "unknown inertial quotient 'C99'"),
        (probe_rule(kind="congruence", params={"p": 2, "quotients": ["C2", "C99"]}),
         "unknown inertial quotient 'C99'"),
        (probe_rule(params={"fixed_from": REF, "valuation_filter": dict(VALUATION, p=4)}),
         "valuation_filter.p is not a prime: 4"),
        (probe_rule(params={"fixed_from": REF, "valuation_filter": dict(
            VALUATION, required_valuation=-1)}),
         "valuation_filter.required_valuation is negative"),
    ],
)
def test_malformed_rule_is_invalid_input(tmp_path, capsys, rule, message):
    code, env = run_rules(tmp_path, capsys, [rule])
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert message in env["payload"]["error"]


@pytest.mark.parametrize("kind", ["feasibility", "tree_resolution"])
def test_dropped_rule_kind_is_invalid_input(tmp_path, capsys, kind):
    code, env = run_rules(tmp_path, capsys, [probe_rule(kind=kind, params={})])
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert f"unknown rule kind {kind!r}" in env["payload"]["error"]


def test_rules_file_must_be_a_list(tmp_path, capsys):
    code, env = run_rules(tmp_path, capsys, 7)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["payload"]["error"] == (
        f"{tmp_path / 'rules.json'}: rules file must hold a JSON list of rules"
    )


def test_repeated_rule_id_is_invalid_input(tmp_path, capsys):
    """Two rules with one id would share the stored solutions that a
    fixed_from, q1_from or match_rule reference reads."""
    rules = [probe_rule(), probe_rule(kind="congruence", params={"p": 2})]
    code, env = run_rules(tmp_path, capsys, rules)
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["payload"]["error"] == "rule id 'probe' is repeated"


def test_contribution_and_heights(capsys):
    q = "[[2,1],[0,1],[0,1],[0,1],[1,0]]"
    code, env = run_json(
        capsys,
        "contribution",
        "--q", q,
        "--c", "[[5,2],[2,4]]",
        "--defect-order", "16",
        "--p", "2",
    )
    assert code == EXIT_OK
    assert env["payload"]["diagonal"] == [13, 5, 5, 5, 4]
    assert env["payload"]["height_zero_count"] == 4

    code, env = run_json(capsys, "heights", "--diag", "16,4,4,7,7,7,9", "--p", "3")
    assert env["payload"]["heights"] == [0, 0, 0, 0, 0, 0, 1]

    code, env = run_json(
        capsys, "contribution", "--q", q, "--c", "[[5,2],[2,4]]",
        "--defect-order", "8",
    )
    assert code == EXIT_INVALID  # non-integral contribution


def test_heights_from_a_matrix(capsys):
    """``heights --matrix`` reads the diagonal of a contribution matrix: the
    heights of ``contribution --heights`` on the same data."""
    args = ["--q", "[[2,1],[0,1],[0,1],[0,1],[1,0]]", "--c", "[[5,2],[2,4]]",
            "--defect-order", "16"]
    code, contribution = run_json(capsys, "contribution", *args, "--heights", "--p", "2")
    assert code == EXIT_OK
    matrix = json.dumps(contribution["payload"]["matrix"])
    code, env = run_json(capsys, "heights", "--matrix", matrix, "--p", "2")
    assert code == EXIT_OK and env["status"] == "ok"
    assert env["payload"] == {"heights": [0, 0, 0, 0, 1], "height_zero_count": 4}
    assert env["payload"]["heights"] == contribution["payload"]["heights"]


def test_composite_p_is_invalid_input(capsys):
    code, env = run_json(capsys, "heights", "--diag", "1,2", "--p", "4")
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert "p must be a prime, got 4" in env["payload"]["error"]

    args = ["contribution", "--q", "[[1],[1]]", "--c", "[[2]]", "--defect-order", "2"]
    code, env = run_json(capsys, *args, "--p", "2")
    assert code == EXIT_OK and env["payload"]["heights"] == [0, 0]
    code, env = run_json(capsys, *args, "--p", "4")
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert "p must be a prime, got 4" in env["payload"]["error"]


def test_brauer_trees_cli(capsys):
    code, env = run_json(capsys, "brauer-trees", "--dim", "13")
    assert code == EXIT_OK
    got = {(t["shape"], t["m"], t["p"]) for t in env["payload"]["trees"]}
    assert got == {
        ("edge", 12, 13),
        ("path2_end", 8, 17),
        ("star_leaf", 2, 7),
        ("path3_end", 4, 13),
    }
    code, env = run_json(capsys, "brauer-trees", "--edges", "3", "--multiplicity", "2")
    assert len(env["payload"]["trees"]) == 4
    assert all(t["l"] == 3 and t["k"] == 5 for t in env["payload"]["trees"])
    code, out = run(capsys, "brauer-trees", "--dim", "14", "--format", "table")
    assert code == EXIT_OK and "path4" in out


def test_brauer_trees_parameter_bound(capsys):
    """Dimensions and multiplicities are bounded only by exact primality:
    primes near 2^61 are answered within a second, and a p = e * m + 1 at
    the bound of the primality test is refused."""
    from blocksmith.cartan import PRIME_BOUND as bound

    trees = {}
    for args in (
        ("--edges", "1", "--multiplicity", "1000001"),
        ("--dim", "1000001"),
        ("--edges", "1", "--multiplicity", "2305843009213693950"),
        ("--dim", "2305843009213693953"),
    ):
        start = time.perf_counter()
        code, env = run_json(capsys, "brauer-trees", *args)
        assert time.perf_counter() - start < 1.0, args
        assert code == EXIT_OK and env["status"] == "ok", args
        trees[args] = env["payload"]["trees"]
        assert trees[args], args
    p61 = trees["--edges", "1", "--multiplicity", "2305843009213693950"]
    assert p61[0]["p"] == 2**61 - 1
    for m in (bound - 1, bound):
        code, env = run_json(capsys, "brauer-trees", "--edges", "1",
                             "--multiplicity", str(m))
        assert code == EXIT_INVALID and env["status"] == "invalid_input", m
        assert f"only decided below {bound}" in env["payload"]["error"], m


def test_enumerate_cartan_refuses_an_uncanonicalisable_size(capsys, monkeypatch):
    """A size past the canonical form's bound is refused before any matrix
    is built, once the sum admits a candidate; below that sum the answer
    is the empty list."""
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "40")
    start = time.perf_counter()
    code, env = run_json(capsys, "enumerate-cartan", "--sum", "34", "--l", "9")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["payload"]["error"] == "canonical form limited to dimension 8"
    code, env = run_json(capsys, "enumerate-cartan", "--sum", "20", "--l", "9")
    assert code == EXIT_OK and env["status"] == "ok"
    assert env["payload"]["candidates"] == []


def test_heights_of_a_large_prime(capsys):
    """A p near 2^61 is tested for primality at once, in ``heights`` and in
    ``contribution --heights``; a p at the bound of the test is refused."""
    from blocksmith.cartan import PRIME_BOUND as bound

    p = str(2**61 - 1)
    contribution = ["contribution", "--q", "[[2,1],[0,1],[0,1],[0,1],[1,0]]",
                    "--c", "[[5,2],[2,4]]", "--defect-order", "16", "--heights"]
    for argv in (["heights", "--diag", "16,4", "--p", p], [*contribution, "--p", p]):
        start = time.perf_counter()
        code, env = run_json(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == EXIT_OK and env["status"] == "ok", argv
        assert set(env["payload"]["heights"]) == {0}, argv
    for argv in (["heights", "--diag", "16,4", "--p", str(bound)],
                 [*contribution, "--p", str(bound)]):
        code, env = run_json(capsys, *argv)
        assert code == EXIT_INVALID and env["status"] == "invalid_input", argv


def test_casebook_cli(tmp_path, capsys):
    report_path = tmp_path / "r13.json"
    code, env = run_json(
        capsys, "casebook", "run", "--dim", "13", "--report", str(report_path)
    )
    assert code == EXIT_OK
    assert len(env["payload"]["final_table"]) == 6
    assert env["payload"]["verdict_counts"] == {
        "excluded": 8,
        "infeasible": 5,
        "realized": 5,
    }
    first = report_path.read_bytes()
    dispatch(["casebook", "run", "--dim", "13", "--report", str(report_path)])
    capsys.readouterr()
    assert report_path.read_bytes() == first  # byte-identical report

    code, out = run(capsys, "casebook", "run", "--dim", "14", "--table")
    assert code == EXIT_OK and "4 Morita classes" in out


def test_casebook_regression_exit_code(tmp_path, capsys):
    rules = [
        {
            "id": "probe",
            "candidate": [[9, 1], [1, 2]],
            "kind": "solver_run",
            "params": {},
            "expected_outcome": {"solution_count": 99},
        }
    ]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    code, env = run_json(
        capsys, "casebook", "run", "--dim", "13", "--rules", str(f)
    )
    assert code == EXIT_REGRESSION
    assert env["status"] == "regression"
    assert env["payload"]["regressions"][0]["rule"] == "probe"


def test_casebook_rule_cannot_overturn_the_tree_step(tmp_path, capsys):
    """At dimension 14 the tree step excludes [[7,2],[2,3]] (det 17, no
    Brauer tree has that Cartan matrix). A rule that calls it realized is a
    regression that lists both verdicts, and the candidate stays excluded.
    The same run without the rule is clean."""
    rules = [
        {
            "id": "overturn",
            "candidate": [[7, 2], [2, 3]],
            "kind": "external_citation",
            "citation": "probe",
            "verdict": "realized",
        }
    ]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    code, env = run_json(capsys, "casebook", "run", "--dim", "14", "--rules", str(f))
    assert code == EXIT_REGRESSION and env["status"] == "regression"
    assert env["payload"]["regressions"] == [
        {
            "rule": "overturn",
            "candidate": [[7, 2], [2, 3]],
            "computed_verdict": "excluded",
            "rule_verdict": "realized",
        }
    ]
    counts = env["payload"]["verdict_counts"]
    assert counts["realized"] == len(env["payload"]["final_table"]) == 4
    f.write_text("[]", encoding="utf-8")
    code, env = run_json(capsys, "casebook", "run", "--dim", "14", "--rules", str(f))
    assert code == EXIT_OK and env["payload"]["verdict_counts"] == counts


def test_casebook_rule_cannot_overturn_the_screen(tmp_path, capsys):
    """At dimension 13 the screen rules out [[6,2],[2,3]] (det 14 is not a
    prime power). Its rules still run, so the solve shows in its trail, and
    a rule that calls it realized is a regression that lists both verdicts;
    the candidate stays infeasible."""
    rules = [
        {
            "id": "overturn",
            "candidate": [[6, 2], [2, 3]],
            "kind": "solver_run",
            "params": {},
            "verdict": "realized",
        }
    ]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    report = tmp_path / "report.json"
    code, env = run_json(capsys, "casebook", "run", "--dim", "13", "--rules", str(f),
                         "--report", str(report))
    assert code == EXIT_REGRESSION and env["status"] == "regression"
    assert env["payload"]["regressions"] == [
        {
            "rule": "overturn",
            "candidate": [[6, 2], [2, 3]],
            "computed_verdict": "infeasible",
            "rule_verdict": "realized",
        }
    ]
    (cand,) = [c for c in json.loads(report.read_text(encoding="utf-8"))["candidates"]
               if c["matrix"] == [[6, 2], [2, 3]]]
    assert cand["verdict"] == "infeasible"
    assert [(e["rule"], e["kind"]) for e in cand["verdicts"]] == [
        ("auto:feasibility", "feasibility"), ("overturn", "solver_run")
    ]
    assert "solution_count" in cand["verdicts"][1]["outcome"]


def test_casebook_realized_verdict_needs_a_final_table_row(tmp_path, capsys):
    """[[5,1,1],[1,2,0],[1,0,2]] (det 16, so no tree step) has no row in the
    dimension-13 realizations; a rule that calls it realized is a
    regression, not a silent extra count."""
    rules = [
        {
            "id": "unbacked",
            "candidate": [[5, 1, 1], [1, 2, 0], [1, 0, 2]],
            "kind": "external_citation",
            "citation": "probe",
            "verdict": "realized",
        }
    ]
    f = tmp_path / "rules.json"
    f.write_text(json.dumps(rules), encoding="utf-8")
    code, env = run_json(capsys, "casebook", "run", "--dim", "13", "--rules", str(f))
    assert code == EXIT_REGRESSION
    assert env["payload"]["regressions"] == [
        {
            "rule": "unbacked",
            "candidate": [[5, 1, 1], [1, 2, 0], [1, 0, 2]],
            "rule_verdict": "realized",
            "final_table_rows": 0,
        }
    ]


@pytest.mark.parametrize(
    "failing",
    [
        [probe_rule(params={"contributon": True})],
        [probe_rule(params={"gram": [[7, 1], [1, 4]], "row_count": 7,
                            "defect_order": 2, "valuation_filter": VALUATION})],
        "not a rules file",
        None,
    ],
)
def test_failing_rules_file_names_the_run(tmp_path, capsys, failing):
    """A run whose rules file fails (bad schema, a rule that raises, bad
    JSON, a missing file) carries the command name and inputs digest of a
    run of the same file that succeeds."""
    code, ok = run_rules(tmp_path, capsys, [probe_rule()])
    assert code == EXIT_OK and ok["command"] == "casebook-run"
    f = tmp_path / "rules.json"
    if failing is None:
        f.unlink()
    else:
        text = failing if isinstance(failing, str) else json.dumps(failing)
        f.write_text(text, encoding="utf-8")
    code, env = run_json(capsys, "casebook", "run", "--dim", "14", "--rules", str(f))
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["command"] == ok["command"]
    assert env["inputs_digest"] == ok["inputs_digest"]


def run_digest(dim, rules=None):
    """The inputs digest of a successful ``casebook run --dim dim``: SHA-256
    of the canonical JSON of its command name and {dim, rules}."""
    canon = json.dumps(
        {"command": "casebook-run", "inputs": {"dim": dim, "rules": rules}},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize(
    "dim, error",
    [(0, "dimension must be positive"), (99, "exceeds the configured bound")],
)
def test_failing_run_without_rules_names_the_run(capsys, dim, error):
    """A failing run without --rules carries the command name and the
    {dim, rules} digest of a success, not the first CLI word and argv."""
    code, env = run_json(capsys, "casebook", "run", "--dim", str(dim))
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert error in env["payload"]["error"]
    assert env["command"] == "casebook-run"
    assert env["inputs_digest"] == run_digest(dim)


def test_unwritable_report_path_is_invalid_input(tmp_path, capsys):
    code, ok = run_json(capsys, "casebook", "run", "--dim", "13")
    assert code == EXIT_OK and ok["inputs_digest"] == run_digest(13)
    path = tmp_path / "missing_dir" / "r.json"
    code, env = run_json(
        capsys, "casebook", "run", "--dim", "13", "--report", str(path)
    )
    assert code == EXIT_INVALID and env["status"] == "invalid_input"
    assert env["payload"]["error"] == (
        f"{path}: cannot write report: No such file or directory"
    )
    assert env["command"] == ok["command"] == "casebook-run"
    assert env["inputs_digest"] == ok["inputs_digest"]
    assert not path.parent.exists()


def test_console_script_entry_point():
    # the child finds the package where this process does, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "blocksmith.cli", "snf", "--matrix", "[[7,1],[1,4]]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["diagonal"] == [1, 27]
