"""Case-analysis engine: local data integrity, filters, counting checks,
and full per-dimension replays."""

from collections import Counter
from importlib import resources

import pytest

from blocksmith import IntMatrix, brauer, casebook
from blocksmith.casebook import (
    SKIPPED_OUTCOME,
    CaseRule,
    CasebookError,
    LocalDatum,
    _outcome_matches,
    _rule_from_obj,
    brauer_count_check,
    congruence_filter,
    det25_decomposition,
    load_local_data,
    load_realizations,
    load_rules,
    quotient_catalog,
    run_dimension,
    subsection_data,
)
from blocksmith.cli import EXIT_REGRESSION, dispatch

from conftest import (
    conjugacy_class_count,
    cyclic_group,
    dihedral8,
    klein_four,
    quaternion8,
    semidihedral16,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def verdict_counts(report):
    return Counter(c["verdict"] for c in report.candidates)


def trail_of(report, rows):
    for cand in report.candidates:
        if cand["matrix"] == rows:
            return {e["rule"]: e for e in cand["verdicts"]}
    raise AssertionError(f"candidate {rows} not in report")


# ------------------------------------------------------------- local data


GROUP_ORACLES = {
    "C2": cyclic_group(2),
    "C2xC2": klein_four(),
    "C8": cyclic_group(8),
    "D8": dihedral8(),
    "Q8": quaternion8(),
    "SD16": semidihedral16(),
}


def test_quoted_class_counts_match_cayley_tables():
    catalog = quotient_catalog()
    assert set(GROUP_ORACLES) <= set(catalog)
    for name, (elements, mul) in GROUP_ORACLES.items():
        datum = catalog[name]
        assert datum.order_E == len(elements), name
        assert datum.class_count_E == conjugacy_class_count(elements, mul), name


def test_subsection_rows_are_the_richer_records():
    subs = subsection_data()
    assert set(subs) == {"C2", "C8", "D8"}
    assert subs["C2"].l_noncentral == (2, 2, 1, 1, 1)
    assert subs["C8"].l_central == (4,)
    assert subs["D8"].realizing_group == "216:87"
    # merged catalog keeps subsection rows over bare class counts
    assert quotient_catalog()["D8"].l_central == (4,)


def test_local_datum_validation():
    with pytest.raises(CasebookError):
        LocalDatum("X", order_E=0, class_count_E=1)
    with pytest.raises(CasebookError):
        LocalDatum("X", order_E=4, class_count_E=5)
    with pytest.raises(CasebookError):
        LocalDatum("X", order_E=4, class_count_E=2, l_central=(0,))


# ---------------------------------------------------------------- filters


def test_congruence_filter_mod_8():
    c2 = LocalDatum("C2", order_E=2, class_count_E=2)
    assert congruence_filter(10, c2, 2)
    assert not congruence_filter(9, c2, 2)
    assert congruence_filter(2, c2, 2)


def test_congruence_filter_mod_3():
    c8 = LocalDatum("C8", order_E=8, class_count_E=8)
    assert congruence_filter(2, c8, 3)  # 2 == 8 mod 3
    assert not congruence_filter(3, c8, 3)
    d8 = LocalDatum("D8", order_E=8, class_count_E=5)
    assert congruence_filter(2, d8, 3)


def test_congruence_filter_preconditions():
    with pytest.raises(CasebookError):
        congruence_filter(2, LocalDatum("X", order_E=4, class_count_E=3), 2)
    with pytest.raises(CasebookError):
        congruence_filter(2, LocalDatum("C2", order_E=2, class_count_E=2), 5)


def test_brauer_count_check():
    c2 = subsection_data()["C2"]
    assert brauer_count_check(2, c2) == 10
    assert brauer_count_check(1, c2) == 9
    with pytest.raises(CasebookError):
        brauer_count_check(0, c2)


def test_outcome_subset_matching():
    actual = {"solution_count": 2, "row_counts": [5, 7], "extra": 1}
    assert _outcome_matches({"solution_count": 2}, actual)
    assert _outcome_matches({"row_counts": [5, 7]}, actual)
    assert not _outcome_matches({"row_counts": [5]}, actual)
    assert not _outcome_matches({"missing": True}, actual)
    assert _outcome_matches({}, actual)


def test_rule_validation():
    with pytest.raises(CasebookError):
        CaseRule(rule_id="r", candidate=M([[13]]), kind="guesswork")
    with pytest.raises(CasebookError):
        CaseRule(rule_id="r", candidate=M([[13]]), kind="external_citation")
    with pytest.raises(CasebookError):
        CaseRule(
            rule_id="r",
            candidate=M([[13]]),
            kind="external_citation",
            citation="x",
            verdict="confirmed",
        )


@pytest.mark.parametrize(
    "params, message",
    [
        ({"sign_mod": "signed"}, "rule typo params has unknown keys sign_mod"),
        ({"contribution": "yes"},
         "rule typo params.contribution must be a boolean, got 'yes'"),
    ],
)
def test_rule_built_in_python_is_checked_like_a_rule_file(params, message):
    """A misspelt or mistyped parameter is refused when the rule is built,
    with the message a rule file gets, instead of running as a default
    nonnegative solve."""
    obj = {"id": "typo", "candidate": [[13]], "kind": "solver_run", "params": params}
    for build in (
        lambda: CaseRule(rule_id="typo", candidate=M([[13]]), kind="solver_run",
                         params=params),
        lambda: _rule_from_obj(obj),
    ):
        with pytest.raises(CasebookError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize(
    "field, message",
    [
        ({"candidate": [[13]]}, "rule r.candidate must be an IntMatrix, got [[13]]"),
        ({"rule_id": 7}, "rule 7.rule_id must be a string, got 7"),
        ({"citation": 5}, "rule r.citation must be a string, got 5"),
        ({"requires_data": "local"},
         "rule r.requires_data must be tuple[str, ...], got 'local'"),
        ({"requires_data": ("x", 3)},
         "rule r.requires_data must be tuple[str, ...], got ('x', 3)"),
    ],
)
def test_rule_built_in_python_checks_every_field(field, message):
    """Each field of a CaseRule is checked when it is built, not only its
    params: a list for a matrix, a number for a string and a string for a
    tuple of strings are refused before any run."""
    fields = {"rule_id": "r", "candidate": M([[13]]), "kind": "external_citation",
              "citation": "c", **field}
    with pytest.raises(CasebookError) as err:
        run_dimension(13, rules=[CaseRule(**fields)])
    assert str(err.value) == message


# ------------------------------------------------------- det-25 shortcut


def test_det25_decomposition():
    sol, k_minus_l = det25_decomposition()
    assert k_minus_l == 5
    assert sol.q.row_count == 8 and sol.q.col_count == 3


def test_det25_decomposition_requires_uniqueness():
    with pytest.raises(CasebookError):
        det25_decomposition(M([[5, 2], [2, 4]]))  # two decompositions


# ------------------------------------------------------------ full replays


def test_dimension_13_replay():
    report = run_dimension(13)
    assert verdict_counts(report) == {"realized": 5, "excluded": 8, "infeasible": 5}
    assert report.regressions == []
    assert report.final_table == [
        {"defect_group": "C13", "morita_class": "FC13"},
        {"defect_group": "C13", "morita_class": "principal block of PSL(3,3)"},
        {"defect_group": "C17", "morita_class": "principal block of PSL(2,16)"},
        {"defect_group": "C7", "morita_class": "nonprincipal block of 6.A7"},
        {"defect_group": "D16", "morita_class": "principal block of PGL(2,7)"},
        {"defect_group": "SD16", "morita_class": "nonprincipal block of 3.M10"},
    ]


def test_dimension_13_det16_rules_are_computed():
    trail = trail_of(run_dimension(13), [[5, 2], [2, 4]])
    solve_outcome = trail["d13-16a-solve"]["outcome"]
    assert solve_outcome["solution_count"] == 2
    assert solve_outcome["row_counts"] == [5, 7]
    assert solve_outcome["contribution_diagonals"] == [
        [13, 4, 5, 5, 5],
        [5, 5, 4, 4, 4, 5, 5],
    ]
    assert solve_outcome["height_zero_counts"] == [4, 4]
    assert trail["d13-16a-realized"]["kind"] == "external_citation"


def test_dimension_13_det27_chain():
    trail = trail_of(run_dimension(13), [[7, 1], [1, 4]])
    assert trail["d13-27-solve"]["outcome"]["row_counts"] == [7, 10]
    assert trail["d13-27-congruence"]["outcome"]["consistent"] == [
        "C2",
        "C8",
        "D8",
        "Q8",
    ]
    assert trail["d13-27-count-c2"]["outcome"] == {"k": 10, "row_count_match": True}
    assert trail["d13-27-count-c8"]["outcome"] == {"k": 7, "row_count_match": True}
    assert trail["d13-27-c2-column"]["outcome"] == {
        "column_count": 0,
        "proved_empty": True,
    }
    assert trail["d13-27-c8-column"]["outcome"]["column_count"] == 6
    assert trail["d13-27-d8-fake"]["outcome"]["solution_count"] == 4
    assert trail["d13-27-d8-fake"]["outcome"]["survivor_count"] == 0
    assert trail["d13-27-q8-fake"]["outcome"] == SKIPPED_OUTCOME


def test_dimension_14_replay():
    report = run_dimension(14)
    assert verdict_counts(report) == {"realized": 4, "excluded": 8, "infeasible": 18}
    assert report.regressions == []
    assert [r["defect_group"] for r in report.final_table] == [
        "C19",
        "C5",
        "C7",
        "C7",
    ]
    trail = trail_of(report, [[5, 1, 1], [1, 3, 0], [1, 0, 2]])
    assert trail["d14-25-solve"]["outcome"]["k_minus_l"] == 5


def test_dimension_15_replay():
    report = run_dimension(15)
    assert verdict_counts(report) == {
        "infeasible": 22,
        "excluded": 14,
        "unresolved": 4,
        "open_flagged": 1,
    }
    assert report.final_table == []
    assert report.regressions == []


def test_reports_are_reproducible():
    a = run_dimension(13).to_obj()
    b = run_dimension(13).to_obj()
    assert a == b


def test_injected_regression_is_reported():
    rule = CaseRule(
        rule_id="probe",
        candidate=M([[9, 1], [1, 2]]),
        kind="solver_run",
        params={},
        expected_outcome={"solution_count": 99},
    )
    report = run_dimension(13, rules=[rule])
    assert len(report.regressions) == 1
    reg = report.regressions[0]
    assert reg["rule"] == "probe"
    assert reg["expected"] == {"solution_count": 99}
    assert reg["actual"]["solution_count"] != 99


def test_rule_for_unknown_candidate_is_an_error():
    rule = CaseRule(rule_id="ghost", candidate=M([[999]]), kind="solver_run")
    with pytest.raises(CasebookError) as err:
        run_dimension(13, rules=[rule])
    assert "ghost" in str(err.value)


def with_realization_rows(monkeypatch, *rows):
    packaged = casebook.load_realizations
    monkeypatch.setattr(
        casebook, "load_realizations", lambda n: packaged(n) + list(rows)
    )


def test_realization_row_for_unknown_candidate_is_an_error(monkeypatch):
    with_realization_rows(
        monkeypatch,
        {"matrix": {"rows": [[99]]}, "defect_group": "C2", "morita_class": "ghost"},
    )
    with pytest.raises(
        CasebookError,
        match=r"realization row 'ghost' references a candidate that was not "
        r"enumerated: \[\[99\]\]",
    ):
        run_dimension(14)


def test_realization_row_cannot_overturn_the_tree_step_or_the_screen(monkeypatch):
    """At dimension 14 the tree step excludes [[7,2],[2,3]] and the screen
    rules out [[14]] (det 14 is not a prime power); a realization row for
    either is a regression, and neither reaches the final table."""
    excluded = {"matrix": {"rows": [[7, 2], [2, 3]]}, "defect_group": "C17",
                "morita_class": "probe-excluded"}
    infeasible = {"matrix": {"rows": [[14]]}, "defect_group": "C2",
                  "morita_class": "probe-infeasible"}
    with_realization_rows(monkeypatch, excluded, infeasible)
    report = run_dimension(14)
    assert len(report.final_table) == 4
    assert report.regressions == [
        {"candidate": [[14]], "computed_verdict": "infeasible",
         "defect_group": "C2", "morita_class": "probe-infeasible"},
        {"candidate": [[7, 2], [2, 3]], "computed_verdict": "excluded",
         "defect_group": "C17", "morita_class": "probe-excluded"},
    ]


def realization_row_regressions(monkeypatch, dim, matrix, *, final_verdict, rule):
    """A realization row for a candidate whose final verdict is not
    ``realized`` is one regression naming that verdict and its rule; the
    candidate keeps its verdict, the final table is the packaged one, and
    the command exits with the regression code."""
    packaged = run_dimension(dim)
    probe = {"matrix": {"rows": matrix}, "defect_group": "C2",
             "morita_class": "probe"}
    with_realization_rows(monkeypatch, probe)
    report = run_dimension(dim)
    assert report.regressions == packaged.regressions + [
        {"candidate": matrix, "final_verdict": final_verdict, "rule": rule,
         "defect_group": "C2", "morita_class": "probe"}
    ]
    assert report.final_table == packaged.final_table
    (cand,) = [c for c in report.candidates if c["matrix"] == matrix]
    assert cand["verdict"] == final_verdict
    assert dispatch(["casebook", "run", "--dim", str(dim)]) == EXIT_REGRESSION


def test_realization_row_for_a_rule_excluded_candidate_is_a_regression(monkeypatch):
    # det 16: no tree step; the rule d13-16b-excluded excludes it
    realization_row_regressions(
        monkeypatch, 13, [[5, 1, 1], [1, 2, 0], [1, 0, 2]],
        final_verdict="excluded", rule="d13-16b-excluded",
    )


def test_realization_row_for_an_open_flagged_candidate_is_a_regression(monkeypatch):
    # det 13: the tree step matches it, so with a row it would be realized,
    # but the rule d15-13-flag leaves it open
    realization_row_regressions(
        monkeypatch, 15, [[5, 1, 1], [1, 2, 1], [1, 1, 2]],
        final_verdict="open_flagged", rule="d15-13-flag",
    )


def test_realization_row_for_an_unresolved_candidate_is_a_regression(monkeypatch):
    # det 8: no tree step and no rule gives it a verdict
    realization_row_regressions(
        monkeypatch, 15, [[4, 0, 2], [0, 3, 1], [2, 1, 2]],
        final_verdict="unresolved", rule=None,
    )
    # rules given in place of the packaged ones leave candidates unresolved
    # by design: their rows are not reported
    assert run_dimension(15, rules=[]).regressions == []


def test_unresolved_row_is_reported_however_the_packaged_rules_are_passed(
    monkeypatch, tmp_path
):
    """Whether an unresolved candidate's row is a regression depends on
    what the rules are, not on how they were passed: the packaged rules
    given explicitly, or as a copy of the packaged file to ``--rules``,
    report it as rules=None does."""
    matrix = [[4, 0, 2], [0, 3, 1], [2, 1, 2]]
    with_realization_rows(
        monkeypatch,
        {"matrix": {"rows": matrix}, "defect_group": "C2", "morita_class": "probe"},
    )
    expected = run_dimension(15).regressions
    assert [r["candidate"] for r in expected] == [matrix]
    assert run_dimension(15, rules=load_rules(15)).regressions == expected
    copy = tmp_path / "rules.json"
    packaged = resources.files("blocksmith").joinpath("data/rules_dim15.json")
    copy.write_text(packaged.read_text(encoding="utf-8"), encoding="utf-8")
    code = dispatch(["casebook", "run", "--dim", "15", "--rules", str(copy)])
    assert code == EXIT_REGRESSION


def test_tree_step_beyond_the_edge_bound_is_an_error(monkeypatch):
    # with trees of at most 2 edges enumerated, a prime-determinant candidate
    # with l = 3 has no tree to match and must not be excluded for it
    monkeypatch.setattr(brauer, "EDGE_BOUND", 2)
    with pytest.raises(CasebookError, match="needs trees with 3 edges, beyond the bound 2"):
        run_dimension(13)


def test_rules_files_load():
    assert load_rules(13) and load_rules(14) and load_rules(15)
    assert load_rules(99) == []
    assert len(load_realizations(13)) == 6
    assert len(load_realizations(14)) == 4
    assert load_realizations(15) == []
    data = load_local_data()
    assert data["fake_cartans"]["q8_central_list"] is None
