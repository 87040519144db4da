"""Acceptance gate: one test per published criterion, in order.

Each test prints a single `criterion N: PASS` line on success (visible
with -s or in captured output); the pytest status line per test is the
authoritative pass/fail record.
"""

import itertools
import json
import random

import pytest

from blocksmith import (
    GramProblem,
    GramSolution,
    IntMatrix,
    complement_diag,
    contribution_matrix,
    det25_decomposition,
    heights_from_contribution,
    solve,
    solve_orthogonal_column,
    verify_solution,
)
from blocksmith.brauer import cartan_of_tree, classify_defect1, dim_of_tree, enumerate_trees
from blocksmith.cartan import enumerate_cartan, min_sum_for_l, prime_power_base
from blocksmith.cli import dispatch
from blocksmith.intmat import adjugate_and_det, smith_normal_form

from conftest import gram2_decompositions


def M(rows):
    return IntMatrix.from_rows(rows)


def multisets(solutions):
    return {tuple(sorted(s.q.rows, reverse=True)) for s in solutions}


def orbit_min(rows):
    l = len(rows)
    return min(
        tuple(tuple(rows[p[i]][p[j]] for j in range(l)) for i in range(l))
        for p in itertools.permutations(range(l))
    )


def done(n: int):
    print(f"criterion {n}: PASS")


def cli_json(capsys, *argv):
    code = dispatch(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_enumeration_counts_and_determinants(capsys):
    code, env = cli_json(capsys, "enumerate-cartan", "--sum", "13", "--l", "2")
    assert code == 0
    cands = env["payload"]["candidates"]
    assert len(cands) == 8
    assert sorted(c["det"] for c in cands) == sorted([17, 23, 27, 29, 10, 14, 16, 3])

    code, env = cli_json(capsys, "enumerate-cartan", "--sum", "13", "--l", "3")
    assert code == 0
    cands = env["payload"]["candidates"]
    assert len(cands) == 9
    assert sorted(c["det"] for c in cands) == sorted([16, 13, 19, 18, 17, 21, 7, 1, 2])
    done(1)


def test_criterion_2_entry_sum_14_prime_power_candidates():
    found = []
    l = 1
    while min_sum_for_l(l) <= 14:
        for c in enumerate_cartan(14, l):
            p = prime_power_base(c.det)
            if p is not None and c.det != p:
                found.append(c)
        l += 1
    assert sorted(c.det for c in found) == [4, 4, 4, 16, 25]
    assert {orbit_min(c.matrix.to_lists()) for c in found} == {
        orbit_min([[6, 1, 0], [1, 2, 1], [0, 1, 2]]),
        orbit_min([[5, 1, 1], [1, 3, 0], [1, 0, 2]]),
        orbit_min([[4, 2, 0], [2, 2, 1], [0, 1, 2]]),
        orbit_min([[3, 1, 2], [1, 3, 0], [2, 0, 2]]),
        orbit_min([[2, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]]),
    }
    done(2)


def test_criterion_3_gram_solution_sets():
    assert multisets(solve(GramProblem(target_gram=M([[5, 2], [2, 4]])))) == {
        ((2, 1), (1, 0), (0, 1), (0, 1), (0, 1)),
        ((1, 1), (1, 1), (1, 0), (1, 0), (1, 0), (0, 1), (0, 1)),
    }
    assert len(solve(GramProblem(target_gram=M([[5, 1, 1], [1, 2, 0], [1, 0, 2]])))) == 1
    assert len(solve(GramProblem(target_gram=M([[6, 1, 0], [1, 2, 1], [0, 1, 2]])))) == 2
    assert multisets(solve(GramProblem(target_gram=M([[7, 1], [1, 4]])))) == {
        ((2, 0), (1, 1), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
        ((1, 1),) + ((1, 0),) * 6 + ((0, 1),) * 3,
    }
    done(3)


# decompositions in their displayed row order
Q7_16 = M([[1, 1], [1, 1], [0, 1], [0, 1], [1, 0], [1, 0], [1, 0]])
Q5_16 = M([[2, 1], [0, 1], [0, 1], [0, 1], [1, 0]])
C_16 = M([[5, 2], [2, 4]])
Q7_27 = M([[2, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [1, 1]])
Q10_27 = M([[1, 0]] * 6 + [[0, 1]] * 3 + [[1, 1]])
C_27 = M([[7, 1], [1, 4]])


def test_criterion_4_contribution_diagonals_heights_complement():
    r75 = contribution_matrix(Q7_16, C_16, 16)
    r55 = contribution_matrix(Q5_16, C_16, 16)
    assert r75.diagonal == (5, 5, 5, 5, 4, 4, 4)
    assert r55.diagonal == (13, 5, 5, 5, 4)
    assert heights_from_contribution(r75, 2).height_zero_count == 4
    assert heights_from_contribution(r55, 2).height_zero_count == 4

    r727 = contribution_matrix(Q7_27, C_27, 27)
    r1027 = contribution_matrix(Q10_27, C_27, 27)
    assert r727.diagonal == (16, 4, 4, 7, 7, 7, 9)
    assert r1027.diagonal == (4, 4, 4, 4, 4, 4, 7, 7, 7, 9)
    h7 = heights_from_contribution(r727, 3)
    h10 = heights_from_contribution(r1027, 3)
    assert {h7.height_zero_count, h10.height_zero_count} == {6, 9}
    assert h7.count(1) == 1 and h10.count(1) == 1

    assert complement_diag((16, 4, 4, 7, 7, 7, 9), 27) == (
        11, 23, 23, 20, 20, 20, 18,
    )
    done(4)


def test_criterion_5_orthogonal_columns_and_displayed_arrangement():
    assert solve_orthogonal_column(Q10_27, 9, zero_rows={9}) == []

    cols = solve_orthogonal_column(Q7_27, 9, zero_rows={6})
    assert cols
    for col in cols:
        assert sorted(abs(x) for x in col) == [0, 1, 1, 1, 1, 1, 2]

    q_full = M(
        [
            [2, 0, 1],
            [1, 0, -1],
            [1, 0, -1],
            [0, 1, 2],
            [0, 1, -1],
            [0, 1, -1],
            [1, 1, 0],
        ]
    )
    block = M([[7, 1, 0], [1, 4, 0], [0, 0, 9]])
    problem = GramProblem(target_gram=block, sign_mode="signed", row_count=7)
    assert verify_solution(problem, GramSolution(q=q_full))
    full_diag = contribution_matrix(q_full, block, 27).diagonal
    assert complement_diag(full_diag, 27) == (8, 20, 20, 8, 17, 17, 18)
    done(5)


def test_criterion_6_defect_one_classification_and_tree_counts():
    assert {(r.shape, r.multiplicity, r.p) for r in classify_defect1(13)} == {
        ("edge", 12, 13),
        ("path2_end", 8, 17),
        ("star_leaf", 2, 7),
        ("path3_end", 4, 13),
    }
    assert {(r.shape, r.multiplicity, r.p) for r in classify_defect1(14)} == {
        ("path2_center", 3, 7),
        ("path2_end", 9, 19),
        ("path3_inner", 2, 7),
        ("path4", 1, 5),
    }
    assert [len(enumerate_trees(e)) for e in (1, 2, 3)] == [1, 2, 4]
    done(6)


def test_criterion_7_det25_decomposition():
    sol, k_minus_l = det25_decomposition()
    assert sol.q.row_count == 8
    assert k_minus_l == 5
    only = solve(GramProblem(target_gram=M([[5, 1, 1], [1, 3, 0], [1, 0, 2]])))
    assert len(only) == 1 and only[0].q == sol.q
    done(7)


def test_criterion_8a_contribution_projector_laws():
    targets = [
        [[5, 2], [2, 4]],
        [[5, 1, 1], [1, 2, 0], [1, 0, 2]],
        [[6, 1, 0], [1, 2, 1], [0, 1, 2]],
        [[7, 1], [1, 4]],
        [[5, 1, 1], [1, 3, 0], [1, 0, 2]],
        [[7, 1, 0], [1, 4, 0], [0, 0, 9]],
    ]
    checked = 0
    for rows in targets:
        c = M(rows)
        defect = smith_normal_form(c).diagonal[-1]
        signed = "signed" if rows == targets[-1] else "nonnegative"
        for sol in solve(GramProblem(target_gram=c, sign_mode=signed)):
            m = contribution_matrix(sol.q, c, defect).matrix
            assert m.matmul(m) == m.scale(defect)
            assert m.trace() == defect * c.col_count
            checked += 1
    assert checked >= 8
    done("8a")


def test_criterion_8b_snf_random_matrices():
    rng = random.Random(13579)
    for _ in range(1000):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = M([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        res = smith_normal_form(a)
        nonzero = [x for x in res.diagonal if x]
        assert all(x > 0 for x in nonzero)
        assert list(res.diagonal) == nonzero + [0] * (min(n, m) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert abs(adjugate_and_det(res.left_transform)[1]) == 1
        assert abs(adjugate_and_det(res.right_transform)[1]) == 1
        assert (
            res.left_transform.matmul(a).matmul(res.right_transform)
            == res.as_matrix((n, m))
        )
    done("8b")


def test_criterion_8c_solver_equals_brute_force_on_all_2x2():
    scanned = 0
    for a in range(1, 10):
        for d in range(1, 10):
            for b in range(0, 10):
                if b * b >= a * d:
                    continue
                oracle = gram2_decompositions(a, b, d)
                got = multisets(solve(GramProblem(target_gram=M([[a, b], [b, d]]))))
                assert got == oracle, (a, b, d)
                scanned += 1
    assert scanned == 401  # all PD targets with entries bounded by 9
    done("8c")


def test_criterion_8d_tree_cartan_entry_sums():
    for e in range(1, 6):
        for m in range(1, 13):
            for t in enumerate_trees(e, multiplicity=m):
                assert cartan_of_tree(t).entry_sum() == dim_of_tree(t)
    done("8d")


def test_criterion_9_casebook_runs(tmp_path, capsys):
    rep13 = tmp_path / "r13.json"
    rep14 = tmp_path / "r14.json"
    code, env = cli_json(
        capsys, "casebook", "run", "--dim", "13", "--report", str(rep13)
    )
    assert code == 0
    assert len(env["payload"]["final_table"]) == 6

    code, env = cli_json(
        capsys, "casebook", "run", "--dim", "14", "--report", str(rep14)
    )
    assert code == 0
    assert len(env["payload"]["final_table"]) == 4

    # computational rules must carry executed numeric outcomes, not prose
    def executed_solver_rules(path, matrix):
        report = json.loads(path.read_text(encoding="utf-8"))
        for cand in report["candidates"]:
            if cand["matrix"] == matrix:
                return [
                    e["outcome"]
                    for e in cand["verdicts"]
                    if e["kind"] == "solver_run" and isinstance(e["outcome"], dict)
                ]
        raise AssertionError(f"{matrix} missing from {path}")

    for path, matrix in [
        (rep13, [[5, 2], [2, 4]]),  # det 16
        (rep13, [[5, 1, 1], [1, 2, 0], [1, 0, 2]]),  # det 16
        (rep13, [[7, 1], [1, 4]]),  # det 27
        (rep14, [[6, 1, 0], [1, 2, 1], [0, 1, 2]]),  # det 16
        (rep14, [[5, 1, 1], [1, 3, 0], [1, 0, 2]]),  # det 25
    ]:
        outcomes = executed_solver_rules(path, matrix)
        assert outcomes, (path, matrix)
        assert any("solution_count" in o or "column_count" in o for o in outcomes)

    # byte-identical re-runs
    first13 = rep13.read_bytes()
    first14 = rep14.read_bytes()
    dispatch(["casebook", "run", "--dim", "13", "--report", str(rep13)])
    dispatch(["casebook", "run", "--dim", "14", "--report", str(rep14)])
    capsys.readouterr()
    assert rep13.read_bytes() == first13
    assert rep14.read_bytes() == first14
    done(9)
