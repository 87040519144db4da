"""Gram decomposition solver: exact solution sets, pinned searches,
orthogonal columns, and verification."""

import itertools
import os
import subprocess
import sys
from math import isqrt

import pytest
from hypothesis import assume, given, strategies as st

from blocksmith import (
    GramInputError,
    GramProblem,
    GramSolution,
    IntMatrix,
    InvariantError,
    gram,
    solve,
    solve_orthogonal_column,
    verify_solution,
)
from blocksmith.gram import row_is_valid, row_quad
from blocksmith.intmat import adjugate, det

from conftest import (
    adj_det,
    gram2_decompositions,
    orthogonal_column_oracle,
    pinned_gram_oracle,
    pinned_gram_orbit,
    quad,
)


def M(rows):
    return IntMatrix.from_rows(rows)


def multisets(solutions):
    return {tuple(sorted(s.q.rows, reverse=True)) for s in solutions}


def test_unique_decomposition_of_5_1_1_1_2_0_1_0_2():
    sols = solve(GramProblem(target_gram=M([[5, 1, 1], [1, 2, 0], [1, 0, 2]])))
    assert multisets(sols) == {
        (
            (1, 1, 0),
            (1, 0, 1),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )
    }


def test_two_decompositions_of_5_2_2_4():
    sols = solve(GramProblem(target_gram=M([[5, 2], [2, 4]])))
    assert [s.q.row_count for s in sols] == [5, 7]
    assert multisets(sols) == {
        ((2, 1), (1, 0), (0, 1), (0, 1), (0, 1)),
        ((1, 1), (1, 1), (1, 0), (1, 0), (1, 0), (0, 1), (0, 1)),
    }


def test_two_decompositions_of_6_1_0_1_2_1_0_1_2():
    sols = solve(GramProblem(target_gram=M([[6, 1, 0], [1, 2, 1], [0, 1, 2]])))
    assert [s.q.row_count for s in sols] == [5, 8]
    assert multisets(sols) == {
        ((2, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 1), (0, 0, 1)),
        (
            (1, 1, 0),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
            (0, 1, 1),
            (0, 0, 1),
        ),
    }


def test_two_decompositions_of_7_1_1_4():
    sols = solve(GramProblem(target_gram=M([[7, 1], [1, 4]])))
    assert [s.q.row_count for s in sols] == [7, 10]
    assert multisets(sols) == {
        ((2, 0), (1, 1), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1)),
        ((1, 1),) + ((1, 0),) * 6 + ((0, 1),) * 3,
    }


def test_unique_decomposition_of_det_25_target():
    sols = solve(GramProblem(target_gram=M([[5, 1, 1], [1, 3, 0], [1, 0, 2]])))
    assert len(sols) == 1 and sols[0].q.row_count == 8


def test_row_validity_bound_is_strict():
    # (1, 2) decomposes [[5,2],[2,4]] together with (2, 0) but its scaled
    # contribution equals the determinant, which the model excludes
    c = M([[5, 2], [2, 4]])
    adj, d = adjugate(c), det(c)
    q = IntMatrix.from_rows([[1, 2], [2, 0]])
    assert q.transpose().matmul(q) == c
    assert row_quad((1, 2), adj) == d
    assert not row_is_valid((1, 2), adj, d)
    assert row_is_valid((2, 1), adj, d)
    # determinant 1 allows saturation, otherwise nothing decomposes [[1]]
    one = M([[1]])
    assert row_is_valid((1,), adjugate(one), det(one))
    assert multisets(solve(GramProblem(target_gram=one))) == {((1,),)}


def test_row_count_constraints():
    c = M([[5, 2], [2, 4]])
    assert [s.q.row_count for s in solve(GramProblem(target_gram=c, row_count=5))] == [5]
    assert solve(GramProblem(target_gram=c, row_count=6)) == []
    window = solve(GramProblem(target_gram=c, row_count=(6, 9)))
    assert [s.q.row_count for s in window] == [7]
    padded = solve(
        GramProblem(target_gram=c, row_count=6, require_nonzero_rows=False)
    )
    assert [s.q.row_count for s in padded] == [6]
    assert all(any(x for x in s.q.rows[-1]) is False for s in padded)


@pytest.mark.parametrize("sign_mode", ["nonnegative", "signed"])
def test_zero_row_window_is_union_of_exact_counts(sign_mode):
    c = M([[5, 2], [2, 4]])  # trace 9: the window reaches past it

    def rows_of(row_count):
        problem = GramProblem(
            target_gram=c, sign_mode=sign_mode, row_count=row_count,
            require_nonzero_rows=False,
        )
        return [s.q.rows for s in solve(problem)]

    window = rows_of((6, 11))
    assert window == [q for k in range(6, 12) for q in rows_of(k)]
    assert {len(q) for q in window} == set(range(6, 12))


def test_signed_mode_and_sign_dedup():
    c = M([[2, 1], [1, 2]])
    nonneg = solve(GramProblem(target_gram=c))
    assert multisets(nonneg) == {((1, 1), (1, 0), (0, 1))}
    signed = solve(GramProblem(target_gram=c, sign_mode="signed"))
    # four classes under simultaneous column negation (C is connected, so
    # only the global flip identifies solutions)
    assert len(signed) == 4
    reps = multisets(signed)
    assert ((1, 1), (1, 0), (0, 1)) in reps
    for s in signed:
        assert s.q.transpose().matmul(s.q) == c


def test_sign_dedup_uses_components():
    # disconnected target: each column flips independently
    c = M([[1, 0], [0, 1]])
    signed = solve(GramProblem(target_gram=c, sign_mode="signed"))
    assert multisets(signed) == {((1, 0), (0, 1))}


def test_diag_constraints_pin_rows():
    c = M([[5, 2], [2, 4]])
    pinned = solve(
        GramProblem(
            target_gram=c,
            row_count=5,
            diag_constraints=(13, 4, 5, 5, 5),
            defect_order=16,
        )
    )
    assert [s.q.rows for s in pinned] == [
        ((2, 1), (1, 0), (0, 1), (0, 1), (0, 1))
    ]
    reordered = solve(
        GramProblem(
            target_gram=c,
            row_count=5,
            diag_constraints=(4, 5, 5, 5, 13),
            defect_order=16,
        )
    )
    assert [s.q.rows for s in reordered] == [
        ((1, 0), (0, 1), (0, 1), (0, 1), (2, 1))
    ]
    assert (
        solve(
            GramProblem(
                target_gram=c,
                row_count=5,
                diag_constraints=(4, 4, 4, 4, 4),
                defect_order=16,
            )
        )
        == []
    )


def test_diag_constraints_need_defect_order():
    with pytest.raises(GramInputError):
        GramProblem(
            target_gram=M([[5, 2], [2, 4]]),
            row_count=5,
            diag_constraints=(13, 4, 5, 5, 5),
        ).validate()


def test_zero_rows_and_fixed_blocks():
    c = M([[9]])
    q1 = M([[1, 1], [1, 0], [1, 0], [1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [0, 0]])
    sols = solve(
        GramProblem(
            target_gram=c,
            sign_mode="signed",
            row_count=10,
            require_nonzero_rows=False,
            fixed_blocks=(q1,),
            zero_rows=frozenset({9}),
        )
    )
    for s in sols:
        assert s.q.rows[9] == (0,)
        assert q1.transpose().matmul(s.q) == IntMatrix.from_rows([[0], [0]])


def test_orthogonal_column_examples():
    q7 = M([[2, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [1, 1]])
    cols = solve_orthogonal_column(q7, 9, zero_rows={6})
    assert sorted(cols) == [
        (1, -1, -1, -2, 1, 1, 0),
        (1, -1, -1, -1, -1, 2, 0),
        (1, -1, -1, -1, 2, -1, 0),
        (1, -1, -1, 1, -2, 1, 0),
        (1, -1, -1, 1, 1, -2, 0),
        (1, -1, -1, 2, -1, -1, 0),
    ]
    for col in cols:
        assert sorted(abs(x) for x in col) == [0, 1, 1, 1, 1, 1, 2]
        assert all(sum(a * b for a, b in zip(col, q_col)) == 0
                   for q_col in zip(*q7.rows))
        assert sum(x * x for x in col) == 9
        assert next(x for x in col if x) > 0  # global-sign representative

    q10 = M([[1, 0]] * 6 + [[0, 1]] * 3 + [[1, 1]])
    assert solve_orthogonal_column(q10, 9, zero_rows={9}) == []


def test_orthogonal_column_unsigned():
    q = M([[1], [1]])
    assert solve_orthogonal_column(q, 2, signed=False) == []
    assert solve_orthogonal_column(q, 2, signed=True) == [(1, -1)]


@given(st.data())
def test_orthogonal_column_matches_brute_force(data):
    """solve_orthogonal_column lists exactly the oracle's columns, in its
    order, over k <= 5 rows, gram values g <= 9, both sign modes and forced
    zero entries. Q1's columns are mostly drawn orthogonal to a drawn column
    v0, g is mostly v0.v0 and the forced zeros mostly among v0's zero
    entries, so that many problems have solutions."""
    draw = data.draw
    k = draw(st.integers(1, 5))
    signed = draw(st.booleans())
    v0, budget = [], 9
    for _ in range(k):
        b = isqrt(budget)
        v0.append(draw(st.integers(-b if signed else 0, b)))
        budget -= v0[-1] ** 2
    assume(any(v0))
    near = st.sampled_from([True, True, False])
    g = 9 - budget if draw(near) else draw(st.integers(1, 9))
    vectors = list(itertools.product((-1, 0, 1), repeat=k))
    orthogonal = [v for v in vectors if sum(a * b for a, b in zip(v, v0)) == 0]
    cols = [
        draw(st.sampled_from(orthogonal if draw(near) else vectors))
        for _ in range(draw(st.integers(1, 3)))
    ]
    q1 = [[col[i] for col in cols] for i in range(k)]
    zero_pool = [i for i in range(k) if not v0[i]] if draw(near) else range(k)
    zero_rows = draw(st.sets(st.sampled_from(list(zero_pool) or [0]), max_size=k))
    assert solve_orthogonal_column(
        M(q1), g, signed=signed, zero_rows=zero_rows
    ) == orthogonal_column_oracle(q1, g, signed, zero_rows)


def test_verify_solution_rejects_wrong_answers():
    c = M([[5, 2], [2, 4]])
    p = GramProblem(target_gram=c)
    good = solve(p)[0]
    assert verify_solution(p, good)
    wrong_gram = GramSolution(q=M([[1, 0], [0, 1]]), canonical_key=b"")
    assert not verify_solution(p, wrong_gram)
    negative = GramSolution(
        q=M([[2, 1], [-1, 0], [0, 1], [0, 1], [0, 1]]), canonical_key=b""
    )
    assert not verify_solution(p, negative)
    zero_row = GramSolution(
        q=M([[2, 1], [1, 0], [0, 1], [0, 1], [0, 1], [0, 0]]), canonical_key=b""
    )
    assert not verify_solution(p, zero_row)
    # the Gram matrix is right, but row (1, 2) has r.adj(C).r^t = det C = 16
    saturated = GramSolution(q=M([[2, 0], [1, 2]]), canonical_key=b"")
    assert saturated.q.transpose().matmul(saturated.q) == c
    assert not verify_solution(p, saturated)
    # row counts: exact, and a window
    assert verify_solution(GramProblem(target_gram=c, row_count=5), good)
    assert not verify_solution(GramProblem(target_gram=c, row_count=7), good)
    assert verify_solution(GramProblem(target_gram=c, row_count=(4, 6)), good)
    assert not verify_solution(GramProblem(target_gram=c, row_count=(6, 9)), good)
    # a forced zero row that is not zero
    padded = GramSolution(q=M(list(good.q.rows) + [[0, 0]]), canonical_key=b"")

    def pinned(**kw):
        return GramProblem(
            target_gram=c, row_count=6, require_nonzero_rows=False, **kw
        )

    assert verify_solution(pinned(zero_rows=frozenset({5})), padded)
    assert not verify_solution(pinned(zero_rows=frozenset({0})), padded)
    # a fixed block B with B^t Q != 0
    assert good.q.rows == ((2, 1), (1, 0), (0, 1), (0, 1), (0, 1))

    def fixed(col):
        return GramProblem(target_gram=c, fixed_blocks=(M([[x] for x in col]),))

    assert verify_solution(fixed([0, 0, 1, -1, 0]), good)
    assert not verify_solution(fixed([0, 0, 1, 0, 0]), good)
    # a diagonal constraint that the rows do not meet
    def diag(values):
        return GramProblem(
            target_gram=c, row_count=5, diag_constraints=values, defect_order=16
        )

    assert verify_solution(diag((13, 4, 5, 5, 5)), good)
    assert not verify_solution(diag((13, 5, 4, 5, 5)), good)


def test_input_validation():
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[1, 2], [3, 4]])))  # not symmetric
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[-1]])))  # not positive definite
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[2, 1], [1, 2]]), sign_mode="odd"))
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[2, 1], [1, 2]]), row_count=0))


def test_solver_matches_brute_force_spot_checks():
    # the exhaustive scan over all 2x2 targets is an acceptance criterion;
    # here a few shapes that exercise saturation and multiplicity
    for a, b, d in [(5, 2, 4), (7, 1, 4), (2, 1, 2), (4, 2, 4), (9, 3, 9), (1, 0, 1)]:
        oracle = gram2_decompositions(a, b, d)
        got = multisets(solve(GramProblem(target_gram=M([[a, b], [b, d]]))))
        assert got == oracle, (a, b, d)


@given(st.data())
def test_pinned_search_matches_brute_force(data):
    """Every Q the oracle lists lies in the orbit (column signs x row
    permutations within groups) of exactly one returned solution, and every
    such orbit consists of oracle matrices.

    Each problem is built around a drawn matrix Q0 with C = Q0^t Q0: fixed
    block columns are mostly drawn orthogonal to Q0, forced zero rows mostly
    among its zero rows, and the diagonal constraints are mostly Q0's own
    contributions, so that many problems have solutions."""
    draw = data.draw
    l = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    signed = draw(st.booleans())
    entries = st.integers(-2, 2) if signed else st.integers(0, 2)
    q0 = [tuple(draw(entries) for _ in range(l)) for _ in range(k)]
    c = [[sum(r[i] * r[j] for r in q0) for j in range(l)] for i in range(l)]
    adj, det_c = adj_det(c)
    assume(det_c > 0)
    near = st.sampled_from([True, True, False])
    vectors = list(itertools.product((-1, 0, 1), repeat=k))
    orthogonal = [
        v for v in vectors
        if all(sum(v[t] * q0[t][j] for t in range(k)) == 0 for j in range(l))
    ]
    blocks = []
    for width in draw(st.lists(st.integers(1, 2), max_size=2)):
        cols = [
            draw(st.sampled_from(orthogonal if draw(near) else vectors))
            for _ in range(width)
        ]
        blocks.append([[col[i] for col in cols] for i in range(k)])
    zero_pool = [i for i in range(k) if not any(q0[i])] if draw(near) else range(k)
    zero_rows = draw(st.sets(st.sampled_from(list(zero_pool) or [0]), max_size=k))
    require_nonzero_rows = draw(st.booleans())
    diag = defect_order = None
    if draw(st.booleans()):
        defect_order = det_c * draw(st.integers(1, 2))
        diag = [defect_order * quad(r, adj) // det_c for r in q0]
        if not draw(near):
            diag[draw(st.integers(0, k - 1))] += draw(st.integers(1, 2))
    expected = pinned_gram_oracle(
        c, k, signed, blocks, diag, defect_order, zero_rows, require_nonzero_rows
    )
    sols = solve(
        GramProblem(
            target_gram=M(c),
            sign_mode="signed" if signed else "nonnegative",
            row_count=k,
            require_nonzero_rows=require_nonzero_rows,
            fixed_blocks=tuple(M(b) for b in blocks),
            diag_constraints=None if diag is None else tuple(diag),
            defect_order=defect_order,
            zero_rows=frozenset(zero_rows),
        )
    )
    orbits = [
        pinned_gram_orbit(s.q.rows, c, signed, blocks, diag, zero_rows) for s in sols
    ]
    for q in expected:
        assert sum(q in orbit for orbit in orbits) == 1, q
    for orbit in orbits:
        assert orbit <= expected


def test_every_solution_verifies(rng):
    # random small PD targets; solver output must verify and reproduce C
    for _ in range(40):
        l = rng.randint(1, 2)
        if l == 1:
            c = M([[rng.randint(1, 9)]])
        else:
            a, d = rng.randint(1, 7), rng.randint(1, 7)
            b = rng.randint(0, min(3, (a * d - 1) ** 1) )
            if b * b >= a * d:
                continue
            c = M([[a, b], [b, d]])
        p = GramProblem(target_gram=c)
        for s in solve(p):
            assert verify_solution(p, s)


def test_failed_verification_raises(monkeypatch):
    monkeypatch.setattr(gram, "verify_solution", lambda p, s: False)
    with pytest.raises(InvariantError):
        solve(GramProblem(target_gram=M([[5, 2], [2, 4]])))


def test_invariant_checks_run_under_optimize():
    code = """
from blocksmith import InvariantError, IntMatrix, contrib, gram
c = IntMatrix.from_rows([[5, 2], [2, 4]])
q = IntMatrix.from_rows([[2, 1], [0, 1], [0, 1], [0, 1], [1, 0]])
gram.verify_solution = lambda p, s: False
contrib.adjugate_and_det = lambda m: (IntMatrix.identity(2).scale(16), 16)
for check in (lambda: gram.solve(gram.GramProblem(c)),
              lambda: contrib.contribution_matrix(q, c, 16)):
    try:
        check()
    except InvariantError:
        print("raised")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\n"
