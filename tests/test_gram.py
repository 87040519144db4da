"""Gram decomposition solver: exact solution sets, pinned searches,
orthogonal columns, and verification."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

import blocksmith
from blocksmith import (
    ContributionError,
    GramInputError,
    GramProblem,
    GramSolution,
    IntMatrix,
    InvariantError,
    contrib,
    contribution_matrix,
    gram,
    solve,
    solve_orthogonal_column,
    verify_solution,
)
from blocksmith.gram import _quad_limit, row_quad
from blocksmith.intmat import adjugate_and_det

from conftest import (
    adj_det,
    expanding_solve,
    gram2_decompositions,
    naive_adjugate,
    naive_det,
    orthogonal_column_oracle,
    pinned_gram_oracle,
    pinned_gram_orbit,
    plain_contribution,
    plain_orthogonal_column,
    plain_verify,
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
    adj, d = adjugate_and_det(c)
    q = IntMatrix.from_rows([[1, 2], [2, 0]])
    assert q.transpose().matmul(q) == c
    assert row_quad((1, 2), adj) == d
    assert not row_quad((1, 2), adj) <= _quad_limit(d)
    assert row_quad((2, 1), adj) <= _quad_limit(d)
    # determinant 1 allows saturation, otherwise nothing decomposes [[1]]
    one = M([[1]])
    adj, d = adjugate_and_det(one)
    assert row_quad((1,), adj) <= _quad_limit(d)
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


@given(st.data())
def test_sign_patterns_are_the_column_negations_fixing_c(data):
    """``_sign_patterns(C)`` is, as a set and without repeats, every
    S in {+-1}^l with S C S = C, the identity first: random symmetric C
    with l <= 6, half of them cut into zero blocks by a label per index."""
    l = data.draw(st.integers(1, 6))
    rows = [[0] * l for _ in range(l)]
    labels = data.draw(st.lists(st.integers(0, 2), min_size=l, max_size=l))
    blocks = data.draw(st.booleans())
    for i in range(l):
        for j in range(i, l):
            x = data.draw(st.integers(-2, 2))
            rows[i][j] = rows[j][i] = 0 if blocks and labels[i] != labels[j] else x
    c = M(rows)
    patterns = gram._sign_patterns(c)
    brute = {
        s
        for s in itertools.product((1, -1), repeat=l)
        if all(s[i] * x * s[j] == x for i, row in enumerate(rows) for j, x in enumerate(row))
    }
    assert patterns[0] == (1,) * l
    assert len(patterns) == len(set(patterns))
    assert set(patterns) == brute


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


def test_orthogonal_column_input_validation():
    q = M([[1, 0], [0, 1], [1, 1]])
    for value in (0, -4):
        with pytest.raises(GramInputError, match="gram value must be positive"):
            solve_orthogonal_column(q, value)
    for rows in ({3}, {-1}):
        with pytest.raises(GramInputError, match="zero-row index out of range"):
            solve_orthogonal_column(q, 3, zero_rows=rows)


def test_orthogonal_column_rechecks_every_column():
    """A find of the kernel corrupted in one entry never comes back as a
    column. On the 7-row Q1 with g = 9 (6 columns), each change by +-1 of
    each entry of each find either raises InvariantError or leaves only
    true columns."""
    q7 = M([[2, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [1, 1]])
    search = gram._kernel.search_rows
    finds = []

    def spy(*args):
        finds.extend(search(*args))
        return list(finds)

    with mock.patch.object(gram._kernel, "search_rows", spy):
        truth = solve_orthogonal_column(q7, 9, zero_rows={6})
    assert len(truth) == 6
    raised = 0
    for i, rows in enumerate(finds):
        for j, (x,) in enumerate(rows):
            for delta in (1, -1):
                bad = list(finds)
                bad[i] = (*rows[:j], (x + delta,), *rows[j + 1:])
                with mock.patch.object(gram._kernel, "search_rows", return_value=bad):
                    try:
                        cols = solve_orthogonal_column(q7, 9, zero_rows={6})
                    except InvariantError:
                        raised += 1
                    else:
                        assert set(cols) <= set(truth)
    assert raised


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


@given(st.data())
def test_orthogonal_column_matches_plain_search_on_repeated_rows(data):
    """solve_orthogonal_column, which searches one arrangement per class of
    equal rows and expands it, lists exactly the columns of the plain
    one-entry-per-index search, in its order. Q1's k <= 12 rows are drawn
    from an alphabet of 1-3 rows, so classes have several members, and the
    forced zeros are drawn over all indices, so they sometimes split a
    class into a free part and a zero part."""
    draw = data.draw
    width = draw(st.integers(1, 3))
    alphabet = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=width, max_size=width),
            min_size=1,
            max_size=3,
        )
    )
    k = draw(st.integers(1, 12))
    q1 = [draw(st.sampled_from(alphabet)) for _ in range(k)]
    signed = draw(st.booleans())
    g = draw(st.integers(1, 9))
    zero_rows = draw(st.sets(st.integers(0, k - 1), max_size=k // 2))
    assert solve_orthogonal_column(
        M(q1), g, signed=signed, zero_rows=zero_rows
    ) == plain_orthogonal_column(q1, g, signed, zero_rows)


def test_orthogonal_column_casebook_inputs_match_plain_search():
    """The two calls of the dimension-13 casebook on the det-27 candidate
    [[7,1],[1,4]]: rule d13-27-c2-column (the 10-row Q1, entry 0 forced to
    zero) has no column, and rule d13-27-c8-column (the 7-row Q1, entry 1
    forced to zero) has six."""
    q10 = [[1, 1]] + [[1, 0]] * 6 + [[0, 1]] * 3
    assert solve_orthogonal_column(M(q10), 9, zero_rows={0}) == []
    assert plain_orthogonal_column(q10, 9, True, {0}) == []
    q7 = [[2, 0], [1, 1], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]]
    cols = solve_orthogonal_column(M(q7), 9, zero_rows={1})
    assert cols == plain_orthogonal_column(q7, 9, True, {1})
    assert cols == [
        (1, 0, -1, -1, 2, -1, -1),
        (1, 0, -1, -1, 1, 1, -2),
        (1, 0, -1, -1, 1, -2, 1),
        (1, 0, -1, -1, -1, 2, -1),
        (1, 0, -1, -1, -1, -1, 2),
        (1, 0, -1, -1, -2, 1, 1),
    ]


def test_orthogonal_column_expands_a_class_of_sixteen_rows():
    """Sixteen equal rows form one class: its columns of norm 2 are the 120
    pairs of one 1 and one -1 with the 1 first. Expanding through every
    permutation of the 16 entries instead of the distinct ones would take
    16! steps."""
    start = time.perf_counter()
    cols = solve_orthogonal_column(M([[1]] * 16), 2)
    assert time.perf_counter() - start < 1.0
    assert cols == sorted(
        (
            tuple(1 if t == i else -1 if t == j else 0 for t in range(16))
            for i, j in itertools.combinations(range(16), 2)
        ),
        reverse=True,
    )


def test_verify_solution_rejects_wrong_answers():
    c = M([[5, 2], [2, 4]])
    p = GramProblem(target_gram=c)
    good = solve(p)[0]
    assert verify_solution(p, good)
    wrong_gram = GramSolution(q=M([[1, 0], [0, 1]]))
    assert not verify_solution(p, wrong_gram)
    negative = GramSolution(q=M([[2, 1], [-1, 0], [0, 1], [0, 1], [0, 1]]))
    assert not verify_solution(p, negative)
    zero_row = GramSolution(q=M([[2, 1], [1, 0], [0, 1], [0, 1], [0, 1], [0, 0]]))
    assert not verify_solution(p, zero_row)
    # the Gram matrix is right, but row (1, 2) has r.adj(C).r^t = det C = 16
    saturated = GramSolution(q=M([[2, 0], [1, 2]]))
    assert saturated.q.transpose().matmul(saturated.q) == c
    assert not verify_solution(p, saturated)
    # row counts: exact, and a window
    assert verify_solution(GramProblem(target_gram=c, row_count=5), good)
    assert not verify_solution(GramProblem(target_gram=c, row_count=7), good)
    assert verify_solution(GramProblem(target_gram=c, row_count=(4, 6)), good)
    assert not verify_solution(GramProblem(target_gram=c, row_count=(6, 9)), good)
    # a forced zero row that is not zero
    padded = GramSolution(q=M(list(good.q.rows) + [[0, 0]]))

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
    # the row table belongs to one problem: row (2,) is over the bound of
    # [[4]] (r.adj.r^t = 4 = det) and within that of [[5]], so a verdict
    # carried from one target to the other would show, in either order
    for targets in ([[5]], [[4]]), ([[4]], [[5]]):
        problems = [GramProblem(target_gram=M(t)) for t in targets]
        for t, p in zip(targets, problems):
            for rows in ([(2,), (1,)], [(2,)]):
                assert verify_solution(p, GramSolution(q=M(rows))) == plain_verify(
                    rows, t, naive_adjugate(t), naive_det(t)
                )
    # a row the pool never built: the zero row, allowed here
    cl = c.to_lists()
    for sign_mode in ("nonnegative", "signed"):
        for nonzero in (False, True):
            p = GramProblem(
                target_gram=c, sign_mode=sign_mode, require_nonzero_rows=nonzero
            )
            assert verify_solution(p, padded) == plain_verify(
                padded.q.rows, cl, naive_adjugate(cl), naive_det(cl),
                signed=sign_mode == "signed", require_nonzero_rows=nonzero,
            ) == (not nonzero)
    # the zero row keeps no row bound, even where det C <= 0 leaves no
    # nonzero row within it
    for t in ([[0]], [[0, 0], [0, 0]]):
        zeros = [(0,) * len(t)]
        p = GramProblem(target_gram=M(t), require_nonzero_rows=False)
        assert verify_solution(p, GramSolution(q=M(zeros))) == plain_verify(
            zeros, t, naive_adjugate(t), naive_det(t), require_nonzero_rows=False
        ) is True
    # a row the sign check rejects never enters the problem's row table
    p = GramProblem(target_gram=c)
    assert not verify_solution(p, negative)
    assert (-1, 0) not in p._checks[4]


def test_input_validation():
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[1, 2], [3, 4]])))  # not symmetric
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[-1]])))  # not positive definite
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[2, 1], [1, 2]]), sign_mode="odd"))
    with pytest.raises(GramInputError):
        solve(GramProblem(target_gram=M([[2, 1], [1, 2]]), row_count=0))
    # an empty diagonal pins 0 rows: refused like row_count=0, not proved empty
    with pytest.raises(GramInputError, match="diag constraints must not be empty"):
        solve(GramProblem(target_gram=M([[2]]), diag_constraints=(), defect_order=2))


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


def test_signed_searches_with_fixed_rows_match_oracles(rng):
    """Seeded draws of the searches where the kernel walks one find of each
    -I pair. Signed pinned problems, C = Q0^t Q0 with l <= 2 and k <= 4
    rows, one fixed block with a nonzero row (mostly orthogonal to Q0),
    forced zero rows among Q0's zero rows and now and then Q0's own
    contribution diagonal: the solutions are ``expanding_solve``'s, which
    walks one slot per row and both members of each pair, in its order,
    and each matrix ``pinned_gram_oracle`` lists lies in the orbit of
    exactly one of them. Signed columns against a Q1 of k <= 5 nonzero
    rows, g <= 9: the columns are ``orthogonal_column_oracle``'s. The
    draws keep each brute force small: trace C <= 10."""
    pinned = columns = 0
    for _ in range(300):
        l, k = rng.randint(1, 2), rng.randint(2, 4)
        q0 = [tuple(rng.randint(-2, 2) for _ in range(l)) for _ in range(k)]
        c = [[sum(r[i] * r[j] for r in q0) for j in range(l)] for i in range(l)]
        adj, det_c = adj_det(c)
        if det_c <= 0 or sum(c[j][j] for j in range(l)) > 10:
            continue
        vectors = [v for v in itertools.product((-1, 0, 1), repeat=k) if any(v)]
        orthogonal = [
            v for v in vectors
            if all(sum(v[t] * q0[t][j] for t in range(k)) == 0 for j in range(l))
        ]
        cols = [
            rng.choice(orthogonal if orthogonal and rng.random() < 0.8 else vectors)
            for _ in range(rng.randint(1, 2))
        ]
        block = [[col[i] for col in cols] for i in range(k)]
        zero_rows = {i for i in range(k) if not any(q0[i]) and rng.random() < 0.5}
        require_nonzero_rows = all(map(any, q0)) and rng.random() < 0.5
        diag = defect_order = None
        if rng.random() < 0.3:
            defect_order = det_c
            diag = [quad(r, adj) for r in q0]
        problem = GramProblem(
            target_gram=M(c),
            sign_mode="signed",
            row_count=k,
            require_nonzero_rows=require_nonzero_rows,
            fixed_blocks=(M(block),),
            diag_constraints=None if diag is None else tuple(diag),
            defect_order=defect_order,
            zero_rows=frozenset(zero_rows),
        )
        got = [s.q.rows for s in solve(problem)]
        assert got == expanding_solve(problem)
        expected = pinned_gram_oracle(
            c, k, True, [block], diag, defect_order, zero_rows, require_nonzero_rows
        )
        orbits = [pinned_gram_orbit(q, c, True, [block], diag, zero_rows) for q in got]
        for q in expected:
            assert sum(q in orbit for orbit in orbits) == 1, q
        for orbit in orbits:
            assert orbit <= expected
        pinned += bool(got)
    for _ in range(200):
        k, width = rng.randint(1, 5), rng.randint(1, 2)
        q1 = [[rng.randint(-1, 1) for _ in range(width)] for _ in range(k)]
        if not any(map(any, q1)):
            continue
        g = rng.randint(1, 9)
        zero_rows = {i for i in range(k) if rng.random() < 0.2}
        found = solve_orthogonal_column(M(q1), g, signed=True, zero_rows=zero_rows)
        assert found == orthogonal_column_oracle(q1, g, True, zero_rows)
        columns += bool(found)
    assert pinned >= 10 and columns >= 10


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


@st.composite
def targets_sharing_rows(draw):
    """Two to four positive definite targets C = Q^t Q, l <= 3, whose Q
    take their rows (negative entries and the zero row allowed) from one
    small shared alphabet, so rows recur across different adjugates."""
    l = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-2, 2)] * l)
    alphabet = draw(st.lists(row, min_size=l, max_size=5, unique=True)) + [(0,) * l]
    out = []
    for _ in range(draw(st.integers(2, 4))):
        q = draw(st.lists(st.sampled_from(alphabet), min_size=l, max_size=6))
        c = [[sum(r[i] * r[j] for r in q) for j in range(l)] for i in range(l)]
        if naive_det(c) > 0:
            out.append((q, c))
    assume(len(out) >= 2)
    return out


def _contribution_or_law(q, c, defect_order):
    try:
        return contribution_matrix(M(q), M(c), defect_order).matrix.to_lists()
    except ContributionError as e:
        return "gram" if "reproduce" in str(e) else "integral"
    except InvariantError as e:
        return next(law for law in ("symmetric", "idempotent", "trace") if law in str(e))


@given(targets_sharing_rows(), st.data())
def test_row_form_readers_match_plain_products(targets, data):
    # each target is checked with its own adjugate and then with the next
    # target's, returned by a patched row_forms: the values read must be
    # those of the adjugate the caller got
    adjs = [(naive_adjugate(c), naive_det(c)) for _, c in targets]
    for t, (q, c) in enumerate(targets):
        for adj, d in (adjs[t], adjs[(t + 1) % len(targets)]):
            def fake(m, adj=M(adj), d=d):
                return gram.RowForms(adj, d)

            with mock.patch.object(gram, "row_forms", fake), mock.patch.object(
                contrib, "row_forms", fake
            ):
                defect_order = data.draw(st.sampled_from([adjs[t][1], 1, 2, 3]))
                expected = plain_contribution(q, c, adj, d, defect_order)
                assert _contribution_or_law(q, c, defect_order) == expected
                negated = [tuple(-x for x in q[0])] + q[1:]
                for rows in (q, negated):
                    signed = data.draw(st.booleans())
                    nonzero = data.draw(st.booleans())
                    diag = None
                    if isinstance(expected, list) and data.draw(st.booleans()):
                        diag = tuple(expected[i][i] for i in range(len(rows)))
                    p = GramProblem(
                        target_gram=M(c),
                        sign_mode="signed" if signed else "nonnegative",
                        require_nonzero_rows=nonzero,
                        diag_constraints=diag,
                        defect_order=defect_order if diag else None,
                    )
                    s = GramSolution(q=M(rows))
                    assert verify_solution(p, s) == plain_verify(
                        rows, c, adj, d, signed=signed, require_nonzero_rows=nonzero,
                        diag=diag, defect_order=defect_order,
                    )
                    if len(c) > 1:
                        # a non-symmetric C whose upper triangle is Q^t Q's
                        skew = [list(r) for r in c]
                        skew[1][0] += 1
                        bad = GramProblem(target_gram=M(skew), sign_mode=p.sign_mode)
                        assert not verify_solution(bad, s)


# Row-form evaluations of the signed solve of the criterion-8a target: the
# nonzero rows of its box |r_i| <= isqrt(C_ii), 5 * 5 * 7 - 1. Evaluated
# once per row of each solution, the row bound alone made 224,970.
ROW_FORM_CEILING = 174


def test_signed_8a_solve_evaluates_each_box_row_once(monkeypatch):
    calls = 0
    evaluate = gram.row_quad

    def counting_row_quad(*args):
        nonlocal calls
        calls += 1
        return evaluate(*args)

    monkeypatch.setattr(gram, "row_quad", counting_row_quad)
    gram.row_forms.cache_clear()
    c = M([[7, 1, 0], [1, 4, 0], [0, 0, 9]])
    assert len(solve(GramProblem(target_gram=c, sign_mode="signed"))) == 28306
    assert calls <= ROW_FORM_CEILING


def test_failed_verification_raises(monkeypatch):
    monkeypatch.setattr(gram, "verify_solution", lambda p, s: False)
    with pytest.raises(InvariantError):
        solve(GramProblem(target_gram=M([[5, 2], [2, 4]])))


@pytest.mark.parametrize(
    "problem, corrupt",
    [
        # one entry off by one: row (1, 0) of the first form, ((2, 1),
        # (1, 0), (0, 1), ...), becomes (1, 1), a valid row, so only
        # Q^t Q = C fails
        (
            GramProblem(target_gram=M([[5, 2], [2, 4]]), sign_mode="signed"),
            lambda form: (form[0], (1, 1), *form[2:]),
        ),
        # forced zero row 2 made nonzero; Q^t Q and the row count still hold
        (
            GramProblem(
                target_gram=M([[2]]),
                row_count=3,
                require_nonzero_rows=False,
                zero_rows=frozenset({2}),
            ),
            lambda form: (form[0], form[2], form[1]),
        ),
        # (2,) has r.adj(C).r^t = 4 = det C; Q^t Q = C still holds
        (GramProblem(target_gram=M([[4]])), lambda form: ((2,),)),
    ],
    ids=["entry", "forced-zero", "row-bound"],
)
def test_solve_rejects_a_corrupted_form(monkeypatch, problem, corrupt):
    # solve's own check must catch a bad form, not only a verify_solution
    # patched to answer False
    forms = gram._canonical_forms

    def corrupted(p):
        out = forms(p)
        out[0] = corrupt(out[0])
        return out

    monkeypatch.setattr(gram, "_canonical_forms", corrupted)
    with pytest.raises(InvariantError):
        solve(problem)


def test_solve_verifies_each_solution_once(monkeypatch):
    calls = 0
    check = gram.verify_solution

    def counting(p, s):
        nonlocal calls
        calls += 1
        return check(p, s)

    monkeypatch.setattr(gram, "verify_solution", counting)
    # the 10-row decomposition of [[7, 1], [1, 4]] as a fixed block, as in
    # casebook rule d13-27-d8-fake
    q1 = M([[1, 1]] + [[1, 0]] * 6 + [[0, 1]] * 3)
    problems = [
        GramProblem(target_gram=M([[6, 1, 0], [1, 2, 1], [0, 1, 2]]), sign_mode="signed"),
        GramProblem(
            target_gram=M([[5, 1], [1, 2]]),
            sign_mode="signed",
            require_nonzero_rows=False,
            fixed_blocks=(q1,),
        ),
        GramProblem(target_gram=M([[7, 1, 0], [1, 4, 0], [0, 0, 9]]), sign_mode="signed"),
    ]
    for p in problems:
        twin = GramProblem(**{f.name: getattr(p, f.name) for f in dataclasses.fields(p)})
        calls = 0
        solutions = solve(p)
        assert solutions and calls == len(solutions)
        # the verify data cached on the problem is not a field
        assert "_checks" in vars(p) and "_checks" not in vars(twin)
        assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
    assert calls == 28306


def test_solution_order_is_the_repr_order():
    # solve sorts by row count, then by the rank of each row in the repr
    # order of the distinct rows; that must be the order of (row count,
    # repr of the rows), where "-1" sorts before "0", "10" before "2", and
    # a row of one entry is "(5,)"
    rng = random.Random(1807)
    seen = set()
    differ = 0
    for _ in range(400):
        l = rng.randint(1, 4)
        values = rng.sample(range(-12, 13), rng.randint(2, 5))
        rows = [tuple(rng.choice(values) for _ in range(l)) for _ in range(rng.randint(1, 6))]
        forms = list(
            {
                tuple(rng.choice(rows) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 40))
            }
        )
        expected = sorted(forms, key=lambda rows: (len(rows), repr(rows)))
        differ += expected != sorted(forms, key=lambda rows: (len(rows), rows))
        gram._sort_forms(forms)
        assert forms == expected
        seen.update(values)
    assert {-1, 0, 2, 5, 10} <= seen
    assert differ > 100


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant check must raise
    package = Path(blocksmith.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert package / "intmat.py" in sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floating_point_in_the_package():
    # intmat and the README promise exact arithmetic: no float constant, no
    # true division, no float() and no infinity anywhere in the package
    package = Path(blocksmith.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert package / "_kernel_py.py" in sources
    names = {"float", "inf"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert found == []


def test_no_private_name_goes_unreferenced_in_the_package():
    # a private top-level function, class or constant that nothing in the
    # package reads is a leftover of a removed code path
    package = Path(blocksmith.__file__).parent
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))]
    assert len(trees) >= 10
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert "_row_pool" in private
    assert sorted(private - read) == []


def test_invariant_checks_run_under_optimize():
    code = """
from blocksmith import InvariantError, IntMatrix, contrib, gram
c = IntMatrix.from_rows([[5, 2], [2, 4]])
q = IntMatrix.from_rows([[2, 1], [0, 1], [0, 1], [0, 1], [1, 0]])
gram.verify_solution = lambda p, s: False
contrib.row_forms = lambda m: gram.RowForms(IntMatrix.identity(2).scale(16), 16)
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
