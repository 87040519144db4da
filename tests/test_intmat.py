"""Exact linear algebra against independent oracles."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from blocksmith.intmat import (
    IntMatrix,
    MatrixError,
    adjugate,
    canonical_perm_form,
    det,
    elementary_divisors,
    is_indecomposable,
    is_positive_definite,
    is_positive_semidefinite,
    matrix_from_obj,
    matrix_to_obj,
    p_adic_valuation,
    scaled_inverse,
    smith_normal_form,
)

from blocksmith.casebook import _rule_from_obj

from conftest import (
    all_permutations_canonical_form,
    fraction_definiteness,
    graph_cartan,
    naive_det,
)


def random_matrix(rng, n, m, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
    )


def test_construction_rejects_bad_input():
    with pytest.raises(MatrixError):
        IntMatrix.from_rows([])
    with pytest.raises(MatrixError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(MatrixError):
        IntMatrix(((1.5,),))
    with pytest.raises(MatrixError):
        IntMatrix(((True,),))


@pytest.mark.parametrize("bad", [4.5, True, "4", None])
def test_every_outside_path_checks_each_entry(bad):
    rows = [[5, 2], [2, bad]]
    with pytest.raises(MatrixError, match="non-integer entry"):
        IntMatrix(((5, 2), (2, bad)))
    with pytest.raises(MatrixError, match="non-integer entry"):
        IntMatrix.from_rows(rows)
    with pytest.raises(MatrixError, match="non-integer entry"):
        matrix_from_obj(rows)
    with pytest.raises(MatrixError, match="non-integer entry"):
        matrix_from_obj({"rows": rows})
    with pytest.raises(MatrixError, match="non-integer entry"):
        _rule_from_obj(
            {"id": "r", "candidate": rows, "kind": "solver_run", "params": {}}
        )


def test_scale_checks_its_factor():
    m = IntMatrix.from_rows([[5, 2], [2, 4]])
    for bad in (4.5, "4", None):
        with pytest.raises(MatrixError, match="non-integer scale"):
            m.scale(bad)


def test_derived_matrices_equal_checked_constructions(rng):
    """Products, transposes, scalings, adjugates and canonical forms skip
    the entry check; each equals, and hashes like, the checked construction
    of the same entries, and holds plain ints."""
    for _ in range(50):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, m)
        sym = IntMatrix.from_rows(
            [[a.rows[min(i, j) % n][max(i, j) % k] for j in range(n)] for i in range(n)]
        )
        derived = [
            (a.matmul(b), [
                [sum(a.rows[i][t] * b.rows[t][j] for t in range(k)) for j in range(m)]
                for i in range(n)
            ]),
            (a.transpose(), [[a.rows[i][j] for i in range(n)] for j in range(k)]),
            (a.scale(-3), [[-3 * x for x in row] for row in a.rows]),
            (adjugate(sym), None),
            (canonical_perm_form(sym), None),
        ]
        for got, want in derived:
            checked = IntMatrix.from_rows(got.rows if want is None else want)
            assert got == checked and hash(got) == hash(checked)
            assert type(got.rows) is tuple
            assert all(type(row) is tuple for row in got.rows)
            assert all(type(x) is int for row in got.rows for x in row)


def test_matrix_is_hashable_and_frozen():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_obj_round_trip():
    m = IntMatrix.from_rows([[5, 2], [2, 4]])
    assert matrix_from_obj(matrix_to_obj(m)) == m
    assert matrix_from_obj([[5, 2], [2, 4]]) == m
    with pytest.raises(MatrixError):
        matrix_from_obj({"cols": [[1]]})
    with pytest.raises(MatrixError):
        matrix_from_obj("nope")


def test_det_matches_permutation_expansion(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == naive_det(m.to_lists())


def test_det_requires_square():
    with pytest.raises(MatrixError):
        det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_adjugate_identity(rng):
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -5, 5)
        d = det(m)
        assert m.matmul(adjugate(m)) == IntMatrix.identity(n).scale(d)
        assert adjugate(m).matmul(m) == IntMatrix.identity(n).scale(d)


def test_smith_normal_form_known_values():
    assert smith_normal_form(IntMatrix.from_rows([[7, 1], [1, 4]])).diagonal == (1, 27)
    assert smith_normal_form(
        IntMatrix.from_rows([[6, 0, 1], [0, 3, 1], [1, 1, 2]])
    ).diagonal == (1, 1, 27)
    assert elementary_divisors(IntMatrix.from_rows([[2, 0], [0, 2]])) == (2, 2)
    assert elementary_divisors(IntMatrix.from_rows([[2, 1], [1, 2]])) == (1, 3)


def test_smith_normal_form_properties(rng):
    # divisibility chain, nonnegativity, and exact reconstruction
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        res = smith_normal_form(a)
        diag = res.diagonal
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x != 0]
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        left, right = res.left_transform, res.right_transform
        assert abs(det(left)) == 1 and abs(det(right)) == 1
        assert left.matmul(a).matmul(right) == res.as_matrix((n, m))


def test_definiteness_against_fraction_pivots(rng):
    agree = {"pd": 0, "psd": 0, "indefinite": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            b = random_matrix(rng, rng.randint(1, n), n, -3, 3)
            m = b.transpose().matmul(b)  # PSD by construction
        else:
            m = random_matrix(rng, n, n, -4, 4)
            m = IntMatrix.from_rows(
                [
                    [m.rows[i][j] + m.rows[j][i] for j in range(n)]
                    for i in range(n)
                ]
            )
        verdict = fraction_definiteness(m.to_lists())
        agree[verdict] += 1
        assert is_positive_definite(m) == (verdict == "pd")
        assert is_positive_semidefinite(m) == (verdict in ("pd", "psd"))
    # the sample must exercise every class or the test proves nothing
    assert all(agree.values()), agree


def test_indecomposable():
    assert is_indecomposable(IntMatrix.from_rows([[2, 1], [1, 2]]))
    assert not is_indecomposable(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert is_indecomposable(IntMatrix.from_rows([[13]]))
    # chain connectivity: 0-1 and 1-2 linked, 0-2 not directly
    assert is_indecomposable(
        IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    )
    assert not is_indecomposable(
        IntMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    )


def test_scaled_inverse():
    a = IntMatrix.from_rows([[5, 2], [2, 4]])
    inv = scaled_inverse(a, 16)
    assert inv.denominator == 1
    assert a.matmul(inv.as_exact()) == IntMatrix.identity(2).scale(16)
    frac = scaled_inverse(a, 2)
    assert frac.denominator == 8
    with pytest.raises(MatrixError):
        frac.as_exact()
    with pytest.raises(MatrixError):
        scaled_inverse(a, 0)
    with pytest.raises(MatrixError):
        scaled_inverse(IntMatrix.from_rows([[1, 1], [1, 1]]), 1)


def test_canonical_perm_form_is_permutation_invariant(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        base = random_matrix(rng, n, n, 0, 4)
        sym = IntMatrix.from_rows(
            [
                [base.rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)
            ]
        )
        canon = canonical_perm_form(sym)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = IntMatrix.from_rows(
            [[sym.rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert canonical_perm_form(shuffled) == canon
        # the canonical form is itself in the permutation orbit
        orbit = {
            tuple(
                tuple(sym.rows[p[i]][p[j]] for j in range(n)) for i in range(n)
            )
            for p in itertools.permutations(range(n))
        }
        assert canon.rows in orbit


def tied_symmetric(n, integer):
    """Symmetric n x n matrix whose diagonal takes at most 3 values, so that
    blocks of equal diagonal entries are common. ``integer(lo, hi)`` draws
    from the closed range."""
    values = [integer(0, 6) for _ in range(integer(2, 3))]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = values[integer(0, len(values) - 1)]
        for j in range(i):
            rows[i][j] = rows[j][i] = integer(-1, 2)
    return rows


@given(st.data())
def test_canonical_perm_form_equals_all_permutations_oracle(data):
    def integer(lo, hi):
        return data.draw(st.integers(lo, hi))

    rows = tied_symmetric(integer(1, 6), integer)
    got = canonical_perm_form(IntMatrix.from_rows(rows))
    assert got.rows == all_permutations_canonical_form(rows)


def test_canonical_perm_form_equals_oracle_large(rng):
    for n in (7, 7, 7, 8, 8):
        rows = tied_symmetric(n, rng.randint)
        got = canonical_perm_form(IntMatrix.from_rows(rows))
        assert got.rows == all_permutations_canonical_form(rows)


def symmetric_graphs():
    """Graphs on 7 and 8 vertices with large automorphism groups, where many
    partial labellings tie at every row of the canonical form."""
    for n in (7, 8):
        yield f"cycle{n}", n, [(i, (i + 1) % n) for i in range(n)]
        yield f"star{n}", n, [(0, i) for i in range(1, n)]
        a = n // 2
        yield f"K{a},{n - a}", n, [(i, j) for i in range(a) for j in range(a, n)]
        yield f"K{n}", n, list(itertools.combinations(range(n), 2))
    cube = [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]
    yield "cube", 8, cube
    yield "two_4_cycles", 8, [(i, (i + 1) % 4) for i in range(4)] + [
        (4 + i, 4 + (i + 1) % 4) for i in range(4)
    ]
    yield "cocktail_party", 8, [
        (i, j) for i, j in itertools.combinations(range(8), 2) if j != i + 4
    ]


SYMMETRIC_GRAPHS = list(symmetric_graphs())


@pytest.mark.parametrize(
    "name, n, edges", SYMMETRIC_GRAPHS, ids=[g[0] for g in SYMMETRIC_GRAPHS]
)
def test_canonical_perm_form_on_symmetric_graphs(rng, name, n, edges):
    """Constant diagonal and a large automorphism group: every state of the
    row-by-row construction can survive many levels."""
    rows = graph_cartan(n, edges)
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    expected = all_permutations_canonical_form(rows)
    assert canonical_perm_form(IntMatrix.from_rows(rows)).rows == expected
    assert canonical_perm_form(IntMatrix.from_rows(shuffled)).rows == expected


def test_canonical_perm_form_on_defect_one_tree_cartans():
    """Every Brauer tree Cartan matrix classified for dimensions 20..34, in
    the labelling its tree gives it."""
    from blocksmith.brauer import cartan_of_tree, classify_defect1

    matrices = {
        cartan_of_tree(match.tree)
        for dim in range(20, 35)
        for match in classify_defect1(dim)
    }
    assert len(matrices) == 289
    for m in matrices:
        assert canonical_perm_form(m).rows == all_permutations_canonical_form(m.rows)


def test_p_adic_valuation():
    assert p_adic_valuation(16, 2) == 4
    assert p_adic_valuation(27, 3) == 3
    assert p_adic_valuation(5, 2) == 0
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)
