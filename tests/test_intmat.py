"""Exact linear algebra against independent oracles."""

import ast
import inspect
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from blocksmith.intmat import (
    IntMatrix,
    MatrixError,
    adjugate_and_det,
    canonical_perm,
    canonical_perm_form,
    elementary_divisors,
    is_connected,
    is_positive_definite,
    matrix_from_obj,
    p_adic_valuation,
    psd_rank,
    smith_normal_form,
)

import blocksmith
from blocksmith.cartan import enumerate_cartan, min_sum_for_l
from blocksmith.casebook import _rule_from_obj

from conftest import (
    accumulating_snf,
    all_permutations_canonical_form,
    determinantal_divisors,
    fraction_definiteness,
    graph_cartan,
    naive_adjugate,
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
            (adjugate_and_det(sym)[0], None),
            (canonical_perm_form(sym), None),
        ]
        for got, want in derived:
            checked = IntMatrix.from_rows(got.rows if want is None else want)
            assert got == checked and hash(got) == hash(checked)
            assert type(got.rows) is tuple
            assert all(type(row) is tuple for row in got.rows)
            assert all(type(x) is int for row in got.rows for x in row)


def test_is_symmetric():
    assert IntMatrix.from_rows([[2, 1, 0], [1, 3, -1], [0, -1, 4]]).is_symmetric
    assert not IntMatrix.from_rows([[2, 1, 0], [1, 3, -1], [0, 1, 4]]).is_symmetric
    assert not IntMatrix.from_rows([[1, 2], [2, 1], [0, 0]]).is_symmetric  # 3 x 2
    assert not IntMatrix.from_rows([[1, 2, 0], [2, 1, 0]]).is_symmetric  # 2 x 3
    assert IntMatrix.from_rows([[-7]]).is_symmetric


def test_package_exports_match_its_imports():
    """``__all__`` names exactly what ``__init__`` imports, plus the
    version, and every name in it resolves; a name dropped from a module
    cannot linger in one of the two lists."""
    tree = ast.parse(inspect.getsource(blocksmith))
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # sorted lists, not sets, so a name listed twice also fails
    assert sorted(blocksmith.__all__) == sorted(imported | {"__version__"})
    assert all(hasattr(blocksmith, name) for name in blocksmith.__all__)


def test_matrix_is_hashable_and_frozen():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_obj_round_trip():
    m = IntMatrix.from_rows([[5, 2], [2, 4]])
    assert matrix_from_obj({"rows": m.to_lists()}) == m
    assert matrix_from_obj([[5, 2], [2, 4]]) == m
    with pytest.raises(MatrixError):
        matrix_from_obj({"cols": [[1]]})
    with pytest.raises(MatrixError):
        matrix_from_obj("nope")


def test_det_matches_permutation_expansion(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert adjugate_and_det(m)[1] == naive_det(m.to_lists())


def test_det_requires_square():
    with pytest.raises(MatrixError):
        adjugate_and_det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_adjugate_identity(rng):
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, -5, 5)
        adj, d = adjugate_and_det(m)
        assert m.matmul(adj) == IntMatrix.identity(n).scale(d)
        assert adj.matmul(m) == IntMatrix.identity(n).scale(d)


def test_adjugate_and_det_match_cofactor_expansion(rng):
    """adj and det against the cofactor and permutation expansions on
    products B C of an n x r and an r x n matrix, r = n, n - 1, n - 2. Every
    rank class is met: rank n (det != 0), rank n - 1 (det = 0, adj of rank
    one) and rank <= n - 2 (adj = 0). ``test_adjugate_identity`` cannot
    tell these apart on a singular matrix, where m adj(m) = 0 = det(m) I."""
    for x in (0, 7, -3):
        assert adjugate_and_det(IntMatrix.from_rows([[x]])) == (IntMatrix.from_rows([[1]]), x)
    for n in range(1, 7):
        seen = set()
        for r in range(max(n - 2, 0), n + 1):
            for _ in range(10):
                b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
                c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
                rows = [[sum(row[t] * c[t][j] for t in range(r)) for j in range(n)] for row in b]
                m = IntMatrix.from_rows(rows)
                want_adj, want_det = naive_adjugate(rows), naive_det(rows)
                adj, d = adjugate_and_det(m)
                assert adj.to_lists() == want_adj
                assert d == want_det
                seen.add("n" if want_det else "n-1" if any(map(any, want_adj)) else "<=n-2")
        assert seen == ({"n", "n-1"} if n == 1 else {"n", "n-1", "<=n-2"})


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
        assert abs(adjugate_and_det(left)[1]) == 1
        assert abs(adjugate_and_det(right)[1]) == 1
        assert left.matmul(a).matmul(right) == res.as_matrix((n, m))


def snf_test_matrices(rng, n, m, count, lo=-9, hi=9):
    """``count`` random n x m row lists: a zero matrix, full-range random
    matrices with negative entries, and products of n x r by r x m matrices
    with r < min(n, m), which are rank-deficient."""
    out = [[[0] * m for _ in range(n)]]
    for i in range(1, count):
        r = rng.randint(1, min(n, m) - 1) if i % 3 == 0 and min(n, m) > 1 else 0
        if r:
            b = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
            c = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
            out.append(
                [[sum(b[i][u] * c[u][j] for u in range(r)) for j in range(m)] for i in range(n)]
            )
        else:
            out.append([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])
    return out


def test_smith_normal_form_matches_accumulating_oracle(rng):
    # the transforms are printed by the snf command, so they are pinned too
    seen = set()
    for n in range(1, 7):
        for m in range(1, 7):
            for rows in snf_test_matrices(rng, n, m, 16):
                res = smith_normal_form(IntMatrix.from_rows(rows))
                diagonal, left, right = accumulating_snf(rows)
                assert res.diagonal == diagonal
                assert res.left_transform.to_lists() == left
                assert res.right_transform.to_lists() == right
                zeros = diagonal.count(0)
                seen.add("zero" if zeros == len(diagonal) else "deficient" if zeros else "full")
    assert seen == {"zero", "deficient", "full"}


def test_elementary_divisors_match_determinantal_divisors(rng):
    seen = set()
    for n, m in itertools.product(range(1, 5), repeat=2):
        for rows in snf_test_matrices(rng, n, m, 188, -6, 6):
            if rng.random() < 0.3:
                s = rng.randint(2, 4)
                rows = [[s * x for x in row] for row in rows]
            divisors = elementary_divisors(IntMatrix.from_rows(rows))
            assert divisors == determinantal_divisors(rows), rows
            seen.add((len(divisors) < min(n, m), n == m))
            seen.add(len(set(divisors) - {1}) > 1)
    # singular and nonsingular, square and not, and more than one divisor > 1
    assert seen == {(True, True), (True, False), (False, True), (False, False), True, False}
    for total in range(13, 17):
        l = 1
        while min_sum_for_l(l) <= total:
            for c in enumerate_cartan(total, l):
                assert c.divisors == determinantal_divisors(c.matrix.rows)
            l += 1


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
        assert (psd_rank(m.to_lists()) is not None) == (verdict in ("pd", "psd"))
    # the sample must exercise every class or the test proves nothing
    assert all(agree.values()), agree


def test_indecomposable():
    assert is_connected(IntMatrix.from_rows([[2, 1], [1, 2]]).rows)
    assert not is_connected(IntMatrix.from_rows([[2, 0], [0, 2]]).rows)
    assert is_connected(IntMatrix.from_rows([[13]]).rows)
    # chain connectivity: 0-1 and 1-2 linked, 0-2 not directly
    assert is_connected(
        IntMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]).rows
    )
    assert not is_connected(
        IntMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 2]]).rows
    )


def shuffled_symmetric_matrices(rng):
    """200 random symmetric matrices up to 5 x 5 with entries 0..4, each
    with a random permutation of its indices."""
    for _ in range(200):
        n = rng.randint(1, 5)
        base = random_matrix(rng, n, n, 0, 4)
        sym = IntMatrix.from_rows(
            [
                [base.rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)
            ]
        )
        perm = list(range(n))
        rng.shuffle(perm)
        yield sym, perm


def test_canonical_perm_form_is_permutation_invariant(rng):
    for sym, perm in shuffled_symmetric_matrices(rng):
        n = sym.row_count
        canon = canonical_perm_form(sym)
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


def test_canonical_perm_conjugates_to_the_canonical_form(rng):
    """canonical_perm is a permutation of the indices, and conjugating by
    it gives the canonical form, which the all-permutations oracle agrees
    with; conjugate puts entry (perm[i], perm[j]) at (i, j)."""
    for sym, perm in shuffled_symmetric_matrices(rng):
        n = sym.row_count
        shuffled = sym.conjugate(perm)
        assert shuffled.rows == tuple(
            tuple(sym.rows[perm[i]][perm[j]] for j in range(n)) for i in range(n)
        )
        for m in (sym, shuffled):
            order = canonical_perm(m)
            assert isinstance(order, tuple) and sorted(order) == list(range(n))
            assert m.conjugate(order) == canonical_perm_form(m)
            assert m.conjugate(order).rows == all_permutations_canonical_form(m.rows)


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
