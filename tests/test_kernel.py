"""The Gram-search kernel, the sign-representative search built on it and
the sign classes built from its sequences."""

import itertools
from math import isqrt

import pytest
from hypothesis import assume, given, strategies as st

from blocksmith import IntMatrix
from blocksmith import _kernel, _kernel_py
from blocksmith.cartan import enumerate_cartan, filter_block_feasible, min_sum_for_l
from blocksmith.gram import GramProblem, _row_pool, _solve_free, row_quad, solve
from blocksmith.intmat import adjugate_and_det, is_positive_definite

from conftest import expanding_solve, unpruned_search_rows

TARGETS = [
    [[5, 2], [2, 4]],
    [[7, 1], [1, 4]],
    [[2, 1], [1, 2]],
    [[5, 1, 1], [1, 2, 0], [1, 0, 2]],
    [[6, 1, 0], [1, 2, 1], [0, 1, 2]],
    [[5, 1, 1], [1, 3, 0], [1, 0, 2]],
    [[3, 1, 1], [1, 2, 1], [1, 1, 2]],
]

# Candidate Cartan matrices of entry sum 13 and 14, one to four simple
# modules; the last one has no signed decomposition at all.
CARTAN_CANDIDATES = [
    [[13]],
    [[8, 1], [1, 4]],
    [[3, 2, 0], [2, 2, 1], [0, 1, 2]],
    [[4, 1, 1], [1, 3, 0], [1, 0, 3]],
    [[2, 1, 1, 0], [1, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 2]],
    [[3, 1, 2], [1, 3, 0], [2, 0, 2]],
]


def test_python_backend_always_available():
    assert _kernel.available_backends() == ("python",)


def sign_orbit(rows, c):
    """The sorted images of a row sequence under every column negation S
    with S c S = c."""
    l = len(c)
    patterns = [
        s for s in itertools.product((1, -1), repeat=l)
        if all(s[i] * s[j] * c[i][j] == c[i][j] for i in range(l) for j in range(l))
    ]
    return {
        tuple(sorted((tuple(s * x for s, x in zip(pat, r)) for r in rows), reverse=True))
        for pat in patterns
    }


@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES)
def test_sign_representative_search_matches_full_pool(target):
    """Every sequence of the full-pool search lies in the sign orbit of
    exactly one sequence the representative search returns, and that
    sequence is the largest of its orbit."""
    c = IntMatrix.from_rows(target)
    full = _kernel.search_rows(target, [_row_pool(c, signed=True)] * c.trace(), 1)
    classes = _solve_free(GramProblem(target_gram=c, sign_mode="signed"))
    orbits = [sign_orbit(rows, target) for rows in classes]
    assert all(rows == max(orbit) for rows, orbit in zip(classes, orbits))
    assert sum(map(len, orbits)) == len(full) == len(set(full))
    assert set().union(*orbits) == set(full)


EIGHT_A_TARGET = [[7, 1, 0], [1, 4, 0], [0, 0, 9]]


def solved_rows(problem):
    return [s.q.rows for s in solve(problem)]


@pytest.mark.parametrize("sign_mode", ["nonnegative", "signed"])
@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES)
def test_sign_classes_match_expanding_solve(target, sign_mode):
    problem = GramProblem(target_gram=IntMatrix.from_rows(target), sign_mode=sign_mode)
    assert solved_rows(problem) == expanding_solve(problem)


def test_sign_classes_match_expanding_solve_on_8a_target():
    # disconnected: four sign patterns, 113,224 expansions, 28,306 classes
    problem = GramProblem(
        target_gram=IntMatrix.from_rows(EIGHT_A_TARGET), sign_mode="signed"
    )
    got = solved_rows(problem)
    assert len(got) == 28306
    assert got == expanding_solve(problem)


def test_row_count_window():
    target = [[5, 2], [2, 4]]
    pool = _row_pool(IntMatrix.from_rows(target), signed=False)
    everything = _kernel.search_rows(target, [pool] * 9, 1)
    only5 = _kernel.search_rows(target, [pool] * 5, 5)
    assert only5 == [rows for rows in everything if len(rows) == 5]
    assert _kernel.search_rows(target, [pool] * 4, 1) == [
        rows for rows in everything if len(rows) <= 4
    ]


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES)
def test_reach_prune_matches_unpruned_search(target, signed):
    c = IntMatrix.from_rows(target)
    slots = [_row_pool(c, signed)] * c.trace()
    assert _kernel.search_rows(target, slots, 1) == unpruned_search_rows(
        target, slots, 1
    )


def gram_of(q0, l):
    return [[sum(r[i] * r[j] for r in q0) for j in range(l)] for i in range(l)]


def box(c, signed):
    """Every row whose squares fit the diagonal of c, sorted decreasing."""
    bounds = [isqrt(c[j][j]) for j in range(len(c))]
    ranges = [range(-b if signed else 0, b + 1) for b in bounds]
    return sorted(itertools.product(*ranges), reverse=True)


@given(st.data())
def test_reach_prune_matches_unpruned_free_search(data):
    """Free problems: one list shared by every slot, a row-count window."""
    draw = data.draw
    l = draw(st.integers(1, 3))
    signed = draw(st.booleans())
    entries = st.integers(-2, 2) if signed else st.integers(0, 2)
    q0 = draw(st.lists(st.tuples(*[entries] * l), min_size=1, max_size=3))
    c = gram_of(q0, l)
    pool = [r for r in box(c, signed) if any(r)]
    if draw(st.booleans()):
        keep = draw(st.randoms(use_true_random=False))
        pool = [r for r in pool if r in q0 or keep.random() < 0.6]
    hi = draw(st.integers(1, sum(c[j][j] for j in range(l)) + 1))
    lo = draw(st.integers(1, hi))
    slots = [pool] * hi
    assert _kernel.search_rows(c, slots, lo) == unpruned_search_rows(c, slots, lo)


@given(st.data())
def test_reach_prune_matches_unpruned_pinned_search(data):
    """Pinned problems: each row group has its own list (the zero row
    alone, the rows of a box with or without the zero row, or a subset of
    them), groups need not be consecutive, and fixed columns are mostly
    drawn orthogonal to a known solution Q0."""
    draw = data.draw
    l = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    signed = draw(st.booleans())
    entries = st.integers(-2, 2) if signed else st.integers(0, 2)
    q0 = [draw(st.tuples(*[entries] * l)) for _ in range(k)]
    c = gram_of(q0, l)
    full = box(c, signed)
    zero = (0,) * l
    lists = {}
    for g in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["zero", "nonzero", "with_zero", "subset"]))
        if kind == "zero":
            lists[g] = [zero]
        elif kind == "nonzero":
            lists[g] = [r for r in full if any(r)]
        elif kind == "with_zero":
            lists[g] = list(full)
        else:
            keep = draw(st.randoms(use_true_random=False))
            lists[g] = [r for r in full if r in q0 or keep.random() < 0.5]
    slots = [lists[draw(st.sampled_from(sorted(lists)))] for _ in range(k)]
    vectors = list(itertools.product((-1, 0, 1), repeat=k))
    orthogonal = [
        v for v in vectors
        if all(sum(v[t] * q0[t][j] for t in range(k)) == 0 for j in range(l))
    ]
    cols = [
        draw(st.sampled_from(orthogonal if draw(st.booleans()) else vectors))
        for _ in range(draw(st.integers(0, 2)))
    ]
    assert _kernel.search_rows(c, slots, k, cols) == unpruned_search_rows(
        c, slots, k, cols
    )


def drawn_q0(draw, l, k_max):
    """A list of rows Q0 on l columns, entries in -2..2. Half the time the
    columns are cut in two blocks and each row lives on one block, so that
    Q0^t Q0 is most likely disconnected. Each block gets 2..k_max rows: a
    lone row would reach the row bound r.adj(C).r^t < det C."""
    entries = st.integers(-2, 2)
    if l == 1 or draw(st.booleans()):
        return draw(st.lists(st.tuples(*[entries] * l), min_size=2, max_size=k_max))
    cut = draw(st.integers(1, l - 1))
    q0 = []
    for lead, width in ((0, cut), (cut, l - cut)):
        part = st.tuples(*[entries] * width).filter(any)
        for _ in range(draw(st.integers(2, k_max))):
            q0.append((0,) * lead + draw(part) + (0,) * (l - lead - width))
    return draw(st.permutations(q0))


@given(st.data())
def test_sign_classes_match_expanding_solve_drawn(data):
    """Signed free problems with C = Q0^t Q0 for a drawn Q0 (``drawn_q0``:
    2 or 4 sign patterns, now and then 8): no row count, an exact count or
    a window, mostly around the row count of Q0, with or without zero
    rows."""
    draw = data.draw
    l = draw(st.integers(1, 3))
    q0 = drawn_q0(draw, l, 3)
    c = gram_of(q0, l)
    target = IntMatrix.from_rows(c)
    assume(sum(c[j][j] for j in range(l)) <= 14 and is_positive_definite(target))
    near = st.sampled_from([True, True, True, False])
    k0 = len(q0) if draw(near) else draw(st.integers(1, target.trace() + 1))
    row_count = draw(st.sampled_from(["none", "exact", "window"]))
    if row_count == "exact":
        row_count = k0 + draw(st.integers(0, 2))
    elif row_count == "window":
        lo = draw(st.integers(1, k0))
        row_count = (lo, k0 + draw(st.integers(0, 2)))
    else:
        row_count = None
    problem = GramProblem(
        target_gram=target,
        sign_mode="signed",
        row_count=row_count,
        require_nonzero_rows=draw(st.booleans()),
    )
    assert solved_rows(problem) == expanding_solve(problem)


@given(st.data())
def test_sign_classes_match_expanding_solve_pinned(data):
    """Signed pinned problems with C = Q0^t Q0 for a drawn Q0 of k rows:
    fixed blocks mostly orthogonal to Q0, forced zero rows mostly among its
    zero rows, and diagonal constraints mostly its own contributions."""
    draw = data.draw
    l = draw(st.integers(1, 2))
    q0 = drawn_q0(draw, l, 2)
    k = len(q0)
    c = gram_of(q0, l)
    target = IntMatrix.from_rows(c)
    assume(is_positive_definite(target))
    near = st.sampled_from([True, True, True, False])
    vectors = list(itertools.product((-1, 0, 1), repeat=k))
    orthogonal = [
        v for v in vectors
        if all(sum(v[t] * q0[t][j] for t in range(k)) == 0 for j in range(l))
    ]
    fixed = []
    for width in draw(st.lists(st.integers(1, 2), max_size=2)):
        cols = [
            draw(st.sampled_from(orthogonal if draw(near) else vectors))
            for _ in range(width)
        ]
        fixed.append(IntMatrix.from_rows([[col[i] for col in cols] for i in range(k)]))
    zero_pool = [i for i in range(k) if not any(q0[i])] if draw(near) else range(k)
    zero_rows = draw(st.sets(st.sampled_from(list(zero_pool) or [0]), max_size=k))
    diag = defect_order = None
    if draw(st.booleans()):
        adj, d = adjugate_and_det(target)
        defect_order = d * draw(st.integers(1, 2))
        diag = tuple(defect_order * row_quad(r, adj) // d for r in q0)
    problem = GramProblem(
        target_gram=target,
        sign_mode="signed",
        row_count=k,
        require_nonzero_rows=all(map(any, q0)) and draw(st.booleans()),
        fixed_blocks=tuple(fixed),
        diag_constraints=diag,
        defect_order=defect_order,
        zero_rows=frozenset(zero_rows),
    )
    assert solved_rows(problem) == expanding_solve(problem)


# PSD checks of the nonnegative solves of the 72 feasible candidates of
# entry sums 13..16. Without the reach prune the kernel made 11,852.
PSD_CHECK_CEILING = 981


def test_reach_prune_keeps_psd_checks_down(monkeypatch):
    checks = 0
    is_psd = _kernel_py._is_psd

    def counting_is_psd(a):
        nonlocal checks
        checks += 1
        return is_psd(a)

    monkeypatch.setattr(_kernel_py, "_is_psd", counting_is_psd)
    for n in range(13, 17):
        size = 1
        while min_sum_for_l(size + 1) <= n:
            size += 1
        for l in range(1, size + 1):
            for cand in enumerate_cartan(n, l):
                if filter_block_feasible(cand).feasible:
                    solve(GramProblem(cand.matrix))
    assert checks <= PSD_CHECK_CEILING
