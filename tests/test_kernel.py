"""The Gram-search kernel, the sign-representative search built on it and
the sign classes built from its sequences."""

import itertools
from math import isqrt

import pytest
from hypothesis import assume, given, strategies as st

from blocksmith import IntMatrix
from blocksmith import _kernel, _kernel_py
from blocksmith.cartan import enumerate_cartan, filter_block_feasible, min_sum_for_l
from blocksmith.gram import (
    GramProblem,
    _class_codes,
    _row_pool,
    _sign_patterns,
    row_quad,
    solve,
    solve_orthogonal_column,
)
from blocksmith.intmat import adjugate_and_det, is_positive_definite

from conftest import expanding_solve, one_of_each_negated_pair, unpruned_search_rows

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


def candidates_of_sums(sums) -> list:
    """Every enumerated candidate of the given entry sums, as lists."""
    out = []
    for n in sums:
        l = 1
        while min_sum_for_l(l) <= n:
            out += [cand.matrix.to_lists() for cand in enumerate_cartan(n, l)]
            l += 1
    return out


# The 89 candidates of entry sums 13..15, the kind of target the signed
# benchmark solves, less those listed above: each connected one is a
# signed free problem with one sign pattern and one group, whose forms are
# collected with no dedupe, so a repeated form would show.
SUM_13_15_CANDIDATES = [
    t for t in candidates_of_sums(range(13, 16)) if t not in TARGETS + CARTAN_CANDIDATES
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
    full = _kernel.search_rows(target, [(_row_pool(c, signed=True), c.trace())], 1)
    problem = GramProblem(target_gram=c, sign_mode="signed")
    classes = [s.q.rows for s in solve(problem)]
    orbits = [sign_orbit(rows, target) for rows in classes]
    assert all(rows == max(orbit) for rows, orbit in zip(classes, orbits))
    assert sum(map(len, orbits)) == len(full) == len(set(full))
    assert set().union(*orbits) == set(full)


EIGHT_A_TARGET = [[7, 1, 0], [1, 4, 0], [0, 0, 9]]


def solved_rows(problem):
    return [s.q.rows for s in solve(problem)]


@pytest.mark.parametrize("sign_mode", ["nonnegative", "signed"])
@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES + SUM_13_15_CANDIDATES)
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


# Disconnected targets of signed free problems, with their number of
# column-sign patterns and a row count that has solutions: one sign-free
# group, so -I is dropped from the patterns and the forms go through the
# dedupe dict.
DISCONNECTED_TARGETS = [
    ([[3, 1, 0], [1, 2, 0], [0, 0, 4]], 4, 6),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 8, 8),
    ([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2]], 8, 6),
]


@pytest.mark.parametrize("row_count", ["none", "exact", "window"])
@pytest.mark.parametrize("target, patterns, exact", DISCONNECTED_TARGETS)
def test_sign_classes_match_expanding_solve_on_disconnected_targets(
    target, patterns, exact, row_count
):
    c = IntMatrix.from_rows(target)
    assert len(_sign_patterns(c)) == patterns
    problem = GramProblem(
        target_gram=c,
        sign_mode="signed",
        row_count={"none": None, "exact": exact, "window": (2, c.trace())}[row_count],
        require_nonzero_rows=row_count != "window",
    )
    got = solved_rows(problem)
    assert got
    assert got == expanding_solve(problem)


def test_row_count_window():
    target = [[5, 2], [2, 4]]
    pool = _row_pool(IntMatrix.from_rows(target), signed=False)
    everything = _kernel.search_rows(target, [(pool, 9)], 1)
    only5 = _kernel.search_rows(target, [(pool, 5)], 5)
    assert only5 == [rows for rows in everything if len(rows) == 5]
    assert _kernel.search_rows(target, [(pool, 4)], 1) == [
        rows for rows in everything if len(rows) <= 4
    ]


def slots_of(runs):
    """The per-slot input of ``unpruned_search_rows`` for kernel runs: each
    run's list object once per row, so consecutive slots share a list
    exactly when they lie in one run (the runs must not share lists)."""
    return [cands for cands, n in runs for _ in range(n)]


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES)
def test_reach_prune_matches_unpruned_search(target, signed):
    c = IntMatrix.from_rows(target)
    runs = [(_row_pool(c, signed), c.trace())]
    assert _kernel.search_rows(target, runs, 1) == unpruned_search_rows(
        target, slots_of(runs), 1
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
    """Free problems: one run over the pool, a row-count window."""
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
    assert _kernel.search_rows(c, [(pool, hi)], lo) == unpruned_search_rows(
        c, [pool] * hi, lo
    )


def fixed_rows(runs, cols):
    """The fixed rows of the runs for fixed columns ``cols`` (each with one
    entry per row, equal along each run): each run's fixed row holds the
    columns' entries at its rows."""
    fixed = []
    start = 0
    for _, n in runs:
        fixed.append(tuple(col[start] for col in cols))
        start += n
    return fixed


def search_with_columns(c, runs, min_rows, cols):
    """The kernel's sequences for the runs of C with fixed columns ``cols``."""
    return _kernel.search_rows(c, runs, min_rows, fixed_rows(runs, cols))


def unpruned_with_columns(c, runs, min_rows, cols):
    """The sequences of the cross-sum search over one slot per row, less
    those the kernel leaves out under -I."""
    found = unpruned_search_rows(c, slots_of(runs), min_rows, cols)
    return one_of_each_negated_pair(found, runs, fixed_rows(runs, cols), min_rows)


@given(st.data())
def test_reach_prune_matches_unpruned_pinned_search(data):
    """Pinned problems: runs of up to k rows in all, each with its own list
    (the zero row alone, the rows of a box with or without the zero row, or
    a subset of them; runs may repeat a list's content), and fixed columns
    mostly drawn orthogonal to a known solution Q0. The columns are equal
    along each run, so its rows stay interchangeable; the kernel gets them
    as coordinates appended to each run's rows, against the target
    diag(C, U^t U), and its sequences cut back to l entries are those of the
    cross-sum search over one slot per row, one of each -I pair when a
    column is nonzero and the lists it is nonzero on are closed under
    r -> -r."""
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
    runs = []
    while sum(n for _, n in runs) < k:
        n = draw(st.integers(1, k - sum(n for _, n in runs)))
        runs.append((list(lists[draw(st.sampled_from(sorted(lists)))]), n))
    slots = slots_of(runs)
    vectors = [
        v for v in itertools.product((-1, 0, 1), repeat=k)
        if all(v[i] == v[i - 1] for i in range(1, k) if slots[i] is slots[i - 1])
    ]
    orthogonal = [
        v for v in vectors
        if all(sum(v[t] * q0[t][j] for t in range(k)) == 0 for j in range(l))
    ]
    cols = [
        draw(st.sampled_from(orthogonal if draw(st.booleans()) else vectors))
        for _ in range(draw(st.integers(0, 2)))
    ]
    assert search_with_columns(c, runs, k, cols) == unpruned_with_columns(
        c, runs, k, cols
    )


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n", range(1, 10))
def test_one_by_one_targets_match_unpruned_search(n, signed):
    """l = 1: a flat residual of one entry and a full row of one index, with
    and without the zero row, all rows in one run, each in a run of its own,
    or one run after an empty one."""
    c = [[n]]
    for pool in (box(c, signed), _row_pool(IntMatrix.from_rows(c), signed)):
        for k in (1, 2, 3, n, n + 1):
            shapes = [[(pool, k)], [(list(pool), 0), (pool, k)]]
            shapes += [[(list(pool), 1) for _ in range(k)]] if k <= 3 else []
            for runs in shapes:
                for lo in sorted({1, (k + 1) // 2, k}):
                    assert _kernel.search_rows(c, runs, lo) == unpruned_search_rows(
                        c, slots_of(runs), lo
                    )


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "target",
    [[[0, 0], [0, 0]], [[4, 2], [2, 1]], [[1, -1], [-1, 1]], [[5, 2], [2, 4]],
     [[4, 2, 0], [2, 1, 0], [0, 0, 0]]],
)
def test_single_slot_matches_unpruned_search(target, signed):
    """One row: a sequence is a single row with r^t r = C (or none at all
    when C = 0 and no row is needed)."""
    runs = [(box(target, signed), 1)]
    for lo in (0, 1):
        found = _kernel.search_rows(target, runs, lo)
        assert found == unpruned_search_rows(target, slots_of(runs), lo)
        assert all(gram_of(rows, len(target)) == target for rows in found)


def test_fixed_coordinates_past_two_to_the_53_match_unpruned_search():
    """The pinned signed search of casebook rule d13-27-d8-fake with its
    10-row Q1 scaled by 3**40: the fixed coordinates, the U^t U block of the
    target and the residual entries all pass 2**53, where a float would
    round. Orthogonality to Q1 does not depend on the scale, so the
    sequences are those of the unscaled search and of the cross-sum one,
    one of each -I pair."""
    c = [[5, 1], [1, 2]]
    q1 = [(1, 1)] + [(1, 0)] * 6 + [(0, 1)] * 3
    runs = [(box(c, True), 1), (box(c, True), 6), (box(c, True), 3)]
    k = len(q1)
    expected = unpruned_with_columns(c, runs, k, list(zip(*q1)))
    assert len(expected) == 4
    for scale in (1, 3**40):
        cols = [[scale * x for x in col] for col in zip(*q1)]
        assert search_with_columns(c, runs, k, cols) == expected


def test_negated_pairs_only_when_every_find_has_every_row():
    """A closed run with u = 0 that holds the zero row may end a find early
    when fewer rows than k are asked for: then X' need not be a find (the
    negation of ((0,), (0,), (-1,)) is ((0,), (1,), (0,)), whose prefix
    ((0,), (1,)) is the find), so the kernel walks both signs as given."""
    runs = [([(0,)], 1), ([(1,), (0,), (-1,)], 2)]
    cols = [(1, 0, 0)]
    found = search_with_columns([[1]], runs, 1, cols)
    assert found == unpruned_with_columns([[1]], runs, 1, cols)
    assert found == [((0,), (1,)), ((0,), (0,), (-1,)), ((0,), (-1,))]


def appended_by_hand(c, runs, fixed):
    """The target and runs of a search with fixed rows stated without
    ``fixed``: u_t appended to every candidate of run t, against
    diag(C, U^t U) with U the rows u_t, n_t times each."""
    l, m = len(c), len(fixed[0])
    u_rows = [u for (_, n), u in zip(runs, fixed) for _ in range(n)]
    target = [list(row) + [0] * m for row in c] + [
        [0] * l + [sum(u[a] * u[b] for u in u_rows) for b in range(m)] for a in range(m)
    ]
    return target, [([r + u for r in cands], n) for (cands, n), u in zip(runs, fixed)]


ZERO, ONE = [(0,)], [(1,), (0,)]
COLUMN = [(x,) for x in range(3, -4, -1)]
PAIR = [r for r in box([[6, 1], [1, 1]], True) if any(r)]


@pytest.mark.parametrize(
    "c, runs, fixed, psd_checks",
    [
        # runs of the zero row with u != 0: only the appended entry makes
        # that row nonzero, which lets the row-count prune end the first
        # search at its root and cut the fourth from 123 PSD checks to 77
        ([[1]], [([(1,), (-1,)], 2), (ZERO, 1)], [(0,), (1,)], (0, 0)),
        ([[2]], [([(1,), (-1,)], 2), (ZERO, 2)], [(0,), (1,)], (7, 11)),
        ([[1]], [(ONE, 3), (ZERO, 1)], [(0,), (1,)], (4, 4)),
        ([[6, 1], [1, 1]], [(PAIR, 3), (PAIR, 2), ([(0, 0)], 3)], [(0,), (0,), (1,)],
         (43, 77)),
        # the orthogonal column of the 7-row Q1 with g = 9, one run per class
        ([[9]], [(COLUMN, 1), (COLUMN, 2), (COLUMN, 3)], [(2, 0), (1, 0), (0, 1)],
         (63, 89)),
    ],
    ids=[f"c{i}-runs{i}-fixed{i}" for i in range(5)],
)
def test_fixed_rows_walk_the_tree_of_rows_appended_by_hand(
    c, runs, fixed, psd_checks, monkeypatch
):
    """Fixed rows given to the kernel and the same rows appended by the
    caller against diag(C, U^t U) make the same finds, cut back to C's
    coordinates, except that the rows appended by hand are not closed under
    negation: that search walks both members of each -I pair, and makes
    the second count of ``psd_checks`` where the kernel makes the first.
    The third case has no run whose list is closed and holds a nonzero row,
    so both make the same checks."""
    checks = []
    is_psd = _kernel_py._is_psd
    monkeypatch.setattr(_kernel_py, "_is_psd", lambda a: checks.append(a) or is_psd(a))
    k = sum(n for _, n in runs)
    own = _kernel.search_rows(c, runs, k, fixed)
    own_checks = len(checks)
    by_hand = _kernel.search_rows(*appended_by_hand(c, runs, fixed), k)
    cut = [tuple(r[:len(c)] for r in rows) for rows in by_hand]
    assert own == one_of_each_negated_pair(cut, runs, fixed, k)
    assert (own_checks, len(checks) - own_checks) == psd_checks


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


def count_psd_checks(monkeypatch) -> list[int]:
    """Counts the kernel's PSD tests from here on, in the one entry of the
    returned list."""
    checks = [0]
    is_psd = _kernel_py._is_psd

    def counting_is_psd(a):
        checks[0] += 1
        return is_psd(a)

    monkeypatch.setattr(_kernel_py, "_is_psd", counting_is_psd)
    return checks


# PSD checks of the nonnegative solves of the 72 feasible candidates of
# entry sums 13..16. Without the reach prune the kernel made 11,852.
PSD_CHECK_CEILING = 981


def test_reach_prune_keeps_psd_checks_down(monkeypatch):
    checks = count_psd_checks(monkeypatch)
    for n in range(13, 17):
        size = 1
        while min_sum_for_l(size + 1) <= n:
            size += 1
        for l in range(1, size + 1):
            for cand in enumerate_cartan(n, l):
                if filter_block_feasible(cand).feasible:
                    solve(GramProblem(cand.matrix))
    assert checks[0] <= PSD_CHECK_CEILING


def count_finds(monkeypatch) -> list:
    """Collects the kernel's finds from here on in the returned list."""
    raw = []
    search_rows = _kernel.search_rows

    def counting_search_rows(*args):
        found = search_rows(*args)
        raw.extend(found)
        return found

    monkeypatch.setattr(_kernel, "search_rows", counting_search_rows)
    return raw


# PSD checks of the pinned signed solve of casebook rule d13-27-d8-fake.
# With the fixed columns kept as cross sums under a Cauchy-Schwarz prune,
# instead of as coordinates of the rows, the kernel made 734; walking both
# members of each -I pair, 468.
FIXED_COLUMNS_PSD_CEILING = 349


def test_fixed_columns_as_coordinates_keep_psd_checks_down(monkeypatch):
    """The target [[5,1],[1,2]] against the 10-row Q1 of rule d13-27-solve,
    signed, zero rows allowed: the PSD test on the residual of the rows
    (r | u_i) also prunes on the cross sums, and the kernel makes one find
    of each -I pair, 4 (8 with both members) for the 4 solutions."""
    q10 = [[1, 1]] + [[1, 0]] * 6 + [[0, 1]] * 3
    problem = GramProblem(
        target_gram=IntMatrix.from_rows([[5, 1], [1, 2]]),
        sign_mode="signed",
        require_nonzero_rows=False,
        fixed_blocks=(IntMatrix.from_rows(q10),),
    )
    checks = count_psd_checks(monkeypatch)
    raw = count_finds(monkeypatch)
    assert len(solve(problem)) == 4
    assert len(raw) == 4
    assert checks[0] <= FIXED_COLUMNS_PSD_CEILING


# PSD checks of the orthogonal column of casebook rule d13-27-c8-column;
# walking both members of each -I pair, the kernel made 89.
COLUMN_PSD_CEILING = 63


def test_orthogonal_column_walks_one_of_each_negated_pair(monkeypatch):
    """Rule d13-27-c8-column: the 7-row Q1 with g = 9 and entry 1 forced to
    zero. Its six columns come from 2 finds (4 with both members of each
    -I pair), each arranged and negated where its first nonzero entry is
    negative."""
    q7 = [[2, 0], [1, 1], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1]]
    checks = count_psd_checks(monkeypatch)
    raw = count_finds(monkeypatch)
    assert len(solve_orthogonal_column(IntMatrix.from_rows(q7), 9, zero_rows={1})) == 6
    assert len(raw) == 2
    assert checks[0] <= COLUMN_PSD_CEILING


def test_a_run_is_never_materialized():
    """A run of 10**12 rows: nothing is sized by the count, and the one
    sequence is emitted after its first row."""
    assert _kernel.search_rows([[10**12]], [([(10**6,)], 10**12)], 1) == [((10**6,),)]


# PSD checks of the nonnegative solve of [[100]] in exactly 100 rows. Without
# the row-count prune the kernel made 24,786, as many as with no row count.
ROW_COUNT_PSD_CEILING = 100


def test_row_count_prune_keeps_psd_checks_down(monkeypatch):
    problem = GramProblem(IntMatrix.from_rows([[100]]), row_count=100)
    checks = count_psd_checks(monkeypatch)
    assert solved_rows(problem) == [((1,),) * 100]
    assert checks[0] <= ROW_COUNT_PSD_CEILING


def test_twelve_hundred_rows_are_placed():
    """The walk keeps its own stack, so a sequence may be longer than the
    interpreter's recursion limit."""
    problem = GramProblem(IntMatrix.from_rows([[1200]]), row_count=1200)
    assert solved_rows(problem) == [((1,),) * 1200]


# Interleaved groups: (target, problem options, kernel finds). Walked index
# by index, the five searches made 48, 6, 48, 64 and 648 finds; with each
# group one run but both signs of every row walked, 8, 1, 8, 32 and 20; with
# sign representatives but both members of each -I pair, the last made 5.
INTERLEAVED = [
    ([[5, 1], [1, 2]], dict(sign_mode="signed", row_count=5, zero_rows={1, 3}), 1),
    ([[5, 1], [1, 2]], dict(row_count=5, zero_rows={1, 3}), 1),
    ([[5, 1], [1, 2]], dict(sign_mode="signed", row_count=6, zero_rows={0, 2, 4},
                            require_nonzero_rows=False), 1),
    ([[5, 2], [2, 4]], dict(sign_mode="signed", row_count=5,
                            diag_constraints=(5, 4, 5, 13, 5), defect_order=16), 2),
    ([[6, 1], [1, 3]], dict(sign_mode="signed", require_nonzero_rows=False,
                            fixed_blocks=(IntMatrix.from_rows([[1], [0]] * 3),)), 3),
]

# Signed pinned problems on disconnected targets, every group sign-free:
# (target, problem options, kernel finds). Walking both signs of every row,
# the three searches made 16, 8 and 16 finds.
DISCONNECTED = [
    ([[4, 1, 0], [1, 3, 0], [0, 0, 2]], dict(sign_mode="signed", row_count=5,
                                              zero_rows={4}, require_nonzero_rows=False), 1),
    ([[2, 0], [0, 3]], dict(sign_mode="signed", row_count=5, zero_rows={1, 3}), 1),
    ([[3, 0], [0, 3]], dict(sign_mode="signed", row_count=6,
                            diag_constraints=(3,) * 6, defect_order=9), 1),
]


def assert_finds(target, options, finds, monkeypatch):
    """The problem's solutions are ``expanding_solve``'s, in its order, and
    its kernel search makes ``finds`` finds."""
    options = {**options, "zero_rows": frozenset(options.get("zero_rows", ()))}
    problem = GramProblem(target_gram=IntMatrix.from_rows(target), **options)
    expected = expanding_solve(problem)
    raw = count_finds(monkeypatch)
    assert expected and solved_rows(problem) == expected
    assert len(raw) == finds


@pytest.mark.parametrize("target, options, finds", INTERLEAVED)
def test_interleaved_pinned_groups_are_searched_as_multisets(
    target, options, finds, monkeypatch
):
    """Groups whose indices interleave are each one run, so the kernel finds
    each multiset of a group's rows once; walking them index by index, as
    ``expanding_solve`` does, gives the same solutions in the same order. A
    sign-free group walks its sign representatives only, and of the finds
    X and X' that -I pairs, the kernel makes one."""
    assert_finds(target, options, finds, monkeypatch)


@pytest.mark.parametrize(
    "target, options, finds", DISCONNECTED, ids=["zero-row", "zero-rows", "diag"]
)
def test_disconnected_pinned_search_walks_one_sequence_per_orbit(
    target, options, finds, monkeypatch
):
    """With every group sign-free, the kernel walks sign representatives
    and only the largest find of each orbit of the column negations is
    expanded into its classes."""
    assert_finds(target, options, finds, monkeypatch)


def test_class_codes_take_one_of_each_complementary_pair():
    """For every run multiplicity list of up to 3 runs of 0..3 copies (a
    run of 0 stands for a run that is not negated), the codes are distinct
    and, of each pair {j, m - j}, exactly one is yielded."""
    for n in range(4):
        for mults in itertools.product(range(4), repeat=n):
            every = set(itertools.product(*(range(m + 1) for m in mults)))
            codes = list(_class_codes(mults))
            assert len(codes) == len(set(codes)) and set(codes) <= every
            for j in every:
                twin = tuple(m - x for x, m in zip(j, mults))
                assert len({j, twin} & set(codes)) == 1
