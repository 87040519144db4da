"""The Gram-search kernel and the sign-representative search built on it."""

import itertools
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from blocksmith import IntMatrix
from blocksmith import _kernel, _kernel_py
from blocksmith.cartan import enumerate_cartan, filter_block_feasible, min_sum_for_l
from blocksmith.gram import GramProblem, _row_pool, _solve_free, solve

from conftest import unpruned_search_rows

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


@pytest.mark.parametrize("target", TARGETS + CARTAN_CANDIDATES)
def test_sign_representative_search_matches_full_pool(target):
    c = IntMatrix.from_rows(target)
    full = _kernel.search_rows(target, [_row_pool(c, signed=True)] * c.trace(), 1)
    expanded = _solve_free(GramProblem(target_gram=c, sign_mode="signed"))
    assert len(expanded) == len(set(expanded))
    assert set(expanded) == set(full)
    assert all(list(rows) == sorted(rows, reverse=True) for rows in expanded)


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
