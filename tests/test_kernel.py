"""The Gram-search kernel and the sign-representative search built on it."""

import pytest

from blocksmith import IntMatrix
from blocksmith import _kernel
from blocksmith.gram import GramProblem, _row_pool, _solve_free

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
