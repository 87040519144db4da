"""Pure-Python Gram-decomposition kernel.

Enumerates every way to write a symmetric positive definite integer matrix C
as a sum of rank-one products r^t r over rows r drawn from a fixed candidate
pool, emitting rows in nonincreasing pool order (row-permutation symmetry is
broken at the source).

Since r^t r = (-r)^t (-r), a signed search need not walk both signs of a
row: ``gram._solve_free`` passes only the sign representatives (rows whose
first nonzero entry is positive) and expands the sign choices of each
emitted sequence itself. The kernel does not depend on that; it searches
whatever pool it is given.
"""

from __future__ import annotations

from typing import Sequence

Row = tuple[int, ...]


def _is_psd(a: list[list[int]]) -> bool:
    # fraction-free symmetric elimination; a is consumed
    idx = list(range(len(a)))
    prev = 1
    while idx:
        k = idx[0]
        akk = a[k][k]
        if akk < 0:
            return False
        if akk == 0:
            if any(a[k][j] != 0 for j in idx):
                return False
            idx = idx[1:]
            continue
        rest = idx[1:]
        for i in rest:
            for j in rest:
                a[i][j] = (akk * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = akk
        idx = rest
    return True


def search_rows(
    c: Sequence[Sequence[int]],
    pool: Sequence[Row],
    min_rows: int,
    max_rows: int,
) -> list[tuple[Row, ...]]:
    """All nonincreasing pool-row sequences whose rank-one sums equal C.

    The pool must be sorted in decreasing lexicographic order and must not
    contain the zero row; ``min_rows``/``max_rows`` bound the sequence length.
    The residual C - sum(r^t r) is kept positive semidefinite at every step,
    which both prunes and proves completeness (a residual that is not PSD
    admits no further decomposition).
    """
    l = len(c)
    res = [list(row) for row in c]
    found: list[tuple[Row, ...]] = []
    chosen: list[Row] = []

    def residual_is_zero() -> bool:
        return all(x == 0 for row in res for x in row)

    def fits(r: Row) -> bool:
        for j in range(l):
            if r[j] * r[j] > res[j][j]:
                return False
        trial = [
            [res[i][j] - r[i] * r[j] for j in range(l)] for i in range(l)
        ]
        return _is_psd(trial)

    def recurse(start: int) -> None:
        if residual_is_zero():
            if len(chosen) >= min_rows:
                found.append(tuple(chosen))
            return
        if len(chosen) >= max_rows:
            return
        for idx in range(start, len(pool)):
            r = pool[idx]
            if not fits(r):
                continue
            for i in range(l):
                for j in range(l):
                    res[i][j] -= r[i] * r[j]
            chosen.append(r)
            recurse(idx)
            chosen.pop()
            for i in range(l):
                for j in range(l):
                    res[i][j] += r[i] * r[j]

    recurse(0)
    return found
