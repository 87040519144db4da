"""Pure-Python Gram-decomposition kernel: the one row search of the package.

Enumerates every way to write a symmetric positive definite integer matrix C
as a sum of rank-one products r^t r, one row r per slot, in the manner of
Plesken's short-vector search ("Solving XX^tr = A over the integers", Linear
Algebra Appl. 226-228, 1995). Slot i draws from its own candidate list; a
free problem gives every slot the same pool, a pinned problem gives each
group of interchangeable rows its own list. Optional fixed columns add the
constraint that the sequence is orthogonal to each of them.

Since r^t r = (-r)^t (-r), a signed free search need not walk both signs of
a row: ``gram._solve_free`` passes only the sign representatives (rows whose
first nonzero entry is positive) and expands the sign choices of each
emitted sequence itself. The kernel does not depend on that; it searches
whatever lists it is given.
"""

from __future__ import annotations

from typing import Sequence

from .intmat import psd_rank

Row = tuple[int, ...]

# looked up at every check, so that a caller can count the checks
_is_psd = psd_rank


def search_rows(
    c: Sequence[Sequence[int]],
    slots: Sequence[Sequence[Row]],
    min_rows: int,
    cols: Sequence[Sequence[int]] = (),
) -> list[tuple[Row, ...]]:
    """All row sequences, one row from each leading slot, whose rank-one
    sums equal C and which are orthogonal to every fixed column.

    ``slots[i]`` lists the candidates of row i in decreasing lexicographic
    order. Consecutive slots given the same list object hold interchangeable
    rows and are filled nonincreasingly, so each multiset of their rows is
    emitted once. A sequence is emitted as soon as it has at least
    ``min_rows`` rows, the residual C - sum(r^t r) is zero and, for each
    column u of ``cols`` (length ``len(slots)``), sum_i u[i] r_i is zero.

    The residual is kept positive semidefinite at every step, which both
    prunes and proves completeness (a residual that is not PSD admits no
    further decomposition). Partial cross sums s_u are pruned by
    Cauchy-Schwarz: s_u[v]^2 may not exceed the squared norm of u below the
    current row times the residual diagonal entry v.
    """
    l = len(c)
    k = len(slots)
    shared = [i > 0 and slots[i] is slots[i - 1] for i in range(k)]
    tails = [[sum(x * x for x in col[i:]) for i in range(k + 1)] for col in cols]
    found: list[tuple[Row, ...]] = []
    chosen: list[Row] = []

    def recurse(res: list[list[int]], cross: list[list[int]], start: int) -> None:
        depth = len(chosen)
        if depth >= min_rows and not any(map(any, res)) and not any(map(any, cross)):
            found.append(tuple(chosen))
            return
        if depth == k:
            return
        cands = slots[depth]
        for idx in range(start if shared[depth] else 0, len(cands)):
            r = cands[idx]
            for j in range(l):
                if r[j] * r[j] > res[j][j]:
                    break
            else:
                if cross:
                    new_cross = [
                        [s + col[depth] * x for s, x in zip(row, r)]
                        for row, col in zip(cross, cols)
                    ]
                    if any(
                        s * s > tail[depth + 1] * (res[v][v] - r[v] * r[v])
                        for row, tail in zip(new_cross, tails)
                        for v, s in enumerate(row)
                    ):
                        continue
                else:
                    new_cross = cross
                new_res = [
                    [x - ri * rj for x, rj in zip(row, r)]
                    for row, ri in zip(res, r)
                ]
                if _is_psd([row[:] for row in new_res]) is None:
                    continue
                chosen.append(r)
                recurse(new_res, new_cross, idx)
                chosen.pop()

    recurse([list(row) for row in c], [[0] * l for _ in cols], 0)
    return found
