"""Pure-Python Gram-decomposition kernel: the one row search of the package.

Enumerates every way to write a symmetric positive semidefinite integer
matrix C as a sum of rank-one products r^t r, one row r per slot, in the
manner of Plesken's short-vector search ("Solving XX^tr = A over the
integers", Linear Algebra Appl. 226-228, 1995). Slot i draws from its own
candidate list; a free problem gives every slot the same pool, a pinned
problem gives each group of interchangeable rows its own list.

Fixed columns are coordinates, not a separate constraint: a caller with a
k x m matrix U that the rows must be orthogonal to appends row u_i of U to
every candidate of slot i and searches against diag(C, U^t U). A sequence
of rows (r_i | u_i) sums to that target exactly when sum r_i^t r_i = C and
sum u_i^t r_i = 0, and the PSD and reach tests below then also prune on the
cross sums.

Since r^t r = (-r)^t (-r), a signed free search need not walk both signs of
a row: ``gram._solve_free`` passes only the sign representatives (rows whose
first nonzero entry is positive) and expands the sign choices of each
emitted sequence itself. The kernel does not depend on that; it searches
whatever lists it is given.

Besides the PSD test on the residual, each node passes a reach test: every
nonzero residual entry must have the sign of r_i r_j for some row r that a
completion may still add. A completion adds rows only from the current list
from the current index on (while the run of slots sharing that list goes on)
and from the full lists of the slots after that run, so a node failing the
test has no completion. Both sets are bitmasks precomputed once per call.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .intmat import psd_rank

Row = tuple[int, ...]

# looked up at every check, so that a caller can count the checks
_is_psd = psd_rank


def _sign_mask(values: Iterable[int]) -> int:
    """Two bits per value, in order: the low one set if the value is
    positive, the high one if it is negative."""
    mask = 0
    bit = 1
    for x in values:
        if x > 0:
            mask |= bit
        elif x < 0:
            mask |= bit << 1
        bit <<= 2
    return mask


def search_rows(
    c: Sequence[Sequence[int]],
    slots: Sequence[Sequence[Row]],
    min_rows: int,
) -> list[tuple[Row, ...]]:
    """All row sequences, one row from each leading slot, whose rank-one
    sums equal C.

    ``slots[i]`` lists the candidates of row i in decreasing lexicographic
    order. Consecutive slots given the same list object must hold
    interchangeable rows (for fixed columns: equal rows of U, so equal
    appended coordinates); they are filled nonincreasingly, so each multiset
    of their rows is emitted once. A sequence is emitted as soon as it has
    at least ``min_rows`` rows and the residual C - sum(r^t r) is zero.

    The residual is kept positive semidefinite at every step, which both
    prunes and proves completeness (a residual that is not PSD admits no
    further decomposition).

    Before the PSD test, a row is also pruned when its child residual R' has
    an entry no completion can reach. After row ``idx`` of slot t, the
    remaining rows come from ``slots[t][idx:]`` (if slot t + 1 shares the
    list) and from the full lists of the slots after t's shared run, so
    R'_ij is a sum of r_i r_j over those rows: R'_ij > 0 needs one of them
    with r_i r_j > 0, and R'_ij < 0 one with r_i r_j < 0. The sign masks
    of those rows (``_sign_mask``) are precomputed as suffix unions per
    distinct list and unions per run end; the pruned nodes have no
    completion, so the emitted list is the same, in the same order.
    """
    l = len(c)
    k = len(slots)
    shared = [i > 0 and slots[i] is slots[i - 1] for i in range(k)]
    # suffix[id(s)][idx]: union of the sign masks of r^t r over r in s[idx:],
    # one pair of bits per entry i <= j in row-major order
    suffix: dict[int, list[int]] = {}
    for cands in slots:
        if id(cands) not in suffix:
            masks = [0] * (len(cands) + 1)
            for idx in range(len(cands) - 1, -1, -1):
                r = cands[idx]
                products = (ri * rj for i, ri in enumerate(r) for rj in r[i:])
                masks[idx] = masks[idx + 1] | _sign_mask(products)
            suffix[id(cands)] = masks
    # later[t]: union of the full lists of the slots after t's shared run
    later = [0] * k
    beyond = 0
    for t in range(k - 1, -1, -1):
        later[t] = later[t + 1] if t + 1 < k and shared[t + 1] else beyond
        beyond |= suffix[id(slots[t])][0]
    found: list[tuple[Row, ...]] = []
    chosen: list[Row] = []

    def recurse(res: list[list[int]], start: int) -> None:
        depth = len(chosen)
        if depth >= min_rows and not any(map(any, res)):
            found.append(tuple(chosen))
            return
        if depth == k:
            return
        cands = slots[depth]
        rest = later[depth]
        own = suffix[id(cands)] if depth + 1 < k and shared[depth + 1] else None
        for idx in range(start if shared[depth] else 0, len(cands)):
            r = cands[idx]
            for j in range(l):
                if r[j] * r[j] > res[j][j]:
                    break
            else:
                new_res = [
                    [x - ri * rj for x, rj in zip(row, r)]
                    for row, ri in zip(res, r)
                ]
                need = _sign_mask(x for i, row in enumerate(new_res) for x in row[i:])
                reach = (rest | own[idx]) if own else rest
                if need & ~reach:
                    continue
                if _is_psd([row[:] for row in new_res]) is None:
                    continue
                chosen.append(r)
                recurse(new_res, idx)
                chosen.pop()

    recurse([list(row) for row in c], 0)
    return found
