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
test has no completion. The residual is a flat list over the upper triangle
and each candidate's products r_i r_j are computed once per call, so a child
residual is one list subtraction, and the reach test compares it with two
integer bound vectors kept per set of reachable signs; only a child that
passes is unfolded into full rows for the PSD test.
"""

from __future__ import annotations

from itertools import chain
from operator import gt, itemgetter, lt, sub
from typing import Sequence

from .intmat import psd_rank

Row = tuple[int, ...]

# looked up at every check, so that a caller can count the checks
_is_psd = psd_rank


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
    with r_i r_j > 0, and R'_ij < 0 one with r_i r_j < 0. The products of
    each distinct list are computed once per call, and their sign masks
    unioned per suffix and per run end; the pruned nodes have no completion,
    so the emitted list is the same, in the same order. No product r_j^2 is
    negative, so the test also drops every row with r_j^2 > R_jj, and no
    separate diagonal bound is kept. R' is the flat parent residual minus
    the row's flat products; it is unfolded into full rows only for the PSD
    test, once it has passed the reach test.
    """
    l = len(c)
    k = len(slots)
    shared = [i > 0 and slots[i] is slots[i - 1] for i in range(k)]
    pairs = [(i, j) for i in range(l) for j in range(i, l)]
    root = [c[i][j] for i, j in pairs]
    # full row i of a flat residual (itemgetter of one index gives no tuple)
    rows = [
        itemgetter(*[pairs.index((min(i, j), max(i, j))) for j in range(l)])
        if l > 1 else itemgetter(slice(0, 1))
        for i in range(l)
    ]
    # products[id(s)][idx]: r_i r_j over the pairs for r = s[idx];
    # suffix[id(s)][idx]: union over s[idx:] of their sign masks, two bits
    # per pair (the low one for a positive product, the high one a negative)
    products: dict[int, list[list[int]]] = {}
    suffix: dict[int, list[int]] = {}
    for cands in slots:
        if id(cands) not in products:
            prods = products[id(cands)] = [[r[i] * r[j] for i, j in pairs] for r in cands]
            masks = suffix[id(cands)] = [0] * (len(cands) + 1)
            for idx in range(len(cands) - 1, -1, -1):
                signs = (
                    (1 if x > 0 else 2 if x < 0 else 0) << 2 * t
                    for t, x in enumerate(prods[idx])
                )
                masks[idx] = masks[idx + 1] | sum(signs)
    # later[t]: union of the full lists of the slots after t's shared run
    later = [0] * k
    beyond = 0
    for t in range(k - 1, -1, -1):
        later[t] = later[t + 1] if t + 1 < k and shared[t + 1] else beyond
        beyond |= suffix[id(slots[t])][0]
    # beyond every child residual entry: a parent residual is C or PSD, so
    # bounded by max |C|, and a child subtracts one product vector from it
    big = 1 + 2 * max(map(abs, chain(root, *chain(*products.values()))), default=0)
    # reach mask -> the least and greatest child residual entries it allows
    bounds: dict[int, tuple[list[int], list[int]]] = {}
    found: list[tuple[Row, ...]] = []
    chosen: list[Row] = []

    def recurse(res: list[int], start: int) -> None:
        depth = len(chosen)
        if depth >= min_rows and not any(res):
            found.append(tuple(chosen))
            return
        if depth == k:
            return
        cands = slots[depth]
        prods = products[id(cands)]
        rest = later[depth]
        own = suffix[id(cands)] if depth + 1 < k and shared[depth + 1] else None
        for idx in range(start if shared[depth] else 0, len(cands)):
            reach = rest | own[idx] if own else rest
            if reach not in bounds:
                bounds[reach] = (
                    [-big if reach >> 2 * t & 2 else 0 for t in range(len(res))],
                    [big if reach >> 2 * t & 1 else 0 for t in range(len(res))],
                )
            lo, hi = bounds[reach]
            new_res = list(map(sub, res, prods[idx]))
            if any(map(lt, new_res, lo)) or any(map(gt, new_res, hi)):
                continue
            if _is_psd([[*row(new_res)] for row in rows]) is None:
                continue
            chosen.append(cands[idx])
            recurse(new_res, idx)
            chosen.pop()

    recurse(root, 0)
    return found
