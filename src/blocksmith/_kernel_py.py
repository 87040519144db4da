"""Pure-Python Gram-decomposition kernel: the one row search of the package.

Enumerates every way to write a symmetric positive semidefinite integer
matrix C as a sum of rank-one products r^t r, in the manner of Plesken's
short-vector search ("Solving XX^tr = A over the integers", Linear Algebra
Appl. 226-228, 1995). The rows come in runs: a run ``(candidates, count)``
is ``count`` interchangeable rows drawn from one list, filled
nonincreasingly, so each multiset of them is searched once. A free problem
is one run over the pool, a pinned problem one run per group of
interchangeable rows, an orthogonal column one run per class of equal rows.

Fixed columns are coordinates, not a separate constraint: a caller with a
k x m matrix U that the rows must be orthogonal to gives each run t its row
u_t of U (``fixed``; the rows of a run agree on it). The kernel appends u_t
to every candidate of run t and searches against diag(C, U^t U), where
U^t U = sum_t n_t u_t^t u_t over the runs of n_t rows. A sequence of rows
(r_i | u_i) sums to that target exactly when sum r_i^t r_i = C and
sum u_i^t r_i = 0, and the PSD and reach tests below then also prune on the
cross sums. The rows emitted are the caller's own, without u_t.

Since r^t r = (-r)^t (-r), a signed search need not walk both signs of a
row whose run has a zero fixed row: ``gram._canonical_forms`` passes only
the sign representatives of such a run (rows r >= 0) and builds the sign
classes of each emitted sequence itself. A row of a run with a nonzero
fixed row cannot change sign alone, but -I still pairs the finds: when
every such run's list is closed under r -> -r, negating the rows of every
closed run maps a find X to a find X', and the kernel returns one of each
pair {X, X'} (``search_rows``). It reads this from the lists it is given;
a search with no nonzero fixed row walks them as they are.

The walk keeps an explicit stack, one generator of children per node on
the current path, so the number of rows it can place is bounded by memory,
not by the interpreter's recursion limit; and no list is sized by a run's
count. Besides the PSD test on the residual, each child passes a reach test
and a row-count test (``search_rows``). The residual is a flat list over
the upper triangle and each candidate's products r_i r_j are computed once
per call, so a child residual is one list subtraction, and the reach test
compares it with two integer bound vectors kept per set of reachable signs;
only a child that passes is unfolded into full rows for the PSD test.
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
    runs: Sequence[tuple[Sequence[Row], int]],
    min_rows: int,
    fixed: Sequence[Row] = (),
) -> list[tuple[Row, ...]]:
    """All row sequences, filled run by run, whose rank-one sums equal C.

    Each run is ``(candidates, count)``: ``count`` rows from ``candidates``,
    which lists them in decreasing lexicographic order, placed
    nonincreasingly. A sequence is emitted as soon as it has at least
    ``min_rows`` rows and the residual C - sum(r^t r) is zero. The residual
    is kept positive semidefinite at every step, which both prunes and
    proves completeness (a residual that is not PSD admits no further
    decomposition).

    Two tests drop a child residual R' before its PSD test; the nodes they
    drop have no completion, so the emitted list is the same, in the same
    order. Reach: after row ``idx`` of run t, the remaining rows come from
    ``candidates[idx:]`` (while run t has rows left) and from the full lists
    of the runs after t, so R'_ij > 0 needs one of them with r_i r_j > 0,
    and R'_ij < 0 one with r_i r_j < 0. The sign masks of the products are
    unioned per suffix and per run. No r_j^2 is negative, so this also drops
    every row with r_j^2 > R_jj. Row count: when no list from run t on holds
    the zero row, each row still to come takes at least 1 of the trace, so
    a child at depth d with trace below ``min_rows`` - d is dropped, and the
    root is checked the same way.

    ``fixed``, when its rows are nonempty, gives each run t its fixed row
    u_t: every test above then runs on the rows (r | u_t) against
    diag(C, sum_t n_t u_t^t u_t), so a row that is zero on C's coordinates
    but not on u_t is not the zero row, and each emitted sequence holds the
    caller's rows r, from ``candidates``.

    Sign symmetry: when some fixed row is nonzero, the list of every run
    with a nonzero fixed row is closed under r -> -r (it is then its own
    negation, reversed) and every sequence has all k rows (``min_rows`` >=
    k), negating the rows of every run with a closed list keeps the
    rank-one sums and the cross sums, so X' is a find exactly when X is.
    Of each pair {X, X'} only one is emitted: at the first negated run
    where the blocks of X and X' differ, X's block is the larger. A run
    whose block equals its own negation leaves the choice to the next
    negated run, and a find with X = X' is emitted once. While walking the
    run that decides, its first row r_1 must be >= -r_1 and every later
    row >= -r_1 (else the negated block starts higher), and each complete
    block is compared with its negation before its PSD test.
    """
    # the rows every test reads: the candidates, with u_t appended if fixed
    searched = [cands for cands, _ in runs]
    if any(fixed):
        l, m = len(c), len(fixed[0])
        weighted = list(zip([n for _, n in runs], fixed, strict=True))
        c = [[*row, *[0] * m] for row in c] + [
            [0] * l + [sum(n * u[a] * u[b] for n, u in weighted) for b in range(m)]
            for a in range(m)
        ]
        searched = [[(*r, *u) for r in cands] for cands, u in zip(searched, fixed)]
    k = sum(n for _, n in runs)
    # whether -I, negating every run whose list is closed, pairs the finds
    flip = min_rows >= k and any(map(any, fixed)) and all(
        _closed(cands) for (cands, _), u in zip(runs, fixed) if any(u)
    )
    # each run: its list, count, searched rows and whether -I negates it
    runs = [
        (cands, n, padded, flip and _closed(cands))
        for (cands, n), padded in zip(runs, searched)
        if n > 0
    ]
    l = len(c)
    pairs = [(i, j) for i in range(l) for j in range(i, l)]
    diagonal = [pairs.index((i, i)) for i in range(l)]
    root = [c[i][j] for i, j in pairs]
    # full row i of a flat residual (itemgetter of one index gives no tuple)
    rows = [
        itemgetter(*[pairs.index((min(i, j), max(i, j))) for j in range(l)])
        if l > 1 else itemgetter(slice(0, 1))
        for i in range(l)
    ]
    # products[t][idx]: r_i r_j over the pairs for row idx of run t;
    # suffix[t][idx]: union over the rows from idx on of their sign masks,
    # two bits per pair (the low one for a positive product, the high one a
    # negative); after[t]: union of the full lists of runs t and on;
    # nonzero[t]: no list of runs t and on holds the zero row
    products = [[[r[i] * r[j] for i, j in pairs] for r in padded] for _, _, padded, _ in runs]
    suffix: list[list[int]] = []
    for prods in products:
        masks = [0] * (len(prods) + 1)
        for idx in range(len(prods) - 1, -1, -1):
            signs = (
                (1 if x > 0 else 2 if x < 0 else 0) << 2 * u
                for u, x in enumerate(prods[idx])
            )
            masks[idx] = masks[idx + 1] | sum(signs)
        suffix.append(masks)
    after, nonzero = [0] * (len(runs) + 1), [True] * (len(runs) + 1)
    for t in range(len(runs) - 1, -1, -1):
        after[t] = after[t + 1] | suffix[t][0]
        nonzero[t] = nonzero[t + 1] and all(map(any, runs[t][2]))
    # beyond every child residual entry: a parent residual is C or PSD, so
    # bounded by max |C|, and a child subtracts one product vector from it
    big = 1 + 2 * max(map(abs, chain(root, *chain(*products))), default=0)
    # reach mask -> the least and greatest child residual entries it allows
    bounds: dict[int, tuple[list[int], list[int]]] = {}
    found: list[tuple[Row, ...]] = []
    chosen: list[Row] = []

    def children(
        res: list[int], depth: int, t: int, left: int, start: int,
        tie: tuple[int, ...] | None,
    ):
        """Walks the children of the node at ``depth`` whose rows are
        ``chosen`` and whose next row is one of the ``left`` rows still open
        in run t, from index ``start`` on (with none left, run t + 1's): it
        emits each finished child and yields the walk of each other one.
        ``tie`` is None once a negated run has told X from X' (or when -I
        is not used), and otherwise the indices of run t's rows so far."""
        if not left:
            t, left, start = t + 1, runs[t + 1][1], 0
            tie = None if tie is None else ()
        cands, prods, rest = runs[t][0], products[t], after[t + 1]
        own = suffix[t] if left > 1 else None
        depth += 1  # of each child
        need = min_rows - depth if nonzero[t] else 0
        # in the run that decides, -r of the row at index i is at last - i,
        # and every row is >= -r_1
        last = len(cands) - 1
        decide = tie is not None and runs[t][3]
        stop = (last - tie[0] if tie else last // 2) if decide else last
        for idx in range(start, stop + 1):
            next_tie = (*tie, idx) if decide else tie
            if decide and left == 1:
                # a complete block is not below its negation
                negated = tuple(last - i for i in reversed(next_tie))
                if negated < next_tie:
                    continue
                if negated != next_tie:
                    next_tie = None
            reach = rest | own[idx] if own else rest
            if reach not in bounds:
                bounds[reach] = (
                    [-big if reach >> 2 * u & 2 else 0 for u in range(len(res))],
                    [big if reach >> 2 * u & 1 else 0 for u in range(len(res))],
                )
            lo, hi = bounds[reach]
            new_res = list(map(sub, res, prods[idx]))
            if any(map(lt, new_res, lo)) or any(map(gt, new_res, hi)):
                continue
            if need > 0 and sum(map(new_res.__getitem__, diagonal)) < need:
                continue
            if _is_psd([[*row(new_res)] for row in rows]) is None:
                continue
            if depth >= min_rows and not any(new_res):
                found.append((*chosen, cands[idx]))
            elif depth < k:
                chosen.append(cands[idx])
                yield children(new_res, depth, t, left - 1, idx, next_tie)
                chosen.pop()

    if min_rows <= 0 and not any(root):
        return [()]
    if k == 0 or nonzero[0] and sum(map(root.__getitem__, diagonal)) < min_rows:
        return []
    # the walks of the nodes on the current path, the deepest last; each
    # step pushes the next child walk of the deepest, or drops it when done
    stack = [children(root, 0, -1, 0, 0, () if flip else None)]
    while stack:
        for child in stack[-1]:
            stack.append(child)
            break
        else:
            stack.pop()
    return found


def _closed(cands: Sequence[Row]) -> bool:
    """Whether the decreasing list ``cands`` is closed under r -> -r, that
    is, its own negation reversed."""
    return all(r == tuple(-x for x in s) for r, s in zip(cands, reversed(cands)))
