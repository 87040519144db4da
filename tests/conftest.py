"""Shared oracles for the test suite.

Everything here is implemented independently of the package internals:
permutation-expansion determinants and adjugates, determinantal divisors
from the gcds of minors, Fraction-based pivot tests, an
all-permutations canonical form, a direct multiset search for 2x2 Gram
decompositions, Prüfer-sequence tree enumeration with brute-force
isomorphism, Cayley-table conjugacy counting, a box-filtering row pool,
brute-force listers of pinned Gram decompositions and of orthogonal
columns, the replaced one-entry-per-index orthogonal-column search, a
Gram solution check and a contribution matrix from the plain product
Q.adj.Q^t, and the replaced three-array Smith normal form, ``accumulating_snf``, which pins the
transforms. Agreement between these and the library is the point of the
tests, so none of them may call back into blocksmith. The four exceptions
are ``labelled_enumeration``, ``multiplicity_search_classify``,
``unpruned_search_rows`` and ``expanding_solve``, reference copies of
replaced algorithms that pin the output of their successors, not the
primitives they share with them. ``one_of_each_negated_pair`` states the
kernel's choice of one sequence of each -I pair on the output of
``unpruned_search_rows``.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import settings

# Property tests are replayed from a fixed seed and never timed out, so the
# suite gives the same verdict on every run and on a slow machine.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")


# ---------------------------------------------------------------- matrices


def naive_det(rows) -> int:
    """Permutation expansion; exponential, fine for size <= 6."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def naive_adjugate(rows) -> list:
    """Cofactor expansion, adj[i][j] = (-1)^(i+j) det(rows without row j and
    column i), each minor by ``naive_det``; adj of a 1x1 matrix is [[1]]."""
    n = len(rows)

    def minor(j, i):
        return [[row[c] for c in range(n) if c != i] for r, row in enumerate(rows) if r != j]

    return [[(-1) ** (i + j) * naive_det(minor(j, i)) for j in range(n)] for i in range(n)]


def determinantal_divisors(rows) -> tuple:
    """The nonzero elementary divisors of an integer matrix from its minors:
    D_r is the gcd of all r x r minors (``naive_det``), D_0 = 1, and
    d_r = D_r / D_{r-1} for every r with D_r != 0. Exponential; fine for
    sizes <= 4."""
    n, k = len(rows), len(rows[0])
    divisors = []
    prev = 1
    for r in range(1, min(n, k) + 1):
        d = 0
        for ri in itertools.combinations(range(n), r):
            for ci in itertools.combinations(range(k), r):
                d = gcd(d, naive_det([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        divisors.append(d // prev)
        prev = d
    return tuple(divisors)


def accumulating_snf(rows) -> tuple:
    """(diagonal, left, right) of the Smith normal form of ``rows``, as
    tuple and lists, with left * rows * right = diag, as they were first
    computed: the matrix and both transforms are kept as three arrays and
    every move is applied to the two that it touches. The pivot is the
    least (|a_ij|, i, j) of the remaining block; row and column t are
    cleared by floor division until no remainder is left, the first row
    holding an entry not divisible by the pivot is added to row t, and a
    negative pivot row is negated. What ``smith_normal_form`` returns must
    equal this, transforms included."""
    a = [list(row) for row in rows]
    n_rows, n_cols = len(a), len(a[0])
    left = [[int(i == j) for j in range(n_rows)] for i in range(n_rows)]
    right = [[int(i == j) for j in range(n_cols)] for i in range(n_cols)]

    def row_op(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in right:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(n_rows, n_cols):
        candidates = [
            (abs(a[i][j]), i, j)
            for i in range(t, n_rows)
            for j in range(t, n_cols)
            if a[i][j] != 0
        ]
        if not candidates:
            break
        _, pi, pj = min(candidates)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, n_rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_op(i, t, q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n_cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, n_rows):
            for j in range(t + 1, n_cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(a[i][i] for i in range(min(n_rows, n_cols)))
    return diagonal, left, right


def fraction_definiteness(rows) -> str:
    """'pd', 'psd', or 'indefinite' via exact Gaussian pivots."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    rank_deficient = False
    for k in range(n):
        if a[k][k] < 0:
            return "indefinite"
        if a[k][k] == 0:
            # the whole row and column must vanish for PSD to survive
            if any(a[k][j] != 0 for j in range(k, n)):
                return "indefinite"
            rank_deficient = True
            continue
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return "psd" if rank_deficient else "pd"


def all_permutations_canonical_form(rows) -> tuple:
    """Canonical form under simultaneous row/column permutation, as it was
    first computed: every permutation of range(n) is tried, those that break
    the nonincreasing diagonal are discarded, and the row-major
    lexicographically largest conjugate of the rest is returned as a tuple
    of row tuples. Exponential; fine for n <= 8."""
    n = len(rows)
    best = None
    for perm in itertools.permutations(range(n)):
        diag = [rows[p][p] for p in perm]
        if any(diag[i] < diag[i + 1] for i in range(n - 1)):
            continue
        key = tuple(tuple(rows[i][j] for j in perm) for i in perm)
        if best is None or key > best:
            best = key
    return best


def graph_cartan(n: int, edges) -> list:
    """2I plus the adjacency matrix of a simple graph on range(n)."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def labelled_enumeration(n: int, l: int) -> list:
    """The canonical forms of ``blocksmith.cartan.enumerate_cartan(n, l)``,
    in its order, as they were computed before the row-sum generator: every
    nonincreasing diagonal of entries >= 2 times every upper triangle summing
    to the off-diagonal budget with each entry at most the smaller of its
    two diagonal entries, screened for connectivity and definiteness, then
    canonicalized, deduplicated and sorted.

    Uses the package's screens and canonical form; the generator is the
    replaced code."""
    from blocksmith.intmat import IntMatrix, canonical_perm_form, is_connected, psd_rank

    if l == 1:
        return [((n,),)]
    pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]

    def diagonals(prefix, remaining, cap):
        slots = l - len(prefix)
        if slots == 0:
            yield tuple(prefix)
            return
        for d in range(min(cap, remaining - 2 * (slots - 1)), 1, -1):
            yield from diagonals(prefix + [d], remaining - d, d)

    def off_diagonals(diag, idx, left, acc):
        if idx == len(pairs):
            if left == 0:
                yield acc
            return
        i, j = pairs[idx]
        for v in range(min(diag[i], diag[j], left) + 1):
            yield from off_diagonals(diag, idx + 1, left - v, acc + [v])

    seen = set()
    for diag in diagonals([], n, n):
        budget, odd = divmod(n - sum(diag), 2)
        if odd:
            continue
        for off in off_diagonals(diag, 0, budget, []):
            rows = [[0] * l for _ in range(l)]
            for i in range(l):
                rows[i][i] = diag[i]
            for (i, j), v in zip(pairs, off):
                rows[i][j] = rows[j][i] = v
            if is_connected(rows) and psd_rank([r[:] for r in rows]) == l:
                seen.add(canonical_perm_form(IntMatrix.from_rows(rows)).rows)
    return sorted(seen)


# ---------------------------------------------------- 2x2 Gram brute force


def gram2_decompositions(a: int, b: int, d: int) -> set:
    """All multisets of nonnegative nonzero rows (x, y) with
    sum x^2 = a, sum x*y = b, sum y^2 = d, every row satisfying the strict
    contribution bound (non-strict only when det = 1).

    Direct nonincreasing multiset recursion over an explicit pool; shares
    no code with the solver.
    """
    det = a * d - b * b
    assert det > 0 and a > 0

    def quad(x: int, y: int) -> int:
        return d * x * x - 2 * b * x * y + a * y * y

    pool = []
    for x in range(isqrt(a), -1, -1):
        for y in range(isqrt(d), -1, -1):
            if (x, y) == (0, 0):
                continue
            q = quad(x, y)
            if q < det or (det == 1 and q == det):
                pool.append((x, y))
    pool.sort(reverse=True)

    found = set()

    def rec(idx: int, ra: int, rb: int, rd: int, rows: tuple):
        if ra == 0 and rb == 0 and rd == 0:
            if rows:
                found.add(rows)
            return
        if idx >= len(pool) or ra < 0 or rb < 0 or rd < 0:
            return
        x, y = pool[idx]
        # max copies of this row that still fit
        copies = 0
        na, nb, nd = ra, rb, rd
        while na >= 0 and nb >= 0 and nd >= 0:
            rec(idx + 1, na, nb, nd, rows + (pool[idx],) * copies)
            copies += 1
            na -= x * x
            nb -= x * y
            nd -= y * y

    rec(0, a, b, d, ())
    return found


# ---------------------------------------------------- row pool brute force


def box_row_pool(c, signed) -> list:
    """The row pool of the target c, by filtering its box: every nonzero
    row with |r_i| <= isqrt(c_ii) (0 <= r_i unless signed) and
    r.adj(c).r^t below det c, or equal to it when det c = 1; in nonnegative
    mode also r_i r_j <= c_ij for i != j. Sorted decreasing."""
    adj, d = naive_adjugate(c), naive_det(c)
    limit = d if d == 1 else d - 1
    l = len(c)
    box = itertools.product(
        *(range(-isqrt(c[i][i]) if signed else 0, isqrt(c[i][i]) + 1) for i in range(l))
    )
    return sorted(
        (
            r for r in box
            if any(r)
            and quad(r, adj) <= limit
            and (signed or all(r[i] * r[j] <= c[i][j]
                               for i in range(l) for j in range(l) if i != j))
        ),
        reverse=True,
    )


# ------------------------------------------------ pinned Gram brute force


def adj_det(c):
    """Adjugate and determinant of a 1x1 or 2x2 matrix."""
    if len(c) == 1:
        return [[1]], c[0][0]
    (a, b), (_, d) = c
    return [[d, -b], [-b, a]], a * d - b * b


def quad(r, adj) -> int:
    n = len(r)
    return sum(r[i] * adj[i][j] * r[j] for i in range(n) for j in range(n))


def plain_forms(q, adj) -> list:
    """Q.adj.Q^t by the plain product, for a k x l list q and l x l adj."""
    l = len(adj)
    qa = [[sum(r[i] * adj[i][j] for i in range(l)) for j in range(l)] for r in q]
    return [[sum(x * y for x, y in zip(row, s)) for s in q] for row in qa]


def plain_verify(
    q, c, adj, d, signed=False, require_nonzero_rows=True, diag=None, defect_order=None
) -> bool:
    """The verdict of a Gram solution check without fixed blocks, forced
    zero rows or a row count, from the definitions: Q^t Q equal to c in
    every entry, the signs, no zero row if require_nonzero_rows,
    r.adj.r^t < d (<= when d = 1) for every nonzero row and
    defect_order * r_i.adj.r_i^t / d equal to diag[i] (which also fixes
    the row count); the row forms are the diagonal of ``plain_forms``."""
    l = len(c)
    if diag is not None and len(q) != len(diag):
        return False
    gram = [[sum(r[i] * r[j] for r in q) for j in range(l)] for i in range(l)]
    if gram != [list(row) for row in c]:
        return False
    if not signed and any(x < 0 for r in q for x in r):
        return False
    if require_nonzero_rows and not all(any(r) for r in q):
        return False
    forms = plain_forms(q, adj)
    for i, r in enumerate(q):
        f = forms[i][i]
        if any(r) and not (f < d or (d == 1 and f == d)):
            return False
        if diag is not None and defect_order * f != diag[i] * d:
            return False
    return True


def plain_contribution(q, c, adj, d, defect_order):
    """defect_order * Q.adj.Q^t / d from ``plain_forms``, with the checks of
    a contribution matrix: the rows of M, or the name of the first check
    that fails ("gram" for Q^t Q != c, "integral", "symmetric",
    "idempotent", "trace")."""
    l = len(c)
    if [[sum(r[i] * r[j] for r in q) for j in range(l)] for i in range(l)] != [
        list(row) for row in c
    ]:
        return "gram"
    forms = plain_forms(q, adj)
    if any(defect_order * x % d for row in forms for x in row):
        return "integral"
    m = [[defect_order * x // d for x in row] for row in forms]
    k = len(m)
    if any(m[i][j] != m[j][i] for i in range(k) for j in range(k)):
        return "symmetric"
    mm = [[sum(m[i][t] * m[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    if mm != [[defect_order * x for x in row] for row in m]:
        return "idempotent"
    if sum(m[i][i] for i in range(k)) != defect_order * l:
        return "trace"
    return m


def pinned_gram_oracle(
    c, k, signed, blocks=(), diag=None, defect_order=None, zero_rows=(),
    require_nonzero_rows=True,
) -> set:
    """Every k x l integer matrix Q (a tuple of rows), l <= 2, with
    Q^t Q = c; entries >= 0 unless signed; every nonzero row r obeying
    r.adj(c).r^t < det c (<= when det c = 1); B^t Q = 0 for every fixed
    block B (a list of k rows); defect_order * r_i.adj(c).r_i^t / det c
    equal to diag[i]; rows in zero_rows zero and, if require_nonzero_rows,
    every other row nonzero.

    Rows are drawn one at a time from every integer vector whose squares fit
    the remaining column norms; all constraints are checked on the complete
    matrix.
    """
    l = len(c)
    adj, det = adj_det(c)

    def valid(q) -> bool:
        if any(
            sum(q[t][i] * q[t][j] for t in range(k)) != c[i][j]
            for i in range(l)
            for j in range(l)
        ):
            return False
        for i, r in enumerate(q):
            if i in zero_rows and any(r):
                return False
            if i not in zero_rows and require_nonzero_rows and not any(r):
                return False
            if any(r):
                q_r = quad(r, adj)
                if q_r > det or (q_r == det and det != 1):
                    return False
            if diag is not None:
                num = defect_order * quad(r, adj)
                if num % det or num // det != diag[i]:
                    return False
        return all(
            sum(b[t][u] * q[t][j] for t in range(k)) == 0
            for b in blocks
            for u in range(len(b[0]))
            for j in range(l)
        )

    found = set()

    def rec(rows, norms):
        if len(rows) == k:
            if not any(norms) and valid(rows):
                found.add(rows)
            return
        ranges = [
            range(-isqrt(n), isqrt(n) + 1) if signed else range(isqrt(n) + 1)
            for n in norms
        ]
        for r in itertools.product(*ranges):
            rec(rows + (r,), [n - x * x for n, x in zip(norms, r)])

    rec((), [c[j][j] for j in range(l)])
    return found


def pinned_gram_orbit(q, c, signed, blocks=(), diag=None, zero_rows=()) -> set:
    """Images of Q under the column negations S with S c S = c (signed mode
    only) and the permutations of rows that share their fixed-block rows,
    diagonal constraint and zero-row flag."""
    l, k = len(c), len(q)
    groups: dict = {}
    for i in range(k):
        key = (
            tuple(tuple(b[i]) for b in blocks),
            None if diag is None else diag[i],
            i in zero_rows,
        )
        groups.setdefault(key, []).append(i)
    groups = list(groups.values())
    if not signed:
        patterns = [(1,) * l]
    elif l == 2 and c[0][1] == 0:
        patterns = list(itertools.product((1, -1), repeat=2))
    else:
        patterns = [(1,) * l, (-1,) * l]
    orbit = set()
    for pat in patterns:
        signed_q = [tuple(s * x for s, x in zip(pat, r)) for r in q]
        for perms in itertools.product(
            *(itertools.permutations(g) for g in groups)
        ):
            image = list(signed_q)
            for g, perm in zip(groups, perms):
                for slot, src in zip(g, perm):
                    image[slot] = signed_q[src]
            orbit.add(tuple(image))
    return orbit


def unpruned_search_rows(c, slots, min_rows, cols=()) -> list:
    """The Gram-search kernel as it was before the reach prune, the
    row-count prune and the runs: one candidate list per slot, consecutive
    slots given the same list object filled nonincreasingly, the same
    emission rule, a diagonal bound, a Cauchy-Schwarz prune on the cross
    sums and the PSD test on the residual, and nothing else. For kernel
    runs given each their own list, with each run's list repeated once per
    row as the slots, its output, order included, is what
    ``blocksmith._kernel.search_rows`` must return; with fixed columns
    ``cols``, the kernel gets them as coordinates instead (the rows
    (r | u_i) against diag(C, U^t U)), and its sequences cut back to the
    first l entries must be these."""
    from blocksmith.intmat import psd_rank

    l = len(c)
    k = len(slots)
    shared = [i > 0 and slots[i] is slots[i - 1] for i in range(k)]
    tails = [[sum(x * x for x in col[i:]) for i in range(k + 1)] for col in cols]
    found = []
    chosen = []

    def recurse(res, cross, start):
        depth = len(chosen)
        if depth >= min_rows and not any(map(any, res)) and not any(map(any, cross)):
            found.append(tuple(chosen))
            return
        if depth == k:
            return
        cands = slots[depth]
        for idx in range(start if shared[depth] else 0, len(cands)):
            r = cands[idx]
            if any(r[j] * r[j] > res[j][j] for j in range(l)):
                continue
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
            new_res = [[x - ri * rj for x, rj in zip(row, r)] for row, ri in zip(res, r)]
            if psd_rank([row[:] for row in new_res]) is None:
                continue
            chosen.append(r)
            recurse(new_res, new_cross, idx)
            chosen.pop()

    recurse([list(row) for row in c], [[0] * l for _ in cols], 0)
    return found


def one_of_each_negated_pair(found, runs, fixed, min_rows) -> list:
    """``found``, the sequences of a search over ``runs`` ((list, count)
    pairs) with fixed rows ``fixed`` that walks both members of each -I
    pair, less those the kernel leaves out, in order. -I applies when some
    fixed row is nonzero, the list of each run with a nonzero fixed row is
    closed under r -> -r and min_rows reaches the row count; then X' is X
    with the block of every run whose list is closed and holds a nonzero
    row negated and re-sorted, and X is left out when X' has the larger
    block at the first such run where they differ. Asserts that each X
    left out has its X' among the sequences."""
    def neg(r):
        return tuple(-x for x in r)

    def closed(cands):
        return set(map(neg, cands)) == set(cands)

    live = [(cands, u) for (cands, n), u in zip(runs, fixed) if n]
    if (
        min_rows < sum(n for _, n in runs)
        or not any(any(u) for _, u in live)
        or not all(closed(cands) for cands, u in live if any(u))
    ):
        return list(found)
    negated = [closed(cands) and any(map(any, cands)) for cands, _ in runs]
    spans = list(itertools.accumulate((n for _, n in runs), initial=0))
    everything = set(found)
    kept = []
    for rows in found:
        blocks = [rows[a:b] for a, b in zip(spans, spans[1:])]
        mirror = [
            tuple(sorted(map(neg, block), reverse=True)) if flip else block
            for block, flip in zip(blocks, negated)
        ]
        if blocks >= mirror:
            kept.append(rows)
        else:
            assert tuple(itertools.chain.from_iterable(mirror)) in everything
    return kept


def expanding_solve(p) -> list:
    """The canonical row sequences of ``blocksmith.gram.solve(p)``, in its
    order, as they were computed before solutions were built per sign
    class: every sign expansion of every representative sequence (and every
    sequence of a pinned search) is canonicalized under every column-sign
    pattern S with S C S = C and the allowed row permutations, and the
    distinct forms are sorted by (row count, repr).

    Uses the package's row pool, kernel (free problems) and row bound; a
    pinned problem goes through ``unpruned_search_rows`` with one slot per
    row index, so a group whose indices interleave with another's is walked
    index by index, and with its fixed columns as cross sums. The
    expansion, zero-row padding, canonical form and dedupe are the replaced
    code."""
    from blocksmith import _kernel
    from blocksmith.gram import _row_pool, row_quad
    from blocksmith.intmat import adjugate_and_det

    p.validate()
    c = p.target_gram
    l = c.col_count
    zero = (0,) * l
    if p.signed:
        patterns = [
            s for s in itertools.product((1, -1), repeat=l)
            if all(s[i] * s[j] * c.rows[i][j] == c.rows[i][j]
                   for i in range(l) for j in range(l))
        ]
    else:
        patterns = [(1,) * l]
    pool = _row_pool(c, p.signed)

    if p.pinned:
        k = p.pinned_row_count()
        keys: dict = {}
        for i in range(k):
            key = (
                tuple(b.rows[i] for b in p.fixed_blocks),
                None if p.diag_constraints is None else p.diag_constraints[i],
                i in p.zero_rows,
            )
            keys.setdefault(key, []).append(i)
        groups = list(keys.values())
        if not p.require_nonzero_rows:
            pool = sorted(pool + [zero], reverse=True)
        adj, d = adjugate_and_det(c)
        slots = [None] * k
        for g in groups:
            opts = [zero] if g[0] in p.zero_rows else list(pool)
            if p.diag_constraints is not None:
                want = p.diag_constraints[g[0]] * d
                opts = [r for r in opts if row_quad(r, adj) * p.defect_order == want]
            for i in g:
                slots[i] = opts
        cols = [
            tuple(b.rows[i][u] for i in range(k))
            for b in p.fixed_blocks
            for u in range(b.col_count)
        ]
        raw = unpruned_search_rows(c.to_lists(), slots, k, cols)
    else:
        if p.signed:
            pool = [r for r in pool if next(x for x in r if x) > 0]
        trace = c.trace()
        if p.row_count is None:
            lo, hi = 1, trace
        elif isinstance(p.row_count, tuple):
            lo, hi = p.row_count
        else:
            lo = hi = p.row_count
        pad = not p.require_nonzero_rows and p.row_count is not None
        found = _kernel.search_rows(
            c.to_lists(), [(pool, min(hi, trace))], 1 if pad else lo
        )
        if p.signed:
            expanded = []
            for rows in found:
                runs = []
                for r, run in itertools.groupby(rows):
                    m = len(list(run))
                    neg = tuple(-x for x in r)
                    runs.append([(r,) * (m - j) + (neg,) * j for j in range(m + 1)])
                for pick in itertools.product(*runs):
                    expanded.append(
                        tuple(sorted(itertools.chain.from_iterable(pick), reverse=True))
                    )
            found = expanded
        if pad:
            found = [
                rows + (zero,) * (k - len(rows))
                for rows in found
                for k in range(max(len(rows), lo), hi + 1)
            ]
        raw = found

    def canonical(rows):
        row_groups = groups if p.pinned else [list(range(len(rows)))]
        best = None
        for pat in patterns:
            signed_rows = [tuple(s * x for s, x in zip(pat, r)) for r in rows]
            arranged = list(signed_rows)
            for g in row_groups:
                block = sorted((signed_rows[i] for i in g), reverse=True)
                for slot, row in zip(g, block):
                    arranged[slot] = row
            if best is None or tuple(arranged) > best:
                best = tuple(arranged)
        return best

    seen = {canonical(rows): True for rows in raw}
    return sorted(seen, key=lambda rows: (len(rows), repr(rows)))


# ---------------------------------------- orthogonal column brute force


def orthogonal_column_oracle(q1, g, signed, zero_rows=()) -> list:
    """Every integer vector v of length k = len(q1) with v.v = g, q1^t v = 0
    (q1 a list of k rows) and v_i = 0 for i in zero_rows, sorted decreasing.
    Entries are >= 0 unless signed; in signed mode v and -v are reported
    once, as the one whose first nonzero entry is positive.

    Every vector with entries in [-isqrt(g), isqrt(g)] is tested."""
    k = len(q1)
    b = isqrt(g)
    found = set()
    for v in itertools.product(range(-b if signed else 0, b + 1), repeat=k):
        if sum(x * x for x in v) != g or any(v[i] for i in zero_rows):
            continue
        if any(sum(v[t] * q1[t][u] for t in range(k)) for u in range(len(q1[0]))):
            continue
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        found.add(v)
    return sorted(found, reverse=True)


def plain_orthogonal_column(q1, g, signed=True, zero_rows=()) -> list:
    """The orthogonal-column search as it was before classes of equal rows:
    one entry of v per index in order, nonnegative until the first nonzero
    one in signed mode, with the Cauchy-Schwarz prune on each partial dot
    product with a column of q1 (a list of k rows). Its output, order
    included, is what ``blocksmith.solve_orthogonal_column`` must return."""
    k = len(q1)
    cols = [tuple(row[u] for row in q1) for u in range(len(q1[0]))]
    suffix_sq = [[sum(x * x for x in col[i:]) for i in range(k + 1)] for col in cols]
    out = []
    entry = []

    def place(i, remaining, dots):
        if i == k:
            if remaining == 0 and all(s == 0 for s in dots):
                out.append(tuple(entry))
            return
        if i in zero_rows:
            choices = (0,)
        else:
            b = isqrt(remaining)
            # remaining < g once a nonzero entry has been placed
            choices = range(-b if signed and remaining < g else 0, b + 1)
        for x in choices:
            rem = remaining - x * x
            new_dots = [s + col[i] * x for s, col in zip(dots, cols)]
            if any(s * s > suffix_sq[u][i + 1] * rem for u, s in enumerate(new_dots)):
                continue
            entry.append(x)
            place(i + 1, rem, new_dots)
            entry.pop()

    place(0, g, [0] * len(cols))
    out.sort(reverse=True)
    return out


# ------------------------------------------------------------------- trees


def prufer_trees(n: int):
    """Every labeled tree on vertices 0..n-1, decoded from Prüfer sequences."""
    if n == 1:
        return
    if n == 2:
        yield ((0, 1),)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        work = list(seq)
        leaves = sorted(v for v in range(n) if degree[v] == 1)
        for v in work:
            leaf = leaves.pop(0)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(leaves, v)
        u, v = leaves
        edges.append((min(u, v), max(u, v)))
        yield tuple(sorted(edges))


def _relabel(edges, perm):
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def canonical_free_tree(edges, n: int):
    return min(_relabel(edges, perm) for perm in itertools.permutations(range(n)))


def canonical_marked_tree(edges, mark: int, n: int):
    best = None
    for perm in itertools.permutations(range(n)):
        key = (_relabel(edges, perm), perm[mark])
        if best is None or key < best:
            best = key
    return best


def marked_tree_classes(e: int) -> set:
    """Isomorphism classes of (tree with e edges, marked vertex)."""
    n = e + 1
    shapes = {}
    for edges in prufer_trees(n):
        shapes.setdefault(canonical_free_tree(edges, n), edges)
    classes = set()
    for edges in shapes.values():
        for mark in range(n):
            classes.add(canonical_marked_tree(edges, mark, n))
    return classes


def oracle_tree_cartan(edges, mark: int, m: int):
    """Cartan matrix of a marked tree, straight from the definition: the
    exceptional vertex has weight m, every other vertex weight 1, entries
    sum the weights of shared endpoints."""
    e = len(edges)

    def w(v):
        return m if v == mark else 1

    rows = []
    for i, (u1, v1) in enumerate(edges):
        row = []
        for j, (u2, v2) in enumerate(edges):
            if i == j:
                row.append(w(u1) + w(v1))
            else:
                shared = {u1, v1} & {u2, v2}
                row.append(w(shared.pop()) if shared else 0)
        rows.append(row)
    return rows


def multiplicity_search_classify(dim: int) -> list:
    """``to_obj()`` list of the defect-one classification as it was first
    computed: for each edge count e, the marked trees are enumerated again
    for m = 1, 2, ... until even the smallest is larger than dim, and the
    trees of dimension dim with e*m + 1 prime are kept, deduplicated by
    (canonical Cartan matrix, m, p) in enumeration order, then sorted.

    Built from the package's tree enumeration, Cartan matrices, shape names
    and canonical form (looked up on ``blocksmith.brauer`` at call time), so
    it pins representatives and order, not those primitives."""
    from blocksmith import brauer
    from blocksmith.cartan import is_prime

    out = []
    seen = set()
    e = 1
    while e <= 8 and (e == 1 or 4 * e - 2 <= dim):
        m = 1
        while True:
            trees = brauer.enumerate_trees(e, multiplicity=m)
            dims = [brauer.dim_of_tree(t) for t in trees]
            if min(dims) > dim:
                break
            p = e * m + 1
            if is_prime(p):
                for t, d in zip(trees, dims):
                    if d != dim:
                        continue
                    cartan = brauer.canonical_perm_form(brauer.cartan_of_tree(t))
                    if (cartan, m, p) in seen:
                        continue
                    seen.add((cartan, m, p))
                    out.append(brauer.DefectOneMatch(
                        shape=brauer.shape_name(t), tree=t, multiplicity=m,
                        p=p, cartan=cartan,
                    ))
            m += 1
        e += 1
    out.sort(key=lambda r: (r.cartan.row_count, r.cartan.rows, r.multiplicity))
    return [r.to_obj() for r in out]


# ------------------------------------------------------------------ groups


def conjugacy_class_count(elements, mul) -> int:
    elements = list(elements)
    identity = None
    for e in elements:
        if all(mul(e, g) == g for g in elements):
            identity = e
            break
    assert identity is not None
    inverse = {}
    for g in elements:
        for h in elements:
            if mul(g, h) == identity:
                inverse[g] = h
                break
    reps = set()
    for g in elements:
        orbit = frozenset(mul(mul(h, g), inverse[h]) for h in elements)
        reps.add(orbit)
    return len(reps)


def cyclic_group(n: int):
    return list(range(n)), lambda a, b: (a + b) % n


def klein_four():
    els = list(itertools.product((0, 1), repeat=2))
    return els, lambda a, b: ((a[0] ^ b[0]), (a[1] ^ b[1]))


def dihedral8():
    els = list(itertools.product(range(4), range(2)))

    def mul(g, h):
        a, b = g
        c, d = h
        return ((a + (c if b == 0 else -c)) % 4, b ^ d)

    return els, mul


def quaternion8():
    # units +-1, +-i, +-j, +-k as (sign, axis) with axis 0=1, 1=i, 2=j, 3=k
    table = {
        (1, 1): (1, 0),
        (1, 2): (1, 3),
        (1, 3): (-1, 2),
        (2, 1): (-1, 3),
        (2, 2): (1, 0),
        (2, 3): (1, 1),
        (3, 1): (1, 2),
        (3, 2): (-1, 1),
        (3, 3): (1, 0),
    }

    def mul(g, h):
        sg, ag = g
        sh, ah = h
        if ag == 0:
            return (sg * sh, ah)
        if ah == 0:
            return (sg * sh, ag)
        if ag == ah:
            return (-sg * sh, 0)
        s, axis = table[(ag, ah)]
        return (sg * sh * s, axis)

    els = [(s, a) for s in (1, -1) for a in range(4)]
    return els, mul


def semidihedral16():
    els = list(itertools.product(range(8), range(2)))

    def mul(g, h):
        a, b = g
        c, d = h
        return ((a + c * (3 if b else 1)) % 8, b ^ d)

    return els, mul


@pytest.fixture
def rng():
    import random

    return random.Random(20260814)
