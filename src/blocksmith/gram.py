"""Integral Gram decompositions: all Q with Q^t Q = C under sign, row-count,
orthogonality, contribution-diagonal, and forced-zero-row constraints.

A valid row r must satisfy r.adj(C).r^t < det C, with equality permitted only
when det C = 1: the contribution diagonal entry of such a row equals the
defect order, which would force every other subsection contribution of that
character to vanish and the character to have defect zero, impossible unless
the defect group is trivial. The pruning licensed by the conservative bound
(discard rows with r.adj(C).r^t > det C) is therefore never lossy here.

Solutions are counted up to the column negations S with S C S = C (one sign
per connected component of C) and the row permutations the problem allows,
and each is reported as the row-major largest member of its class. A free
signed problem is searched over sign representatives only (rows whose first
nonzero entry is positive), and its classes are then built from each
representative sequence X directly, one canonical form per class, without
expanding every sign choice of X and deduplicating: with m_t copies of the
row r_t in X, a class is a pair {j, m - j} of negation counts per row when
C is connected, and for a disconnected C only the largest X of each orbit
of the patterns is used (``_solve_free`` says why both are exact). Pinned
problems canonicalize each sequence the kernel emits. ``verify_solution``
re-checks every returned solution from its rows and columns.

The row form r.adj(C).s^t has one memo per adjugate (``row_forms``), keyed
on the adjugate itself rather than on C. The pool build fills its (r, r)
entries once per target, and every later reader (verification, the pinned
diagonal filter, the casebook valuation filter and the contribution
matrix) looks the values up instead of evaluating them per solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import _kernel
from .intmat import (
    IntMatrix,
    InvariantError,
    MatrixError,
    adjugate_and_det,
    is_positive_definite,
)

Row = tuple[int, ...]


class GramInputError(ValueError):
    """The problem statement itself is invalid (as opposed to unsatisfiable)."""


@dataclass(frozen=True)
class GramProblem:
    """Search problem for Q^t Q = target_gram.

    ``row_count`` may be an exact count or an inclusive (low, high) range.
    ``fixed_blocks`` are known k x l_v matrices whose cross-Gram with the
    solution must vanish. ``diag_constraints`` prescribes the diagonal of
    defect_order * Q * C^{-1} * Q^t. ``zero_rows`` forces rows to vanish.
    Any of the last three pins the row indices: row permutations are then
    only applied within groups of indices that share all pinned data.
    """

    target_gram: IntMatrix
    sign_mode: str = "nonnegative"
    row_count: int | tuple[int, int] | None = None
    require_nonzero_rows: bool = True
    fixed_blocks: tuple[IntMatrix, ...] = ()
    diag_constraints: tuple[int, ...] | None = None
    defect_order: int | None = None
    zero_rows: frozenset[int] = frozenset()

    @property
    def signed(self) -> bool:
        return self.sign_mode == "signed"

    @property
    def pinned(self) -> bool:
        return bool(self.fixed_blocks) or self.diag_constraints is not None or bool(
            self.zero_rows
        )

    def pinned_row_count(self) -> int | None:
        if self.fixed_blocks:
            return self.fixed_blocks[0].row_count
        if self.diag_constraints is not None:
            return len(self.diag_constraints)
        if isinstance(self.row_count, int):
            return self.row_count
        return None

    def validate(self) -> None:
        c = self.target_gram
        if not c.is_symmetric:
            raise GramInputError("target Gram matrix must be symmetric")
        if not is_positive_definite(c):
            raise GramInputError(
                "target Gram matrix must be positive definite (search unbounded)"
            )
        if self.sign_mode not in ("nonnegative", "signed"):
            raise GramInputError(f"unknown sign mode {self.sign_mode!r}")
        if isinstance(self.row_count, tuple):
            lo, hi = self.row_count
            if lo < 1 or hi < lo:
                raise GramInputError("bad row-count range")
        elif self.row_count is not None and self.row_count < 1:
            raise GramInputError("row count must be positive")
        if self.diag_constraints is not None and self.defect_order is None:
            raise GramInputError("diag constraints need a defect order")
        if self.defect_order is not None and self.defect_order <= 0:
            raise GramInputError("defect order must be positive")
        k = self.pinned_row_count()
        for b in self.fixed_blocks:
            if b.row_count != k:
                raise GramInputError("fixed blocks disagree on row count")
        if self.pinned:
            if k is None:
                raise GramInputError(
                    "zero rows alone do not determine the row count; give row_count"
                )
            if self.diag_constraints is not None and len(self.diag_constraints) != k:
                raise GramInputError("diag constraint length mismatch")
            if any(i < 0 or i >= k for i in self.zero_rows):
                raise GramInputError("zero-row index out of range")
            if isinstance(self.row_count, int) and self.row_count != k:
                raise GramInputError("row_count conflicts with pinned inputs")


@dataclass(frozen=True)
class GramSolution:
    q: IntMatrix


def row_quad(r: Sequence[int], adj: IntMatrix, s: Sequence[int] | None = None) -> int:
    """r . adj . s^t, evaluated afresh; s defaults to r, and r . adj . r^t
    is the scaled contribution of the row. Readers take the value from the
    memo of ``row_forms`` instead, which calls this once per pair."""
    s = r if s is None else s
    return sum(ri * sum(map(mul, row, s)) for ri, row in zip(r, adj.rows) if ri)


class RowForms(dict):
    """The memo of one adjugate: (r, s) -> r . adj . s^t for row tuples r
    and s, each pair evaluated by ``row_quad`` on its first read."""

    def __init__(self, adj: IntMatrix) -> None:
        super().__init__()
        self.adj = adj

    def __missing__(self, key: tuple[Row, Row]) -> int:
        r, s = key
        value = self[key] = row_quad(r, self.adj, s)
        return value


@lru_cache(maxsize=32)
def row_forms(adj: IntMatrix) -> RowForms:
    """The row-form memo of ``adj``, keyed on the adjugate the caller got
    (not on C), so a wrong or patched adjugate never reads entries computed
    from another one. Bounded like ``adjugate_and_det``. The pool build
    fills the (r, r) entries of every row of the box; ``verify_solution``,
    the pinned diagonal filter, the casebook valuation filter and
    ``contrib.contribution_matrix`` read from it."""
    return RowForms(adj)


def _quad_limit(d: int) -> int:
    """The largest r . adj . r^t a valid row may have: below det C, or equal
    to it when det C = 1."""
    return d if d == 1 else d - 1


def row_is_valid(r: Sequence[int], adj: IntMatrix, d: int) -> bool:
    r = tuple(r)
    return row_forms(adj)[r, r] <= _quad_limit(d)


def _row_pool(c: IntMatrix, signed: bool) -> list[Row]:
    """Candidate rows, sorted decreasing; zero row excluded. Fills the memo
    of adj(C) with r . adj . r^t for every nonzero row of the box."""
    adj, d = adjugate_and_det(c)
    forms = row_forms(adj)
    limit = _quad_limit(d)
    bounds = [isqrt(c.rows[j][j]) for j in range(c.col_count)]
    ranges = [
        range(-b, b + 1) if signed else range(0, b + 1) for b in bounds
    ]
    pool = [
        r
        for r in itertools.product(*ranges)
        if any(r) and forms[r, r] <= limit
    ]
    pool.sort(reverse=True)
    return pool


def _sign_patterns(c: IntMatrix) -> list[tuple[int, ...]]:
    """Column negations S with S C S = C: one sign per connected component."""
    l = c.row_count
    comp = list(range(l))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for i in range(l):
        for j in range(i):
            if c.rows[i][j] != 0:
                comp[find(i)] = find(j)
    roots = sorted({find(i) for i in range(l)})
    patterns = []
    for bits in itertools.product((1, -1), repeat=len(roots)):
        sign = {root: b for root, b in zip(roots, bits)}
        patterns.append(tuple(sign[find(i)] for i in range(l)))
    return patterns


def _canonicalize(
    rows: Sequence[Row],
    groups: Sequence[Sequence[int]],
    patterns: Sequence[tuple[int, ...]],
) -> tuple[Row, ...]:
    """Deterministic representative under allowed column signs and
    permutations within each pinned group. ``rows`` holds the rows of each
    group in turn, in the order of ``groups``; each goes to its group's
    indices."""

    def arrange(pat: tuple[int, ...]) -> tuple[Row, ...]:
        # strict: a row that still carries appended fixed-column entries is
        # an error, not silently cut to the pattern's length
        signed_rows = (
            tuple(s * x for s, x in zip(pat, r, strict=True)) for r in rows
        )
        arranged: list[Row] = [()] * len(rows)
        for g in groups:
            block = sorted(itertools.islice(signed_rows, len(g)), reverse=True)
            for slot, row in zip(g, block):
                arranged[slot] = row
        return tuple(arranged)

    return max(arrange(pat) for pat in patterns)


def solve(p: GramProblem) -> list[GramSolution]:
    """Complete, duplicate-free solution list for the Gram problem.

    Each solution is the canonical form of one class of row sequences under
    the column-sign patterns and the allowed row permutations (all rows of a
    free problem, each pinned group of a pinned one): the row-major largest
    member, sorted by (row count, repr of its rows). ``_solve_free`` and
    ``_solve_pinned`` give each class once.

    Returns [] when the constraints are proved unsatisfiable; raises
    GramInputError when the problem statement is malformed. Every returned
    solution passes ``verify_solution``; InvariantError is raised otherwise.
    """
    p.validate()
    canon = _solve_pinned(p) if p.pinned else _solve_free(p)
    canon.sort(key=lambda rows: (len(rows), repr(rows)))
    # rows of the integer row pool, negated or zero: ints by construction
    solutions = [GramSolution(q=IntMatrix._unchecked(rows)) for rows in canon]
    for s in solutions:
        if not verify_solution(p, s):
            raise InvariantError(
                f"internal: solution {s.q.to_lists()} failed verification"
            )
    return solutions


def _row_groups(p: GramProblem, k: int) -> list[list[int]]:
    """Indices of a pinned problem's k rows that may be permuted among each
    other: those sharing their fixed-block rows, diagonal constraint and
    zero-row flag."""
    keys = {}
    for i in range(k):
        key = (
            tuple(b.rows[i] for b in p.fixed_blocks),
            None if p.diag_constraints is None else p.diag_constraints[i],
            i in p.zero_rows,
        )
        keys.setdefault(key, []).append(i)
    return list(keys.values())


def _sign_rep(r: Row) -> Row:
    """The one of r and -r whose first nonzero entry is positive."""
    return r if next(x for x in r if x) > 0 else tuple(-x for x in r)


def _class_codes(mults: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """One code from each pair {j, m - j}: the codes j (j_t of the m_t
    copies of run t negated) with j <= m - j lexicographically. The first t
    with 2 j_t != m_t has 2 j_t < m_t; if there is none, j = m / 2."""
    balanced: list[int] = []
    for t, m in enumerate(mults):
        for jt in range((m + 1) // 2):
            for rest in itertools.product(*(range(x + 1) for x in mults[t + 1 :])):
                yield (*balanced, jt, *rest)
        if m % 2:
            return
        balanced.append(m // 2)
    yield tuple(balanced)


def _sign_classes(
    rows: tuple[Row, ...],
    patterns: Sequence[tuple[int, ...]],
    fills: Sequence[tuple[Row, ...]],
) -> Iterator[tuple[Row, ...]]:
    """For each code of ``_class_codes``, the largest sorted form of its
    sign expansion of ``rows`` (nonincreasing sign representatives) under
    the column negations ``patterns``, once with each zero-row fill of
    ``fills``.

    The expansion with code j has m_t - j_t copies of the run row r_t and
    j_t of -r_t. Under a pattern S these are the 2T distinct rows +-S r_t,
    so its sorted form is read off one decreasing order of them per
    pattern, with no sort per expansion: the T rows whose first nonzero
    entry is positive come first, then the zero rows, then the T others.
    Comparing (positive part, negative part) pairs orders the forms as
    whole sequences, whatever the fill, since the positive part of a form
    is followed by rows smaller than any positive row."""
    runs = [(r, len(list(g))) for r, g in itertools.groupby(rows)]
    mults = [m for _, m in runs]
    half = len(runs)
    orders = []
    for pat in patterns:
        images = []
        for t, (r, _) in enumerate(runs):
            v = tuple(s * x for s, x in zip(pat, r))
            images += [(v, t, False), (tuple(-x for x in v), t, True)]
        images.sort(reverse=True)
        orders.append((images[:half], images[half:]))
    chain = itertools.chain.from_iterable
    for code in _class_codes(mults):
        # copies of r_t kept and negated, indexed by the negated flag
        counts = [(m - j, j) for j, m in zip(code, mults)]
        pos, neg = max(
            tuple(
                tuple(chain((v,) * counts[t][negated] for v, t, negated in part))
                for part in order
            )
            for order in orders
        )
        for fill in fills:
            yield pos + fill + neg


def _solve_free(p: GramProblem) -> list[tuple[Row, ...]]:
    """Canonical row sequences of an unpinned problem, one per solution.

    The kernel emits each multiset of rows once, as a nonincreasing
    sequence, so a nonnegative sequence is already its canonical form.

    A signed search hands the kernel only the sign representatives of the
    pool (rows whose first nonzero entry is positive): r and -r give the
    same r^t r, so a full-pool search walks every partial solution once per
    sign choice. A representative sequence X stands for its sign
    expansions, the sequences with j_t of the m_t copies of each row r_t
    negated; together they are exactly what the full-pool search emits.
    The solutions are the classes of expansions under the column-sign
    patterns, each named by its largest sorted form, and each is built from
    X once instead of expanding every sequence and discarding duplicates:

    - -I keeps X and maps code j to m - j, so the codes j <= m - j of
      ``_class_codes`` meet every class of X. For a connected target (every
      Cartan candidate), +-I are the only patterns, so these codes are the
      classes of X, one each, and the identity's form is already the larger
      (at the first run where j and m - j differ it keeps more positive
      copies); ``_sign_classes`` builds just that form.
    - Disconnected target: a pattern S maps the expansions of X one to one
      onto those of rep(S X), the sorted sign representatives of its rows,
      so every class meets the expansions of each X of its orbit. Only the
      largest X of each orbit is used; ``_sign_classes`` takes the largest
      form over all patterns, and the classes of that X are deduplicated
      among themselves.

    With zero rows allowed, a row-count window is the union of its exact
    counts: a sequence of n nonzero rows is padded with zero rows to every
    count of the window that is at least n. Zero rows are fixed by every
    pattern and sort between the positive and the negated rows.
    """
    c = p.target_gram
    pool = _row_pool(c, p.signed)
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
    # nonzero rows each consume at least 1 of the trace
    found = _kernel.search_rows(c.to_lists(), [(pool, min(hi, trace))], 1 if pad else lo)
    zero = (0,) * c.col_count

    def fills(n: int) -> list[tuple[Row, ...]]:
        if not pad:
            return [()]
        return [(zero,) * (k - n) for k in range(max(n, lo), hi + 1)]

    if not p.signed:
        return [rows + fill for rows in found for fill in fills(len(rows))]
    patterns = _sign_patterns(c)
    if len(patterns) == 2:
        return [
            form
            for rows in found
            for form in _sign_classes(rows, [(1,) * c.col_count], fills(len(rows)))
        ]
    out: list[tuple[Row, ...]] = []
    for rows in found:
        orbit = (
            sorted((_sign_rep(tuple(s * x for s, x in zip(pat, r))) for r in rows), reverse=True)
            for pat in patterns
        )
        if list(rows) == max(orbit):
            out += dict.fromkeys(_sign_classes(rows, patterns, fills(len(rows))))
    return out


def _with_columns(
    c: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
) -> list[list[int]]:
    """diag(C, U^t U) for the matrix U with columns ``cols``: the target of
    the kernel rows (r_i | u_i), which sum to it exactly when the rows r_i
    sum to C and are orthogonal to every column of U."""
    l = len(c)
    return [list(row) + [0] * len(cols) for row in c] + [
        [0] * l + [sum(map(mul, u, v)) for v in cols] for u in cols
    ]


def _solve_pinned(p: GramProblem) -> list[tuple[Row, ...]]:
    """Canonical row sequences of a pinned problem, one per solution.

    Each group of interchangeable rows (``_row_groups``) is one kernel run,
    in group order, searched as a multiset from one list sorted decreasing:
    the zero row alone for forced zero rows, otherwise the full pool, with
    the zero row sorted in when zero rows are allowed. A diagonal constraint
    keeps the rows whose contribution defect_order * r.adj(C).r^t / det C is
    the prescribed entry. The fixed blocks, side by side, form a k x m
    matrix U: every candidate of a group gets the group's row of U appended
    (the rows of a group agree on it), and the kernel searches against
    diag(C, U^t U) (``_with_columns``), whatever the order of the rows. It
    walks both signs of every row; each emitted sequence is cut back to its
    first l entries, its groups' rows are put at their indices, and it is
    canonicalized under every pattern and deduplicated.
    """
    c = p.target_gram
    k = p.pinned_row_count()
    if k is None:
        raise InvariantError("internal: pinned problem without a row count")
    l = c.col_count
    pool = _row_pool(c, p.signed)
    zero = (0,) * l
    if not p.require_nonzero_rows:
        pool = sorted(pool + [zero], reverse=True)
    adj, d = adjugate_and_det(c)
    forms = row_forms(adj)
    groups = _row_groups(p, k)
    runs: list[tuple[list[Row], int]] = []
    for g in groups:
        opts = [zero] if g[0] in p.zero_rows else pool
        if p.diag_constraints is not None:
            want = p.diag_constraints[g[0]] * d
            opts = [r for r in opts if forms[r, r] * p.defect_order == want]
        u = tuple(x for b in p.fixed_blocks for x in b.rows[g[0]])
        runs.append(([r + u for r in opts], len(g)))
    cols = [col for b in p.fixed_blocks for col in zip(*b.rows)]
    patterns = _sign_patterns(c) if p.signed else [(1,) * l]
    found = _kernel.search_rows(_with_columns(c.rows, cols), runs, k)
    return list(
        dict.fromkeys(
            _canonicalize([r[:l] for r in rows], groups, patterns) for rows in found
        )
    )


def _arrangements(rep: Sequence[int]) -> list[tuple[int, ...]]:
    """Every distinct ordering of the nonincreasing tuple ``rep``, in
    decreasing order from ``rep`` itself: each one is the lexicographic
    predecessor of the one before (Narayana's step, reversed), so a
    repeated value is never permuted among its own copies."""
    a = list(rep)
    out = []
    while True:
        out.append(tuple(a))
        i = len(a) - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def solve_orthogonal_column(
    q1: IntMatrix,
    gram_value: int,
    signed: bool = True,
    zero_rows: frozenset[int] | Iterable[int] = frozenset(),
) -> list[tuple[int, ...]]:
    """All integer columns v with v.v = gram_value and q1^t v = 0, sorted
    decreasing.

    Forced zero entries are respected; in signed mode the result is reported
    up to global sign (first nonzero entry positive). This is a pinned Gram
    problem of one column: the kernel searches one row (v_i, *q1_i) per free
    index i against diag([[gram_value]], q1^t q1 over the free indices).
    Indices with equal q1 rows are interchangeable, so each class of them
    is one kernel run, its entries are searched nonincreasingly, and
    every column found is expanded to all distinct arrangements of each
    class's entries over that class's indices. The search admits both signs;
    of v and -v the expansion keeps the one whose first nonzero entry is
    positive. An empty list means the constraints are proved unsatisfiable.
    """
    if gram_value <= 0:
        raise GramInputError("gram value must be positive")
    zero_rows = frozenset(zero_rows)
    k = q1.row_count
    if any(i < 0 or i >= k for i in zero_rows):
        raise GramInputError("zero-row index out of range")
    # a forced-zero index holds 0, so only the free indices are searched,
    # in classes of equal rows
    classes: dict[Row, list[int]] = {}
    for i in range(k):
        if i not in zero_rows:
            classes.setdefault(q1.rows[i], []).append(i)
    order = [i for members in classes.values() for i in members]
    bound = isqrt(gram_value)
    entries = range(bound, -bound - 1 if signed else -1, -1)
    runs = [([(x, *row) for x in entries], len(members)) for row, members in classes.items()]
    target = _with_columns([[gram_value]], list(zip(*(q1.rows[i] for i in order))))
    found = _kernel.search_rows(target, runs, len(order))
    spans = list(itertools.accumulate(map(len, classes.values()), initial=0))
    out: list[tuple[int, ...]] = []
    for rows in found:
        rep = [r[0] for r in rows]
        for parts in itertools.product(
            *(_arrangements(rep[a:b]) for a, b in itertools.pairwise(spans))
        ):
            v = [0] * k
            for i, x in zip(order, itertools.chain.from_iterable(parts)):
                v[i] = x
            if not signed or next(x for x in v if x) > 0:
                out.append(tuple(v))
    out.sort(reverse=True)
    return out


def verify_solution(p: GramProblem, s: GramSolution) -> bool:
    """Re-derive every constraint of the problem from the rows and columns
    of Q: the row counts, Q^t Q = C (a symmetric C, compared on its upper
    triangle), the signs, each row's bound and zero-row flag, B^t Q = 0 for
    each fixed block B and the contribution diagonal. No intermediate
    matrix is built. The row bound and the contribution diagonal read
    r . adj . r^t from the memo of ``row_forms``, keyed on the adjugate
    that ``adjugate_and_det`` returns here; in a free solve the pool build
    has already filled every entry read."""
    q = s.q
    c = p.target_gram
    if q.col_count != c.col_count:
        raise MatrixError("solution has wrong column count")
    n = q.row_count
    k = p.pinned_row_count()
    if k is not None and n != k:
        return False
    if isinstance(p.row_count, int) and n != p.row_count:
        return False
    if isinstance(p.row_count, tuple) and not (p.row_count[0] <= n <= p.row_count[1]):
        return False
    # once C = C^t, the upper triangle of Q^t Q settles Q^t Q = C
    if c.rows != tuple(zip(*c.rows)):
        return False
    cols = tuple(zip(*q.rows))
    if [sum(map(mul, u, v)) for u, v in itertools.combinations_with_replacement(cols, 2)] != [
        x for i, row in enumerate(c.rows) for x in row[i:]
    ]:
        return False
    if not p.signed and any(x < 0 for row in q.rows for x in row):
        return False
    for i, row in enumerate(q.rows):
        forced_zero = i in p.zero_rows
        if forced_zero and any(row):
            return False
        if not forced_zero and p.require_nonzero_rows and not any(row):
            return False
    adj, d = adjugate_and_det(c)
    forms = row_forms(adj)
    limit = _quad_limit(d)
    for row in set(q.rows):
        if any(row) and forms[row, row] > limit:
            return False
    for b in p.fixed_blocks:
        if b.row_count != n or any(
            sum(map(mul, u, v)) for u in zip(*b.rows) for v in cols
        ):
            return False
    if p.diag_constraints is not None:
        for row, want in zip(q.rows, p.diag_constraints):
            num = p.defect_order * forms[row, row]
            if num % d != 0 or num // d != want:
                return False
    return True
