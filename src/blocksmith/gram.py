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
and each is reported as the row-major largest member of its class. Every
problem is searched one way (``_canonical_forms``): its rows fall into
groups of interchangeable rows (one group for a free problem, one per set
of indices sharing their pinned data otherwise), each group one run of the
kernel. A group whose rows may change sign freely (signed, with no
fixed-block entries) is searched over sign representatives only, rows
r >= 0, and the classes are built from each sequence X the kernel finds
directly, one canonical form per class code, without expanding every sign
choice of X and deduplicating; a solve with one group and one sign pattern
(every connected signed free target) lists the forms with no dedupe at
all. ``verify_solution`` re-checks every returned solution from its rows;
what it needs of the problem alone (the upper triangle of C, the allowed
row counts, the fixed-block columns and a row table) is built once per
problem and cached on it. The row table (``_RowTable``) holds, per row
read, its upper-triangle products and whether it keeps the row bound, so
Q^t Q = C is the column sums of the rows' products and each row costs one
lookup. The solution list is ordered by (row count, repr of the rows)
through ranks of the distinct rows, with no repr per solution
(``_sort_forms``).

adj(C), det C and the row forms r.adj(C).s^t of a target come from one
cache keyed on C (``row_forms``). The pool build fills its (r, r) entries
once per target, and every later reader (the row table, the diagonal
filter, the casebook valuation filter and the contribution matrix) looks
the values up instead of evaluating them per solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from operator import itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from . import _kernel
from .intmat import (
    IntMatrix,
    InvariantError,
    MatrixError,
    adjugate_and_det,
    components,
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

    def row_window(self) -> tuple[int, int] | None:
        """``row_count`` as an inclusive (low, high) window, or None."""
        if isinstance(self.row_count, int):
            return self.row_count, self.row_count
        return self.row_count

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
        if self.diag_constraints is not None and not self.diag_constraints:
            raise GramInputError("diag constraints must not be empty")
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
            lo, hi = self.row_window() or (k, k)
            if not lo <= k <= hi:
                raise GramInputError("row_count conflicts with pinned inputs")

    @cached_property
    def _checks(
        self,
    ) -> tuple[list[int] | None, range | None, set[int], list[Row], _RowTable | None]:
        """What ``verify_solution`` reads from the problem alone, built on
        its first call: the upper triangle of C, row-major (None when C is
        not symmetric, as then no Q has Q^t Q = C), the allowed row counts
        (None for any), the row counts of the fixed blocks and their
        columns, side by side, and the problem's row table (None with the
        upper triangle, which ``verify_solution`` checks first). A cached
        property is not a field, so equality and the hash stay those of the
        fields."""
        c = self.target_gram
        upper = [x for i, row in enumerate(c.rows) for x in row[i:]] if c.is_symmetric else None
        k = self.pinned_row_count()
        window = self.row_window()
        if k is not None:
            lo, hi = window or (k, k)
            counts = range(k, k + 1) if lo <= k <= hi else range(0)
        else:
            counts = None if window is None else range(window[0], window[1] + 1)
        block_rows = {b.row_count for b in self.fixed_blocks}
        fixed_cols = [col for b in self.fixed_blocks for col in zip(*b.rows)]
        table = None if upper is None else _RowTable(row_forms(self.target_gram))
        return upper, counts, block_rows, fixed_cols, table


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
    """The memo of one target C: (r, s) -> r . adj . s^t for row tuples r
    and s, each pair evaluated by ``row_quad`` on its first read, with
    adj = adj(C) and det = det C."""

    def __init__(self, adj: IntMatrix, det: int) -> None:
        super().__init__()
        self.adj = adj
        self.det = det

    def __missing__(self, key: tuple[Row, Row]) -> int:
        r, s = key
        value = self[key] = row_quad(r, self.adj, s)
        return value


@lru_cache(maxsize=32)
def row_forms(c: IntMatrix) -> RowForms:
    """adj(C), det C and the row-form memo of the square matrix C, built
    from ``adjugate_and_det`` on the first call for C and kept for the 32
    latest targets. The pool build fills the (r, r) entries of every row of
    the box; ``verify_solution`` (through ``GramProblem._checks``), the
    pinned diagonal filter, the casebook valuation filter and
    ``contrib.contribution_matrix`` read from it."""
    return RowForms(*adjugate_and_det(c))


class _RowTable(dict):
    """The row table of one problem: row r -> the products r_i r_j over the
    upper triangle (i <= j), row-major, or None when a nonzero r breaks the
    row bound r . adj(C) . r^t <= ``_quad_limit(det C)``; the zero row
    keeps no bound. Each row is entered on its first read, its products
    computed from r and r . adj . r^t read from the (r, r) entry of
    ``forms``, which the pool build has filled for every row of the box.
    Summed over the rows of Q, the products are the upper triangle of
    Q^t Q."""

    def __init__(self, forms: RowForms) -> None:
        super().__init__()
        self.forms = forms
        self.limit = _quad_limit(forms.det)
        self.pick = _triangle_picks(forms.adj.col_count)

    def __missing__(self, row: Row) -> list[int] | None:
        if any(row) and self.forms[row, row] > self.limit:
            value = None
        else:
            left, right = self.pick
            value = list(map(mul, left(row), right(row)))
        self[row] = value
        return value


@lru_cache(maxsize=None)
def _triangle_picks(l: int) -> tuple:
    """Two getters taking r_i and r_j, for each upper-triangle position
    (i, j) in row-major order, from a row r of length l. An itemgetter of
    one index returns the entry, not a tuple, so for l = 1 both are
    ``tuple``, which returns the row itself."""
    if l == 1:
        return tuple, tuple
    left, right = zip(*itertools.combinations_with_replacement(range(l), 2))
    return itemgetter(*left), itemgetter(*right)


def _quad_limit(d: int) -> int:
    """The largest r . adj . r^t a valid row may have: below det C, or equal
    to it when det C = 1."""
    return d if d == 1 else d - 1


def _row_pool(c: IntMatrix, signed: bool) -> list[Row]:
    """Candidate rows, sorted decreasing; zero row excluded. Fills the memo
    of C with r . adj . r^t for every nonzero row of the box."""
    forms = row_forms(c)
    limit = _quad_limit(forms.det)
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
    """Column negations S with S C S = C: one sign per connected component,
    the identity first."""
    comps = components(c.rows)
    where = [0] * c.row_count  # the component of each index
    for t, comp in enumerate(comps):
        for i in comp:
            where[i] = t
    signs = itertools.product((1, -1), repeat=len(comps))
    return [tuple(bits[t] for t in where) for bits in signs]


def solve(p: GramProblem) -> list[GramSolution]:
    """Complete, duplicate-free solution list for the Gram problem.

    Each solution is the canonical form of one class of row sequences under
    the column-sign patterns and the allowed row permutations (all rows of a
    free problem, each pinned group of a pinned one): the row-major largest
    member, sorted by (row count, repr of its rows): ``_sort_forms`` keys
    each form on its row count and the ranks of its rows in the repr order
    of the distinct rows, which is the same order. ``_canonical_forms``
    gives each class once.

    Returns [] when the constraints are proved unsatisfiable; raises
    GramInputError when the problem statement is malformed. Every returned
    solution passes ``verify_solution``; InvariantError is raised otherwise.
    """
    p.validate()
    canon = _canonical_forms(p)
    _sort_forms(canon)
    # rows of the integer row pool, negated or zero: ints by construction
    solutions = [GramSolution(q=IntMatrix._unchecked(rows)) for rows in canon]
    for s in solutions:
        if not verify_solution(p, s):
            raise InvariantError(
                f"internal: solution {s.q.to_lists()} failed verification"
            )
    return solutions


def _sort_forms(forms: list[tuple[Row, ...]]) -> None:
    """Sort row sequences by (row count, repr of the rows), with no repr
    per sequence: each distinct row gets its rank in the repr order of the
    distinct rows, and sequences of one length compare as rank tuples.
    The order is the same, byte for byte: the rows of one problem have one
    length, and each row's repr holds exactly one ")", at its end, so no
    row repr is a prefix of another; two sequence reprs therefore first
    differ inside the reprs of the first rows that differ, and those
    decide."""
    distinct = sorted(set(itertools.chain.from_iterable(forms)), key=repr)
    rank = {r: i for i, r in enumerate(distinct)}.__getitem__
    forms.sort(key=lambda rows: (len(rows), tuple(map(rank, rows))))


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
    blocks: Sequence[tuple[Row, ...]],
    sign_free: Sequence[bool],
    patterns: Sequence[tuple[int, ...]],
    groups: Sequence[Sequence[int]],
) -> list[tuple[Row, ...]]:
    """For each code, the largest form of its sign expansion of ``blocks``
    under the column negations ``patterns``: the codes of ``_class_codes``
    when every group is sign-free, and every code otherwise (see
    ``_canonical_forms``).

    ``blocks`` holds the rows of each group of ``groups`` in turn, each
    block nonincreasing. In the block of a group flagged ``sign_free`` the
    nonzero rows are sign representatives, and the expansion with code j
    has m_t - j_t copies of such a run row r_t and j_t of -r_t; every other
    run keeps its m_t copies (its code entry is 0). Under a pattern S the
    rows of a block's expansion are among the distinct rows S r_t and
    -S r_t, so its sorted block is read off one decreasing order of them
    per pattern and block, with no sort per expansion. Per pattern, these
    orders are one flat list of picks: the row v, and the slot 2t (kept)
    or 2t + 1 (negated) of its count. Each form is one tuple of every
    pick's v repeated by its count, the blocks in group order; when the
    groups are not consecutive runs of indices, one fixed permutation puts
    each block on its group's indices. The form is the largest over the
    patterns, taken per code across the patterns' lists of forms; with one
    pattern that list is the answer.
    """
    mults: list[int] = []
    flips: list[int] = []
    orders: list[list[tuple[Row, int]]] = [[] for _ in patterns]
    for block, negate in zip(blocks, sign_free):
        runs = [(r, len(list(g))) for r, g in itertools.groupby(block)]
        for pat, order in zip(patterns, orders):
            images = []
            for t, (r, _) in enumerate(runs, len(mults)):
                # strict: a row of another length than the pattern is an
                # error, not silently cut to it
                v = tuple(s * x for s, x in zip(pat, r, strict=True))
                images.append((v, 2 * t))
                if negate and any(r):
                    images.append((tuple(-x for x in v), 2 * t + 1))
            images.sort(reverse=True)
            order += images
        mults += [m for _, m in runs]
        flips += [m if negate and any(r) else 0 for r, m in runs]
    picks = [tuple(zip(*order)) for order in orders]
    indices = [i for g in groups for i in g]
    place = None
    if indices != list(range(len(indices))):
        where = [0] * len(indices)
        for position, i in enumerate(indices):
            where[i] = position
        place = itemgetter(*where)
    chain = itertools.chain.from_iterable
    if all(sign_free):
        codes = _class_codes(flips)
    else:
        codes = itertools.product(*(range(m + 1) for m in flips))
    # per code, the copies of run t kept (slot 2t) and negated (slot 2t + 1)
    slots = [list(chain(zip(map(sub, mults, code), code))) for code in codes]
    # per pattern, the form of each code's expansion under it
    forms = [
        [tuple(chain(map(itertools.repeat, vs, map(counts.__getitem__, ix)))) for counts in slots]
        for vs, ix in picks
    ]
    if place is not None:
        forms = [list(map(place, f)) for f in forms]
    return forms[0] if len(forms) == 1 else list(map(max, *forms))


def _canonical_forms(p: GramProblem) -> list[tuple[Row, ...]]:
    """Canonical row sequences of a problem, one per solution.

    The rows fall into groups of interchangeable rows, each one kernel run
    searched as a multiset: a free problem is one group of min(hi, trace)
    rows (nonzero rows each take at least 1 of the trace) under the
    row-count window lo..hi, and a pinned problem has one group of exactly
    k rows per ``_row_groups`` entry. A group's candidates are the pool
    sorted decreasing, with the zero row sorted in when a pinned problem
    allows zero rows, or the zero row alone for forced zero rows; a
    diagonal constraint keeps the rows whose contribution defect_order *
    r.adj(C).r^t / det C is the prescribed entry. The fixed blocks, side by
    side, form a k x m matrix U, and each run is given its group's row u of
    U as its fixed row: the kernel keeps the rows orthogonal to U and
    returns them without u.

    A group is sign-free when the problem is signed and its u is zero:
    negating one of its rows keeps r^t r, the cross sums, the contribution
    and the zero-row flag, so its run holds only the rows r >= 0 (the sign
    representatives, and the zero row when allowed). A find X stands for
    its sign expansions, j_t of the m_t copies of each nonzero run row r_t
    of the sign-free groups negated; together they are exactly the
    sequences a search over both signs finds. The solutions are the
    classes of expansions under the column-sign patterns S, each named by
    its largest form, and ``_sign_classes`` builds them per code j. These
    rules are exact:

    - One group, all sign-free, C connected (patterns +-I): -I keeps X and
      maps code j to m - j, so each code is one class of X, and the
      identity's form is the larger (at the first run where j and m - j
      differ it keeps more positive copies); only the identity and the
      codes j <= m - j of ``_class_codes`` are used. No form repeats, so
      the forms are listed as built, with no dedupe dict: two codes of one
      X are two classes; distinct finds are distinct multisets of sign
      representatives, which every expansion of a find keeps; and the
      fills of one find differ in length.
    - More than two patterns, every group sign-free: S maps the expansions
      of X one to one onto those of rep(S X), the sign representatives of
      its rows sorted per group, so every class meets the expansions of
      each X of its orbit; only the largest X of each orbit is used, and
      -I, which keeps X, again makes the codes j <= m - j meet every class.
    - Some group not sign-free: -I maps the expansion of X with code j onto
      that of X' with code m - j, where X' is X with the rows of those
      groups negated. Their runs are the ones the kernel negates, and it
      returns one of X and X', so each code j of X is used, and together
      they meet every class.

    The forms are listed in the order found. The last two cases drop the
    repeats with one dedupe dict, as a class can be met more than once
    there: through two codes of an X that some S other than +-I maps to
    itself, or of an X equal to its X'. An unsigned pinned problem of
    several groups (one pattern, one code per find) is deduplicated too.

    An unsigned single group has one pattern and nothing to negate, so its
    sequence is its own form. With zero rows allowed, a free row-count
    window is the union of its exact counts: a sequence of n nonzero rows
    is padded with zero rows to every count of the window that is at least
    n. Zero rows are fixed by every pattern.
    """
    c = p.target_gram
    l = c.col_count
    zero = (0,) * l
    pool = _row_pool(c, p.signed)
    if p.pinned:
        lo = hi = p.pinned_row_count()
        groups = _row_groups(p, lo)
        if not p.require_nonzero_rows:
            pool = sorted(pool + [zero], reverse=True)
        pad = False
    else:
        trace = c.trace()
        lo, hi = p.row_window() or (1, trace)
        groups = [range(min(hi, trace))]
        pad = not p.require_nonzero_rows and p.row_count is not None
    forms = row_forms(c)
    d = forms.det
    runs: list[tuple[list[Row], int]] = []
    fixed: list[Row] = []
    sign_free: list[bool] = []
    for g in groups:
        opts = [zero] if g[0] in p.zero_rows else pool
        if p.diag_constraints is not None:
            want = p.diag_constraints[g[0]] * d
            opts = [r for r in opts if forms[r, r] * p.defect_order == want]
        fixed.append(tuple(x for b in p.fixed_blocks for x in b.rows[g[0]]))
        sign_free.append(p.signed and not any(fixed[-1]))
        runs.append(([r for r in opts if not sign_free[-1] or r >= zero], len(g)))
    found = _kernel.search_rows(c.rows, runs, 1 if pad else lo, fixed)

    def fills(n: int) -> list[tuple[Row, ...]]:
        return [(zero,) * (m - n) for m in range(max(n, lo), hi + 1)] if pad else [()]

    if not p.signed and len(groups) == 1:
        return [rows + fill for rows in found for fill in fills(len(rows))]
    patterns = _sign_patterns(c) if p.signed else [(1,) * l]
    orbit = len(patterns) > 2 and all(sign_free)
    if len(patterns) == 2 and len(groups) == 1 and sign_free[0]:
        patterns = patterns[:1]
    spans = list(itertools.accumulate(map(len, groups), initial=0))

    def split(rows: tuple[Row, ...]) -> list[tuple[Row, ...]]:
        if len(groups) == 1:
            return [rows]
        return [rows[a:b] for a, b in itertools.pairwise(spans)]

    def rep_image(pat: tuple[int, ...], blocks: list[tuple[Row, ...]]) -> list[Row]:
        """rep(S X): each row of S X replaced by the larger of it and its
        negation (its sign representative), sorted decreasing per group."""
        image: list[Row] = []
        for block in blocks:
            vs = (tuple(map(mul, pat, r)) for r in block)
            image += sorted((max(v, tuple(-x for x in v)) for v in vs), reverse=True)
        return image

    forms = [
        form
        for rows in found
        if not orbit or list(rows) == max(rep_image(pat, split(rows)) for pat in patterns)
        for fill in fills(len(rows))
        for form in _sign_classes(split(rows + fill), sign_free, patterns, groups)
    ]
    # with one pattern and one group no form repeats (see above)
    return forms if len(patterns) == 1 and len(groups) == 1 else list(dict.fromkeys(forms))


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
    problem of one column: the kernel searches one row (v_i) per free index
    i against [[gram_value]], with q1_i as the fixed row of its run, which
    keeps q1^t v = 0. Indices with equal q1 rows are interchangeable, so
    each class of them is one kernel run, its entries are searched
    nonincreasingly, and every column found is expanded to all distinct
    arrangements of each class's entries over that class's indices. The
    signed search admits both signs, and the kernel returns one of each
    find and its negation (every class negated), whose arrangements are
    the negated columns; so of v and -v each arrangement keeps the one
    whose first nonzero entry is positive, and the set of them gives each
    column once, also for a find equal to its own negation, which arranges
    to both. An empty list means the constraints are proved unsatisfiable.
    Every returned column is checked again for each of these constraints;
    InvariantError is raised otherwise.
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
    entries = [(x,) for x in range(bound, -bound - 1 if signed else -1, -1)]
    runs = [(entries, len(members)) for members in classes.values()]
    found = _kernel.search_rows([[gram_value]], runs, len(order), list(classes))
    spans = list(itertools.accumulate(map(len, classes.values()), initial=0))
    columns: set[tuple[int, ...]] = set()
    for rows in found:
        rep = [r[0] for r in rows]
        for parts in itertools.product(
            *(_arrangements(rep[a:b]) for a, b in itertools.pairwise(spans))
        ):
            v = [0] * k
            for i, x in zip(order, itertools.chain.from_iterable(parts)):
                v[i] = x
            # of v and -v, the one whose first nonzero entry is positive
            columns.add(max(tuple(v), tuple(-x for x in v)))
    out = sorted(columns, reverse=True)
    cols = list(zip(*q1.rows))
    for v in out:
        if (
            sum(map(mul, v, v)) != gram_value
            or any(sum(map(mul, col, v)) for col in cols)
            or any(v[i] for i in zero_rows)
            or (next(x for x in v if x) < 0 if signed else min(v) < 0)
        ):
            raise InvariantError(f"internal: column {list(v)} failed verification")
    return out


def verify_solution(p: GramProblem, s: GramSolution) -> bool:
    """Re-derive every constraint of the problem from the rows of Q: the
    row counts, Q^t Q = C (a symmetric C, compared on its upper triangle),
    the signs, each row's bound and zero-row flag, B^t Q = 0 for each fixed
    block B and the contribution diagonal. No intermediate matrix is built.
    What depends on the problem alone (the symmetry and upper triangle of
    C, the allowed row counts, the fixed-block columns, the row table) is
    built once per problem, ``GramProblem._checks``. The row table
    (``_RowTable``) lives on the problem, as its bound and r . adj . r^t
    belong to C: one lookup per row gives the row's upper-triangle products,
    whose column sums are the upper triangle of Q^t Q, or None for a row
    over the bound. The columns of Q are built only for a fixed block, and
    the contribution diagonal reads r . adj . r^t from the ``row_forms``
    entry of C; in a free solve the pool build has already filled every
    entry read."""
    q = s.q
    c = p.target_gram
    if q.col_count != c.col_count:
        raise MatrixError("solution has wrong column count")
    rows = q.rows
    n = len(rows)
    upper, counts, block_rows, fixed_cols, table = p._checks
    if counts is not None and n not in counts:
        return False
    if upper is None:
        return False
    # the sign and zero-row checks first, so a row they reject never
    # enters the row table
    if not p.signed and n and min(map(min, rows)) < 0:
        return False
    if not p.zero_rows:
        if p.require_nonzero_rows and not all(map(any, rows)):
            return False
    else:
        for i, row in enumerate(rows):
            forced_zero = i in p.zero_rows
            if forced_zero and any(row):
                return False
            if not forced_zero and p.require_nonzero_rows and not any(row):
                return False
    products = list(map(table.__getitem__, rows))
    if None in products:
        return False
    # once C = C^t, the upper triangle of Q^t Q settles Q^t Q = C
    if list(map(sum, zip(*products))) != upper:
        return False
    if fixed_cols:
        cols = list(zip(*rows))
        if block_rows != {n} or any(
            sum(map(mul, u, v)) for u in fixed_cols for v in cols
        ):
            return False
    if p.diag_constraints is not None:
        forms = table.forms
        d = forms.det
        for row, want in zip(rows, p.diag_constraints):
            num = p.defect_order * forms[row, row]
            if num % d != 0 or num // d != want:
                return False
    return True
