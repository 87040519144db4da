"""Integral Gram decompositions: all Q with Q^t Q = C under sign, row-count,
orthogonality, contribution-diagonal, and forced-zero-row constraints.

A valid row r must satisfy r.adj(C).r^t < det C, with equality permitted only
when det C = 1: the contribution diagonal entry of such a row equals the
defect order, which would force every other subsection contribution of that
character to vanish and the character to have defect zero, impossible unless
the defect group is trivial. The pruning licensed by the conservative bound
(discard rows with r.adj(C).r^t > det C) is therefore never lossy here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt
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
    canonical_key: bytes


def row_quad(r: Sequence[int], adj: IntMatrix) -> int:
    """r . adj . r^t, the scaled contribution of the row."""
    total = 0
    for i, ri in enumerate(r):
        if ri:
            row = adj.rows[i]
            total += ri * sum(rj * row[j] for j, rj in enumerate(r) if rj)
    return total


def row_is_valid(r: Sequence[int], adj: IntMatrix, d: int) -> bool:
    q = row_quad(r, adj)
    if d == 1:
        return q <= d
    return q < d


def _row_pool(c: IntMatrix, signed: bool) -> list[Row]:
    """Candidate rows, sorted decreasing; zero row excluded."""
    adj, d = adjugate_and_det(c)
    bounds = [isqrt(c.rows[j][j]) for j in range(c.col_count)]
    ranges = [
        range(-b, b + 1) if signed else range(0, b + 1) for b in bounds
    ]
    pool = [
        r
        for r in itertools.product(*ranges)
        if any(r) and row_is_valid(r, adj, d)
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
    permutations within each pinned group."""

    def arrange(pat: tuple[int, ...]) -> tuple[Row, ...]:
        signed_rows = [tuple(s * x for s, x in zip(pat, r)) for r in rows]
        arranged: list[Row] = list(signed_rows)
        for g in groups:
            block = sorted((signed_rows[i] for i in g), reverse=True)
            for slot, row in zip(g, block):
                arranged[slot] = row
        return tuple(arranged)

    return max(arrange(pat) for pat in patterns)


def _solution_from_rows(rows: Sequence[Row]) -> GramSolution:
    q = IntMatrix.from_rows(rows)
    key = repr(rows).encode()
    return GramSolution(q=q, canonical_key=key)


def solve(p: GramProblem) -> list[GramSolution]:
    """Complete, duplicate-free solution list for the Gram problem.

    Returns [] when the constraints are proved unsatisfiable; raises
    GramInputError when the problem statement is malformed. Every returned
    solution passes ``verify_solution``; InvariantError is raised otherwise.
    """
    p.validate()
    raw = _solve_pinned(p) if p.pinned else _solve_free(p)

    patterns = _sign_patterns(p.target_gram) if p.signed else [
        (1,) * p.target_gram.col_count
    ]
    seen = {}
    for rows in raw:
        canon = _canonicalize(rows, _row_groups(p, len(rows)), patterns)
        seen[canon] = True
    solutions = [_solution_from_rows(rows) for rows in seen]
    solutions.sort(key=lambda s: (s.q.row_count, s.canonical_key))
    for s in solutions:
        if not verify_solution(p, s):
            raise InvariantError(
                f"internal: solution {s.q.to_lists()} failed verification"
            )
    return solutions


def _row_groups(p: GramProblem, k: int) -> list[list[int]]:
    """Indices that may be permuted among each other."""
    if not p.pinned:
        return [list(range(k))]
    kp = p.pinned_row_count() or k
    keys = {}
    for i in range(kp):
        key = (
            tuple(b.rows[i] for b in p.fixed_blocks),
            None if p.diag_constraints is None else p.diag_constraints[i],
            i in p.zero_rows,
        )
        keys.setdefault(key, []).append(i)
    return list(keys.values())


def _sign_expansions(rows: tuple[Row, ...]) -> Iterator[tuple[Row, ...]]:
    """Every sign choice of a sequence of sign representatives, each sorted
    decreasing. ``rows`` is nonincreasing, so equal rows are adjacent: a run
    of m copies of r gives j copies of -r and m - j of r for j = 0..m."""
    runs = []
    for r, run in itertools.groupby(rows):
        m = len(list(run))
        neg = tuple(-x for x in r)
        runs.append([(r,) * (m - j) + (neg,) * j for j in range(m + 1)])
    for pick in itertools.product(*runs):
        yield tuple(sorted(itertools.chain.from_iterable(pick), reverse=True))


def _solve_free(p: GramProblem) -> list[tuple[Row, ...]]:
    """Row sequences of an unpinned problem, before canonicalization.

    A signed search hands the kernel only the sign representatives of the
    pool (rows whose first nonzero entry is positive): r and -r give the
    same r^t r, so a full-pool search walks every partial solution once per
    sign choice. Each representative sequence is then expanded by
    ``_sign_expansions``; the result is exactly the set of sequences the
    full-pool search emits.

    With zero rows allowed, a row-count window is the union of its exact
    counts: a sequence of n nonzero rows is padded with zero rows to every
    count of the window that is at least n.
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
    found = _kernel.search_rows(c.to_lists(), [pool] * min(hi, trace), 1 if pad else lo)
    if p.signed:
        found = [full for rows in found for full in _sign_expansions(rows)]
    if not pad:
        return found
    zero = (0,) * c.col_count
    return [
        rows + (zero,) * (k - len(rows))
        for rows in found
        for k in range(max(len(rows), lo), hi + 1)
    ]


def _solve_pinned(p: GramProblem) -> list[tuple[Row, ...]]:
    """Row sequences of a pinned problem, before canonicalization.

    Each group of interchangeable rows (``_row_groups``) gets one candidate
    list, sorted decreasing: the zero row alone for forced zero rows,
    otherwise the full pool, with the zero row sorted in when zero rows are
    allowed. A diagonal constraint keeps the rows whose contribution
    defect_order * r.adj(C).r^t / det C is the prescribed entry. The columns
    of the fixed blocks go to the kernel as orthogonality constraints.
    """
    c = p.target_gram
    k = p.pinned_row_count()
    if k is None:
        raise InvariantError("internal: pinned problem without a row count")
    pool = _row_pool(c, p.signed)
    zero = (0,) * c.col_count
    if not p.require_nonzero_rows:
        pool = sorted(pool + [zero], reverse=True)
    adj, d = adjugate_and_det(c)
    slots: list[list[Row]] = [[] for _ in range(k)]
    for g in _row_groups(p, k):
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
    return _kernel.search_rows(c.to_lists(), slots, k, cols)


def solve_orthogonal_column(
    q1: IntMatrix,
    gram_value: int,
    signed: bool = True,
    zero_rows: frozenset[int] | Iterable[int] = frozenset(),
) -> list[tuple[int, ...]]:
    """All integer columns v with v.v = gram_value and q1^t v = 0.

    Forced zero entries are respected; in signed mode the result is reported
    up to global sign (first nonzero entry positive): the search admits
    only nonnegative entries until it places a nonzero one, so each column
    is found once, already in that sign. An empty list means the constraints
    are proved unsatisfiable.
    """
    if gram_value <= 0:
        raise GramInputError("gram value must be positive")
    zero_rows = frozenset(zero_rows)
    k = q1.row_count
    if any(i < 0 or i >= k for i in zero_rows):
        raise GramInputError("zero-row index out of range")
    cols = [tuple(q1.rows[i][u] for i in range(k)) for u in range(q1.col_count)]
    suffix_sq = [
        [sum(col[t] * col[t] for t in range(i, k)) for i in range(k + 1)]
        for col in cols
    ]
    out: list[tuple[int, ...]] = []
    entry: list[int] = []

    def place(i: int, remaining: int, dots: list[int]) -> None:
        if i == k:
            if remaining == 0 and all(s == 0 for s in dots):
                out.append(tuple(entry))
            return
        if i in zero_rows:
            choices: Iterable[int] = (0,)
        else:
            b = isqrt(remaining)
            # remaining < gram_value once a nonzero entry has been placed
            choices = range(-b if signed and remaining < gram_value else 0, b + 1)
        for x in choices:
            rem = remaining - x * x
            if rem < 0:
                continue
            new_dots = [s + col[i] * x for s, col in zip(dots, cols)]
            if any(
                s * s > suffix_sq[u][i + 1] * rem
                for u, s in enumerate(new_dots)
            ):
                continue
            entry.append(x)
            place(i + 1, rem, new_dots)
            entry.pop()

    place(0, gram_value, [0] * len(cols))
    out.sort(reverse=True)
    return out


def verify_solution(p: GramProblem, s: GramSolution) -> bool:
    """Re-derive every constraint of the problem from scratch."""
    q = s.q
    c = p.target_gram
    if q.col_count != c.col_count:
        raise MatrixError("solution has wrong column count")
    k = p.pinned_row_count()
    if k is not None and q.row_count != k:
        return False
    if isinstance(p.row_count, int) and q.row_count != p.row_count:
        return False
    if isinstance(p.row_count, tuple) and not (
        p.row_count[0] <= q.row_count <= p.row_count[1]
    ):
        return False
    if q.transpose().matmul(q) != c:
        return False
    if not p.signed and any(x < 0 for row in q.rows for x in row):
        return False
    adj, d = adjugate_and_det(c)
    for i, row in enumerate(q.rows):
        forced_zero = i in p.zero_rows
        if forced_zero and any(row):
            return False
        if not forced_zero and p.require_nonzero_rows and not any(row):
            return False
        if any(row) and not row_is_valid(row, adj, d):
            return False
    for b in p.fixed_blocks:
        if b.transpose().matmul(q) != IntMatrix.from_rows(
            [[0] * q.col_count for _ in range(b.col_count)]
        ):
            return False
    if p.diag_constraints is not None:
        m_scaled = q.matmul(adj).matmul(q.transpose())
        for i in range(q.row_count):
            num = p.defect_order * m_scaled.rows[i][i]
            if num % d != 0 or num // d != p.diag_constraints[i]:
                return False
    return True
