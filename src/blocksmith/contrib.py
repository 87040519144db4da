"""Contribution matrices of a Gram decomposition and the height data they
carry.

For Q with Q^t Q = C and defect order |D|, the contribution matrix is
M = |D| * Q * C^{-1} * Q^t. It is an exact integer matrix, symmetric,
idempotent up to the scale |D| (M * M = |D| * M), and has trace |D| * l.
Its entries are the row forms r.adj(C).s^t of ``gram.row_forms``, one memo
per adjugate, keyed on the adjugate, read once per pair of distinct rows of
Q; all three laws are checked on every matrix built, the idempotence once
per pair of distinct rows of M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, count, product, repeat
from operator import floordiv, itemgetter, mod, mul
from typing import Sequence

from .cartan import is_prime
from .gram import row_forms
from .intmat import (
    IntMatrix,
    InvariantError,
    MatrixError,
    adjugate_and_det,
    p_adic_valuation,
)


class ContributionError(ValueError):
    pass


@dataclass(frozen=True)
class ContributionResult:
    matrix: IntMatrix
    defect_order: int

    @property
    def diagonal(self) -> tuple[int, ...]:
        return self.matrix.diagonal_entries()


@dataclass(frozen=True)
class HeightProfile:
    heights: tuple[int, ...]

    def count(self, h: int) -> int:
        return sum(1 for x in self.heights if x == h)

    @property
    def height_zero_count(self) -> int:
        return self.count(0)


def contribution_matrix(
    q: IntMatrix, c: IntMatrix, defect_order: int
) -> ContributionResult:
    """|D| * Q * C^{-1} * Q^t, computed exactly via the adjugate, which is
    shared with the Gram search of C (``adjugate_and_det``). Entry (i, j)
    is |D| * r_i.adj.r_j^t / det C, read for each pair of distinct rows of
    Q from the memo ``gram.row_forms`` of that adjugate, keyed on the
    adjugate itself, and spread to the rows of Q; Q may be any matrix with
    Q^t Q = C. Symmetry, M * M = |D| * M and the trace |D| * l are checked
    on the spread matrix; given symmetry, the product law is the same
    predicate checked once per pair of distinct rows of M."""
    if defect_order <= 0:
        raise ContributionError("defect order must be positive")
    if q.col_count != c.col_count or not c.is_square:
        raise ContributionError("shape mismatch between decomposition and Gram matrix")
    adj, d = adjugate_and_det(c)
    if d == 0:
        raise ContributionError("Gram matrix is singular")
    if q.transpose().matmul(q) != c:
        raise ContributionError("Q^t Q does not reproduce the Gram matrix")
    forms = row_forms(adj)
    distinct = list(dict.fromkeys(q.rows))
    u = len(distinct)
    where = dict(zip(distinct, count()))
    slots = [where[r] for r in q.rows]
    # spread(values) lists values[slots[i]] for every row i of Q; an
    # itemgetter of one index would return the bare item
    spread = itemgetter(*slots) if len(slots) > 1 else lambda v: (v[slots[0]],)
    # |D| * r.adj.s^t for each pair (r, s) of distinct rows of Q, row-major
    nums = [defect_order * x for x in map(forms.__getitem__, product(distinct, repeat=2))]
    if any(map(mod, nums, repeat(d))):
        raise ContributionError(
            "contribution matrix is not integral; defect order does not "
            "match the decomposition"
        )
    values = list(map(floordiv, nums, repeat(d)))
    # ints from num // d: the u x u matrix of the distinct rows, spread
    rows = spread([spread(values[t : t + u]) for t in range(0, u * u, u)])
    # invariants of a scaled idempotent. Once M = M^t, entry (a, j) of
    # M * M is row a . row j, and equal rows give equal products and equal
    # entries M_aj, so M * M = |D| * M is checked once per unordered pair
    # of distinct rows of M, not of Q (a corrupted entry makes its row
    # distinct)
    if rows != tuple(zip(*rows)):
        raise InvariantError("internal: contribution matrix is not symmetric")
    at = dict(zip(rows, count()))
    for (v, _), (w, j) in combinations_with_replacement(at.items(), 2):
        if sum(map(mul, v, w)) != defect_order * v[j]:
            raise InvariantError("internal: contribution matrix is not |D|-idempotent")
    if sum(row[i] for i, row in enumerate(rows)) != defect_order * c.col_count:
        raise InvariantError("internal: contribution matrix trace is not |D| * l")
    m = IntMatrix._unchecked(rows)
    return ContributionResult(matrix=m, defect_order=defect_order)


def heights_from_contribution(
    m: IntMatrix | ContributionResult, p: int
) -> HeightProfile:
    """Character heights read off the contribution diagonal.

    An entry coprime to p means height zero. Entries divisible by p are
    assigned height v_p(entry) / 2; the even-valuation requirement is a
    working hypothesis checked here, not a theorem, so odd valuations and
    zero entries are rejected loudly rather than guessed at. p must be a
    prime: a valuation at a composite base is no height.
    """
    if not is_prime(p):
        raise ContributionError(f"p must be a prime, got {p}")
    mat = m.matrix if isinstance(m, ContributionResult) else m
    heights = []
    for i, x in enumerate(mat.diagonal_entries()):
        if x == 0:
            raise ContributionError(
                f"diagonal entry {i} vanishes; height undefined"
            )
        v = p_adic_valuation(x, p)
        if v % 2 != 0:
            raise ContributionError(
                f"diagonal entry {i} has odd {p}-adic valuation {v}; "
                "height rule does not apply"
            )
        heights.append(v // 2)
    return HeightProfile(heights=tuple(heights))


def complement_diag(
    known: Sequence[int] | Sequence[Sequence[int]], defect_order: int
) -> tuple[int, ...]:
    """Diagonal of the remaining contribution once the known ones are summed.

    The contribution matrices over a full set of subsections sum to
    |D| * identity on the diagonal. ``known`` is either one diagonal or a
    list of diagonals; the complement must stay within [0, |D|].
    """
    if defect_order <= 0:
        raise ContributionError("defect order must be positive")
    if not known:
        raise ContributionError("need at least one known diagonal")
    if isinstance(known[0], (list, tuple)):
        length = len(known[0])
        if any(len(d) != length for d in known):
            raise ContributionError("known diagonals differ in length")
        totals = [sum(d[i] for d in known) for i in range(length)]
    else:
        totals = list(known)  # type: ignore[arg-type]
    out = []
    for i, t in enumerate(totals):
        rem = defect_order - t
        if rem < 0 or rem > defect_order:
            raise ContributionError(
                f"position {i}: known contributions sum to {t}, outside [0, {defect_order}]"
            )
        out.append(rem)
    return tuple(out)
