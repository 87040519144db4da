"""Contribution matrices of a Gram decomposition and the height data they
carry.

For Q with Q^t Q = C and defect order |D|, the contribution matrix is
M = |D| * Q * C^{-1} * Q^t. It is an exact integer matrix, symmetric,
idempotent up to the scale |D| (M * M = |D| * M), and has trace |D| * l.
Its entries are the row forms r.adj(C).s^t of ``gram.row_forms``, one memo
per adjugate, keyed on the adjugate; all three laws are checked on every
matrix built.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    adjugate itself; Q may be any matrix with Q^t Q = C."""
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
    where = {r: t for t, r in enumerate(dict.fromkeys(q.rows))}
    slots = [where[r] for r in q.rows]
    m_rows = []
    for r in where:
        values = []
        for u in where:
            num = defect_order * forms[r, u]
            if num % d != 0:
                raise ContributionError(
                    "contribution matrix is not integral; defect order does not "
                    "match the decomposition"
                )
            values.append(num // d)
        m_rows.append(tuple(values[t] for t in slots))
    # ints from num // d, one row per distinct row of Q
    m = IntMatrix._unchecked(tuple(m_rows[t] for t in slots))
    # invariants of a scaled idempotent
    if not m.is_symmetric:
        raise InvariantError("internal: contribution matrix is not symmetric")
    if m.matmul(m) != m.scale(defect_order):
        raise InvariantError("internal: contribution matrix is not |D|-idempotent")
    if m.trace() != defect_order * c.col_count:
        raise InvariantError("internal: contribution matrix trace is not |D| * l")
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
