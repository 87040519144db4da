"""Exact integer matrices: determinants, Smith normal form, definiteness,
indecomposability, scaled inverses, and a canonical form under simultaneous
row/column permutation.

The canonical form is the row-major lexicographically largest conjugate
among the permutations that keep the diagonal nonincreasing. It is built
one row at a time: each row is made as large as it can be given the rows
above it, and only the partial labellings that reach it are extended, so
the search never walks the permutations whose leading rows already lose.

Everything here is exact; no floating point is used anywhere in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence


class MatrixError(ValueError):
    """Invalid matrix input (shape, symmetry, singularity)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect in the program, not in
    its input. Raised explicitly so that the check also runs under -O."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major.

    Every construction from outside data checks each entry. Products,
    transposes, scalings, minors, conjugates and the Gram search's rows
    hold ints by construction and go through ``_unchecked`` instead.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise MatrixError("matrix must have at least one row and column")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise MatrixError("ragged rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise MatrixError(f"non-integer entry {x!r}")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(row) for row in rows))

    @staticmethod
    def _unchecked(rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """A matrix of ``rows``, a nonempty rectangular tuple of int tuples
        by construction; neither the shape nor an entry is checked again."""
        m = object.__new__(IntMatrix)
        object.__setattr__(m, "rows", rows)
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return IntMatrix(
            tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def col_count(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.row_count == self.col_count

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.row_count)
            for j in range(i)
        )

    def entry_sum(self) -> int:
        return sum(sum(row) for row in self.rows)

    def trace(self) -> int:
        if not self.is_square:
            raise MatrixError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.row_count))

    def diagonal_entries(self) -> tuple[int, ...]:
        if not self.is_square:
            raise MatrixError("diagonal of a non-square matrix")
        return tuple(self.rows[i][i] for i in range(self.row_count))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._unchecked(tuple(zip(*self.rows)))

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.col_count != other.row_count:
            raise MatrixError("dimension mismatch in product")
        cols = tuple(zip(*other.rows))
        return IntMatrix._unchecked(
            tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows)
        )

    def scale(self, s: int) -> "IntMatrix":
        if not isinstance(s, int):
            raise MatrixError(f"non-integer scale {s!r}")
        return IntMatrix._unchecked(tuple(tuple(s * x for x in row) for row in self.rows))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.rows) + "]"


def matrix_to_obj(m: IntMatrix) -> dict:
    """Exchange format used by the CLI: {"rows": [[int, ...], ...]}."""
    return {"rows": m.to_lists()}


def matrix_from_obj(obj: object) -> IntMatrix:
    """Parse the exchange format; a bare list of lists is also accepted."""
    if isinstance(obj, dict):
        if "rows" not in obj:
            raise MatrixError('matrix object must have a "rows" key')
        obj = obj["rows"]
    if not isinstance(obj, list):
        raise MatrixError("matrix must be a list of rows")
    if not all(isinstance(row, list) for row in obj):
        raise MatrixError("each matrix row must be a list")
    return IntMatrix.from_rows(obj)


def det(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise MatrixError("determinant of a non-square matrix")
    n = m.row_count
    a = [list(row) for row in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by construction: every entry is a minor of m
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Diagonal of the Smith normal form together with unimodular transforms
    satisfying left * m * right = diag."""

    diagonal: tuple[int, ...]
    left_transform: IntMatrix
    right_transform: IntMatrix

    def as_matrix(self, shape: tuple[int, int]) -> IntMatrix:
        rows = [[0] * shape[1] for _ in range(shape[0])]
        for i, d in enumerate(self.diagonal):
            rows[i][i] = d
        return IntMatrix.from_rows(rows)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form with transform accumulation.

    The diagonal is non-negative and satisfies d_i | d_{i+1}; the transforms
    are unimodular and reconstruct the diagonal exactly.
    """
    a = [list(row) for row in m.rows]
    n_rows, n_cols = m.row_count, m.col_count
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
        # move a nonzero pivot of minimal magnitude to (t, t)
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
        # pivot must divide every remaining entry for the divisibility chain
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
    return SnfResult(
        diagonal=diagonal,
        left_transform=IntMatrix.from_rows(left),
        right_transform=IntMatrix.from_rows(right),
    )


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form."""
    return tuple(d for d in smith_normal_form(m).diagonal if d != 0)


def _require_symmetric(m: IntMatrix) -> None:
    if not m.is_symmetric:
        raise MatrixError("expected a symmetric matrix")


def psd_rank(a: list[list[int]]) -> int | None:
    """Rank of the symmetric integer matrix ``a`` if it is positive
    semidefinite, None otherwise; ``a`` is consumed.

    Fraction-free (Bareiss) symmetric elimination: a negative pivot means
    indefinite, a zero pivot forces the rest of its row to vanish (otherwise
    indefinite) and is skipped, and each positive pivot is eliminated and
    adds one to the rank. Every entry stays an exact integer minor.
    """
    n = len(a)
    prev = 1
    rank = 0
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot < 0:
            return None
        if pivot == 0:
            if any(pivot_row[k + 1 :]):
                return None
            continue
        rank += 1
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - aik * pivot_row[j]) // prev
        prev = pivot
    return rank


def is_positive_definite(m: IntMatrix) -> bool:
    """Positive semidefinite of full rank."""
    _require_symmetric(m)
    return psd_rank(m.to_lists()) == m.row_count


def is_positive_semidefinite(m: IntMatrix) -> bool:
    """Exact PSD test, see ``psd_rank``."""
    _require_symmetric(m)
    return psd_rank(m.to_lists()) is not None


def is_indecomposable(m: IntMatrix) -> bool:
    """Connectivity of the graph with edges at nonzero off-diagonal entries."""
    _require_symmetric(m)
    return is_connected(m.rows)


def is_connected(rows: Sequence[Sequence[int]]) -> bool:
    """Connectivity of the graph on the indices of the square symmetric
    ``rows`` with edges at nonzero off-diagonal entries."""
    n = len(rows)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j != i and j not in seen and rows[i][j] != 0:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: adj(m) * m = det(m) * I."""
    if not m.is_square:
        raise MatrixError("adjugate of a non-square matrix")
    n = m.row_count
    if n == 1:
        return IntMatrix.from_rows([[1]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = IntMatrix._unchecked(
                tuple(
                    tuple(m.rows[r][c] for c in range(n) if c != i)
                    for r in range(n)
                    if r != j
                )
            )
            row.append((-1) ** (i + j) * det(minor))
        rows.append(tuple(row))
    return IntMatrix._unchecked(tuple(rows))


@lru_cache(maxsize=32)
def adjugate_and_det(m: IntMatrix) -> tuple[IntMatrix, int]:
    """adj(m) and det m, computed once per matrix and shared by the row
    pool, the pinned search, every ``verify_solution`` call and every
    contribution matrix of one target."""
    return adjugate(m), det(m)


@dataclass(frozen=True)
class ScaledInverse:
    """s * m^{-1} represented exactly as numerator / denominator."""

    numerator: IntMatrix
    denominator: int

    def as_exact(self) -> IntMatrix:
        """Strict variant: assert the scaled inverse is integral."""
        if self.denominator != 1:
            raise MatrixError(
                f"scaled inverse is not integral (denominator {self.denominator})"
            )
        return self.numerator


def scaled_inverse(m: IntMatrix, s: int) -> ScaledInverse:
    """Exact s * m^{-1} via the adjugate, with the common denominator reduced."""
    d = det(m)
    if d == 0:
        raise MatrixError("singular matrix has no inverse")
    if s <= 0:
        raise MatrixError("scale must be positive")
    num = adjugate(m).scale(s)
    g = math.gcd(d, *(x for row in num.rows for x in row))
    num = IntMatrix(tuple(tuple(x // g for x in row) for row in num.rows))
    denom = d // g
    if denom < 0:
        num = num.scale(-1)
        denom = -denom
    return ScaledInverse(numerator=num, denominator=denom)


CANONICAL_DIM_BOUND = 8


def canonical_perm_form(m: IntMatrix) -> IntMatrix:
    """Canonical labeling under simultaneous row/column permutation.

    Among the permutations that leave the diagonal nonincreasing, the
    row-major lexicographically largest conjugate is returned, so e.g.
    [[2,1],[1,9]] maps to [[9,1],[1,2]]. Idempotent.

    The conjugate is built one row at a time (individualization and
    refinement in the sense of McKay, "Practical graph isomorphism", 1981,
    kept to row-major order). A state is a prefix of chosen indices and an
    ordered list of cells: indices of equal diagonal entry, each cell
    occupying the next run of positions and still free to be permuted
    within itself. The start state has the blocks of equal diagonal entry,
    by decreasing diagonal. At level k a state tries each index x of its
    first cell as position k and splits every remaining cell by decreasing
    ``rows[x][.]``; row k is then the entries of ``rows[x]`` at the prefix,
    at x and over the split cells in order. Only the states whose row k is
    largest go on to level k + 1.

    This is exact. The entries of row k before position k are those of
    column k in rows 0..k-1, and its diagonal entry is the first cell's;
    both are the same for every x of that cell, since a cell has one
    diagonal value and was split by the rows of the prefix. The entries
    after position k are largest exactly when every remaining cell is sorted
    by ``rows[x][.]``, which is what the split records. So the states at
    level k hold every permutation whose first k rows are the largest
    possible, and the last level holds the maximum. The states never
    outnumber the permutations of the blocks.
    """
    _require_symmetric(m)
    n = m.row_count
    if n > CANONICAL_DIM_BOUND:
        raise MatrixError(f"canonical form limited to dimension {CANONICAL_DIM_BOUND}")
    rows = m.rows
    order = sorted(range(n), key=lambda i: -rows[i][i])
    blocks = [tuple(g) for _, g in itertools.groupby(order, key=lambda i: rows[i][i])]
    states = [((), blocks)]
    for _ in range(n):
        best = None
        survivors = []
        for prefix, (first, *rest) in states:
            for x in first:
                others = tuple(z for z in first if z != x)
                tail, cells = _split_cells(rows[x], [others, *rest])
                if best is None or tail > best:
                    best, survivors = tail, []
                if tail == best:
                    survivors.append((prefix + (x,), cells))
        states = survivors
    perm = states[0][0]
    return IntMatrix._unchecked(tuple(tuple(rows[i][j] for j in perm) for i in perm))


def _split_cells(
    row: Sequence[int], cells: list[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Split each cell by decreasing entry of ``row``: the entries of ``row``
    over the split cells in order, and the nonempty split cells."""
    tail: list[int] = []
    split = []
    for cell in cells:
        if len(cell) == 1:
            tail.append(row[cell[0]])
            split.append(cell)
        elif cell:
            by_entry = sorted(cell, key=lambda z: -row[z])
            for v, g in itertools.groupby(by_entry, key=row.__getitem__):
                part = tuple(g)
                tail += [v] * len(part)
                split.append(part)
    return tail, split


def p_adic_valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n; n must be nonzero."""
    if n == 0:
        raise MatrixError("p-adic valuation of zero is infinite")
    if p < 2:
        raise MatrixError("valuation requires p >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
