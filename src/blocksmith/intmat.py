"""Exact integer matrices: determinants, Smith normal form, definiteness,
indecomposability, scaled inverses, and a canonical form under simultaneous
row/column permutation.

The determinant and the adjugate come together from one Faddeev-LeVerrier
recurrence (``adjugate_and_det``): n integer matrix products, exact integer
divisions and no pivoting. Definiteness is read off the one fraction-free
(Bareiss) elimination, ``psd_rank``. The Smith normal form comes from one
elimination, ``_smith``: ``elementary_divisors`` runs it on a bare copy of
the rows, and ``smith_normal_form`` on the block array [[m, I], [I, 0]],
whose identity blocks collect the left and right transforms.

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
    transposes, scalings, adjugates, conjugates and the Gram search's rows
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
    """Smith normal form with unimodular transforms, left * m * right = diag.

    ``_smith`` runs on the block array [[m, I], [I, 0]]. A row operation is
    a left product by a unimodular E and takes [m, L] to [E m, E L]; a
    column operation is a right product by a unimodular F and takes
    [[m], [R]] to [[m F], [R F]]. So from L = R = I the block right of m
    ends as the left transform and the block below m as the right one.
    """
    n, k = m.row_count, m.col_count
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m.rows)]
    a += [[int(i == j) for j in range(k)] + [0] * n for i in range(k)]
    diagonal = _smith(a, n, k)
    return SnfResult(
        diagonal=diagonal,
        left_transform=IntMatrix._unchecked(tuple(tuple(row[k:]) for row in a[:n])),
        right_transform=IntMatrix._unchecked(tuple(tuple(row[:k]) for row in a[n:])),
    )


def elementary_divisors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero Smith diagonal: ``_smith`` on a bare copy of the rows, so no
    transform is built."""
    diagonal = _smith([list(row) for row in m.rows], m.row_count, m.col_count)
    return tuple(d for d in diagonal if d)


def _smith(a: list[list[int]], n: int, k: int) -> tuple[int, ...]:
    """Reduce the leading n x k block of the list array ``a`` in place and
    return its diagonal: nonnegative, each entry dividing the next.

    Step t swaps the nonzero entry of least (|a_ij|, i, j) in the block from
    (t, t) on to (t, t) and clears row t and column t by floor division.
    If a remainder is left, or some later row has an entry the pivot does
    not divide (the first such row is then added to row t), the step starts
    again with a smaller pivot; otherwise a negative pivot row is negated.
    Row operations act on whole rows below n and column operations on whole
    columns below k, so what ``a`` holds right of and below the block
    records them.
    """
    t = 0
    while t < min(n, k):
        nonzero = [(abs(x), i, j) for i in range(t, n) for j, x in enumerate(a[i][t:k], t) if x]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        top = a[t]
        p = top[t]
        for i in range(t + 1, n):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        for j in range(t + 1, k):
            q = top[j] // p
            if q:
                for row in a:
                    row[j] -= q * row[t]
        if any(top[t + 1 : k]) or any(a[i][t] for i in range(t + 1, n)):
            continue
        for i in range(t + 1, n):
            if any(x % p for x in a[i][t + 1 : k]):
                a[t] = [x + y for x, y in zip(top, a[i])]
                break
        else:
            if p < 0:
                a[t] = [-x for x in top]
            t += 1
    return tuple(a[i][i] for i in range(min(n, k)))


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


def components(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The connected components of the graph on the indices of the square
    symmetric ``rows`` with edges at nonzero off-diagonal entries, each in
    the order it is reached from its least index, by least index."""
    seen = [False] * len(rows)
    out = []
    for start in range(len(rows)):
        if not seen[start]:
            seen[start] = True
            out.append([start])
            for i in out[-1]:  # grows while it is walked
                for j, x in enumerate(rows[i]):
                    if x and not seen[j]:
                        seen[j] = True
                        out[-1].append(j)
    return out


def is_connected(rows: Sequence[Sequence[int]]) -> bool:
    """Connectivity of the graph of ``components``."""
    return len(components(rows)) == 1


def adjugate_and_det(m: IntMatrix) -> tuple[IntMatrix, int]:
    """adj(m) and det m of a square matrix. The Gram search, its
    verification and the contribution matrices of one target read both from
    ``gram.row_forms``, which calls this once per target.

    Faddeev-LeVerrier recurrence: M_1 = I and, for k = 1..n,
    c_k = -tr(m M_k) / k and M_{k+1} = m M_k + c_k I. The c_k are the
    coefficients of det(x I - m) = x^n + c_1 x^{n-1} + ... + c_n, so
    det m = (-1)^n c_n and adj m = (-1)^{n-1} M_n. It takes n integer
    products, no pivoting and no special case for a singular matrix.
    """
    if not m.is_square:
        raise MatrixError("determinant and adjugate need a square matrix")
    n = m.row_count
    cols = tuple(zip(*m.rows))
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # M_k is a polynomial in m, so M_k m = m M_k
        prod = [[sum(map(mul, row, col)) for col in cols] for row in mk]
        # exact: M_k = m^{k-1} + c_1 m^{k-2} + ... + c_{k-1} I, so
        # tr(m M_k) = p_k + c_1 p_{k-1} + ... + c_{k-1} p_1 with p_j = tr(m^j),
        # which Newton's identities equate to -k c_k, and c_k is an integer
        # coefficient of the characteristic polynomial of an integer matrix
        c, rest = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rest:
            raise InvariantError(f"internal: tr(m M_{k}) not divisible by {k}")
        if k < n:
            for i in range(n):
                prod[i][i] += c
            mk = prod
    sign = (-1) ** (n - 1)
    adj = IntMatrix._unchecked(tuple(tuple(sign * x for x in row) for row in mk))
    return adj, -sign * c


def det(m: IntMatrix) -> int:
    """Exact determinant, see ``adjugate_and_det``."""
    return adjugate_and_det(m)[1]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate matrix: adj(m) * m = det(m) * I, see ``adjugate_and_det``."""
    return adjugate_and_det(m)[0]


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
    adj, d = adjugate_and_det(m)
    if d == 0:
        raise MatrixError("singular matrix has no inverse")
    if s <= 0:
        raise MatrixError("scale must be positive")
    num = adj.scale(s)
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
