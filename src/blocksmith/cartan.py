"""Enumeration of candidate Cartan matrices with a prescribed entry sum,
and arithmetic feasibility screening of the candidates.

A candidate of size l is symmetric, positive definite, and indecomposable,
with nonnegative entries, diagonal at least 2 when l >= 2, and every
off-diagonal entry bounded by both diagonal entries meeting it. That entry
cap, a_ij <= min(d_i, d_j), is an assumption of the model: no result in
this package implies it, and it removes classes that meet every other
condition (at entry sums 13..17, [[5,3],[3,2]] through [[9,3],[3,2]] and
[[6,4],[4,3]]). The entry sum equals the dimension of the basic algebra.
Candidates are reported in canonical permutation form, so each symmetry
class appears once.

The enumerator builds few labelled matrices that a screen would reject. It
fixes a nonincreasing diagonal that leaves room for a spanning tree of
off-diagonal entries, then the off-diagonal row sums (each at
least 1, nonincreasing within a block of equal diagonal entries), then fills
the upper triangle row by row under the entry caps min(d_i, d_j) and
a_ij^2 < d_i d_j, and drops a partial matrix as soon as a leading principal
block fails to be positive definite. Each of these is a necessary condition
on some member of every class (see ``enumerate_cartan``), so no class is
lost; connectivity and the canonical form finish the job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import isqrt, prod

from .intmat import (
    IntMatrix,
    canonical_perm_form,
    elementary_divisors,
    is_connected,
    psd_rank,
    require_canonical_dim,
)

MAX_SUM_ENV = "BLOCKSMITH_MAX_SUM"
DEFAULT_MAX_SUM = 20


class CartanEnumError(ValueError):
    pass


@dataclass(frozen=True)
class CartanCandidate:
    matrix: IntMatrix
    entry_sum: int
    l: int
    det: int
    divisors: tuple[int, ...]

    def to_obj(self) -> dict:
        return {
            "matrix": self.matrix.to_lists(),
            "entry_sum": self.entry_sum,
            "l": self.l,
            "det": self.det,
            "elementary_divisors": list(self.divisors),
        }


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    reason: str | None = None
    p: int | None = None
    defect_order: int | None = None
    annotations: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        obj: dict = {"feasible": self.feasible}
        if self.reason is not None:
            obj["reason"] = self.reason
        if self.p is not None:
            obj["p"] = self.p
        if self.defect_order is not None:
            obj["defect_order"] = self.defect_order
        if self.annotations:
            obj["annotations"] = list(self.annotations)
        return obj


def max_entry_sum() -> int:
    raw = os.environ.get(MAX_SUM_ENV)
    if raw is None:
        return DEFAULT_MAX_SUM
    try:
        value = int(raw)
    except ValueError:
        raise CartanEnumError(f"{MAX_SUM_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise CartanEnumError(f"{MAX_SUM_ENV} must be positive")
    return value


def min_sum_for_l(l: int) -> int:
    """Smallest possible entry sum for a candidate of size l."""
    if l < 1:
        raise CartanEnumError("size must be at least 1")
    if l == 1:
        return 1
    # diagonal of 2s plus a spanning tree of 1s, each counted twice
    return 4 * l - 2


def _candidate(m: IntMatrix, n: int) -> CartanCandidate:
    # m is positive definite, so det m > 0 is the product of its Smith diagonal
    divisors = elementary_divisors(m)
    return CartanCandidate(
        matrix=m, entry_sum=n, l=m.row_count, det=prod(divisors), divisors=divisors
    )


def enumerate_cartan(n: int, l: int) -> list[CartanCandidate]:
    """All candidates of size l with entry sum n, one per symmetry class.

    Deterministic order: canonical matrices sorted by their rows.

    For l >= 2 the labelled matrices are generated under necessary
    conditions only, so every class keeps a representative:

    - the diagonal is nonincreasing (``_diagonals``), since a permutation
      can sort it, and its sum is at most n - 2(l - 1), since a connected
      matrix has a spanning tree of l - 1 off-diagonal entries of at least
      1, each counted twice in the entry sum (``min_sum_for_l(l) - 2l``
      held back);
    - the off-diagonal row sums are at least 1, since a connected matrix
      has no isolated index, at most what the entry caps below allow in
      their row, and (diagonal, row sum) is lexicographically
      nonincreasing, since a permutation within a block of equal diagonal
      entries can sort the row sums (``_row_sums``);
    - each off-diagonal entry a_ij is at most min(d_i, d_j), and satisfies
      a_ij^2 < d_i d_j, because the 2x2 principal minor of a positive
      definite matrix is positive (``_entry_cap``). The first cap is not a
      necessary condition but an assumption of the model, which defines
      the candidates: of the classes it removes at entry sums 13..17,
      listed by ``tests/test_cartan.py``, the one of sum 13 has det 1 and
      fails the screen, and those of sums 14 and 15 have |D| = p and no
      Brauer tree, so the casebooks of dimensions 13..15 are the same
      without it;
    - every leading principal block is positive definite, since the
      leading blocks of a positive definite matrix are; the last block is
      the matrix itself, so this is also the full definiteness test
      (``_labelled_matrices``).

    Connectivity is tested on each generated matrix, and the canonical form
    removes the duplicates that remain within each class. A size l above
    ``CANONICAL_DIM_BOUND`` with n >= ``min_sum_for_l(l)`` is refused before
    any matrix is built, with the canonical form's own ``MatrixError``.
    """
    if n < 1:
        raise CartanEnumError("entry sum must be positive")
    if n > max_entry_sum():
        raise CartanEnumError(
            f"entry sum {n} exceeds the configured bound {max_entry_sum()} "
            f"(raise {MAX_SUM_ENV} to go further)"
        )
    if l < 1:
        raise CartanEnumError("size must be at least 1")
    if l == 1:
        return [_candidate(IntMatrix.from_rows([[n]]), n)]
    if n < min_sum_for_l(l):
        return []
    # the path with one diagonal entry raised is a candidate at every such n,
    # so a size past the canonical form's bound could only fail at its first leaf
    require_canonical_dim(l)

    seen: set[IntMatrix] = set()
    out: list[CartanCandidate] = []
    for diag in _diagonals(l, n - 2 * (l - 1)):
        margin = n - sum(diag)
        if margin % 2:
            continue
        caps = [[_entry_cap(a, b) for b in diag] for a in diag]
        for sums in _row_sums(diag, caps, margin):
            for rows in _labelled_matrices(diag, caps, sums):
                # screened as plain lists; only a survivor becomes an IntMatrix
                if not is_connected(rows):
                    continue
                canon = canonical_perm_form(IntMatrix._unchecked(tuple(map(tuple, rows))))
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(_candidate(canon, n))
    out.sort(key=lambda c: c.matrix.rows)
    return out


def _diagonals(l: int, n: int):
    """Non-increasing diagonals (d_1 >= ... >= d_l >= 2) with sum at most n."""

    def rec(prefix: list[int], remaining: int, cap: int):
        slots = l - len(prefix)
        if slots == 0:
            yield tuple(prefix)
            return
        for d in range(min(cap, remaining - 2 * (slots - 1)), 1, -1):
            prefix.append(d)
            yield from rec(prefix, remaining - d, d)
            prefix.pop()

    yield from rec([], n, n)


def _entry_cap(a: int, b: int) -> int:
    """Largest off-diagonal entry x meeting diagonal entries a and b:
    x <= min(a, b) and x^2 < a * b."""
    return min(a, b, isqrt(a * b - 1))


def _row_sums(diag, caps, margin: int):
    """Off-diagonal row sums s_i >= 1 with sum ``margin``, each reachable
    under the entry caps, nonincreasing within each block of equal
    diagonal entries."""
    l = len(diag)
    reach = [sum(row) - row[i] for i, row in enumerate(caps)]
    # suffix[i]: the most that rows i.. can take together
    suffix = [0] * (l + 1)
    for i in range(l - 1, -1, -1):
        suffix[i] = suffix[i + 1] + reach[i]

    def rec(i: int, left: int, prefix: list[int]):
        if i == l:
            if left == 0:
                yield tuple(prefix)
            return
        hi = min(reach[i], left - (l - 1 - i))
        if i and diag[i] == diag[i - 1]:
            hi = min(hi, prefix[-1])
        for s in range(hi, max(1, left - suffix[i + 1]) - 1, -1):
            prefix.append(s)
            yield from rec(i + 1, left - s, prefix)
            prefix.pop()

    yield from rec(0, margin, [])


def _labelled_matrices(diag, caps, sums):
    """Symmetric matrices with diagonal ``diag``, off-diagonal row sums
    ``sums`` and entries within ``caps``, whose leading blocks are all
    positive definite.

    The upper triangle is filled row by row; the last entry of a row is
    forced by its row sum. Once row i is complete the leading
    (i + 2) x (i + 2) block is known and tested (the 2 x 2 one is positive
    definite by the caps). The yielded rows are reused; copy to keep them.
    """
    l = len(diag)
    rows = [[0] * l for _ in range(l)]
    for i, d in enumerate(diag):
        rows[i][i] = d
    rem = list(sums)

    def put(i: int, j: int, v: int) -> None:
        """Set a_ij = a_ji = v, keeping ``rem`` the unfilled row sums."""
        delta = v - rows[i][j]
        rows[i][j] = rows[j][i] = v
        rem[i] -= delta
        rem[j] -= delta

    def fill(i: int, j: int):
        if j == l - 1:
            v = rem[i]
            if v > caps[i][j] or v > rem[j]:
                return
            put(i, j, v)
            k = i + 2
            if k == l:
                if rem[j] == 0 and psd_rank([row[:] for row in rows]) == l:
                    yield rows
            elif k == 2 or psd_rank([row[:k] for row in rows[:k]]) == k:
                yield from fill(i + 1, k)
            put(i, j, 0)
            return
        for v in range(min(caps[i][j], rem[i], rem[j]) + 1):
            put(i, j, v)
            yield from fill(i, j + 1)
        put(i, j, 0)

    yield from fill(0, 1)


def prime_power_base(n: int) -> int | None:
    """p when n = p^a with a >= 1, else None; n at or above PRIME_BOUND is
    refused, as by ``is_prime``.

    Each a <= log2 n is tried by an exact integer a-th root and ``is_prime``
    on the root, so the cost is polynomial in the bit length of n.
    """
    if n < 2:
        return None
    if is_prime(n):
        return n
    for a in range(2, n.bit_length()):
        r = _integer_root(n, a)
        if r**a == n and is_prime(r):
            return r
    return None


def _integer_root(n: int, a: int) -> int:
    """floor(n^(1/a)) for n >= 1 and a >= 2, in integers only."""
    if a == 2:
        return isqrt(n)
    # Newton's step from above: it decreases strictly until it reaches the root
    x = 1 << -(-n.bit_length() // a)
    while True:
        y = ((a - 1) * x + n // x ** (a - 1)) // a
        if y >= x:
            return x
        x = y


# a strong-probable-prime test to the first 13 prime bases decides
# primality exactly below PRIME_BOUND, the least number that passes all of
# them without being prime (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality of n below PRIME_BOUND; larger n are refused."""
    if n >= PRIME_BOUND:
        raise CartanEnumError(f"primality is only decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in PRIME_BASES:
        if n % b == 0:
            return n == b
    # n has no prime factor below 43
    if n < 43 * 43:
        return True
    # n - 1 = d * 2^s with d odd
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def filter_block_feasible(c: CartanCandidate) -> FeasibilityVerdict:
    """Arithmetic screening of a candidate.

    Passing means no screen fired; it does not assert a block exists.
    """
    d = c.det
    if d == 1:
        if c.l >= 2:
            return FeasibilityVerdict(False, reason="det_one_with_l_ge_2")
        return FeasibilityVerdict(True, p=None, defect_order=1)
    p = prime_power_base(d)
    if p is None:
        return FeasibilityVerdict(False, reason="not_prime_power")
    # the divisor check below is implied by det = p^a; kept as a guard:
    # a divisor is a power of p when dividing p out of it leaves 1
    for e in c.divisors:
        while e > 1 and e % p == 0:
            e //= p
        if e > 1:
            return FeasibilityVerdict(False, reason="mixed_prime_divisors")
    top = c.divisors[-1]
    if c.l >= 2 and c.divisors[-2] == top:
        return FeasibilityVerdict(False, reason="repeated_top_divisor")
    annotations = ()
    if top == p:
        annotations = ("prime_det_defect_one",)
    return FeasibilityVerdict(True, p=p, defect_order=top, annotations=annotations)
