"""Enumeration of candidate Cartan matrices with a prescribed entry sum,
and arithmetic feasibility screening of the candidates.

A candidate of size l is symmetric, positive definite, and indecomposable,
with nonnegative entries, diagonal at least 2 when l >= 2, and every
off-diagonal entry bounded by both diagonal entries meeting it. The entry
sum equals the dimension of the basic algebra. Candidates are reported in
canonical permutation form, so each symmetry class appears once.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .intmat import (
    IntMatrix,
    canonical_perm_form,
    det,
    elementary_divisors,
    is_connected,
    psd_rank,
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
    return CartanCandidate(
        matrix=m,
        entry_sum=n,
        l=m.row_count,
        det=det(m),
        divisors=tuple(elementary_divisors(m)),
    )


def enumerate_cartan(n: int, l: int) -> list[CartanCandidate]:
    """All candidates of size l with entry sum n, one per symmetry class.

    Deterministic order: canonical matrices sorted by their rows.
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

    pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]
    seen: set[IntMatrix] = set()
    out: list[CartanCandidate] = []

    # non-increasing diagonals kill most permutation duplicates up front
    for diag in _diagonals(l, n):
        off_budget, rem = divmod(n - sum(diag), 2)
        if rem:
            continue
        for off in _off_diagonals(pairs, diag, off_budget):
            rows = [[0] * l for _ in range(l)]
            for i in range(l):
                rows[i][i] = diag[i]
            for (i, j), v in zip(pairs, off):
                rows[i][j] = v
                rows[j][i] = v
            # screened as plain lists; only a survivor becomes an IntMatrix
            if not is_connected(rows):
                continue
            if psd_rank([row[:] for row in rows]) != l:
                continue
            canon = canonical_perm_form(IntMatrix.from_rows(rows))
            if canon in seen:
                continue
            seen.add(canon)
            out.append(_candidate(canon, n))
    out.sort(key=lambda c: c.matrix.rows)
    return out


def _diagonals(l: int, n: int):
    """Non-increasing diagonals (d_1 >= ... >= d_l >= 2) with room left over."""

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


def _off_diagonals(pairs, diag, budget: int):
    """Assignments to the upper triangle summing to the budget, each entry
    within the min of its two diagonal entries."""

    def rec(idx: int, left: int, acc: list[int]):
        if idx == len(pairs):
            if left == 0:
                yield tuple(acc)
            return
        i, j = pairs[idx]
        cap = min(diag[i], diag[j], left)
        for v in range(cap + 1):
            acc.append(v)
            yield from rec(idx + 1, left - v, acc)
            acc.pop()

    yield from rec(0, budget, [])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_base(n: int) -> int | None:
    """p when n = p^a with a >= 1, else None."""
    if n < 2:
        return None
    p = None
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            p = f
            while m % f == 0:
                m //= f
            break
        f += 1 if f == 2 else 2
    if p is None:
        return n  # n itself is prime
    return p if m == 1 else None


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
    # the divisor check below is implied by det = p^a; kept as a guard
    for e in c.divisors:
        if e > 1 and prime_power_base(e) != p:
            return FeasibilityVerdict(False, reason="mixed_prime_divisors")
    top = c.divisors[-1]
    if c.l >= 2 and c.divisors[-2] == top:
        return FeasibilityVerdict(False, reason="repeated_top_divisor")
    annotations = ()
    if top == p:
        annotations = ("prime_det_defect_one",)
    return FeasibilityVerdict(True, p=p, defect_order=top, annotations=annotations)
