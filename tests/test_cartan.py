"""Candidate enumeration versus an exhaustive independent scan, plus the
arithmetic feasibility screens."""

import itertools
import time
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from blocksmith import IntMatrix, cartan
from blocksmith.cartan import (
    CartanCandidate,
    CartanEnumError,
    FeasibilityVerdict,
    enumerate_cartan,
    filter_block_feasible,
    is_prime,
    max_entry_sum,
    min_sum_for_l,
    prime_power_base,
)
from blocksmith.intmat import canonical_perm_form

from conftest import (
    all_permutations_canonical_form,
    determinantal_divisors,
    fraction_definiteness,
    graph_cartan,
    labelled_enumeration,
    marked_tree_classes,
    naive_det,
    oracle_tree_cartan,
)


def orbit_min(rows):
    l = len(rows)
    return min(
        tuple(tuple(rows[p[i]][p[j]] for j in range(l)) for i in range(l))
        for p in itertools.permutations(range(l))
    )


def oracle_connected(rows) -> bool:
    l = len(rows)
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(l):
            if i != j and rows[i][j] != 0 and j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == l


def oracle_enumerate(n: int, l: int) -> set:
    """Every matrix in the model, by unrestricted scan: symmetric, diagonal
    >= 2, off-diagonal entries bounded by both diagonals, entry sum n,
    positive definite, indecomposable; one representative per permutation
    orbit."""
    if l == 1:
        return {((n,),)}
    pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]
    found = set()
    for diag in itertools.product(range(2, n + 1), repeat=l):
        rest = n - sum(diag)
        if rest < 0 or rest % 2:
            continue
        caps = [min(diag[i], diag[j]) for i, j in pairs]
        for off in itertools.product(*(range(c + 1) for c in caps)):
            if 2 * sum(off) != rest:
                continue
            rows = [[0] * l for _ in range(l)]
            for i in range(l):
                rows[i][i] = diag[i]
            for (i, j), v in zip(pairs, off):
                rows[i][j] = rows[j][i] = v
            if not oracle_connected(rows):
                continue
            if fraction_definiteness(rows) != "pd":
                continue
            found.add(orbit_min(rows))
    return found


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_matches_exhaustive_scan(n, l):
    got = enumerate_cartan(n, l)
    assert {orbit_min(c.matrix.to_lists()) for c in got} == oracle_enumerate(n, l)
    assert len(got) == len(oracle_enumerate(n, l))  # no duplicate classes


def test_enumeration_is_deterministic_and_canonical():
    a = enumerate_cartan(13, 3)
    b = enumerate_cartan(13, 3)
    assert [c.matrix for c in a] == [c.matrix for c in b]
    for c in a:
        assert c.matrix == canonical_perm_form(c.matrix)
        d = c.matrix.diagonal_entries()
        assert list(d) == sorted(d, reverse=True)
        assert c.matrix.entry_sum() == 13 and c.l == 3


def test_enumeration_equals_all_permutations_canonical_form(monkeypatch):
    """Every (entry sum <= 20, size) gives the same candidates, in the same
    order, as enumeration with the all-permutations canonical form."""
    sizes = range(1, 6)  # from l = 6 on, the smallest entry sum 4l - 2 exceeds 20
    got = {(n, l): [c.to_obj() for c in enumerate_cartan(n, l)]
           for n in range(1, 21) for l in sizes}
    monkeypatch.setattr(
        cartan, "canonical_perm_form",
        lambda m: IntMatrix(all_permutations_canonical_form(m.rows)),
    )
    for (n, l), objs in got.items():
        assert objs == [c.to_obj() for c in enumerate_cartan(n, l)], (n, l)


def test_enumeration_equals_labelled_enumeration(monkeypatch):
    """Every (entry sum <= 22, size) gives the same candidates, in the same
    order, as screening every labelled matrix with a nonincreasing diagonal,
    so the row-sum and leading-block prunes lose no class."""
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "22")
    for n in range(1, 23):
        for l in range(1, 7):  # from l = 7 on, the smallest entry sum 4l - 2 exceeds 22
            got = [c.matrix.rows for c in enumerate_cartan(n, l)]
            assert got == labelled_enumeration(n, l), (n, l)


def uncapped_classes(n, l):
    """Every class of symmetric matrices of size l >= 2 with nonnegative
    entries summing to n, diagonal >= 2, connected and positive definite,
    with no entry cap: each labelled matrix is built, tested by Fraction
    pivots and put in ``all_permutations_canonical_form``."""
    pairs = list(itertools.combinations(range(l), 2))
    classes = set()
    for diag in itertools.product(range(2, n + 1), repeat=l):
        budget, odd = divmod(n - sum(diag), 2)
        if odd or budget < l - 1:  # a connected matrix has l - 1 edges
            continue
        # the off-diagonal entries: budget stars in len(pairs) parts
        for bars in itertools.combinations(range(budget + len(pairs) - 1), len(pairs) - 1):
            cuts = (-1, *bars, budget + len(pairs) - 1)
            off = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
            rows = [[diag[i] if i == j else 0 for j in range(l)] for i in range(l)]
            for (i, j), v in zip(pairs, off):
                rows[i][j] = rows[j][i] = v
            reached, frontier = {0}, [0]
            while frontier:
                i = frontier.pop()
                for j in range(l):
                    if rows[i][j] and j not in reached:
                        reached.add(j)
                        frontier.append(j)
            if len(reached) == l and fraction_definiteness(rows) == "pd":
                classes.add(all_permutations_canonical_form(rows))
    return classes


# The classes the entry cap a_ij <= min(d_i, d_j) removes, by entry sum.
CAPPED = {
    13: [((5, 3), (3, 2))],
    14: [((6, 3), (3, 2))],
    15: [((7, 3), (3, 2))],
    16: [((8, 3), (3, 2))],
    17: [((6, 4), (4, 3)), ((9, 3), (3, 2))],
}


def test_entry_cap_removes_exactly_these_matrices():
    """The cap is an assumption of the model, not implied by the other
    conditions. Over l <= 4 and entry sums 13..17, the classes that break
    it are exactly ``CAPPED``, and the others are the enumeration's. The
    removed matrices at the paper's dimensions would be settled anyway:
    sum 13's has det 1, which the screen rejects for l >= 2; those of sums
    14 and 15 have elementary divisors (1, p), so they pass the screen
    with |D| = p, and no Brauer tree with 2 edges and multiplicity
    (p - 1) / 2 has their Cartan matrix, so the tree step excludes them."""
    for n in range(13, 18):
        removed = []
        for l in range(2, 5):
            kept = []
            for rows in uncapped_classes(n, l):
                capped = any(
                    rows[i][j] > min(rows[i][i], rows[j][j])
                    for i in range(l) for j in range(l) if i != j
                )
                (removed if capped else kept).append(rows)
            assert sorted(kept) == [c.matrix.rows for c in enumerate_cartan(n, l)]
        assert sorted(removed) == CAPPED[n], n
    det_one = CAPPED[13][0]
    assert naive_det(det_one) == 1
    assert not filter_block_feasible(
        CartanCandidate(IntMatrix.from_rows(det_one), 13, 2, 1, (1, 1))
    ).feasible
    for (rows,), p in ((CAPPED[14], 3), (CAPPED[15], 5)):
        assert determinantal_divisors(rows) == (1, p)
        cand = CartanCandidate(IntMatrix.from_rows(rows), sum(map(sum, rows)), 2, p, (1, p))
        verdict = filter_block_feasible(cand)
        assert verdict.feasible and verdict.defect_order == verdict.p == p
        trees = {
            all_permutations_canonical_form(oracle_tree_cartan(edges, mark, (p - 1) // 2))
            for edges, mark in marked_tree_classes(2)
        }
        assert rows not in trees


@lru_cache(maxsize=None)
def enumerated_forms(n, l):
    return frozenset(c.matrix.rows for c in enumerate_cartan(n, l))


@given(st.data())
def test_every_drawn_candidate_is_enumerated(data):
    """A connected positive definite matrix of the model with entry sum at
    most 20, drawn entry by entry, has its canonical form among the
    enumerated candidates. Each index i >= 1 draws a neighbour below it, so
    every draw is connected, and every class is reached (label the indices
    in breadth-first order); each draw is bounded by what is left of the
    sum after the edges still owed."""
    l = data.draw(st.integers(2, 5))
    left = 20 - 2 * (l - 1)  # two per edge of the spanning tree
    diag = []
    for i in range(l):
        d = data.draw(st.integers(2, min(6, left - 2 * (l - 1 - i))))
        diag.append(d)
        left -= d
    rows = [[0] * l for _ in range(l)]
    for i in range(l):
        rows[i][i] = diag[i]
        tree = data.draw(st.integers(0, i - 1)) if i else None
        for j in range(i):
            lo = int(j == tree)
            left += 2 * lo
            a = data.draw(st.integers(lo, min(diag[i], diag[j], left // 2)))
            rows[i][j] = rows[j][i] = a
            left -= 2 * a
    if fraction_definiteness(rows) != "pd":
        return
    n = sum(map(sum, rows))
    assert canonical_perm_form(IntMatrix.from_rows(rows)).rows in enumerated_forms(n, l)


def simply_laced_dynkin(l):
    """Edge lists of A_l, of D_l (l >= 4) and of E_l (l = 6, 7, 8)."""
    path = [(i, i + 1) for i in range(l - 1)]
    diagrams = [path]
    if l >= 4:
        diagrams.append(path[:-1] + [(l - 3, l - 1)])
    if l in (6, 7, 8):
        diagrams.append(path[:-1] + [(2, l - 1)])
    return diagrams


def test_visited_diagonals_leave_room_for_a_spanning_tree(monkeypatch):
    """Every diagonal the enumerator visits leaves at least 2(l - 1) of the
    entry sum off the diagonal, the least a connected matrix needs, and
    dimensions 13-15 visit 112 diagonals (all 298 that fit the sum would
    leave 186 with too little room)."""
    visits = []
    diagonals = cartan._diagonals

    def counted(l, bound):
        for diag in diagonals(l, bound):
            visits.append((n, l, diag))
            yield diag

    monkeypatch.setattr(cartan, "_diagonals", counted)
    for n in range(13, 16):
        for l in range(1, 5):  # from l = 5 on, the smallest entry sum 4l - 2 exceeds 15
            enumerate_cartan(n, l)
    assert len(visits) == 112
    for n, l, diag in visits:
        assert n - sum(diag) >= 2 * (l - 1), (n, diag)


def test_minimal_sum_candidates_are_simply_laced_dynkin(monkeypatch):
    """At the smallest entry sum 4l - 2 a candidate is 2I plus the adjacency
    matrix of a tree, and positive definiteness leaves exactly the
    simply-laced Dynkin diagrams. The expected forms come from the
    all-permutations oracle."""
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "30")
    for l, count in zip(range(2, 9), (1, 1, 2, 2, 3, 3, 3)):
        expected = sorted(
            all_permutations_canonical_form(graph_cartan(l, edges))
            for edges in simply_laced_dynkin(l)
        )
        got = [c.matrix.rows for c in enumerate_cartan(4 * l - 2, l)]
        assert len(expected) == count
        assert got == expected, l


def test_entry_sum_13_determinants():
    dets2 = sorted(c.det for c in enumerate_cartan(13, 2))
    assert dets2 == sorted([17, 23, 27, 29, 10, 14, 16, 3])
    dets3 = sorted(c.det for c in enumerate_cartan(13, 3))
    assert dets3 == sorted([16, 13, 19, 18, 17, 21, 7, 1, 2])


def test_size_one_and_minimum_sums():
    assert [c.matrix.to_lists() for c in enumerate_cartan(7, 1)] == [[[7]]]
    assert min_sum_for_l(2) == 6
    assert min_sum_for_l(3) == 10
    assert enumerate_cartan(5, 2) == []
    assert [c.matrix.to_lists() for c in enumerate_cartan(6, 2)] == [[[2, 1], [1, 2]]]
    with pytest.raises(CartanEnumError):
        min_sum_for_l(0)
    with pytest.raises(CartanEnumError):
        enumerate_cartan(0, 2)
    with pytest.raises(CartanEnumError):
        enumerate_cartan(10, 0)


def test_entry_sum_bound_is_configurable(monkeypatch):
    assert max_entry_sum() == 20
    with pytest.raises(CartanEnumError):
        enumerate_cartan(21, 2)
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "22")
    assert enumerate_cartan(21, 2)
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "abc")
    with pytest.raises(CartanEnumError):
        max_entry_sum()
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "0")
    with pytest.raises(CartanEnumError):
        max_entry_sum()


def test_primality_helpers():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_power_base(16) == 2
    assert prime_power_base(27) == 3
    assert prime_power_base(17) == 17
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None
    # sieve oracle: least[n] is the least prime factor of n >= 2
    limit = 5000
    least = list(range(limit))
    for f in range(2, limit):
        if least[f] == f:
            for m in range(f * f, limit, f):
                least[m] = min(least[m], f)
    for n in range(limit):
        p = least[n] if n >= 2 else None
        m = n
        while p and m % p == 0:
            m //= p
        assert is_prime(n) == (p == n)
        assert prime_power_base(n) == (p if m == 1 else None)


def test_is_prime_is_exact_on_strong_pseudoprimes():
    """Composites that fool weaker tests, each with a stated factor, are
    refused; large primes are accepted; the bound of the 13 bases, itself a
    strong pseudoprime to all of them, is refused."""
    carmichael = {561: 3, 1105: 5, 1729: 7, 2465: 5, 2821: 7, 6601: 7, 8911: 7}
    for n, f in carmichael.items():
        assert n % f == 0 and not is_prime(n)
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert 151 * 751 * 28351 == 3215031751 and not is_prime(3215031751)
    # psi_12 passes the bases 2..37, so only the base 41 catches it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 and not is_prime(psi12)
    assert is_prime(2**61 - 1)
    # trial division agrees past the early return for n < 43^2
    for n in range(10**8, 10**8 + 2000):
        assert is_prime(n) == all(n % f for f in range(2, isqrt(n) + 1))
    bound = cartan.PRIME_BOUND
    assert bound == 3317044064679887385961981 and bound % 1287836182261 == 0
    for n in (bound, bound + 1, 2**89 - 1):  # 2^89 - 1 is prime but past the bound
        with pytest.raises(CartanEnumError, match="only decided below"):
            is_prime(n)


def test_prime_power_base_takes_exact_roots():
    """Prime powers far past the reach of trial division are resolved by
    exact integer roots; perfect powers of composites, strong pseudoprimes
    and Carmichael numbers are not prime powers; the bound of ``is_prime``
    is refused."""
    assert prime_power_base(3**50) == 3
    assert prime_power_base(2**81) == 2
    p40 = 2**40 - 87
    assert p40.bit_length() == 40 and is_prime(p40)
    start = time.perf_counter()
    assert prime_power_base(p40**2) == p40
    assert time.perf_counter() - start < 1.0
    assert (p40 - 1) % 2 == 0 and prime_power_base((p40 - 1) ** 2) is None
    assert prime_power_base(6**30) is None
    assert 151 * 751 * 28351 == 3215031751 and prime_power_base(3215031751) is None
    for n, f in {561: 3, 1105: 5, 1729: 7, 2465: 5, 2821: 7, 6601: 7, 8911: 7}.items():
        assert n % f == 0 and prime_power_base(n) is None
    for n in (cartan.PRIME_BOUND, p40**3):
        with pytest.raises(CartanEnumError, match="only decided below"):
            prime_power_base(n)


def candidate_for(rows):
    matches = [
        c
        for c in enumerate_cartan(IntMatrix.from_rows(rows).entry_sum(), len(rows))
        if orbit_min(c.matrix.to_lists()) == orbit_min(rows)
    ]
    assert len(matches) == 1
    return matches[0]


def test_feasibility_verdicts():
    v = filter_block_feasible(candidate_for([[9, 1], [1, 2]]))
    assert v.feasible and v.p == 17 and v.defect_order == 17
    assert v.annotations == ("prime_det_defect_one",)

    v = filter_block_feasible(candidate_for([[5, 2], [2, 4]]))
    assert v.feasible and v.p == 2 and v.defect_order == 16
    assert v.annotations == ()

    v = filter_block_feasible(candidate_for([[6, 2], [2, 3]]))
    assert not v.feasible and v.reason == "not_prime_power"

    v = filter_block_feasible(candidate_for([[3, 1, 2], [1, 3, 0], [2, 0, 2]]))
    assert not v.feasible and v.reason == "repeated_top_divisor"

    v = filter_block_feasible(candidate_for([[13]]))
    assert v.feasible and v.p == 13 and v.defect_order == 13


def test_feasibility_edge_cases():
    trivial = CartanCandidate(
        matrix=IntMatrix.from_rows([[1]]), entry_sum=1, l=1, det=1, divisors=(1,)
    )
    v = filter_block_feasible(trivial)
    assert v.feasible and v.defect_order == 1

    det_one = CartanCandidate(
        matrix=IntMatrix.from_rows([[2, 1], [1, 1]]),
        entry_sum=5,
        l=2,
        det=1,
        divisors=(1, 1),
    )
    assert filter_block_feasible(det_one).reason == "det_one_with_l_ge_2"

    # the divisor guard cannot fire on true data; feed it inconsistent data
    bogus = CartanCandidate(
        matrix=IntMatrix.from_rows([[4, 0], [0, 4]]),
        entry_sum=8,
        l=2,
        det=16,
        divisors=(2, 6),
    )
    assert filter_block_feasible(bogus).reason == "mixed_prime_divisors"
    # a divisor prime to p, one with a second prime beside p, and one that is
    # a higher power of p than det itself holds: only the last passes the guard
    for divisors, reason in (((3, 16), "mixed_prime_divisors"),
                             ((4, 12), "mixed_prime_divisors"),
                             ((2, 32), None)):
        v = filter_block_feasible(CartanCandidate(
            matrix=IntMatrix.from_rows([[4, 0], [0, 4]]),
            entry_sum=8, l=2, det=16, divisors=divisors,
        ))
        assert v.reason == reason, divisors


def factor_primes(n):
    """The set of primes dividing n > 0, by trial division."""
    return {q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, isqrt(q) + 1))}


def test_feasibility_equals_factorization_oracle(monkeypatch):
    """Every candidate of entry sums 13..22 gets the verdict that the prime
    factors of its determinant and divisors give."""
    monkeypatch.setenv("BLOCKSMITH_MAX_SUM", "22")
    count = 0
    for n in range(13, 23):
        for l in range(1, 7):
            for c in enumerate_cartan(n, l):
                count += 1
                v = filter_block_feasible(c)
                primes = factor_primes(c.det)
                top = c.divisors[-1]
                if c.det == 1:
                    expected = "det_one_with_l_ge_2" if l >= 2 else None
                elif len(primes) != 1:
                    expected = "not_prime_power"
                elif any(factor_primes(e) - primes for e in c.divisors):
                    expected = "mixed_prime_divisors"
                elif l >= 2 and c.divisors[-2] == top:
                    expected = "repeated_top_divisor"
                else:
                    expected = None
                    assert v.p == min(primes) and v.defect_order == top
                    assert v.annotations == (("prime_det_defect_one",) if top == v.p else ())
                assert v.reason == expected and v.feasible == (expected is None), c.to_obj()
    assert count == 2569
