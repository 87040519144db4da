"""Marked-tree enumeration and Cartan data against brute-force oracles.

The oracle enumerates labeled trees from Prüfer sequences and classifies
markings by trying every vertex permutation, so any systematic error in
the canonical-code machinery would show up as a count or set mismatch.
"""

import functools
import itertools
import random

import pytest

from blocksmith import brauer
from blocksmith.brauer import (
    BrauerTree,
    BrauerTreeError,
    cartan_of_tree,
    classify_defect1,
    dim_of_tree,
    enumerate_trees,
    invariants_of_tree,
    shape_name,
)
from blocksmith.cartan import is_prime
from blocksmith.intmat import canonical_perm, canonical_perm_form

from conftest import (
    canonical_marked_tree,
    marked_tree_classes,
    multiplicity_search_classify,
    oracle_tree_cartan,
    prufer_trees,
)


def orbit_min(rows):
    l = len(rows)
    return min(
        tuple(tuple(rows[p[i]][p[j]] for j in range(l)) for i in range(l))
        for p in itertools.permutations(range(l))
    )


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_enumeration_matches_permutation_orbits(e):
    got = enumerate_trees(e)
    keys = {canonical_marked_tree(t.edges, t.exceptional, e + 1) for t in got}
    assert len(keys) == len(got)  # enumeration itself has no duplicates
    assert keys == marked_tree_classes(e)


# trees on e + 1 vertices for e = 1..8: rooted ones (OEIS A000081) are the
# marked trees, free ones (OEIS A000055) are the shapes
ROOTED_TREES = [1, 2, 4, 9, 20, 48, 115, 286]
FREE_TREES = [1, 1, 2, 3, 6, 11, 23, 47]


def test_known_counts():
    assert [len(enumerate_trees(e)) for e in range(1, 9)] == ROOTED_TREES
    assert [len(brauer._free_trees(e)) for e in range(1, 9)] == FREE_TREES


def test_returned_trees_share_no_state():
    """The memoized tables hand out nothing mutable: changing a returned
    list or a tree's adjacency leaves later calls as they were."""
    dims = range(13, 20)
    before = [[r.to_obj() for r in classify_defect1(n)] for n in dims]
    trees = enumerate_trees(4)
    expected = [(t.edges, t.exceptional, t.degree(t.exceptional)) for t in trees]
    for t in trees:
        t.adjacency[t.exceptional].append(t.exceptional)
        t.adjacency.clear()
    trees.reverse()
    trees.pop()
    again = enumerate_trees(4)
    assert [(t.edges, t.exceptional, t.degree(t.exceptional)) for t in again] == expected
    assert [[r.to_obj() for r in classify_defect1(n)] for n in dims] == before
    for bad in ((0,), (-1,), (9,), (3, 0)):
        with pytest.raises(BrauerTreeError):
            enumerate_trees(*bad)


def test_marked_trees_are_built_once_per_edge_count(monkeypatch):
    """With the memo cleared, classify_defect1 for n = 1..40 computes the
    tree codes of one cold build for e = 1..8 and no more: no edge count
    is enumerated again for another dimension. Shape names compute codes
    of their own, so they are left out of the count."""
    calls = []

    def counted(code):
        def wrapper(*args):
            calls.append(code.__name__)
            return code(*args)
        return wrapper

    monkeypatch.setattr(brauer, "_free_code", counted(brauer._free_code))
    monkeypatch.setattr(brauer, "_marked_code", counted(brauer._marked_code))
    monkeypatch.setattr(brauer, "shape_name", lambda t: "")

    def cold():
        brauer._free_trees.cache_clear()
        brauer._marked_trees.cache_clear()
        calls.clear()

    def counts():
        return calls.count("_free_code"), calls.count("_marked_code")

    cold()
    for e in range(1, 9):
        brauer._marked_trees(e)
    build = counts()
    # each free tree with s - 1 edges grows a leaf at each of its s vertices,
    # and each free tree with e edges is marked at each of its e + 1
    assert build == (
        sum(FREE_TREES[s - 2] * s for s in range(2, 9)),
        sum(n * (e + 2) for e, n in enumerate(FREE_TREES)),
    )
    cold()
    for n in range(1, 41):
        classify_defect1(n)
    assert counts() == build


def test_tree_validation():
    with pytest.raises(BrauerTreeError):
        BrauerTree(edges=((0, 1), (0, 1)), exceptional=0, multiplicity=1)
    with pytest.raises(BrauerTreeError):
        BrauerTree(edges=((0, 1), (2, 3)), exceptional=0, multiplicity=1)
    # the right vertex set and edge count, but a triangle and a separate edge
    with pytest.raises(BrauerTreeError, match="edge set is not connected"):
        BrauerTree(edges=((0, 1), (1, 2), (0, 2), (3, 4)), exceptional=0, multiplicity=1)
    with pytest.raises(BrauerTreeError):
        BrauerTree(edges=((0, 1),), exceptional=5, multiplicity=1)
    with pytest.raises(BrauerTreeError):
        BrauerTree(edges=((0, 1),), exceptional=0, multiplicity=0)
    with pytest.raises(BrauerTreeError):
        enumerate_trees(9)


def test_cartan_of_tree_matches_definition():
    for e in range(1, 9):
        for m in (1, 2, 5):
            for t in enumerate_trees(e, multiplicity=m):
                assert (
                    cartan_of_tree(t).to_lists()
                    == oracle_tree_cartan(t.edges, t.exceptional, m)
                )


def test_cartan_entry_sum_equals_weighted_degree_sum():
    for e in range(1, 6):
        for m in range(1, 13):
            for t in enumerate_trees(e, multiplicity=m):
                c = cartan_of_tree(t)
                assert c.entry_sum() == dim_of_tree(t)
                assert c.is_symmetric


def test_cartan_top_divisor_is_p():
    from blocksmith.intmat import elementary_divisors

    for e in range(1, 6):
        for m in range(1, 13):
            p = e * m + 1
            if not is_prime(p):
                continue
            for t in enumerate_trees(e, multiplicity=m):
                divs = elementary_divisors(cartan_of_tree(t))
                assert divs[-1] == p
                assert len(divs) < 2 or divs[-2] != p


def test_invariants():
    t = enumerate_trees(3, multiplicity=4)[0]
    inv = invariants_of_tree(t)
    assert (inv.l, inv.k, inv.p) == (3, 7, 13)
    no_prime = invariants_of_tree(enumerate_trees(3, multiplicity=3)[0])
    assert no_prime.p is None  # 3*3 + 1 = 10


def random_tree(rng, n_vertices):
    """Edges of a random labelled tree: each vertex joins an earlier one,
    then the labels are permuted and the edges shuffled and turned."""
    label = rng.sample(range(n_vertices), n_vertices)
    edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n_vertices)]
    edges = [ed if rng.random() < 0.5 else ed[::-1] for ed in edges]
    rng.shuffle(edges)
    return tuple(edges)


def oracle_centres(n_vertices, edges):
    """The vertices of least eccentricity, from all-pairs distances."""
    d = [[0 if i == j else n_vertices for j in range(n_vertices)]
         for i in range(n_vertices)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n_vertices):
        for i in range(n_vertices):
            for j in range(n_vertices):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    ecc = [max(row) for row in d]
    return [v for v in range(n_vertices) if ecc[v] == min(ecc)], max(ecc)


def test_free_code_roots_at_the_centre():
    """On random trees of up to 16 vertices, the free code is the rooted
    code at the least-eccentricity vertex, or the pair of codes across the
    two such vertices, and it does not change under relabelling."""
    rng = random.Random(22)
    parities = set()
    for _ in range(400):
        n_vertices = rng.randint(2, 16)
        edges = random_tree(rng, n_vertices)
        centres, diameter = oracle_centres(n_vertices, edges)
        parities.add(diameter % 2)
        adj = brauer._adjacency(edges)
        if len(centres) == 1:
            expected = brauer._rooted_code(adj, centres[0], -1)
        else:
            a, b = centres
            codes = sorted([brauer._rooted_code(adj, a, b), brauer._rooted_code(adj, b, a)])
            expected = "|".join(codes)
        code = brauer._free_code(edges)
        assert code == expected, edges
        label = rng.sample(range(n_vertices), n_vertices)
        relabelled = [(label[u], label[v]) for u, v in edges]
        rng.shuffle(relabelled)
        assert brauer._free_code(tuple(relabelled)) == code, edges
    assert parities == {0, 1}


@functools.lru_cache(maxsize=None)
def oracle_free_shapes(n_vertices: int):
    shapes = {}
    for edges in prufer_trees(n_vertices):
        shapes.setdefault(canonical_marked_tree(edges, 0, n_vertices)[0], edges)
    return tuple(shapes.values())


def oracle_classify(n: int):
    """Dimension-n matches by direct scan. Trees with e >= 6 edges have
    dimension at least 4e - 2 > 16 already at multiplicity 1, so scanning
    e <= 5 is exhaustive for n <= 16."""
    assert n <= 16
    found = {}
    for e in range(1, 6):
        n_vertices = e + 1
        shapes = oracle_free_shapes(n_vertices)
        for m in range(1, 16):
            p = e * m + 1
            if not is_prime(p):
                continue
            for edges in shapes:
                for mark in range(n_vertices):
                    cartan = oracle_tree_cartan(edges, mark, m)
                    dim = sum(sum(row) for row in cartan)
                    if dim == n:
                        found[(orbit_min(cartan), m, p)] = True
    return set(found)


@pytest.mark.parametrize("n", range(2, 17))
def test_classify_matches_brute_force(n):
    got = {
        (orbit_min(r.cartan.to_lists()), r.multiplicity, r.p)
        for r in classify_defect1(n)
    }
    assert got == oracle_classify(n)


def test_classify_equals_multiplicity_search(monkeypatch):
    """Closed-form multiplicities give exactly the matches, representatives
    and order of the per-m search. Both sides share one memo of the
    canonical form, which dominates their cost."""
    monkeypatch.setattr(
        brauer, "canonical_perm_form",
        functools.lru_cache(maxsize=None)(brauer.canonical_perm_form),
    )
    for n in range(1, 41):
        got = [r.to_obj() for r in classify_defect1(n)]
        assert got == multiplicity_search_classify(n), n


@pytest.mark.parametrize("e", range(1, 9))
def test_cached_order_gives_the_canonical_form_for_every_multiplicity(e):
    """The labelling kept per marked tree for m >= 2 (and per tree for
    m = 1) conjugates the tree's Cartan matrix to the canonical form that
    canonical_perm_form computes for that multiplicity directly."""
    for edges, exceptional, _, _ in brauer._marked_trees(e):
        for m in (1, 2, 3, 5, 12):
            cartan = cartan_of_tree(BrauerTree(edges, exceptional, m))
            order = brauer._canonical_order(edges, exceptional, m > 1)
            assert cartan.conjugate(order) == canonical_perm_form(cartan), (edges, exceptional, m)


def test_one_labelling_per_marked_tree_and_marking(monkeypatch):
    """A pass over dimensions 20..34 labels each (marked tree, m > 1) key
    once: 154 labellings for the 326 trees that fit a dimension (289 matches
    after dedupe); a second pass labels nothing."""
    labelled = []

    def counted(m):
        labelled.append(m)
        return canonical_perm(m)

    monkeypatch.setattr(brauer, "canonical_perm", counted)
    brauer._canonical_order.cache_clear()
    first = [[r.to_obj() for r in classify_defect1(n)] for n in range(20, 35)]
    assert sum(map(len, first)) == 289
    assert len(labelled) == 154
    labelled.clear()
    assert [[r.to_obj() for r in classify_defect1(n)] for n in range(20, 35)] == first
    assert labelled == []


def test_memoized_labellings_share_no_state():
    """Forcing new values into a returned match's tree and Cartan matrix
    leaves the memoized labellings, and so later calls, as they were."""
    before = [r.to_obj() for r in classify_defect1(30)]
    for r in classify_defect1(30):
        r.tree.adjacency.clear()
        object.__setattr__(r.tree, "edges", ((0, 1),))
        object.__setattr__(r.tree, "exceptional", 1)
        object.__setattr__(r.cartan, "rows", ((1,),))
    assert [r.to_obj() for r in classify_defect1(30)] == before


def test_classify_large_dimension():
    # the per-m search would enumerate the trees 100,002 times for e = 1
    matches = classify_defect1(100003)
    assert ("edge", 100002, 100003) in {
        (r.shape, r.multiplicity, r.p) for r in matches
    }


def test_dimension_13_and_14_tables():
    assert {(r.shape, r.multiplicity, r.p) for r in classify_defect1(13)} == {
        ("edge", 12, 13),
        ("path2_end", 8, 17),
        ("star_leaf", 2, 7),
        ("path3_end", 4, 13),
    }
    assert {(r.shape, r.multiplicity, r.p) for r in classify_defect1(14)} == {
        ("path2_center", 3, 7),
        ("path2_end", 9, 19),
        ("path3_inner", 2, 7),
        ("path4", 1, 5),
    }


def test_dimension_15_matches():
    rows = {(r.shape, r.multiplicity, r.p): r.cartan.to_lists()
            for r in classify_defect1(15)}
    assert set(rows) == {("star_leaf", 4, 13), ("path3_end", 6, 19)}
    assert rows[("star_leaf", 4, 13)] == [[5, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert rows[("path3_end", 6, 19)] == [[7, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_shape_names_are_descriptive_and_distinct():
    names3 = {shape_name(t) for t in enumerate_trees(3, multiplicity=2)}
    assert names3 == {"path3_end", "path3_inner", "star_center", "star_leaf"}
    names4 = [shape_name(t) for t in enumerate_trees(4, multiplicity=2)]
    assert len(set(names4)) == len(names4)
    assert "star4_center" in names4 and "star4_leaf" in names4
    unmarked = {shape_name(t) for t in enumerate_trees(2, multiplicity=1)}
    assert unmarked == {"path2"}
