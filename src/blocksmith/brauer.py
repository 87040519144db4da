"""Brauer trees with an exceptional vertex: enumeration up to isomorphism,
their Cartan matrices, and the defect-one classification they induce.

A tree with e edges and exceptional multiplicity m describes a basic
algebra with l = e simple modules, k = e + m ordinary characters, and
dimension sum(w(u) + w(v)) over edges uv, where w is m on the exceptional
vertex and 1 elsewhere. Equivalently the dimension is sum of w(v) deg(v)^2.
The parameter constraint for a block with cyclic defect of order p is
e * m = p - 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, cached_property

from .intmat import CANONICAL_DIM_BOUND, IntMatrix, canonical_perm
# bound here for the callers that put a tree Cartan matrix in canonical form
# one match at a time: the defect-one oracle in tests/conftest.py and the
# tracer of perfbench
from .intmat import canonical_perm_form  # noqa: F401
from .cartan import is_prime

# the tree step puts e x e Cartan matrices in canonical form, so the edge
# count is bounded by the dimension the canonical form admits
EDGE_BOUND = CANONICAL_DIM_BOUND


class BrauerTreeError(ValueError):
    pass


def _adjacency(edges) -> dict[int, list[int]]:
    """Neighbour lists of the vertices that the edges touch, in edge order."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _distances(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    """Breadth-first distance from source to every vertex it reaches, in
    the order the vertices are reached: the last one is farthest."""
    dist = {source: 0}
    queue = [source]
    for u in queue:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class BrauerTree:
    """Tree on vertices 0..e with a marked exceptional vertex."""

    edges: tuple[tuple[int, int], ...]
    exceptional: int
    multiplicity: int

    def __post_init__(self):
        e = len(self.edges)
        verts = {v for ed in self.edges for v in ed}
        if e == 0 or verts != set(range(e + 1)):
            raise BrauerTreeError("edges must form a tree on vertices 0..e")
        if self.exceptional not in verts:
            raise BrauerTreeError("exceptional vertex not in tree")
        if self.multiplicity < 1:
            raise BrauerTreeError("multiplicity must be at least 1")
        # acyclic + connected follows from |E| = |V| - 1 + connectivity
        if len(_distances(self.adjacency, 0)) != e + 1:
            raise BrauerTreeError("edge set is not connected")

    @cached_property
    def adjacency(self) -> dict[int, list[int]]:
        return _adjacency(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, v: int) -> int:
        return self.multiplicity if v == self.exceptional else 1

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class TreeInvariants:
    l: int
    k: int
    p: int | None
    dim_a: int


def cartan_of_tree(t: BrauerTree) -> IntMatrix:
    """Cartan matrix indexed by edges: diagonal w(u) + w(v), off-diagonal
    the weight of the shared endpoint (0 when edges are disjoint). It is a
    sum over vertex stars: each vertex v adds w(v) to every entry (i, j)
    where i and j are edges at v."""
    e = t.edge_count
    stars: list[list[int]] = [[] for _ in range(e + 1)]
    for i, (u, v) in enumerate(t.edges):
        stars[u].append(i)
        stars[v].append(i)
    rows = [[0] * e for _ in range(e)]
    for v, star in enumerate(stars):
        w = t.weight(v)
        for i in star:
            for j in star:
                rows[i][j] += w
    return IntMatrix._unchecked(tuple(map(tuple, rows)))


@cache
def _canonical_order(edges, exceptional: int, marked: bool) -> tuple[int, ...]:
    """``canonical_perm`` of the Cartan matrix of the marked tree with any
    multiplicity m >= 2 (marked) or m = 1, where the marking does not change
    the matrix. Memoized: at most two entries per ``_marked_trees`` row."""
    tree = BrauerTree(edges, exceptional, 2 if marked else 1)
    return canonical_perm(cartan_of_tree(tree))


def dim_of_tree(t: BrauerTree) -> int:
    """Dimension of the basic algebra, via vertex degrees (independent of
    the Cartan entry sum, which must agree with it)."""
    return sum(t.weight(v) * t.degree(v) ** 2 for v in range(t.edge_count + 1))


def invariants_of_tree(t: BrauerTree) -> TreeInvariants:
    e, m = t.edge_count, t.multiplicity
    p = e * m + 1
    return TreeInvariants(
        l=e,
        k=e + m,
        p=p if is_prime(p) else None,
        dim_a=dim_of_tree(t),
    )


def _rooted_code(adj: dict[int, list[int]], root: int, parent: int) -> str:
    subcodes = sorted(
        _rooted_code(adj, w, root) for w in adj[root] if w != parent
    )
    return "(" + "".join(subcodes) + ")"


def _marked_code(adj: dict[int, list[int]], marked: int) -> str:
    """Canonical code of the tree with adjacency adj, rooted at the marked
    vertex; equal codes mean the marked trees are isomorphic."""
    return _rooted_code(adj, marked, -1)


def _free_code(edges) -> str:
    """Canonical code of the unmarked tree: root at the centre, or at the
    central edge when there are two centres.

    A vertex u farthest from any vertex ends a longest path, and a vertex w
    farthest from u ends it at the other side; the centre is the middle one
    or two vertices of that path."""
    adj = _adjacency(edges)
    u = next(reversed(_distances(adj, edges[0][0])))
    from_u = _distances(adj, u)
    w = next(reversed(from_u))
    from_w = _distances(adj, w)
    centres = [v for v in from_u if from_u[v] + from_w[v] == from_u[w]
               and abs(from_u[v] - from_w[v]) <= 1]
    if len(centres) == 1:
        return _rooted_code(adj, centres[0], -1)
    a, b = centres
    return "|".join(sorted([_rooted_code(adj, a, b), _rooted_code(adj, b, a)]))


@cache
def _free_trees(e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Free trees with e edges, one representative per isomorphism class,
    grown from those with e - 1 edges by attaching a leaf. Memoized, so
    each size is grown once per process."""
    if e < 1:
        raise BrauerTreeError("need at least one edge")
    if e == 1:
        return (((0, 1),),)
    grown: dict[str, tuple[tuple[int, int], ...]] = {}
    for edges in _free_trees(e - 1):
        for v in range(e):
            new = edges + ((v, e),)
            grown.setdefault(_free_code(new), new)
    return tuple(grown.values())


@cache
def _marked_trees(e: int) -> tuple[tuple, ...]:
    """Marked trees with e edges as plain tuples ``(edges, exceptional,
    deg(exceptional)^2, rest)``, where rest sums deg(v)^2 over the other
    vertices, so a tree with multiplicity m has dimension
    m * deg(exceptional)^2 + rest. Markings are identified under tree
    automorphisms, in ``_free_trees`` order. Memoized, and immutable so
    that every caller may share it."""
    out = []
    for edges in _free_trees(e):
        adj = _adjacency(edges)
        squares = [len(adj[v]) ** 2 for v in range(e + 1)]
        seen = set()
        for v in range(e + 1):
            code = _marked_code(adj, v)
            if code in seen:
                continue
            seen.add(code)
            out.append((edges, v, squares[v], sum(squares) - squares[v]))
    return tuple(out)


def enumerate_trees(e: int, multiplicity: int = 1) -> list[BrauerTree]:
    """Marked trees with e edges, one per isomorphism class of the pair
    (tree, exceptional vertex), vertex choices identified under tree
    automorphisms. The marking is enumerated even for multiplicity 1, where
    it does not affect the Cartan matrix. Each call returns new trees."""
    if e > EDGE_BOUND:
        raise BrauerTreeError(f"edge count {e} exceeds bound {EDGE_BOUND}")
    return [
        BrauerTree(edges, exceptional=v, multiplicity=multiplicity)
        for edges, v, _, _ in _marked_trees(e)
    ]


def _is_path(t: BrauerTree) -> bool:
    return all(t.degree(v) <= 2 for v in range(t.edge_count + 1))


def _is_star(t: BrauerTree) -> bool:
    return any(t.degree(v) == t.edge_count for v in range(t.edge_count + 1))


def shape_name(t: BrauerTree) -> str:
    """Readable shape label: edge, path/star families for small e, a
    canonical-code tag otherwise."""
    e = t.edge_count
    if e == 1:
        return "edge"
    marked = t.multiplicity > 1
    if _is_path(t):
        base = f"path{e}"
        if not marked:
            return base
        reach = _distances(t.adjacency, t.exceptional)
        dist = min(reach[v] for v in reach if t.degree(v) == 1)
        if e == 2:
            return base + ("_center" if dist == 1 else "_end")
        if e == 3:
            return base + ("_inner" if dist == 1 else "_end")
        return f"{base}_pos{dist}"
    if _is_star(t):
        base = f"star{e}" if e > 3 else "star"
        if not marked:
            return base
        center = max(range(e + 1), key=t.degree)
        return base + ("_center" if t.exceptional == center else "_leaf")
    tag = _marked_code(t.adjacency, t.exceptional) if marked else _free_code(t.edges)
    digest = hashlib.sha256(tag.encode()).hexdigest()[:4]
    return f"tree_e{e}_{digest}"


@dataclass(frozen=True)
class DefectOneMatch:
    shape: str
    tree: BrauerTree
    multiplicity: int
    p: int
    cartan: IntMatrix

    def to_obj(self) -> dict:
        return {
            "shape": self.shape,
            "edges": [list(ed) for ed in self.tree.edges],
            "exceptional_vertex": self.tree.exceptional,
            "multiplicity": self.multiplicity,
            "p": self.p,
            "cartan": self.cartan.to_lists(),
        }


def classify_defect1(dim: int) -> list[DefectOneMatch]:
    """All Brauer tree algebras of the given dimension whose parameters fit
    a block with defect one: e * m = p - 1 for a prime p.

    Tree shapes do not depend on m, and dim = m * deg(exc)^2 + rest, where
    rest sums deg(v)^2 over the other vertices; so each marked tree has at
    most one multiplicity m, computed directly. Cartan matrices are reported
    in canonical permutation form. Duplicate parameter sets arising from
    collapsed markings are removed, keeping the first tree in
    ``enumerate_trees`` order.

    The canonical labelling of a marked tree's Cartan matrix is the same for
    every m >= 2: the entries are 0, 1 and m off the diagonal and 2 and
    m + 1 on it, in the same order and with the same equalities for every
    such m, and the refinement in ``canonical_perm`` only compares entries.
    So each marked tree is labelled once for m >= 2 and once for m = 1, and
    the labellings are kept per process (``_canonical_order``); that memo
    holds tuples only and is bounded by the ``_marked_trees`` table.
    """
    if dim < 1:
        raise BrauerTreeError("dimension must be positive")
    out = []
    seen = set()
    # a tree with e edges has dimension at least 4e - 2 (the path, m = 1)
    for e in range(1, min(EDGE_BOUND, (dim + 2) // 4) + 1):
        for edges, exceptional, exc2, rest in _marked_trees(e):
            m, r = divmod(dim - rest, exc2)
            p = e * m + 1
            if r or m < 1 or not is_prime(p):
                continue
            tree = BrauerTree(edges, exceptional, m)
            order = _canonical_order(edges, exceptional, m > 1)
            cartan = cartan_of_tree(tree).conjugate(order)
            key = (cartan, m, p)
            if key in seen:
                continue
            seen.add(key)
            out.append(
                DefectOneMatch(
                    shape=shape_name(tree),
                    tree=tree,
                    multiplicity=m,
                    p=p,
                    cartan=cartan,
                )
            )
    out.sort(key=lambda r: (r.cartan.row_count, r.cartan.rows, r.multiplicity))
    return out
