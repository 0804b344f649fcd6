"""Persistent homology of cubical sublevel filtrations, degrees 0 and 1.

``compute_persistence`` needs no boundary-matrix reduction, because the
complex is a full rectangle in the plane.  One elder rule, ``_elder_rule``,
serves both degrees: union-find takes the links of a graph in order, names
each component by its smallest node, and a link joining two components kills
the larger root.  Cells are numbered among the cells of their own dimension.
Degree 0 runs the rule on the vertices, joined by the edges in filtration
order.  Degree 1 follows Alexander duality and runs it on the dual graph: one
node per face plus an outer node for the unbounded region, and one link per
primal edge joining the faces on either side of it (a border edge reaches the
outer node), taken in reverse filtration order.  The outer node is node 0 and
face j is node F - j, so a later face is the elder and the rule reads the
same way; a merging edge is the birth of the cycle that its killed face
closes.  The one invariant is that both graphs are connected: n - 1 merges on
n nodes, V - 1 and F, so every edge merges in exactly one pass, since
E = (V - 1) + F on a rectangle.  See Garin et al., "Duality in persistent
homology of images" (arXiv:2005.04597), and Kaji, Sudo and Ahara, "Cubical
Ripser" (arXiv:2005.12692).  The pairs are exactly those of the standard
column reduction on the same filtration order.

The reduced-homology convention drops the one essential component (born at
the global minimum); on a full rectangle every degree-1 class dies, so the
diagram contains finite pairs only.

``betti_oracle`` is an independent check that never touches the pairing: it
counts components with union-find on a sublevel slice and recovers the number
of holes from the Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import CubicalFiltration, parse_number, read_table, sublevel_complex, write_table

DIAGRAM_HEADER = "degree,birth,death"


@dataclass(frozen=True)
class PersistencePair:
    degree: int
    birth: float
    death: float
    birth_cell: int  # sorted cell index in the filtration
    death_cell: int


@dataclass(frozen=True)
class PersistenceDiagram:
    """Finite (birth, death) pairs plus the omitted essential minimum.

    Pairs whose birth and death cells lie in the same lower star (the death
    value is inherited from the birth vertex through the max rule) are
    dropped: they have zero persistence and carry no information.  Pairs that
    merely tie numerically across two different vertices are kept, so the
    critical-value census derived from the diagram stays exact even on fields
    with repeated values.
    """

    pairs: tuple[PersistencePair, ...]
    essential_min: float

    def bars(self, degree: int) -> list[tuple[float, float]]:
        """(birth, death) intervals with positive length, landscape input."""
        return [(p.birth, p.death) for p in self.pairs if p.degree == degree and p.death > p.birth]


def _elder_rule(links: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over nodes ``0..n_nodes-1`` taking the (u, v) rows of ``links`` in order.

    Each component is named by its smallest node, its elder; a link joining
    two components kills the larger root.  Returns the positions of the
    merging links and the roots they kill.  The graph must be connected:
    AssertionError unless exactly ``n_nodes - 1`` links merge.
    """
    # flat lists: 10^5 small tuples cost more in garbage collection than the
    # pass; find() is inlined with path halving, 20 % faster than a call
    at, killed = [], []
    parent = list(range(n_nodes))
    for i, u, v in zip(range(len(links)), links[:, 0].tolist(), links[:, 1].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u > v:
                u, v = v, u
            parent[v] = u
            at.append(i)
            killed.append(v)
    if len(at) != n_nodes - 1:
        raise AssertionError(f"{n_nodes} nodes but {len(at)} merges: the graph is not connected")
    return np.array(at, dtype=np.int64), np.array(killed, dtype=np.int64)


def compute_persistence(filt: CubicalFiltration) -> PersistenceDiagram:
    dims = filt.dims
    boundary = filt.boundary
    values = filt.values
    vertices = np.nonzero(dims == 0)[0]
    edges = np.nonzero(dims == 1)[0]
    faces = np.nonzero(dims == 2)[0]
    n_faces = len(faces)
    # compact labels: each cell's position among the cells of its dimension
    local = np.empty(filt.n_cells, dtype=np.int64)
    for cells in (vertices, edges, faces):
        local[cells] = np.arange(len(cells))

    # degree 0: the primal graph, edges in filtration order
    at, killed = _elder_rule(local[boundary[edges, :2]], len(vertices))
    raw = [(vertices[killed], edges[at])]

    # degree 1: the dual graph, edges in reverse filtration order, the outer
    # node 0 and face j node F - j.  Face boundary rows list the top, bottom,
    # left and right edges: a face is side 0 of its top and left edges and side
    # 1 of its bottom and right ones; a border edge keeps the outer node.
    cofaces = np.zeros((len(edges), 2), dtype=np.int64)
    for slot, side in ((0, 0), (1, 1), (2, 0), (3, 1)):
        cofaces[local[boundary[faces, slot]], side] = n_faces - np.arange(n_faces)
    at, killed = _elder_rule(cofaces[::-1], n_faces + 1)
    raw.append((edges[::-1][at], faces[n_faces - killed]))

    crit = filt.crit_vertex
    pairs = []
    for degree, (b, d) in enumerate(raw):
        keep = crit[b] != crit[d]  # same lower star: zero persistence by construction
        b, d = b[keep], d[keep]
        pairs += [
            PersistencePair(degree=degree, birth=birth, death=death, birth_cell=bc, death_cell=dc)
            for birth, death, bc, dc in zip(values[b].tolist(), values[d].tolist(), b.tolist(), d.tolist())
        ]
    pairs.sort(key=lambda p: (p.degree, p.birth, p.death, p.birth_cell))

    # the one surviving root is the oldest vertex
    return PersistenceDiagram(pairs=tuple(pairs), essential_min=float(values[vertices[0]]))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def betti_oracle(filt: CubicalFiltration, a: float) -> tuple[int, int]:
    """(beta0, beta1) of the sublevel slice {value <= a}, by brute force.

    beta0 comes from union-find over the slice's vertices and edges; beta1 is
    recovered as beta0 - (V - E + F), valid because every component of a
    planar sublevel complex has trivial degree-2 homology.
    """
    cells = sublevel_complex(filt, a)
    k = len(cells)
    if k == 0:
        return (0, 0)
    dims = filt.dims[:k]
    n_v = int(np.sum(dims == 0))
    n_e = int(np.sum(dims == 1))
    n_f = int(np.sum(dims == 2))

    uf = _UnionFind(k)
    components = n_v
    for j in np.nonzero(dims == 1)[0]:
        u, v = filt.boundary[j][0], filt.boundary[j][1]
        if uf.union(int(u), int(v)):
            components -= 1
    chi = n_v - n_e + n_f
    return (components, components - chi)


def betti_curve(diagram: PersistenceDiagram, a: float) -> tuple[int, int]:
    """Invert the diagram back to Betti numbers at threshold a (closed sublevel)."""
    if a < diagram.essential_min:
        return (0, 0)
    beta0 = 1 + sum(1 for p in diagram.pairs if p.degree == 0 and p.birth <= a < p.death)
    beta1 = sum(1 for p in diagram.pairs if p.degree == 1 and p.birth <= a < p.death)
    return (beta0, beta1)


def write_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    """CSV with header ``degree,birth,death``, sorted by (degree, birth, death)."""
    rows = sorted((p.degree, p.birth, p.death) for p in diagram.pairs)
    write_table(path, DIAGRAM_HEADER, ((str(d), format(b, ".17g"), format(dd, ".17g")) for d, b, dd in rows))


def read_diagram_csv(path) -> list[tuple[int, float, float]]:
    """Parsed (degree, birth, death) rows; enough for landscape vectorization.

    Lines without three fields, fields that are not numbers, degrees other
    than 0 and 1, non-finite values and death < birth raise ValueError.
    """
    out = []
    for row in read_table(path, DIAGRAM_HEADER):
        if len(row) != 3:
            raise ValueError(f"{path}: every line needs the 3 fields {DIAGRAM_HEADER}, got {','.join(row)!r}")
        degree = parse_number(path, "degree", row[0], int)
        birth, death = parse_number(path, "birth", row[1]), parse_number(path, "death", row[2])
        if degree not in (0, 1) or not -np.inf < birth <= death < np.inf:
            raise ValueError(f"{path}: bad pair {','.join(row)!r}")
        out.append((degree, birth, death))
    return out
