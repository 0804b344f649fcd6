"""Persistent homology of cubical sublevel filtrations, degrees 0 and 1.

``compute_persistence`` needs no boundary-matrix reduction, because the
complex is a full rectangle in the plane.  One elder rule, ``_elder_rule``,
serves both degrees: union-find takes the links of a graph in order, names
each component by its smallest node, and a link joining two components kills
the larger root.  Both graphs are read on the cell grid of ``cubical``,
padded by a ring, and not from a boundary matrix.  One label grid names
every node: vertex j in filtration order (its rank) is node j, face j is
node F - j, and the ring is node 0, the outer node of the unbounded region.
An edge's link is then two reads of that grid.  Degree 0 runs the rule on
the vertices, joined by the edges in filtration order: each edge joins the
two vertices across its odd axis.  Degree 1 follows Alexander duality and
runs it on the dual graph, taking the edges in reverse filtration order:
each edge joins the two faces across its even axis, and a border edge joins
its one face to the outer node.  As face j is node F - j, a later face is
the elder and the rule reads the same way; a merging edge is the birth of
the cycle that its killed face closes.  The one invariant is that both
graphs are connected: n - 1 merges on n nodes, V - 1 and F, so every edge
merges in exactly one pass, since E = (V - 1) + F on a rectangle.  See
Garin et al., "Duality in persistent homology of images" (arXiv:2005.04597),
and Kaji, Sudo and Ahara, "Cubical Ripser" (arXiv:2005.12692).  The pairs
are exactly those of the standard column reduction on the same filtration
order.

The rule hangs basins in numpy, round by round, and runs its Python loop on
the links left (Robins, Wood and Sheppard, IEEE TPAMI 33(8), 2011).  A round
builds a basin forest.  A node whose first link leads to a smaller node
hangs below that node: the link finds the node alone and the other end in a
component whose root is no larger, so it always merges and kills the node.
Pointer jumping gives every node the root of its tree, its basin, which is
the smallest node of the basin.  The forest is exact in any link order.  A
child's first link also meets its parent, so the parent's own first link
comes no later, and strictly earlier unless the parent is a root.  So every
node is joined to its whole path up to its basin root before any other link
reaches it, and each link finds both its ends in the components of their
basin roots.  A link inside a basin then merges nothing, and the links
between basins merge as they would on the basin graph: one node per basin,
named by its root, and the links between distinct basins, in link order.
That is the same rule on a smaller graph, so the next round hangs basins the
same way.  At a basin's first link to another basin, the basin's component
lies inside the basin and its root is the basin's smallest node, while the
other end's component has a root no larger than its own basin's smallest
node.  So a basin whose first cross link leads to a smaller basin dies at
that link.  Rounds go on while a round at least halves the nodes and more
than ``_LOOP_LINKS`` links remain; the loop then takes the links left.  The
halving rule bounds the rounds by log2 of the node count on any graph: on a
1 x N staircase of minima whose saddles fall toward the youngest basin, each
round would hang a single basin.  The link cutoff spares the small graphs of
16 x 16 and 32 x 32 fields the rounds that would cost more than the loop
they save.  The forest links of every round and the loop's merges together
are the merges of the full rule.

The reduced-homology convention drops the one essential component (born at
the global minimum); on a full rectangle every degree-1 class dies, so the
diagram contains finite pairs only.

A diagram keeps its pairs as one structured array, one row per pair, with
the fields ``degree`` (int8), ``birth``, ``death``, ``birth_cell`` and
``death_cell`` in that order, the rows sorted by (degree, birth, death,
birth_cell).  It is a plain ``ndarray``, not a ``recarray``, so a column
read (``pairs["birth"]``) skips ``recarray.__getitem__``; its dtype is a
record dtype, so a single row is an ``np.record`` and reads as ``p.degree``.

``betti_oracle`` is an independent check that never touches the pairing.  On
the cell grid two cells are 4-neighbours exactly when one is a facet of the
other, so the components of a sublevel slice are the 4-connected components
of its cells there; the number of holes follows from the Euler
characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import CubicalFiltration, parse_number, read_table, write_table

DIAGRAM_HEADER = "degree,birth,death"

# the elder rule's loop takes over once this many links or fewer are left:
# one round then serves a 16 x 16 graph and two a 32 x 32 one, the fastest there
_LOOP_LINKS = 512


# birth_cell and death_cell are sorted cell indices in the filtration, -1 when unknown
PAIR_DTYPE = np.dtype([("degree", "i1"), ("birth", "f8"), ("death", "f8"), ("birth_cell", "i8"), ("death_cell", "i8")])


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Finite (birth, death) pairs plus the omitted essential minimum.

    ``pairs`` is a ``PAIR_DTYPE`` structured array (see the module docstring);
    equal diagrams agree in all five columns and in essential_min.

    Pairs whose birth and death cells lie in the same lower star (the death
    value is inherited from the birth vertex through the max rule) are
    dropped: they have zero persistence and carry no information.  Pairs that
    merely tie numerically across two different vertices are kept, so the
    critical-value census derived from the diagram stays exact even on fields
    with repeated values.
    """

    pairs: np.ndarray
    essential_min: float

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs) and self.essential_min == other.essential_min

    def bars(self, degree: int) -> np.ndarray:
        """(birth, death) rows of the pairs in ``degree`` with positive length, landscape input."""
        p = self.pairs
        birth, death = p["birth"], p["death"]
        keep = (p["degree"] == degree) & (death > birth)
        return np.column_stack((birth[keep], death[keep]))


def sorted_pairs(degree, birth, death, birth_cell, death_cell) -> np.ndarray:
    """The ``PAIR_DTYPE`` structured array of these columns, rows sorted by (degree, birth, death, birth_cell)."""
    columns = [np.asarray(column) for column in (degree, birth, death, birth_cell, death_cell)]
    order = np.lexsort(columns[3::-1])  # stable: rows tied on all four keep their order
    return np.rec.fromarrays([column[order] for column in columns], dtype=PAIR_DTYPE).view(np.ndarray)


def _elder_rule(links: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over nodes ``0..n_nodes-1`` taking the (u, v) int64 rows of ``links`` in order.

    Each component is named by its smallest node, its elder; a link joining
    two components kills the larger root.  Returns the positions of the
    merging links, in link order, and the roots they kill.  The graph must be
    connected: AssertionError unless exactly ``n_nodes - 1`` links merge.

    Rounds (the module docstring gives the argument that they are exact in
    any link order).  Forest: ``first`` holds each node's first position in
    the flattened links, and the partner of a flat position p is p ^ 1.  A
    node on no link keeps the sentinel, whose partner reads the pad ``n``, so
    it is a root and the merge count catches it.  A node whose first link's
    other end is smaller hangs below that end, and the link kills it.
    Basins: pointer jumping sends every node to its root.  Basin graph: the
    roots, renumbered ``0..n'-1`` in order, are the next round's nodes, and
    ``name`` maps each back to its original node; the links between distinct
    basins, in link order, are the next round's links, and ``pos`` keeps
    each one's original position.  Rounds stop once a round fails to halve
    the nodes or ``_LOOP_LINKS`` links or fewer are left.  Loop: union-find
    over the last round's basins, on every link left, until one component
    remains.
    """
    killed_by = np.full(len(links), -1)  # by link position, the original node each merging link kills
    name, pos, n = np.arange(n_nodes), np.arange(len(links)), n_nodes
    while True:
        # forest: a node hangs below the other end of its first link when that end is smaller
        flat = links.ravel()
        first = np.full(n, len(flat))
        np.minimum.at(first, flat, np.arange(len(flat)))
        node = np.arange(n)
        basin = np.minimum(np.append(flat, (n, n))[first ^ 1], node)  # the other end, or the pad
        forest = np.flatnonzero(basin < node)
        killed_by[pos[first[forest] >> 1]] = name[forest]
        while True:  # pointer jumping to each tree's root
            jumped = basin[basin]
            if (jumped == basin).all():
                break
            basin = jumped
        # the basin graph: roots renumbered in order, links between distinct basins
        root = np.flatnonzero(basin == node)
        ids = np.empty(n, dtype=np.int64)
        ids[root] = np.arange(len(root))
        links = ids[basin].take(flat).reshape(-1, 2)
        cross = np.flatnonzero(links[:, 0] != links[:, 1])
        links, pos, name = links.take(cross, axis=0), pos[cross], name[root]  # take: 5x faster than [] on rows
        n, halved = len(root), 2 * len(root) <= n
        if not halved or len(links) <= _LOOP_LINKS:
            break

    # flat lists: small tuples cost more in garbage collection than the pass;
    # find() is inlined with path halving, 20 % faster than a call
    at, killed = [], []
    par = list(range(n))
    remaining = n - 1
    for i, u, v in zip(pos.tolist(), links[:, 0].tolist(), links[:, 1].tolist()):
        while par[u] != u:
            par[u] = u = par[par[u]]
        while par[v] != v:
            par[v] = v = par[par[v]]
        if u != v:
            if u > v:
                u, v = v, u
            par[v] = u
            at.append(i)
            killed.append(v)
            remaining -= 1
            if not remaining:  # one component left: no later link merges
                break

    killed_by[at] = name.take(killed)
    at = np.flatnonzero(killed_by >= 0)
    if len(at) != n_nodes - 1:
        raise AssertionError(f"{n_nodes} nodes but {len(at)} merges: the graph is not connected")
    return at, killed_by[at]


def compute_persistence(filt: CubicalFiltration) -> PersistenceDiagram:
    """The diagram of ``filt`` in degrees 0 and 1, by the elder rule on the primal and dual graphs.

    Degree 0 pairs a vertex with the edge that kills its component, degree 1
    an edge with the face that fills the cycle it closes (see the module
    docstring).  Both graphs are read from one label grid, through
    ``filt.grid_id`` and ``filt.grid_shape``, with no boundary matrix.
    Pairs inside one lower star are dropped; ``essential_min`` is the value
    of the first vertex, the one component that never dies.
    """
    dims, values = filt.dims, filt.values
    vertices = np.flatnonzero(dims == 0)
    edges = np.flatnonzero(dims == 1)
    faces = np.flatnonzero(dims == 2)
    n_faces = len(faces)
    h, w = filt.grid_shape
    # each cell's position on the cell grid padded by a ring of outer positions
    row = filt.grid_id // w
    pos = filt.grid_id + 2 * row + (w + 3)
    # one label per padded position: vertex j (its rank) is node j, face j is
    # dual node F - j, and the ring is the outer node 0
    label = np.zeros((h + 2) * (w + 2), dtype=np.int64)
    label[pos[vertices]] = np.arange(len(vertices))
    label[pos[faces]] = np.arange(n_faces, 0, -1)
    # an edge's odd axis runs across its two vertices: rows for a vertical edge (odd row)
    across = np.where(row[edges] & 1, w + 2, 1)
    pos = pos[edges]
    del row
    # degree 0: the primal graph, each edge joining the two vertices across its
    # odd axis.  Degree 1: the dual graph, each edge joining the faces (or the
    # outer node) across its even axis, below and above a horizontal edge and
    # right and left of a vertical one.
    primal = np.column_stack((label[pos - across], label[pos + across]))
    across = (w + 3) - across  # the other axis: strides 1 and w + 2 swap
    dual = np.column_stack((label[pos + across], label[pos - across]))
    del label, pos, across

    # degree 0 takes the edges in filtration order, degree 1 in reverse
    at, killed = _elder_rule(primal, len(vertices))
    raw = [(vertices[killed], edges[at])]
    del primal
    at, killed = _elder_rule(dual[::-1], n_faces + 1)
    raw.append((edges[::-1][at], faces[n_faces - killed]))

    keep = [filt.crit_vertex[b] != filt.crit_vertex[d] for b, d in raw]  # same lower star: zero persistence
    degree = np.repeat(np.arange(2, dtype=np.int8), [np.count_nonzero(k) for k in keep])
    b, d = (np.concatenate([cells[k] for cells, k in zip(side, keep)]) for side in zip(*raw))
    pairs = sorted_pairs(degree, values[b], values[d], b, d)

    # the one surviving root is the oldest vertex
    return PersistenceDiagram(pairs=pairs, essential_min=float(values[vertices[0]]))


def betti_oracle(filt: CubicalFiltration, a: float) -> tuple[int, int]:
    """(beta0, beta1) of the sublevel slice {value <= a}, read off the cell grid.

    beta0 counts the 4-connected components of the slice's cells on the cell
    grid (see the module docstring); beta1 is recovered as beta0 - (V - E + F),
    valid because every component of a planar sublevel complex has trivial
    degree-2 homology.
    """
    from scipy import ndimage  # here, not at the top: the harness imports this module

    below = filt.values <= a
    grid = np.zeros(filt.grid_shape, dtype=bool)
    grid.flat[filt.grid_id[below]] = True
    beta0 = ndimage.label(grid)[1]
    n_v, n_e, n_f = np.bincount(filt.dims[below], minlength=3).tolist()
    return (beta0, beta0 - (n_v - n_e + n_f))


def betti_curve(diagram: PersistenceDiagram, a: float) -> tuple[int, int]:
    """Invert the diagram back to Betti numbers at threshold a (closed sublevel)."""
    if a < diagram.essential_min:
        return (0, 0)
    p = diagram.pairs
    beta0, beta1 = np.bincount(p["degree"][(p["birth"] <= a) & (a < p["death"])], minlength=2).tolist()
    return (1 + beta0, beta1)


def write_diagram_csv(diagram: PersistenceDiagram, path) -> None:
    """CSV with header ``degree,birth,death``, sorted by (degree, birth, death) as the pairs are."""
    rows = ((str(d), format(b, ".17g"), format(dd, ".17g")) for d, b, dd, _, _ in diagram.pairs.tolist())
    write_table(path, DIAGRAM_HEADER, rows)


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
