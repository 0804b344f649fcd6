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
merges in exactly one pass, since E = (V - 1) + F on a rectangle.  So each
pass takes only the edges that can merge in it.  Edge j's slot holds j, and
a face's last edge, the largest of its four slots, closes the face's
4-cycle, so degree 0 skips it: it merges nothing, and a link that merges
nothing changes no component.  Degree 1 takes the F edges that degree 0
left, a spanning tree of the dual graph.  See Garin et al., "Duality in
persistent homology of images" (arXiv:2005.04597), and Kaji, Sudo and Ahara,
"Cubical Ripser" (arXiv:2005.12692).  The pairs are exactly those of the
standard column reduction on the same filtration order.

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
same way.  Rounds go on while a round at least halves the nodes and more
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
the fields ``degree`` (int8), ``birth`` and ``death`` in that order, the rows
sorted by all three.  A diagram keeps no cells: ``_pair_cells`` gives the
pairing's cells, for the tests that check it.  It is a plain ``ndarray``,
not a ``recarray``, so a column read (``pairs["birth"]``) skips
``recarray.__getitem__``; its dtype is a record dtype, so a single row is an
``np.record`` and reads as ``p.degree``.

``betti_oracle`` is an independent check that never touches the pairing.  On
the cell grid two cells are 4-neighbours exactly when one is a facet of the
other, so the components of a sublevel slice are the 4-connected components
of its cells there; the number of holes follows from the Euler
characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import CubicalFiltration, parse_number, read_records, write_table

DIAGRAM_COLUMNS = ("degree", "birth", "death")

# the elder rule's loop takes over once this many links or fewer are left: one round then
# serves both graphs of a 16 x 16 or 32 x 32 field, and cutoffs from 256 to 1024 time alike
_LOOP_LINKS = 512


PAIR_DTYPE = np.dtype([("degree", "i1"), ("birth", "f8"), ("death", "f8")])


@dataclass(frozen=True, eq=False)
class PersistenceDiagram:
    """Finite (birth, death) pairs plus the omitted essential minimum.

    ``pairs`` is a ``PAIR_DTYPE`` structured array (see the module docstring);
    equal diagrams agree in all three columns and in essential_min.

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


def sorted_pairs(degree, birth, death) -> np.ndarray:
    """The ``PAIR_DTYPE`` structured array of these columns, rows sorted by (degree, birth, death).

    The sort is stable.  Rows tied on all three keys are equal numbers and
    differ in bytes only by the sign of a zero (0 and -0 compare equal); they
    keep the order they come in, which for ``compute_persistence`` is
    birth-cell order.
    """
    order = np.lexsort((death, birth, degree))
    pairs = np.empty(len(order), (np.record, PAIR_DTYPE))
    for name, column in zip(PAIR_DTYPE.names, (degree, birth, death)):
        pairs[name] = np.asarray(column)[order]
    return pairs


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
    Basins: pointer jumping sends every node to its root; a jump from a
    root stays there, so the loop jumps twice per convergence check.  Basin
    graph: the roots, renumbered ``0..n'-1`` in order, are the next round's
    nodes, and ``name`` maps each back to its original node; the links
    between distinct basins, in link order, are the next round's links, and
    ``pos`` keeps each one's original position.  Loop: union-find over the
    last round's basins, on every link left, until one component remains.
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
        while True:  # pointer jumping to each tree's root, two jumps per check
            basin = basin[basin]
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


def _pair_cells(filt: CubicalFiltration) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (degree, birth cell, death cell) arrays of ``filt``'s pairs, by the elder rule on the primal and dual graphs.

    Degree 0 pairs a vertex with the edge that kills its component, degree 1
    an edge with the face that fills the cycle it closes.  Both graphs are read
    from one label grid, through ``filt.grid_id`` and ``filt.grid_shape``, and
    each gets only the edges that can merge in it (see the module docstring).
    Cells are positions in the filtration; pairs inside one lower star are
    dropped.  The pairs come in birth-cell order.
    """
    vertices, edges, faces = (np.flatnonzero(filt.dims == dim) for dim in range(3))
    h, w = filt.grid_shape
    # each cell's position on the cell grid padded by a ring of outer positions
    pos = filt.grid_id + 2 * (filt.grid_id // w) + (w + 3)
    # one label per padded position: vertex j (its rank) is node j, face j is
    # dual node F - j, the ring is the outer node 0, and edge j holds its order j
    label = np.zeros((h + 2) * (w + 2), dtype=np.int64)
    label[pos[vertices]] = np.arange(len(vertices))
    label[pos[faces]] = np.arange(len(faces), 0, -1)
    label[pos[edges]] = np.arange(len(edges))
    # a face's last edge, the latest of its four, closes its 4-cycle: degree 0 skips it.  Faces sit at
    # even padded rows and columns from 2 to h - 1 and w - 1; their edges one step off on either axis
    grid = label.reshape(h + 2, w + 2)
    last = np.maximum(np.maximum(grid[1 : h - 1 : 2, 2:w:2], grid[3 : h + 1 : 2, 2:w:2]),
                      np.maximum(grid[2:h:2, 1 : w - 1 : 2], grid[2:h:2, 3 : w + 1 : 2]))
    kept = np.flatnonzero(np.bincount(last.ravel(), minlength=len(edges)) == 0)
    pos = pos[edges]
    # degree 0: the primal graph in filtration order, each edge joining the two vertices across its
    # odd axis: rows (stride w + 2) for a vertical edge, which lies on an even padded row
    e = pos[kept]
    a = np.where(e // (w + 2) & 1, 1, w + 2)
    links = np.column_stack((label[e - a], label[e + a]))
    del grid, last, e, a  # freed before the rule runs, as label and pos are before degree 1
    at, killed = _elder_rule(links, len(vertices))
    raw = [(vertices[killed], edges[kept[at]])]
    # degree 1: the dual graph in reverse filtration order, on the F edges degree 0 left, each joining the
    # faces (or the outer node) across its even axis: below and above a horizontal edge, right and left of a vertical
    kept = np.flatnonzero(np.bincount(kept[at], minlength=len(edges)) == 0)[::-1]
    e = pos[kept]
    a = np.where(e // (w + 2) & 1, w + 2, 1)
    links = np.column_stack((label[e + a], label[e - a]))
    del label, pos, e, a
    at, killed = _elder_rule(links, len(faces) + 1)
    raw.append((edges[kept[at]], faces[len(faces) - killed]))

    keep = [filt.crit_vertex[b] != filt.crit_vertex[d] for b, d in raw]  # same lower star: zero persistence
    degree = np.repeat(np.arange(2, dtype=np.int8), [np.count_nonzero(k) for k in keep])
    b, d = (np.concatenate([cells[k] for cells, k in zip(side, keep)]) for side in zip(*raw))
    order = np.argsort(b)  # birth cells are distinct; sorted_pairs keeps this order among rows tied up to a zero's sign
    return degree[order], b[order], d[order]


def compute_persistence(filt: CubicalFiltration) -> PersistenceDiagram:
    """The diagram of ``filt`` in degrees 0 and 1: the values of ``_pair_cells``'s pairs, sorted.

    ``essential_min`` is the value of the first vertex, the one component
    that never dies; it is cell 0, since every lower star opens with its vertex.
    """
    degree, b, d = _pair_cells(filt)
    return PersistenceDiagram(sorted_pairs(degree, filt.values[b], filt.values[d]), float(filt.values[0]))


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
    """Header ``degree,birth,death``, rows sorted by (degree, birth, death) as the pairs are."""
    write_table(path, ",".join(DIAGRAM_COLUMNS), "%d,%.17g,%.17g", diagram.pairs[list(DIAGRAM_COLUMNS)].tolist())


def read_diagram_csv(path) -> list[tuple[int, float, float]]:
    """Parsed (degree, birth, death) rows; enough for landscape vectorization.

    Lines without three fields, fields that are not numbers, degrees other
    than 0 and 1, non-finite values and death < birth raise ValueError.
    """
    out = []
    for row in read_records(path, DIAGRAM_COLUMNS):
        degree = parse_number(path, "degree", row["degree"], int)
        birth, death = (parse_number(path, key, row[key]) for key in DIAGRAM_COLUMNS[1:])
        if degree not in (0, 1) or not -np.inf < birth <= death < np.inf:
            raise ValueError(f"{path}: bad pair {','.join(row.values())!r}")
        out.append((degree, birth, death))
    return out
