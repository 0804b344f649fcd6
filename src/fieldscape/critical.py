"""Critical events of a grid field from purely local comparisons.

Each vertex v owns the cells of the max-extension complex whose value is
attained at v (its lower star).  The homology change caused by adding that
whole star is read off the lower link: the graph whose nodes are the
edge-neighbors of v below v and whose arcs are the incident faces all of
whose other corners are below v.  With c components and y independent cycles
in that graph,

    index 0 events: 1 if the lower link is empty (v starts a component),
    index 1 events: c - 1 (merges or loop closures, locally ambiguous),
    index 2 events: y (each filled-in cycle ends a hole).

"Below v" means lower ``vertex_rank``, the (value, row-major index) order
that also sorts the filtration, so the census and the persistence diagram
break value ties the same way.  The lower link is read from
``cubical.cell_owners``, the owner array the filtration sorts on: a link
node is an incident edge owned by v, and a link arc an incident face owned
by v.  The lower link of a grid vertex is a subgraph of a 4-cycle, so all
counts come from one 256-entry lookup table and the whole census costs
O(vertices).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cubical import ScalarField, cell_owners, vertex_rank, write_table
from .persistence import PersistenceDiagram

# link bit b is the cell at grid offset _LINK_OFFSETS[b] from the vertex: the
# nodes are the N, E, S, W edges, and arc i is the NE, SE, SW, NW face, which
# joins nodes i and (i + 1) % 4
_LINK_OFFSETS = ((-1, 0), (0, 1), (1, 0), (0, -1), (-1, 1), (1, 1), (1, -1), (-1, -1))


def _build_link_tables() -> tuple[np.ndarray, np.ndarray]:
    """Components and cycles of each of the 256 lower links.

    A subgraph of the 4-cycle is a forest unless it is the whole cycle, so
    components = nodes - arcs + cycles.
    """
    bits = np.arange(256)[:, None] >> np.arange(8) & 1
    nodes = bits[:, :4]
    arcs = bits[:, 4:] & nodes & np.roll(nodes, -1, axis=1)
    cyc = arcs.sum(axis=1) == 4
    comp = nodes.sum(axis=1) - arcs.sum(axis=1) + cyc
    return comp.astype(np.int8), cyc.astype(np.int8)


_LINK_COMPONENTS, _LINK_CYCLES = _build_link_tables()


@dataclass(frozen=True)
class CriticalEvent:
    """Critical events hosted by one vertex; (-1, -1) marks value-only events."""

    row: int
    col: int
    value: float
    index: int
    multiplicity: int = 1


@dataclass(frozen=True, eq=False)
class CriticalCensus:
    events: tuple[CriticalEvent, ...]

    @property
    def counts(self) -> tuple[int, int, int]:
        """(n0, n1, n2) totals with multiplicity."""
        totals = [0, 0, 0]
        for ev in self.events:
            totals[ev.index] += ev.multiplicity
        return tuple(totals)

    def value_index_multiset(self) -> Counter:
        """Multiset of (value, index) with multiplicity, the comparison key."""
        out: Counter = Counter()
        for ev in self.events:
            out[(ev.value, ev.index)] += ev.multiplicity
        return out

    def __eq__(self, other):
        if not isinstance(other, CriticalCensus):
            return NotImplemented
        return self.value_index_multiset() == other.value_index_multiset()


def detect_critical(field: ScalarField) -> CriticalCensus:
    """Census of critical events from each vertex's 3x3 neighborhood only."""
    rank = vertex_rank(field)
    rows, cols = field.rows, field.cols
    # vertex (r, c) sits at (2r + 1, 2c + 1); off-grid cells are owned by no vertex
    owner = np.full((2 * rows + 1, 2 * cols + 1), -1, dtype=np.int64)
    owner[1:-1, 1:-1] = cell_owners(rank)
    state = np.zeros((rows, cols), dtype=np.int16)
    for bit, (dr, dc) in enumerate(_LINK_OFFSETS):
        in_star = owner[1 + dr : 1 + dr + 2 * rows : 2, 1 + dc : 1 + dc + 2 * cols : 2] == rank
        state |= in_star.astype(np.int16) << bit

    # events per vertex and index: a component starts, c - 1 merges, y holes fill
    mult = np.empty((rows, cols, 3), dtype=np.int64)
    mult[..., 0] = (state & 0xF) == 0
    mult[..., 1] = np.maximum(_LINK_COMPONENTS[state] - 1, 0)
    mult[..., 2] = _LINK_CYCLES[state]
    r, c, index = np.nonzero(mult)
    events = zip(r.tolist(), c.tolist(), field.values[r, c].tolist(), index.tolist(), mult[r, c, index].tolist())
    return CriticalCensus(events=tuple(CriticalEvent(*ev) for ev in events))


def critical_values_from_diagram(
    diagram: PersistenceDiagram, essential_min: float | None = None
) -> CriticalCensus:
    """Recover the (value, index) census from a persistence diagram.

    Vertex locations are gone: the diagram knows which values hosted events
    but not where.  The essential minimum is taken from the diagram unless
    supplied explicitly.
    """
    if essential_min is None:
        essential_min = diagram.essential_min
    events = [CriticalEvent(-1, -1, float(essential_min), 0, 1)]
    for p in diagram.pairs:
        if p.degree == 0:
            events.append(CriticalEvent(-1, -1, p.birth, 0, 1))
            events.append(CriticalEvent(-1, -1, p.death, 1, 1))
        else:
            events.append(CriticalEvent(-1, -1, p.birth, 1, 1))
            events.append(CriticalEvent(-1, -1, p.death, 2, 1))
    return CriticalCensus(events=tuple(events))


# Two 1x5 fields with identical (value, index) censuses but different
# degree-0 diagrams: in the first, the saddle at 3 merges the minimum born at
# 1 into the component of 0; in the second, the same saddle value merges the
# minima born at 1 and 2 with each other first.  Verified by the exhaustive
# search in the test suite over all 1x5 permutations.
_WITNESS_A = (0.0, 3.0, 1.0, 4.0, 2.0)
_WITNESS_B = (0.0, 4.0, 1.0, 3.0, 2.0)


def locality_gap_demo() -> tuple[ScalarField, ScalarField]:
    """Witness pair: equal censuses, unequal persistence diagrams.

    Shows that the local census cannot determine the pairing, while the
    converse direction (diagram to census) is exact.
    """
    a = ScalarField.from_flat(1, 5, _WITNESS_A)
    b = ScalarField.from_flat(1, 5, _WITNESS_B)
    return a, b


def write_census_csv(census: CriticalCensus, path) -> None:
    """CSV with header ``row,col,value,index,multiplicity``."""
    events = sorted(census.events, key=lambda e: (e.row, e.col, e.value, e.index))
    rows = (
        (str(e.row), str(e.col), format(e.value, ".17g"), str(e.index), str(e.multiplicity)) for e in events
    )
    write_table(path, "row,col,value,index,multiplicity", rows)
