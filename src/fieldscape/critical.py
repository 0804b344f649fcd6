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
break value ties the same way.  The census counts the (owner, dim) key of
``cubical.lower_stars``, the key the filtration sorts on: v's link nodes are
the e edges it owns and its link arcs the f faces it owns.  A face v owns
also makes v the owner of the face's two edges at v, so the lower link is a
subgraph of the 4-cycle: a forest unless all four faces are there.  Hence
y = [f == 4] and c = e - f + y, with no lookup table, and the whole census
costs O(vertices).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cubical import ScalarField, lower_stars, vertex_rank, write_table
from .persistence import PersistenceDiagram

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
    owner, dim = lower_stars(rank)
    # cells of each dimension in each vertex's lower star: 1 vertex, e edges, f faces
    star = np.bincount((3 * owner + dim).ravel(), minlength=3 * rank.size).reshape(-1, 3)[rank]
    e, f = star[..., 1], star[..., 2]
    y = f == 4

    # events per vertex and index: a component starts, c - 1 merges, y holes fill
    mult = np.stack((e == 0, np.maximum(e - f + y - 1, 0), y), axis=-1)
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
