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

A census keeps its events as one structured array (a plain ``ndarray`` whose
rows are ``np.record``s, as a diagram's pairs) with the fields ``row``,
``col``, ``value``, ``index`` and ``multiplicity`` in that order: one row per
vertex and index with events, in row-major order.  Events recovered from a
diagram have no vertex, row = col = -1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cubical import ScalarField, lower_stars, vertex_rank, write_table
from .persistence import PersistenceDiagram

EVENT_DTYPE = np.dtype([("row", "i8"), ("col", "i8"), ("value", "f8"), ("index", "i8"), ("multiplicity", "i8")])


@dataclass(frozen=True, eq=False)
class CriticalCensus:
    """Critical events as a structured array of ``EVENT_DTYPE``; (-1, -1) marks value-only events.

    Two censuses are equal when their (value, index) multisets are.
    """

    events: np.ndarray

    @property
    def counts(self) -> tuple[int, int, int]:
        """(n0, n1, n2) totals with multiplicity."""
        ev = self.events
        return tuple(int(n) for n in np.bincount(ev["index"], ev["multiplicity"], minlength=3))

    def value_index_multiset(self) -> Counter:
        """Multiset of (value, index) with multiplicity, the comparison key."""
        ev = self.events
        return Counter(np.repeat(ev[["value", "index"]], ev["multiplicity"]).tolist())

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
    columns = [r, c, field.values[r, c], index, mult[r, c, index]]
    return CriticalCensus(np.rec.fromarrays(columns, dtype=EVENT_DTYPE).view(np.ndarray))


def critical_values_from_diagram(diagram: PersistenceDiagram) -> CriticalCensus:
    """Recover the (value, index) census from a persistence diagram.

    Vertex locations are gone: the diagram knows which values hosted events
    but not where.
    """
    # the essential minimum, then each pair's birth and death: index = degree at birth, degree + 1 at death
    p = diagram.pairs
    value = np.concatenate(([diagram.essential_min], np.column_stack((p["birth"], p["death"])).ravel()))
    index = np.concatenate(([0], np.column_stack((p["degree"], p["degree"] + 1)).ravel()))
    none = np.full(len(value), -1)
    columns = [none, none, value, index, np.ones_like(none)]
    return CriticalCensus(events=np.rec.fromarrays(columns, dtype=EVENT_DTYPE).view(np.ndarray))


def write_census_csv(census: CriticalCensus, path) -> None:
    """Header ``row,col,value,index,multiplicity``, rows sorted by (row, col, value, index)."""
    ev = census.events
    events = ev[np.lexsort((ev["index"], ev["value"], ev["col"], ev["row"]))].tolist()
    write_table(path, "row,col,value,index,multiplicity", "%d,%d,%.17g,%d,%d", events)
