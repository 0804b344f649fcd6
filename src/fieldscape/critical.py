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

The lower link of a grid vertex is a subgraph of a 4-cycle, so all counts
come from one 256-entry lookup table and the whole census costs O(vertices).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cubical import ScalarField, make_generic, write_table
from .persistence import PersistenceDiagram

# link node order N, E, S, W; arc i joins nodes i and (i+1) % 4 and is carried
# by the NE, SE, SW, NW face respectively
_LINK_ARCS = ((0, 1), (1, 2), (2, 3), (3, 0))


def _build_link_tables() -> tuple[np.ndarray, np.ndarray]:
    comp = np.zeros(256, dtype=np.int8)
    cyc = np.zeros(256, dtype=np.int8)
    for state in range(256):
        vbits, ebits = state & 0xF, state >> 4
        nodes = [i for i in range(4) if vbits >> i & 1]
        arcs = [
            arc
            for i, arc in enumerate(_LINK_ARCS)
            if ebits >> i & 1 and vbits >> arc[0] & 1 and vbits >> arc[1] & 1
        ]
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        merges = 0
        for a, b in arcs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                merges += 1
        c = len(nodes) - merges
        comp[state] = c
        cyc[state] = len(arcs) - len(nodes) + c
    return comp, cyc


_LINK_COMPONENTS, _LINK_CYCLES = _build_link_tables()


@dataclass(frozen=True)
class CriticalEvent:
    """Critical events hosted by one vertex; (-1, -1) marks value-only events."""

    row: int
    col: int
    value: float
    index: int
    multiplicity: int = 1


@dataclass(frozen=True)
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

    def __hash__(self):
        return hash(frozenset(self.value_index_multiset().items()))


def detect_critical(field: ScalarField) -> CriticalCensus:
    """Census of critical events from each vertex's 3x3 neighborhood only."""
    field = make_generic(field)
    v = field.values
    rows, cols = field.rows, field.cols

    # "neighbor below me": ties go to the smaller row-major index, so
    # neighbors at smaller index (N, W, NW, NE) win ties with <=
    lo_n = np.zeros((rows, cols), dtype=bool)
    lo_e = np.zeros((rows, cols), dtype=bool)
    lo_s = np.zeros((rows, cols), dtype=bool)
    lo_w = np.zeros((rows, cols), dtype=bool)
    lo_ne = np.zeros((rows, cols), dtype=bool)
    lo_se = np.zeros((rows, cols), dtype=bool)
    lo_sw = np.zeros((rows, cols), dtype=bool)
    lo_nw = np.zeros((rows, cols), dtype=bool)

    lo_n[1:, :] = v[:-1, :] <= v[1:, :]
    lo_s[:-1, :] = v[1:, :] < v[:-1, :]
    lo_w[:, 1:] = v[:, :-1] <= v[:, 1:]
    lo_e[:, :-1] = v[:, 1:] < v[:, :-1]
    if cols > 1:
        lo_nw[1:, 1:] = v[:-1, :-1] <= v[1:, 1:]
        lo_ne[1:, :-1] = v[:-1, 1:] <= v[1:, :-1]
        lo_sw[:-1, 1:] = v[1:, :-1] < v[:-1, 1:]
        lo_se[:-1, :-1] = v[1:, 1:] < v[:-1, :-1]

    arc_ne = lo_n & lo_e & lo_ne
    arc_se = lo_s & lo_e & lo_se
    arc_sw = lo_s & lo_w & lo_sw
    arc_nw = lo_n & lo_w & lo_nw

    state = (
        lo_n.astype(np.int16)
        | lo_e.astype(np.int16) << 1
        | lo_s.astype(np.int16) << 2
        | lo_w.astype(np.int16) << 3
        | arc_ne.astype(np.int16) << 4
        | arc_se.astype(np.int16) << 5
        | arc_sw.astype(np.int16) << 6
        | arc_nw.astype(np.int16) << 7
    )

    comp = _LINK_COMPONENTS[state]
    cycles = _LINK_CYCLES[state]
    empty_link = (state & 0xF) == 0

    events = []
    for r in range(rows):
        for c in range(cols):
            val = float(v[r, c])
            if empty_link[r, c]:
                events.append(CriticalEvent(r, c, val, 0, 1))
                continue
            m1 = int(comp[r, c]) - 1
            m2 = int(cycles[r, c])
            if m1 > 0:
                events.append(CriticalEvent(r, c, val, 1, m1))
            if m2 > 0:
                events.append(CriticalEvent(r, c, val, 2, m2))
    return CriticalCensus(events=tuple(events))


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
