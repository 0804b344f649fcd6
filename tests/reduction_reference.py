"""Reference persistence: the standard binary column reduction with clearing.

Tests compare ``compute_persistence``, which pairs cells by union-find and
planar duality, against this independent algorithm pair for pair.

It runs the standard binary-coefficient column reduction in filtration order
with the clearing optimization (faces first, so edge columns that create
cycles are skipped).  Columns are Python integers used as bitsets: XOR is
column addition and ``bit_length() - 1`` is the pivot.
"""

from __future__ import annotations

import numpy as np

from fieldscape.cubical import CubicalFiltration
from fieldscape.persistence import PAIR_DTYPE, PersistenceDiagram

import oracles


def reference_persistence(filt: CubicalFiltration) -> PersistenceDiagram:
    dims = filt.dims
    boundary = oracles.boundary(filt)
    values = filt.values

    pivot_owner: dict[int, int] = {}  # pivot row -> owning column
    reduced: dict[int, int] = {}      # column -> bitset of rows

    def reduce_column(j: int) -> int:
        col = 0
        for b in boundary[j]:
            if b >= 0:
                col |= 1 << int(b)
        while col:
            low = col.bit_length() - 1
            owner = pivot_owner.get(low)
            if owner is None:
                pivot_owner[low] = j
                reduced[j] = col
                return low
            col ^= reduced[owner]
        return -1

    raw_pairs: list[tuple[int, int, int]] = []  # (degree, birth_cell, death_cell)

    # faces first: every face of a planar grid complex kills a 1-cycle
    for j in np.nonzero(dims == 2)[0]:
        low = reduce_column(int(j))
        if low < 0:
            raise AssertionError("face column reduced to zero in a planar complex")
        raw_pairs.append((1, low, int(j)))

    # clearing: pivots of face columns are the cycle-creating edges, their
    # own columns are guaranteed to reduce to zero
    cleared = {birth for (_, birth, _) in raw_pairs}
    unpaired_vertices = 0
    essential_cell = -1
    for j in np.nonzero(dims == 1)[0]:
        j = int(j)
        if j in cleared:
            continue
        low = reduce_column(j)
        if low < 0:
            raise AssertionError("edge column reduced to zero outside the cleared set")
        raw_pairs.append((0, low, j))

    paired_vertices = {birth for (deg, birth, _) in raw_pairs if deg == 0}
    for j in np.nonzero(dims == 0)[0]:
        if int(j) not in paired_vertices:
            unpaired_vertices += 1
            essential_cell = int(j)
    if unpaired_vertices != 1:
        raise AssertionError(f"expected one essential component, found {unpaired_vertices}")

    crit = filt.crit_vertex
    rows = [
        (deg, float(values[b]), float(values[d]), b, d)
        for (deg, b, d) in raw_pairs
        if crit[b] != crit[d]  # same lower star: zero persistence by construction
    ]
    rows.sort(key=lambda row: row[:4])  # (degree, birth, death, birth_cell)
    pairs = np.array(rows, dtype=PAIR_DTYPE).view(np.recarray)
    return PersistenceDiagram(pairs=pairs, essential_min=float(values[essential_cell]))
