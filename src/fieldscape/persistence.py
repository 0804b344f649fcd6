"""Persistent homology of cubical sublevel filtrations, degrees 0 and 1.

``compute_persistence`` runs the standard binary-coefficient column reduction
in filtration order with the clearing optimization (faces first, so edge
columns that create cycles are skipped).  Columns are Python integers used as
bitsets: XOR is column addition and ``bit_length() - 1`` is the pivot.

The reduced-homology convention drops the one essential component (born at
the global minimum); on a full rectangle every degree-1 class dies, so the
diagram contains finite pairs only.

``betti_oracle`` is an independent check that never touches the reduction: it
counts components with union-find on a sublevel slice and recovers the number
of holes from the Euler characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import CubicalFiltration, read_table, sublevel_complex, write_table

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

    def in_degree(self, degree: int) -> list[PersistencePair]:
        return [p for p in self.pairs if p.degree == degree]

    def bars(self, degree: int) -> list[tuple[float, float]]:
        """(birth, death) intervals with positive length, landscape input."""
        return [(p.birth, p.death) for p in self.pairs if p.degree == degree and p.death > p.birth]


def compute_persistence(filt: CubicalFiltration) -> PersistenceDiagram:
    dims = filt.dims
    boundary = filt.boundary
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
    pairs = [
        PersistencePair(
            degree=deg,
            birth=float(values[b]),
            death=float(values[d]),
            birth_cell=b,
            death_cell=d,
        )
        for (deg, b, d) in raw_pairs
        if crit[b] != crit[d]  # same lower star: zero persistence by construction
    ]
    pairs.sort(key=lambda p: (p.degree, p.birth, p.death, p.birth_cell))

    return PersistenceDiagram(pairs=tuple(pairs), essential_min=float(values[essential_cell]))


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

    Degrees other than 0 and 1, non-finite values and death < birth raise
    ValueError.
    """
    out = []
    for row in read_table(path, DIAGRAM_HEADER):
        d, b, dd = row
        degree, birth, death = int(d), float(b), float(dd)
        if degree not in (0, 1) or not -np.inf < birth <= death < np.inf:
            raise ValueError(f"{path}: bad pair {','.join(row)!r}")
        out.append((degree, birth, death))
    return out
