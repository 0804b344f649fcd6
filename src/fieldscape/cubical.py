"""Cubical complexes and sublevel-set filtrations of grid-sampled functions.

A scalar field assigns one value to each vertex of a rows x cols grid.  The
complex has one vertex per sample, an edge per horizontally or vertically
adjacent pair, and a square face per 2x2 block.  Edges and faces carry the
maximum of the values on their boundary vertices, so every sublevel slice
{value <= a} is closed under boundary.

Vertices are totally ordered by (value, row-major index): ties between equal
stored values are broken by index, never by perturbing the numbers.
``vertex_rank`` is that order and the one tie-break of the package: the
filtration here and the local census in ``critical`` compare vertices only
through it.  Cells are filtered by (value, dim, anchor), which places every
cell after its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidFieldError

# orientation codes used in cell sort keys; vertices and faces share ORIENT_H
ORIENT_H = 0
ORIENT_V = 1


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values on the vertices of a rows x cols grid."""

    rows: int
    cols: int
    values: np.ndarray  # shape (rows, cols), float64, read-only

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InvalidFieldError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.rows, self.cols):
            raise InvalidFieldError(
                f"values shape {vals.shape} does not match grid {self.rows}x{self.cols}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_flat(cls, rows: int, cols: int, flat) -> "ScalarField":
        return cls(rows, cols, np.asarray(flat, dtype=np.float64).reshape(rows, cols))

    def __eq__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.values, other.values)
        )


def make_generic(field: ScalarField) -> ScalarField:
    """Resolve ties so that all vertices are pairwise distinct in the order used downstream.

    Vertices compare lexicographically by (value, row-major index), which is
    an infinitesimal index-ordered perturbation; ``vertex_rank`` computes that
    order.  Stored values are unchanged, so the function validates finiteness
    and returns the field as-is.  Idempotent by construction.
    """
    if not np.all(np.isfinite(field.values)):
        raise InvalidFieldError("field contains non-finite values")
    return field


def vertex_rank(field: ScalarField) -> np.ndarray:
    """Each vertex's position in the (value, row-major index) order, as a rows x cols int64 array.

    Equal values, ``-0.0`` and ``0.0`` included, rank by index.  Every
    vertex comparison of the filtration and the census is a comparison of
    ranks.
    """
    field = make_generic(field)
    order = np.argsort(field.values, axis=None, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank.reshape(field.rows, field.cols)


@dataclass(frozen=True)
class Cell:
    """One cell of the complex: a vertex, an edge, or a square face.

    ``anchor`` is the top-left vertex; edges carry an 'h'/'v' orientation.
    The value equals the maximum of the boundary vertices (the vertex's own
    value for dim 0).
    """

    dim: int
    anchor: tuple[int, int]
    orientation: str | None
    value: float


class CubicalFiltration:
    """All cells of the grid complex sorted into filtration order.

    Cells are indexed by their sorted position.  ``boundary[i]`` lists the
    sorted indices of cell i's boundary cells (-1 padding), and
    ``crit_vertex[i]`` is the row-major index of the boundary vertex of
    highest ``vertex_rank``, whose value the cell attains (the cell belongs
    to that vertex's lower star).
    """

    def __init__(self, values, dims, anchor_rows, anchor_cols, orients, boundary, crit_vertex):
        self.values = values
        self.dims = dims
        self.anchor_rows = anchor_rows
        self.anchor_cols = anchor_cols
        self.orients = orients
        self.boundary = boundary
        self.crit_vertex = crit_vertex

    @property
    def n_cells(self) -> int:
        return len(self.values)

    def cell_counts(self) -> tuple[int, int, int]:
        """(V, E, F) of the full complex."""
        return (
            int(np.sum(self.dims == 0)),
            int(np.sum(self.dims == 1)),
            int(np.sum(self.dims == 2)),
        )

    def euler_characteristic(self) -> int:
        v, e, f = self.cell_counts()
        return v - e + f

    def cell(self, i: int) -> Cell:
        d = int(self.dims[i])
        orientation = None
        if d == 1:
            orientation = "v" if self.orients[i] == ORIENT_V else "h"
        return Cell(
            dim=d,
            anchor=(int(self.anchor_rows[i]), int(self.anchor_cols[i])),
            orientation=orientation,
            value=float(self.values[i]),
        )

    def boundary_of(self, i: int) -> list[int]:
        return [int(b) for b in self.boundary[i] if b >= 0]


def build_filtration(field: ScalarField) -> CubicalFiltration:
    """Assemble all cells with max-extension values and sort into filtration order.

    Each cell is owned by its boundary vertex of highest ``vertex_rank`` and
    takes that vertex's value.  Sort key is (owner rank, dim, anchor row,
    anchor col, orientation), which is (value, owning vertex, ...) since rank
    follows (value, index).  When all vertex values are distinct this is
    exactly (value, dim, anchor); with repeated values it additionally keeps
    each vertex's lower star contiguous, which the critical-event census
    requires.  Lower-dimensional cells precede their cofaces at equal value,
    so the order is always a valid filtration.  Deterministic: identical
    fields give identical orderings.
    """
    rank = vertex_rank(field)
    rows, cols = field.rows, field.cols
    vidx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)

    n_v = rows * cols
    n_eh = rows * (cols - 1)
    n_ev = (rows - 1) * cols
    n_f = (rows - 1) * (cols - 1)
    n = n_v + n_eh + n_ev + n_f

    owner = np.empty(n, dtype=np.int64)  # rank of the owning vertex
    dim = np.empty(n, dtype=np.int8)
    arow = np.empty(n, dtype=np.int32)
    acol = np.empty(n, dtype=np.int32)
    orient = np.zeros(n, dtype=np.int8)
    bnd = np.full((n, 4), -1, dtype=np.int64)  # natural ids, remapped after sorting

    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    owner_h = np.maximum(rank[:, :-1], rank[:, 1:])

    # vertices, natural ids [0, n_v)
    owner[:n_v] = rank.ravel()
    dim[:n_v] = 0
    arow[:n_v] = rr.ravel()
    acol[:n_v] = cc.ravel()

    # horizontal edges (r, c)-(r, c+1), natural ids [n_v, n_v + n_eh)
    if n_eh:
        s = slice(n_v, n_v + n_eh)
        owner[s] = owner_h.ravel()
        dim[s] = 1
        arow[s] = rr[:, :-1].ravel()
        acol[s] = cc[:, :-1].ravel()
        orient[s] = ORIENT_H
        bnd[s, 0] = vidx[:, :-1].ravel()
        bnd[s, 1] = vidx[:, 1:].ravel()

    # vertical edges (r, c)-(r+1, c), natural ids [n_v + n_eh, n_v + n_eh + n_ev)
    if n_ev:
        s = slice(n_v + n_eh, n_v + n_eh + n_ev)
        owner[s] = np.maximum(rank[:-1, :], rank[1:, :]).ravel()
        dim[s] = 1
        arow[s] = rr[:-1, :].ravel()
        acol[s] = cc[:-1, :].ravel()
        orient[s] = ORIENT_V
        bnd[s, 0] = vidx[:-1, :].ravel()
        bnd[s, 1] = vidx[1:, :].ravel()

    # faces anchored at (r, c), natural ids [n - n_f, n); owned like their top or bottom edge
    if n_f:
        s = slice(n - n_f, n)
        owner[s] = np.maximum(owner_h[:-1, :], owner_h[1:, :]).ravel()
        dim[s] = 2
        arow[s] = rr[:-1, :-1].ravel()
        acol[s] = cc[:-1, :-1].ravel()
        eh_id = n_v + (rr[:, :-1] * (cols - 1) + cc[:, :-1])
        ev_id = n_v + n_eh + (rr[:-1, :] * cols + cc[:-1, :])
        bnd[s, 0] = eh_id[:-1, :].ravel()   # top edge
        bnd[s, 1] = eh_id[1:, :].ravel()    # bottom edge
        bnd[s, 2] = ev_id[:, :-1].ravel()   # left edge
        bnd[s, 3] = ev_id[:, 1:].ravel()    # right edge

    order = np.lexsort((orient, acol, arow, dim, owner))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)

    bnd_sorted = bnd[order]
    mask = bnd_sorted >= 0
    bnd_sorted[mask] = pos[bnd_sorted[mask]]

    by_rank = np.empty(n_v, dtype=np.int64)
    by_rank[rank.ravel()] = np.arange(n_v)
    crit = by_rank[owner[order]]

    return CubicalFiltration(
        values=field.values.ravel()[crit],
        dims=dim[order],
        anchor_rows=arow[order],
        anchor_cols=acol[order],
        orients=orient[order],
        boundary=bnd_sorted,
        crit_vertex=crit,
    )


def sublevel_complex(filt: CubicalFiltration, a: float) -> np.ndarray:
    """Sorted indices of all cells with value <= a.

    Because cells are stored in filtration order, the slice is a prefix and
    therefore closed under boundary.
    """
    k = int(np.searchsorted(filt.values, a, side="right"))
    return np.arange(k, dtype=np.int64)


def read_table(path, header: str | None = None) -> list[list[str]]:
    """Comma-split non-blank lines of a text table, below ``header`` if given.

    Every file format of the package is such a table.  A missing or
    different header line raises ValueError.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if header is not None:
        if not lines or lines[0] != header:
            raise ValueError(f"{path}: expected header {header!r}")
        lines = lines[1:]
    return [ln.split(",") for ln in lines]


def write_table(path, header: str, rows, end: str = "\n") -> None:
    """The header line, then each row's fields joined by commas; ``end`` closes every line."""
    lines = [header, *(",".join(row) for row in rows)]
    Path(path).write_text(end.join(lines) + end)


def write_field_csv(field: ScalarField, path) -> None:
    """CSV layout: first line ``rows,cols``, then one line per grid row.

    Values are printed with 17 significant digits, enough for an exact
    float64 round trip.
    """
    rows = ([format(v, ".17g") for v in row] for row in field.values)
    write_table(path, f"{field.rows},{field.cols}", rows)


def read_field_csv(path) -> ScalarField:
    lines = read_table(path)
    if not lines:
        raise InvalidFieldError(f"{path}: empty field file")
    try:
        rows, cols = (int(tok) for tok in lines[0])
    except ValueError as exc:
        raise InvalidFieldError(f"{path}: bad header line {','.join(lines[0])!r}") from exc
    if len(lines) - 1 != rows:
        raise InvalidFieldError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    if any(len(ln) != cols for ln in lines[1:]):
        raise InvalidFieldError(f"{path}: ragged rows")
    try:
        data = [[float(tok) for tok in ln] for ln in lines[1:]]
    except ValueError as exc:
        raise InvalidFieldError(f"{path}: non-numeric value") from exc
    return ScalarField(rows, cols, np.asarray(data, dtype=np.float64))
