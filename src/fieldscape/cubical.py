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

All cells of a rows x cols grid live in one (2 rows - 1) x (2 cols - 1) cell
grid, the layout of Cubical Ripser (Kaji, Sudo and Ahara, arXiv:2005.12692).
Grid position (i, j) holds a vertex when i and j are both even, an edge when
exactly one is odd (vertical when i is), and a face when both are odd; its
anchor is (i // 2, j // 2).  A cell's facets are its grid neighbours along
its odd axes: (above, below) across an odd row, (left, right) across an odd
column, so a face lists (top, bottom, left, right) edges and an edge its two
vertices.  ``cell_owners`` fills that grid with each cell's owner.
``CubicalFiltration`` keeps four arrays per sorted cell: value, dimension,
facets and owner.  Anchors and orientations are grid positions, which the
sort reads and the record does not keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidFieldError

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


@dataclass(frozen=True, eq=False)
class CubicalFiltration:
    """All cells of the grid complex sorted into filtration order: four arrays indexed by sorted position.

    ``values[i]`` is cell i's value and ``dims[i]`` its dimension.
    ``boundary[i]`` lists the sorted indices of cell i's facets, -1 padded
    to four.  ``crit_vertex[i]`` is the row-major index of cell i's owner,
    the boundary vertex of highest ``vertex_rank``, whose value the cell
    attains (the cell belongs to that vertex's lower star).
    """

    values: np.ndarray  # float64
    dims: np.ndarray  # int8
    boundary: np.ndarray  # (n_cells, 4) int64
    crit_vertex: np.ndarray  # int64

    @property
    def n_cells(self) -> int:
        return len(self.values)


def cell_owners(rank: np.ndarray) -> np.ndarray:
    """Rank of each cell's owner, its boundary vertex of highest rank, on the cell grid.

    ``rank`` is a ``vertex_rank`` array.  The filtration sorts on the result
    and the census reads each vertex's lower link from it.
    """
    rows, cols = rank.shape
    owner = np.empty((2 * rows - 1, 2 * cols - 1), dtype=np.int64)
    owner[::2, ::2] = rank
    owner[::2, 1::2] = np.maximum(rank[:, :-1], rank[:, 1:])
    # odd rows: a vertical edge or face is owned like the higher of the cells above and below it
    owner[1::2] = np.maximum(owner[:-1:2], owner[2::2])
    return owner


def build_filtration(field: ScalarField) -> CubicalFiltration:
    """Assemble all cells with max-extension values and sort into filtration order.

    Each cell is owned by its boundary vertex of highest ``vertex_rank`` and
    takes that vertex's value.  Sort key is (owner rank, dim, grid position),
    which is (value, owning vertex, ...) since rank follows (value, index).
    The cells tied on (owner, dim) are the at most four edges or four faces
    of one lower star, and for them row-major grid order is (anchor row,
    anchor col, orientation).  When all vertex values are distinct the order
    is exactly (value, dim, anchor); with repeated values it additionally
    keeps each vertex's lower star contiguous, which the critical-event
    census requires.  Lower-dimensional cells precede their cofaces at equal
    value, so the order is always a valid filtration.  Deterministic:
    identical fields give identical orderings.
    """
    rank = vertex_rank(field)
    owner = cell_owners(rank)
    h, w = owner.shape
    i, j = np.ogrid[:h, :w]
    dim = (i % 2 + j % 2).astype(np.int8)
    order = np.lexsort((dim.ravel(), owner.ravel()))
    # sorted position of each grid id; the trailing -1 keeps the -1 padding
    pos = np.full(h * w + 1, -1, dtype=np.int64)
    pos[order] = np.arange(h * w)

    by_rank = np.empty(rank.size, dtype=np.int64)
    by_rank[rank.ravel()] = np.arange(rank.size)
    crit = by_rank[owner.ravel()[order]]

    return CubicalFiltration(
        values=field.values.ravel()[crit],
        dims=dim.ravel()[order],
        boundary=pos[_grid_facets(h, w)[order]],
        crit_vertex=crit,
    )


def _grid_facets(h: int, w: int) -> np.ndarray:
    """Facet grid ids of each cell of an h x w cell grid, one -1 padded row of 4 per grid id.

    (above, below) across an odd row, then (left, right) across an odd column.
    Kept out of ``build_filtration`` so that its temporaries are freed before
    the remap to sorted positions, which keeps that function's peak memory down.
    """
    ids = np.arange(h * w, dtype=np.int64).reshape(h, w)
    bnd = np.full((h, w, 4), -1, dtype=np.int64)
    bnd[1::2, :, 0] = ids[:-1:2]
    bnd[1::2, :, 1] = ids[2::2]
    left_right = np.stack((ids[:, :-1:2], ids[:, 2::2]), axis=-1)
    bnd[::2, 1::2, :2] = left_right[::2]
    bnd[1::2, 1::2, 2:] = left_right[1::2]
    return bnd.reshape(-1, 4)


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


def parse_number(path, column: str, text: str, kind=float):
    """``kind(text)`` for one field of a table; ValueError naming the file and the column if it does not convert."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {column} must be {noun}, got {text!r}") from None


def write_table(path, header: str, rows, end: str = "\n") -> None:
    """The header line, then each row's fields joined by commas; ``end`` closes every line.  Makes missing parents."""
    lines = [header, *(",".join(row) for row in rows)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
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
