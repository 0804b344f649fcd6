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
through it.  Cells are filtered by (owner rank, dim, grid position), where a
cell's owner is its boundary vertex of highest rank; the order puts every
cell after its boundary, and is (value, dim, anchor) when values are distinct.

All cells of a rows x cols grid live in one (2 rows - 1) x (2 cols - 1) cell
grid, the layout of Cubical Ripser (Kaji, Sudo and Ahara, arXiv:2005.12692).
Grid position (i, j) holds a vertex when i and j are both even, an edge when
exactly one is odd (vertical when i is), and a face when both are odd; its
anchor is (i // 2, j // 2).  A cell's facets are its grid neighbours along
its odd axes: (above, below) across an odd row, (left, right) across an odd
column, so a face lists (top, bottom, left, right) edges and an edge its two
vertices.  ``lower_stars`` fills that grid with each cell's owner and
dimension, the key of the filtration order and of the census.

The order needs no sort of the cells.  A vertex's star has nine fixed slots
on the cell grid (itself, four edges, four faces), and listed as in
``_STAR`` they are already in (dim, grid position) order.  So the
filtration is the vertices in rank order, each followed by the slots of its
star that it owns.  ``CubicalFiltration`` keeps, per sorted cell, the value,
dimension, owner and grid position, together with the cell-grid shape.
Facets are grid neighbours, so no boundary matrix is kept: persistence and
the Betti oracle read the grid itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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

    def __eq__(self, other):
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.values, other.values)
        )


def make_generic(field: ScalarField) -> ScalarField:
    """The field as it is, once all its values are checked to be finite; InvalidFieldError otherwise.

    It changes no value and resolves no tie.  Ties are broken by
    ``vertex_rank`` alone, which orders vertices by (value, row-major index),
    an infinitesimal index-ordered perturbation.  Idempotent.
    """
    if not np.all(np.isfinite(field.values)):
        raise InvalidFieldError("field contains non-finite values")
    return field


def _vertex_order(field: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Row-major vertex indices in (value, row-major index) order, and its inverse as a rows x cols array.

    The one vertex sort of the package: ``vertex_rank`` is the inverse, and
    ``build_filtration`` reads both.
    """
    order = np.argsort(make_generic(field).values, axis=None, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank.reshape(field.rows, field.cols)


def vertex_rank(field: ScalarField) -> np.ndarray:
    """Each vertex's position in the (value, row-major index) order, as a rows x cols int64 array.

    Equal values, ``-0.0`` and ``0.0`` included, rank by index.  Every
    vertex comparison of the filtration and the census is a comparison of
    ranks.
    """
    return _vertex_order(field)[1]


@dataclass(frozen=True, eq=False)
class CubicalFiltration:
    """All cells of the grid complex in filtration order: arrays indexed by sorted position.

    ``values[i]`` is cell i's value and ``dims[i]`` its dimension.
    ``crit_vertex[i]`` is the row-major index of cell i's owner, the
    boundary vertex of highest ``vertex_rank``, whose value the cell attains
    (the cell belongs to that vertex's lower star).  ``grid_id[i]`` is cell
    i's row-major position on the cell grid of shape ``grid_shape``, whose
    grid neighbours along its odd axes are its facets.
    """

    values: np.ndarray  # float64
    dims: np.ndarray  # int8
    crit_vertex: np.ndarray  # int64
    grid_id: np.ndarray  # int64
    grid_shape: tuple[int, int]

    @property
    def n_cells(self) -> int:
        return len(self.values)


def lower_stars(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner rank and dimension of each cell, on the cell grid: the key of every lower star.

    ``rank`` is a ``vertex_rank`` array.  A cell's owner is its boundary
    vertex of highest rank, so the cells of owner r are the lower star of the
    vertex of rank r.  The filtration is ordered by (owner, dim) and the
    census counts it.
    """
    rows, cols = rank.shape
    owner = np.empty((2 * rows - 1, 2 * cols - 1), dtype=np.int64)
    owner[::2, ::2] = rank
    owner[::2, 1::2] = np.maximum(rank[:, :-1], rank[:, 1:])
    # odd rows: a vertical edge or face is owned like the higher of the cells above and below it
    owner[1::2] = np.maximum(owner[:-1:2], owner[2::2])
    i, j = np.ogrid[: owner.shape[0], : owner.shape[1]]
    return owner, (i % 2).astype(np.int8) + (j % 2).astype(np.int8)


# a vertex's star on the cell grid: (row, col) offsets of itself, its up, left,
# right and down edges, then its up-left, up-right, down-left and down-right faces
_STAR = ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
_STAR_DIM = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2], dtype=np.int8)


def build_filtration(field: ScalarField) -> CubicalFiltration:
    """All cells with max-extension values, in filtration order, without a sort of the cells.

    Each cell is owned by its boundary vertex of highest ``vertex_rank`` and
    takes that vertex's value.  The order is (owner rank, dim, grid id),
    which is (value, owning vertex, ...) since rank follows (value, index):
    the lower stars of the vertices in rank order, each star's cells by
    dimension and then in grid order.  A vertex's star has nine slots on the
    cell grid, listed in ``_STAR`` in exactly that order, so the filtration
    is the vertex order with each vertex expanded into the slots it owns.
    When all vertex values are distinct the order is exactly (value, dim,
    anchor); with repeated values it additionally keeps each vertex's lower
    star contiguous, which the critical-event census requires.
    Lower-dimensional cells precede their cofaces at equal value, so the
    order is always a valid filtration.  Deterministic: identical fields give
    identical orderings.
    """
    order, rank = _vertex_order(field)
    owner, _ = lower_stars(rank)
    h, w = owner.shape
    padded = np.full((h + 2, w + 2), -1, dtype=np.int64)  # slots off the grid are owned by no vertex
    padded[1:-1, 1:-1] = owner
    del owner
    owns = np.empty((rank.size, len(_STAR)), dtype=bool)  # vertex by row-major index, slot
    for k, (di, dj) in enumerate(_STAR):
        owns[:, k] = (padded[1 + di : h + 1 + di : 2, 1 + dj : w + 1 + dj : 2] == rank).ravel()
    del padded
    slot = np.flatnonzero(owns[order])  # (owner rank, slot) flattened, in filtration order
    owner_rank = slot // len(_STAR)
    slot -= len(_STAR) * owner_rank
    # the owner's own grid id, 2 (row w + col), then the slot's offset from it
    grid_id = (2 * (order + order // field.cols * (field.cols - 1)))[owner_rank]
    grid_id += np.array([di * w + dj for di, dj in _STAR])[slot]
    crit = order[owner_rank]
    return CubicalFiltration(
        values=field.values.ravel()[crit],
        dims=_STAR_DIM[slot],
        crit_vertex=crit,
        grid_id=grid_id,
        grid_shape=(h, w),
    )


def read_table(path, header: str | None = None) -> list[list[str]]:
    """Comma-split non-blank lines of a ``write_table`` file, below ``header`` if given.

    A missing or different header line raises ValueError.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if header is not None:
        if not lines or lines[0] != header:
            raise ValueError(f"{path}: expected header {header!r}")
        lines = lines[1:]
    return [ln.split(",") for ln in lines]


def read_records(path, columns) -> list[dict]:
    """Rows of a text table with the given columns, as dicts of their text fields."""
    rows = read_table(path, ",".join(columns))
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: every line needs the {len(columns)} fields {','.join(columns)}")
    return [dict(zip(columns, row)) for row in rows]


def parse_number(path, column: str, text: str, kind=float):
    """``kind(text)`` for one field of a table; ValueError naming the file and the column if it does not convert."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: {column} must be {noun}, got {text!r}") from None


def write_table(path, header: str, row_format: str, rows, end: str = "\n") -> None:
    """The one writer of text tables: the ``header`` line, then ``row_format % row`` for each row.

    Every file of the package is such a table: comma-separated fields, each
    line closed by ``end``.  That is LF, except for the manifest, whose CRLF
    keeps it byte-identical to the manifests of earlier versions.  Floats
    that must read back exactly are written as ``%.17g``, enough digits for
    a float64 round trip.  Values enter only as ``%`` arguments, of
    ``row_format`` or of the caller's own template for a header line, never
    into a template, so a value holding ``%`` is written as it is.  ``rows``
    is a sequence of rows, each a sequence of one value per field.
    """
    values = tuple(chain.from_iterable(rows))
    Path(path).write_text(header + end + ((row_format + end) * len(rows)) % values)


def write_field_csv(field: ScalarField, path) -> None:
    """First line ``rows,cols``, then one line per grid row."""
    write_table(path, "%d,%d" % field.values.shape, ",".join(["%.17g"] * field.cols), field.values.tolist())


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
        data = np.array([[float(tok) for tok in ln] for ln in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        raise InvalidFieldError(f"{path}: non-numeric value") from exc
    if not np.all(np.isfinite(data)):
        raise InvalidFieldError(f"{path}: non-finite value")
    return ScalarField(rows, cols, data)
