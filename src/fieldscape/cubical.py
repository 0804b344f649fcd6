"""Cubical complexes and sublevel-set filtrations of grid-sampled functions.

A scalar field assigns one value to each vertex of a rows x cols grid.  The
complex has one vertex per sample, an edge per horizontally or vertically
adjacent pair, and a square face per 2x2 block.  Edges and faces carry the
maximum of the values on their boundary vertices, so every sublevel slice
{value <= a} is closed under boundary.

Vertices are totally ordered by (value, row-major index): ties between equal
stored values are broken by index, never by perturbing the numbers.
``_vertex_order`` sorts them so and is the one tie-break of the package.  It
uses numpy's default argsort, which is fast and not stable.  Where no two
values compare equal, the sorted order is the only one, so it is the (value,
index) order; where two do (ties, or ``-0.0`` beside ``0.0``), they sit side
by side in sorted order, and the vertices are sorted again with a stable
sort.  A vertex's rank is its position in that order.  Cells are filtered by
(owner rank, dim, grid position), where a cell's owner is its boundary vertex
of highest rank; the order puts every cell after its boundary, and is (value,
dim, anchor) when values are distinct.

All cells of a rows x cols grid live in one (2 rows - 1) x (2 cols - 1) cell
grid, the layout of Cubical Ripser (Kaji, Sudo and Ahara, arXiv:2005.12692).
Grid position (i, j) holds a vertex when i and j are both even, an edge when
exactly one is odd (vertical when i is), and a face when both are odd; its
anchor is (i // 2, j // 2).  A cell's facets are its grid neighbours along
its odd axes: (above, below) across an odd row, (left, right) across an odd
column, so a face lists (top, bottom, left, right) edges and an edge its two
vertices.

The order needs no sort of the cells.  A vertex's star has nine fixed slots
on the cell grid (itself, four edges, four faces), and listed as in
``_STAR`` they are already in (dim, grid position) order.  ``_star_slots``
is the one owner layout: it says which slots each vertex owns, and the
cells a vertex owns are its lower star.  The filtration is the vertices in
rank order, each followed by the slots of its star that it owns, and the
census of ``critical`` counts the same slots.  ``CubicalFiltration`` keeps,
per sorted cell, the value, dimension, owner and grid position, together
with the cell-grid shape.
Facets are grid neighbours, so no boundary matrix is kept: persistence and
the Betti oracle read the grid itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidFieldError

@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values on the vertices of a rows x cols grid.

    Equal fields agree in shape and byte for byte in ``values``, so 0 and -0,
    which the CSV writes apart, differ.
    """

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
        return self.values.shape == other.values.shape and self.values.tobytes() == other.values.tobytes()


def make_generic(field: ScalarField) -> ScalarField:
    """The field as it is, once all its values are checked to be finite; InvalidFieldError otherwise.

    It changes no value and resolves no tie.  Ties are broken by
    ``_vertex_order`` alone, which orders vertices by (value, row-major
    index), an infinitesimal index-ordered perturbation.  Idempotent.
    """
    if not np.all(np.isfinite(field.values)):
        raise InvalidFieldError("field contains non-finite values")
    return field


def _vertex_order(field: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Row-major vertex indices in (value, row-major index) order, and its inverse as a rows x cols array.

    The one vertex sort of the package, read by ``build_filtration`` and the
    census of ``critical``.  The default argsort is several times faster
    than the stable one at 256 x 256 but may put equal values in any order.
    Equal values end up adjacent in sorted order, so when no two neighbours
    there compare equal, all values are distinct and the order is exact;
    otherwise the stable sort orders the ties (``-0.0 == 0.0`` among them)
    by index.
    """
    values = make_generic(field).values.ravel()
    order = np.argsort(values)
    ordered = values.take(order)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(values, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank.reshape(field.rows, field.cols)


@dataclass(frozen=True, eq=False)
class CubicalFiltration:
    """All cells of the grid complex in filtration order: arrays indexed by sorted position.

    ``values[i]`` is cell i's value and ``dims[i]`` its dimension.
    ``crit_vertex[i]`` is the row-major index of cell i's owner, the
    boundary vertex of highest rank, whose value the cell attains
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


# a vertex's star on the cell grid: (row, col) offsets of itself, its up, left,
# right and down edges, then its up-left, up-right, down-left and down-right faces
_STAR = ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1))
_STAR_DIM = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2], dtype=np.int8)


def _star_slots(rank: np.ndarray) -> np.ndarray:
    """Which of the nine ``_STAR`` slots of its star each vertex owns, for the rows x cols ranks of ``_vertex_order``.

    A (V, 9) bool array with one row per vertex in row-major order: entry
    (v, k) is set when slot k of v's star is on the grid and v is its owner,
    the boundary vertex of highest rank.  The owners are filled straight into
    a cell grid padded by a ring that no vertex owns, so a slot off the grid
    compares unequal to every rank.
    """
    h, w = 2 * rank.shape[0] - 1, 2 * rank.shape[1] - 1
    padded = np.full((h + 2, w + 2), -1, dtype=np.int64)  # slots off the grid are owned by no vertex
    owner = padded[1:-1, 1:-1]
    owner[::2, ::2] = rank
    np.maximum(rank[:, :-1], rank[:, 1:], out=owner[::2, 1::2])
    # odd rows: a vertical edge or face is owned like the higher of the cells above and below it
    np.maximum(owner[:-1:2], owner[2::2], out=owner[1::2])
    owns = np.empty((rank.size, len(_STAR)), dtype=bool)  # vertex by row-major index, slot
    for k, (di, dj) in enumerate(_STAR):
        owns[:, k] = (padded[1 + di : h + 1 + di : 2, 1 + dj : w + 1 + dj : 2] == rank).ravel()
    return owns


def build_filtration(field: ScalarField) -> CubicalFiltration:
    """All cells with max-extension values, in filtration order, without a sort of the cells.

    Each cell is owned by its boundary vertex of highest rank and takes that
    vertex's value.  The order is (owner rank, dim, grid id), which is
    (value, owning vertex, ...) since rank follows (value, index): the lower
    stars of the vertices in rank order, each star's cells by dimension and
    then in grid order.  A vertex's star has nine slots on the cell grid,
    listed in ``_STAR`` in exactly that order, so the filtration is the
    vertex order with each vertex expanded into the slots it owns.  When all
    vertex values are distinct the order is exactly (value, dim, anchor);
    with repeated values it additionally keeps each vertex's lower star
    contiguous, which the critical-event census requires.
    Lower-dimensional cells precede their cofaces at equal value, so the
    order is always a valid filtration.  Deterministic: identical fields give
    identical orderings.

    Each vertex's row of nine slot flags from ``_star_slots`` is gathered
    into rank order with ``take``, several times faster than ``[]`` on rows.
    """
    # rank stays bound to the end: freed before the arrays below, at 256 x 256 its hole let the heap
    # top be trimmed, and each later field of a run took about 2000 more page faults
    order, rank = _vertex_order(field)
    owns = _star_slots(rank)
    h, w = 2 * field.rows - 1, 2 * field.cols - 1
    slot = np.flatnonzero(owns.take(order, axis=0))  # (owner rank, slot) flattened, in filtration order
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
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
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

    Every table of the package is such a file: comma-separated fields, each
    line closed by ``end``.  That is LF, except for the manifest, whose CRLF
    keeps it byte-identical to the manifests of earlier versions.  Floats
    that must read back exactly are written as ``%.17g``, enough digits for
    a float64 round trip.  Values enter only as ``%`` arguments, of
    ``row_format`` or of the caller's own template for a header line, never
    into a template, so a value holding ``%`` is written as it is.  ``rows``
    is a sequence of rows, each a sequence of one value per field.  A rerun
    rewrites in place (``write_file``): truncating frees and discards blocks.
    """
    values = tuple(chain.from_iterable(rows))
    write_file(path, header + end + ((row_format + end) * len(rows)) % values)


def write_file(path, text: str) -> None:
    """The one file writer: ``text`` over the file at ``path`` in place, cut at its end even if the write fails."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        try:
            f.write(text)
            f.flush()
        finally:
            f.buffer.raw.truncate()


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
