"""Persistence landscapes, their discretization, and their index/value files.

The level-k landscape of a set of (birth, death) bars evaluates to the k-th
largest tent value max(0, min(t - birth, death - t)) at each t.  Levels are
nonincreasing in k and each level is 1-Lipschitz.

The flattened vector samples levels 1..K on a ``SampleGrid``, the uniform
grid t_0 < ... < t_N that ``(t0, tN, N)`` fix by construction, for degree 0,
then degree 1, giving length 2(N+1)K: degree-0 level 1 at t_0..t_N, degree-0
level 2, ..., degree-1 level K at t_0..t_N.  A vector file's meta line is the
grid's fields and the depth, ``N,K,t0,tN``.  Landscape vectors are mostly zero
once K exceeds the effective depth, so vector files list only the nonzero
entries as (index, value) lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cubical import parse_number, read_table, write_table
from .persistence import PersistenceDiagram

VECTOR_HEADER = "N,K,t0,tN"
MAX_ENTRIES = 1 << 22  # largest dense vector a file may declare: 32 MiB of float64


@dataclass(frozen=True)
class SampleGrid:
    """N + 1 equally spaced sample points ``ts = linspace(t0, tN, N + 1)``, strictly increasing.

    Grids compare and hash on ``(t0, tN, n_intervals)``; ``ts`` is read-only.
    """

    t0: float
    tN: float
    n_intervals: int
    ts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("need at least one interval")
        if not self.tN > self.t0:
            raise ValueError(f"need t0 < tN, got [{self.t0}, {self.tN}]")
        if not np.isfinite(self.tN - self.t0):
            raise ValueError(f"grid span [{self.t0}, {self.tN}] is not finite")
        ts = np.linspace(self.t0, self.tN, self.n_intervals + 1)
        if not np.all(np.diff(ts) > 0):
            raise ValueError(f"{self.n_intervals} intervals of [{self.t0}, {self.tN}] repeat sample points")
        ts.flags.writeable = False
        object.__setattr__(self, "ts", ts)


@dataclass(frozen=True, eq=False)
class LandscapeVector:
    """Flattened landscape samples of one diagram (or an average/difference).

    ``entries`` has length 2 * (N+1) * K laid out degree-major, then
    level-major, then t.  Difference vectors reuse this container but may
    hold negative entries; they are not landscapes.
    """

    grid: SampleGrid
    depth: int
    entries: np.ndarray

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        ent = np.asarray(self.entries, dtype=np.float64)
        expected = 2 * len(self.grid.ts) * self.depth
        if ent.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {ent.shape}")
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    def level(self, degree: int, k: int) -> np.ndarray:
        """Samples of level k (1-based) in the given degree."""
        if degree not in (0, 1) or not 1 <= k <= self.depth:
            raise ValueError(f"no level {k} in degree {degree}")
        npts = len(self.grid.ts)
        start = (degree * self.depth + (k - 1)) * npts
        return self.entries[start : start + npts]

    def __eq__(self, other):
        if not isinstance(other, LandscapeVector):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.grid == other.grid
            and np.array_equal(self.entries, other.entries)
        )


def _sample_levels(bars, ts: np.ndarray, depth: int) -> np.ndarray:
    """(depth, len(ts)) matrix of landscape levels 1..depth sampled at ts."""
    out = np.zeros((depth, len(ts)))
    b, d = np.asarray(bars, dtype=np.float64).reshape(-1, 2).T
    tents = np.minimum(ts[None, :] - b[:, None], d[:, None] - ts[None, :])
    np.maximum(tents, 0.0, out=tents)
    tents = -np.sort(-tents, axis=0)  # descending per sample point
    k = min(depth, len(bars))
    out[:k] = tents[:k]
    return out


def vectorize_bars(deg0_bars, deg1_bars, grid: SampleGrid, depth: int) -> LandscapeVector:
    """Flattened landscape samples from explicit bar lists per degree."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    blocks = [_sample_levels(bars, grid.ts, depth) for bars in (deg0_bars, deg1_bars)]
    return LandscapeVector(grid=grid, depth=depth, entries=np.concatenate([b.ravel() for b in blocks]))


def vectorize(diagram: PersistenceDiagram, grid: SampleGrid, depth: int) -> LandscapeVector:
    """Sample both degrees' landscapes on the grid and flatten.

    The bars are the diagram's (birth, death) columns per degree, zero-length pairs left out.
    """
    return vectorize_bars(diagram.bars(0), diagram.bars(1), grid, depth)


def check_compatible(vectors) -> tuple[SampleGrid, int]:
    """The (grid, depth) of a nonempty vector list; ValueError if two vectors disagree on either."""
    head = vectors[0]
    for v in vectors[1:]:
        if v.depth != head.depth or v.grid != head.grid:
            raise ValueError("landscape vectors disagree on grid or depth")
    return head.grid, head.depth


def average(vectors) -> LandscapeVector:
    """Pointwise mean, accumulated as a streaming update."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("cannot average zero vectors")
    grid, depth = check_compatible(vectors)
    mean = np.zeros_like(vectors[0].entries)
    for i, v in enumerate(vectors, start=1):
        mean += (v.entries - mean) / i
    return LandscapeVector(grid=grid, depth=depth, entries=mean)


def difference(a: LandscapeVector, b: LandscapeVector) -> LandscapeVector:
    """a - b entrywise; the result can be negative and is not a landscape."""
    check_compatible([a, b])
    return LandscapeVector(grid=a.grid, depth=a.depth, entries=a.entries - b.entries)


def default_grid(diagrams, n_intervals: int) -> SampleGrid:
    """Uniform grid spanning the extreme birth and death over the diagrams.

    The grid is a training-set artifact: derive it once on training diagrams
    and reuse it verbatim for test data.
    """
    lo, hi = np.inf, -np.inf
    for diagram in diagrams:
        birth, death = diagram.pairs["birth"], diagram.pairs["death"]
        if len(birth):  # argmin and argmax take the first extreme, as a scan does
            lo = min(lo, birth[birth.argmin()])
            hi = max(hi, death[death.argmax()])
    if not lo < hi:
        raise ValueError("every training diagram is empty, so no sample grid can be derived")
    return SampleGrid(float(lo), float(hi), n_intervals)


def write_sparse(path, header: str, meta_format: str, meta: tuple, entries: np.ndarray) -> None:
    """Index/value file: ``header``, the ``meta`` line as ``meta_format``, ``index,value``, then nonzero entries.

    Landscape vectors and classifier weights share this layout; ``meta``
    starts with N and K, which fix the entry count at 2(N+1)K.  More than
    ``MAX_ENTRIES`` entries raise ValueError, since ``read_sparse`` would
    reject the file.
    """
    if len(entries) > MAX_ENTRIES:
        raise ValueError(f"{len(entries)} entries exceed the {MAX_ENTRIES} an index/value file may hold")
    idx = np.flatnonzero(entries)
    body = list(zip(idx.tolist(), entries[idx].tolist()))
    write_table(path, "\n".join((header, meta_format % meta, "index,value")), "%d,%.17g", body)


def read_sparse(path, header: str) -> tuple[int, int, list[float], np.ndarray]:
    """N, K, the other meta fields and the dense entries of an index/value file.

    Raises ValueError unless the meta line has one field per header field,
    all finite, 2(N+1)K is at most ``MAX_ENTRIES``, and every index lies in
    [0, 2(N+1)K), appears once and has a finite value.
    """
    rows = read_table(path, header)
    if len(rows) < 2 or rows[1] != ["index", "value"] or len(rows[0]) != header.count(",") + 1:
        raise ValueError(f"{path}: not a {header} index/value file")
    meta, body = rows[0], rows[2:]
    columns = header.split(",")
    n, k = (parse_number(path, column, x, int) for column, x in zip(columns, meta[:2]))
    rest = [parse_number(path, column, x) for column, x in zip(columns[2:], meta[2:])]
    size = 2 * (n + 1) * k
    if n < 1 or k < 1 or size > MAX_ENTRIES or not np.all(np.isfinite(rest)):
        raise ValueError(f"{path}: bad meta line {','.join(meta)!r}")
    if any(len(row) != 2 for row in body):
        raise ValueError(f"{path}: index/value lines need two fields")
    idx = [parse_number(path, "index", i, int) for i, _ in body]
    vals = np.array([parse_number(path, "value", v) for _, v in body], dtype=np.float64)
    if not all(0 <= i < size for i in idx) or not np.all(np.isfinite(vals)):
        raise ValueError(f"{path}: index outside [0, {size}) or non-finite value")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{path}: repeated index")
    entries = np.zeros(size)
    entries[idx] = vals
    return n, k, rest, entries


def write_vector_csv(v: LandscapeVector, path) -> None:
    """Header ``N,K,t0,tN`` plus sparse ``index,value`` lines; the meta line is the grid's fields."""
    ts = v.grid.ts  # its ends are t0 and tN, but linspace starts a -0.0 grid at 0.0, and files keep "0"
    write_sparse(path, VECTOR_HEADER, "%d,%d,%.17g,%.17g", (v.grid.n_intervals, v.depth, ts[0], ts[-1]), v.entries)


def read_vector_csv(path) -> LandscapeVector:
    n, k, (t0, tn), entries = read_sparse(path, VECTOR_HEADER)
    return LandscapeVector(grid=SampleGrid(t0, tn, n), depth=k, entries=entries)
