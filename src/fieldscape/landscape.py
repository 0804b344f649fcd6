"""Persistence landscapes, their discretization, and their index/value files.

The level-k landscape of a set of (birth, death) bars evaluates to the k-th
largest tent value max(0, min(t - birth, death - t)) at each t.  Levels are
nonincreasing in k and each level is 1-Lipschitz.

The flattened vector samples levels 1..K at grid points t_0 < ... < t_N for
degree 0, then degree 1, giving length 2(N+1)K: degree-0 level 1 at
t_0..t_N, degree-0 level 2, ..., degree-1 level K at t_0..t_N.  Landscape
vectors are mostly zero once K exceeds the effective depth, so vector files
list only the nonzero entries as (index, value) lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubical import parse_number, read_table, write_table
from .persistence import PersistenceDiagram

VECTOR_HEADER = "N,K,t0,tN"
MAX_ENTRIES = 1 << 22  # largest dense vector a file may declare: 32 MiB of float64


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing sample points t_0 < t_1 < ... < t_N."""

    ts: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=np.float64)
        if ts.ndim != 1 or len(ts) < 1:
            raise ValueError("sample grid needs at least one point")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("sample points must be strictly increasing")
        ts = ts.copy()
        ts.flags.writeable = False
        object.__setattr__(self, "ts", ts)

    @classmethod
    def uniform(cls, t0: float, t1: float, n_intervals: int) -> "SampleGrid":
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        if not t1 > t0:
            raise ValueError(f"need t0 < tN, got [{t0}, {t1}]")
        if not np.isfinite(t1 - t0):
            raise ValueError(f"grid span [{t0}, {t1}] is not finite")
        return cls(np.linspace(t0, t1, n_intervals + 1))

    @property
    def n_points(self) -> int:
        return len(self.ts)

    @property
    def n_intervals(self) -> int:
        return len(self.ts) - 1

    def __eq__(self, other):
        if not isinstance(other, SampleGrid):
            return NotImplemented
        return np.array_equal(self.ts, other.ts)


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
        expected = 2 * self.grid.n_points * self.depth
        if ent.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {ent.shape}")
        ent = ent.copy()
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    def level(self, degree: int, k: int) -> np.ndarray:
        """Samples of level k (1-based) in the given degree."""
        if degree not in (0, 1) or not 1 <= k <= self.depth:
            raise ValueError(f"no level {k} in degree {degree}")
        npts = self.grid.n_points
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


def tent(birth: float, death: float, t) -> np.ndarray | float:
    """Triangle profile of one bar: 0 outside (birth, death), peak at the midpoint."""
    return np.maximum(0.0, np.minimum(t - birth, death - t))


def max_depth(bars) -> int:
    """Deepest level with a nonzero landscape: the peak bar-overlap count.

    Level k is somewhere positive iff k bars are simultaneously open at some
    point, so a sweep over interval endpoints (closing before opening at
    ties) gives the exact depth M with levels k > M identically zero.
    """
    events = []
    for b, d in bars:
        if d > b:
            events.append((b, 1))
            events.append((d, -1))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


def eval_landscape(bars, k: int, t: float) -> float:
    """k-th largest tent value over the bars at t; 0 once k exceeds the depth."""
    if k < 1:
        raise ValueError("level index k starts at 1")
    if len(bars) < k:
        return 0.0
    vals = sorted((tent(b, d, t) for b, d in bars), reverse=True)
    return float(max(0.0, vals[k - 1]))


def _sample_levels(bars, ts: np.ndarray, depth: int) -> np.ndarray:
    """(depth, len(ts)) matrix of landscape levels 1..depth sampled at ts."""
    out = np.zeros((depth, len(ts)))
    if not bars:
        return out
    b = np.asarray([bar[0] for bar in bars], dtype=np.float64)
    d = np.asarray([bar[1] for bar in bars], dtype=np.float64)
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
    """Sample both degrees' landscapes on the grid and flatten."""
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


def default_grid(diagrams, n_intervals: int, bounds: tuple[float, float] | None = None) -> SampleGrid:
    """Uniform grid spanning the extreme birth and death over the diagrams.

    The grid is a training-set artifact: derive it once on training diagrams
    and reuse it verbatim for test data.  Explicit bounds override the scan.
    """
    if bounds is None:
        lo, hi = np.inf, -np.inf
        for diagram in diagrams:
            for p in diagram.pairs:
                lo = min(lo, p.birth)
                hi = max(hi, p.death)
        if not lo < hi:
            raise ValueError("every training diagram is empty, so no sample grid can be derived")
    else:
        lo, hi = bounds
    return SampleGrid.uniform(float(lo), float(hi), n_intervals)


def write_sparse(path, header: str, meta, entries: np.ndarray) -> None:
    """Index/value file: ``header``, the ``meta`` fields, ``index,value``, then nonzero entries.

    Landscape vectors and classifier weights share this layout; ``meta``
    starts with N and K, which fix the entry count at 2(N+1)K.  More than
    ``MAX_ENTRIES`` entries raise ValueError, since ``read_sparse`` would
    reject the file.
    """
    if len(entries) > MAX_ENTRIES:
        raise ValueError(f"{len(entries)} entries exceed the {MAX_ENTRIES} an index/value file may hold")
    idx = np.nonzero(entries)[0]
    body = ((str(i), format(entries[i], ".17g")) for i in idx)
    write_table(path, header, [meta, ("index", "value"), *body])


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
    """Header ``N,K,t0,tN`` plus sparse ``index,value`` lines.

    Only uniform grids can round-trip through this format; the pipeline's
    grids are always uniform.
    """
    ts = v.grid.ts
    if len(ts) < 2:
        raise ValueError("vector export needs at least two sample points")
    uniform = SampleGrid.uniform(float(ts[0]), float(ts[-1]), len(ts) - 1)
    if not np.array_equal(uniform.ts, ts):
        raise ValueError("vector export requires a uniform grid")
    meta = (str(v.grid.n_intervals), str(v.depth), format(ts[0], ".17g"), format(ts[-1], ".17g"))
    write_sparse(path, VECTOR_HEADER, meta, v.entries)


def read_vector_csv(path) -> LandscapeVector:
    n, k, (t0, tn), entries = read_sparse(path, VECTOR_HEADER)
    return LandscapeVector(grid=SampleGrid.uniform(t0, tn, n), depth=k, entries=entries)
