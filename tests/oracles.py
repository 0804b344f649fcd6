"""Reference oracles: exact per-point landscapes and the SVM primal objective.

Tests compare the vectorized code of ``fieldscape`` against these direct
definitions.  They are written for clarity, not speed.

``eval_landscape`` is the tent-sort definition of a landscape level: sort
every bar's tent value at t and take the k-th largest.  ``max_depth`` is the
exact depth of a bar set, the peak overlap count found by a sweep over its
interval endpoints.  ``primal_objective`` is the soft-margin SVM primal that
the dual optimum of ``train_svm`` must meet, and ``dcd_reference`` is
plain cyclic dual coordinate descent written in the primal form, with none
of ``train_svm``'s Newton steps: it keeps w with the bias as a constant
feature and computes each gradient as a dot product with w.
``elder_reference`` is the elder rule of ``persistence._elder_rule`` as one
union-find pass over every link, with no basin forest and no deduplication.
``vertex_rank_reference`` ranks the vertices in (value, row-major index)
order by a stable argsort.  ``filtration_reference`` is the filtration of
``cubical.build_filtration`` as one lexsort of every cell on (owner, dim),
with the boundary matrix remapped to sorted positions.  Its owners are its
own: each cell's owner is the highest of its corner vertices' ranks, read
from the cell's grid position, with no code of ``cubical``.
``circulant_eigenvalues_reference`` is the torus spectrum of
``grf._circulant_eigenvalues`` with ``matern_cov`` evaluated at every torus
index, not once per distinct lag.
``sample_levels_reference`` is one degree's block of ``landscape.vectorize``
from the dense bars x points tent matrix, each column sorted: every bar
evaluated at every sample point, not only at the points inside it.

The package keeps no boundary matrix: facets are neighbours on the cell grid.
``boundary`` builds one for a filtration from its grid ids, through the
facet table ``_grid_facets``, for the checks that read facets by sorted
position: the column reduction of ``reduction_reference`` and
``betti_reference``, the union-find Betti numbers of a sublevel prefix that
``persistence.betti_oracle`` must equal.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from fieldscape.classify import KKT_TOL, MAX_EPOCHS, ClassifierModel, LabeledSet
from fieldscape.cubical import CubicalFiltration, ScalarField
from fieldscape.errors import TrainingError
from fieldscape.grf import MaternParams, matern_cov


def tent(birth: float, death: float, t) -> np.ndarray | float:
    """Triangle profile of one bar: 0 outside (birth, death), peak at the midpoint."""
    return np.maximum(0.0, np.minimum(t - birth, death - t))


def max_depth(bars) -> int:
    """Deepest level with a nonzero landscape: the peak bar-overlap count.

    Level k is somewhere positive iff k bars are simultaneously open at some
    point, so a sweep over interval endpoints (closing before opening at
    ties) gives the exact depth M with levels k > M identically zero.
    """
    b, d = np.asarray(bars, dtype=np.float64).reshape(-1, 2).T
    ends = np.concatenate((b[d > b], d[d > b]))
    steps = np.repeat([1, -1], len(ends) // 2)
    return int(np.cumsum(steps[np.lexsort((steps, ends))]).max(initial=0))


def eval_landscape(bars, k: int, t: float) -> float:
    """k-th largest tent value over the bars at t; 0 once k exceeds the depth."""
    if k < 1:
        raise ValueError("level index k starts at 1")
    if len(bars) < k:
        return 0.0
    vals = sorted((tent(b, d, t) for b, d in bars), reverse=True)
    return float(max(0.0, vals[k - 1]))


def primal_objective(data: LabeledSet, model: ClassifierModel) -> float:
    """0.5 ||w, b||^2 + C * hinge, the quantity the dual bounds from below."""
    margins = 1.0 - data.y * model.decision(data.X)
    hinge = np.maximum(margins, 0.0).sum()
    return float(0.5 * (model.w @ model.w + model.b**2) + model.C * hinge)


def dcd_reference(data: LabeledSet, C: float) -> ClassifierModel:
    """Cyclic dual coordinate descent on the weight vector: the optimum ``train_svm`` must reach, by a plainer path."""
    y = data.y
    n, dim = data.X.shape
    Xa = np.hstack([data.X, np.ones((n, 1))])  # bias as a constant feature
    qii = np.einsum("ij,ij->i", Xa, Xa)
    alpha = np.zeros(n)
    w = np.zeros(dim + 1)

    for _ in range(MAX_EPOCHS):
        worst = 0.0
        for i in range(n):
            g = y[i] * (Xa[i] @ w) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                worst = max(worst, abs(pg))
                new = min(max(a - g / qii[i], 0.0), C)
                if new != a:
                    w += (new - a) * y[i] * Xa[i]
                    alpha[i] = new
        if worst < KKT_TOL:
            break
    else:
        raise TrainingError(f"dual coordinate descent did not reach tol={KKT_TOL} "
                            f"within {MAX_EPOCHS} epochs")

    return ClassifierModel(w=w[:dim].copy(), b=float(w[dim]), C=float(C))


def elder_reference(links: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over every link in order, the merges ``_elder_rule`` must return.

    Each component is named by its smallest node, its elder; a link joining
    two components kills the larger root.  Returns the positions of the
    merging links and the roots they kill.  The graph must be connected:
    AssertionError unless exactly ``n_nodes - 1`` links merge.
    """
    # flat lists: 10^5 small tuples cost more in garbage collection than the
    # pass; find() is inlined with path halving, 20 % faster than a call
    at, killed = [], []
    parent = list(range(n_nodes))
    for i, u, v in zip(range(len(links)), links[:, 0].tolist(), links[:, 1].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u > v:
                u, v = v, u
            parent[v] = u
            at.append(i)
            killed.append(v)
    if len(at) != n_nodes - 1:
        raise AssertionError(f"{n_nodes} nodes but {len(at)} merges: the graph is not connected")
    return np.array(at, dtype=np.int64), np.array(killed, dtype=np.int64)


def _grid_facets(h: int, w: int) -> np.ndarray:
    """Facet grid ids of each cell of an h x w cell grid, one -1 padded row of 4 per grid id.

    (above, below) across an odd row, then (left, right) across an odd column.
    """
    ids = np.arange(h * w, dtype=np.int64).reshape(h, w)
    bnd = np.full((h, w, 4), -1, dtype=np.int64)
    bnd[1::2, :, 0] = ids[:-1:2]
    bnd[1::2, :, 1] = ids[2::2]
    left_right = np.stack((ids[:, :-1:2], ids[:, 2::2]), axis=-1)
    bnd[::2, 1::2, :2] = left_right[::2]
    bnd[1::2, 1::2, 2:] = left_right[1::2]
    return bnd.reshape(-1, 4)


def boundary(filt: CubicalFiltration) -> np.ndarray:
    """The (n_cells, 4) int64 boundary matrix: row i lists the sorted indices of cell i's facets, -1 padded."""
    h, w = filt.grid_shape
    # sorted position of each grid id; the trailing -1 keeps the -1 padding
    pos = np.full(h * w + 1, -1, dtype=np.int64)
    pos[filt.grid_id] = np.arange(filt.n_cells)
    return pos[_grid_facets(h, w)[filt.grid_id]]


def betti_reference(filt: CubicalFiltration, a: float) -> tuple[int, int]:
    """(beta0, beta1) of the sublevel slice {value <= a}: union-find on the prefix of cells with value <= a.

    Cells are stored in filtration order, so the slice is a prefix.  beta0
    comes from union-find over its vertices and edges; beta1 is recovered as
    beta0 - (V - E + F).
    """
    k = int(np.searchsorted(filt.values, a, side="right"))
    if k == 0:
        return (0, 0)
    dims = filt.dims[:k]
    n_v, n_e, n_f = (int(np.count_nonzero(dims == dim)) for dim in range(3))
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    components = n_v
    for u, v in boundary(filt)[:k][dims == 1, :2].tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            components -= 1
    return (components, components - (n_v - n_e + n_f))


def vertex_rank_reference(field: ScalarField) -> np.ndarray:
    """Each vertex's position in the (value, row-major index) order, by a stable argsort, as a rows x cols int64 array."""
    by_rank = np.argsort(field.values, axis=None, kind="stable")
    rank = np.empty(by_rank.size, dtype=np.int64)
    rank[by_rank] = np.arange(by_rank.size)
    return rank.reshape(field.rows, field.cols)


def filtration_reference(field: ScalarField) -> SimpleNamespace:
    """All cells sorted on (owner rank, dim, grid id) by one lexsort: the arrays ``build_filtration`` must give.

    ``values``, ``dims`` and ``crit_vertex`` as in ``CubicalFiltration``,
    ``boundary`` each cell's facets as sorted positions, -1 padded to four,
    and ``grid_id`` each cell's position on the cell grid.  The cell at grid
    position (i, j) has the corner vertices at rows i // 2 and (i + 1) // 2
    and columns j // 2 and (j + 1) // 2; its owner is the one of highest rank
    and its dimension i % 2 + j % 2.
    """
    rank = vertex_rank_reference(field)
    i, j = np.ogrid[: 2 * field.rows - 1, : 2 * field.cols - 1]
    owner = np.maximum.reduce([rank[a, b] for a in (i // 2, (i + 1) // 2) for b in (j // 2, (j + 1) // 2)])
    dim = (i % 2 + j % 2).astype(np.int8)
    h, w = owner.shape
    order = np.lexsort((dim.ravel(), owner.ravel()))
    # sorted position of each grid id; the trailing -1 keeps the -1 padding
    pos = np.full(h * w + 1, -1, dtype=np.int64)
    pos[order] = np.arange(h * w)

    crit = np.argsort(rank, axis=None)[owner.ravel()[order]]  # the vertex of each owner rank

    return SimpleNamespace(
        values=field.values.ravel()[crit],
        dims=dim.ravel()[order],
        boundary=pos[_grid_facets(h, w)[order]],
        crit_vertex=crit,
        grid_id=order,
    )


def circulant_eigenvalues_reference(p: MaternParams, torus_rows: int, torus_cols: int) -> np.ndarray:
    """``fft2`` of ``matern_cov`` at sqrt(min(i, tr - i)**2 + min(j, tc - j)**2) over the whole tr x tc torus."""
    i, j = np.arange(torus_rows), np.arange(torus_cols)
    di, dj = np.minimum(i, torus_rows - i), np.minimum(j, torus_cols - j)
    return np.fft.fft2(matern_cov(np.sqrt(di[:, None] ** 2.0 + dj[None, :] ** 2.0), p)).real


def sample_levels_reference(bars, ts: np.ndarray, depth: int) -> np.ndarray:
    """(depth, len(ts)) matrix of landscape levels 1..depth sampled at ts."""
    out = np.zeros((depth, len(ts)))
    b, d = np.asarray(bars, dtype=np.float64).reshape(-1, 2).T
    tents = np.minimum(ts[None, :] - b[:, None], d[:, None] - ts[None, :])
    np.maximum(tents, 0.0, out=tents)
    tents = -np.sort(-tents, axis=0)  # descending per sample point
    k = min(depth, len(bars))
    out[:k] = tents[:k]
    return out
