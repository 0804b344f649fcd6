import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape import persistence
from fieldscape.cli import _read_diagram
from fieldscape.cubical import ScalarField, build_filtration
from fieldscape.grf import TRANSFORMS, MaternParams, field_law, substream
from fieldscape.persistence import (
    PersistenceDiagram,
    _elder_rule,
    _pair_cells,
    betti_curve,
    betti_oracle,
    compute_persistence,
    read_diagram_csv,
    write_diagram_csv,
)

from conftest import flat_field, random_field
from oracles import betti_reference, boundary, elder_reference, filtration_reference
from reduction_reference import reference_persistence


def diagram_of(field: ScalarField):
    return compute_persistence(build_filtration(field))


class TestComputePersistence:
    def test_1x3_single_merge(self):
        d = diagram_of(flat_field(1, 3, [0.0, 2.0, 1.0]))
        assert [(p.birth, p.death) for p in d.pairs if p.degree == 0] == [(1.0, 2.0)]
        assert [p for p in d.pairs if p.degree == 1] == []
        assert d.essential_min == 0.0

    def test_ring_single_loop(self, ring_field):
        d = diagram_of(ring_field)
        assert [p for p in d.pairs if p.degree == 0] == []
        assert [(p.birth, p.death) for p in d.pairs if p.degree == 1] == [(8.0, 10.0)]

    def test_monotone_bowl_is_empty(self):
        # 3x3 sampling of x^2 + y^2 centered at a corner: unique minimum,
        # sublevel sets grow without merging or looping
        xs = np.arange(3, dtype=float)
        vals = xs[:, None] ** 2 + xs[None, :] ** 2
        d = diagram_of(ScalarField(3, 3, vals))
        assert d.pairs.shape == (0,)
        assert d.essential_min == 0.0

    def test_pair_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            for degree, b, d in zip(*_pair_cells(filt)):
                assert b < d  # filtration order
                assert (filt.dims[b], filt.dims[d]) == (degree, degree + 1)
                assert filt.values[b] <= filt.values[d]
            assert all(p.birth <= p.death for p in compute_persistence(filt).pairs)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        f = random_field(rng)
        assert diagram_of(f) == diagram_of(f)

    def test_equality_reads_every_column_and_the_essential_minimum(self, ring_field, tmp_path):
        d = diagram_of(flat_field(1, 5, [0.0, 3.0, 1.0, 4.0, 2.0]))
        assert len(d.pairs) == 2
        for name in d.pairs.dtype.names:
            pairs = d.pairs.copy()
            pairs[name][1] += 1
            assert d != PersistenceDiagram(pairs, d.essential_min), name
        assert d != PersistenceDiagram(d.pairs, d.essential_min + 1)
        assert d != diagram_of(ring_field)
        # bytes, not values: the CSV writes a zero birth and a negative zero one apart
        zero, negative_zero = (diagram_of(flat_field(1, 4, [1.0, z, 2.0, -1.0])) for z in (0.0, -0.0))
        assert zero.pairs["birth"].tolist() == [0.0] and zero != negative_zero
        # a diagram read back from its CSV has a NaN essential minimum
        write_diagram_csv(d, tmp_path / "d.csv")
        assert _read_diagram(tmp_path / "d.csv") == _read_diagram(tmp_path / "d.csv")

    def test_record_fields_and_row_attributes(self, ring_field):
        """The columns, their order and the per-row attributes that row-wise readers rely on."""
        filt = build_filtration(ring_field)
        d = compute_persistence(filt)
        assert d.pairs.dtype.names == ("degree", "birth", "death")
        assert d.pairs["degree"].dtype == np.int8
        p = d.pairs[0]
        assert (p.degree, p.birth, p.death) == (1, 8.0, 10.0)
        (degree,), (b,), (d,) = _pair_cells(filt)
        assert (degree, filt.dims[b], filt.dims[d]) == (1, 1, 2)
        assert (filt.values[b], filt.values[d]) == (8.0, 10.0)


def assert_matches_reference(field: ScalarField):
    filt = build_filtration(field)
    got, (want, want_cells) = compute_persistence(filt), reference_persistence(filt)
    assert got.pairs.dtype == want.pairs.dtype
    assert got.pairs.tobytes() == want.pairs.tobytes()  # all three fields of every pair
    assert got.essential_min == want.essential_min
    assert sorted(zip(*(cells.tolist() for cells in _pair_cells(filt)))) == want_cells  # every cell of every pair


@st.composite
def small_fields(draw):
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)  # many ties
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return flat_field(rows, cols, flat)


@settings(max_examples=400, deadline=None)
@given(small_fields())
def test_union_find_matches_reference_reduction(field):
    assert_matches_reference(field)


@settings(max_examples=100, deadline=None)
@given(small_fields())
def test_persistence_never_builds_the_boundary(field):
    """The package keeps no boundary matrix; the one read off ``grid_id`` is the lexsort reference's."""
    filt = build_filtration(field)
    got, want = boundary(filt), filtration_reference(field).boundary
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("rows, cols, flat", [
    pytest.param(1, 1, [2.5], id="1x1"),
    pytest.param(1, 7, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0], id="1xn"),
    pytest.param(7, 1, [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0], id="nx1"),
    pytest.param(4, 5, [1.5] * 20, id="constant"),
    pytest.param(1, 6, [0.0] * 6, id="constant-1xn"),
])
def test_duality_edge_cases_match_reference(rows, cols, flat):
    """No faces, or nothing but ties: the outer node and tie order carry everything."""
    assert_matches_reference(flat_field(rows, cols, flat))


@pytest.mark.parametrize("rows, cols", [(1, 4001), (4001, 1)], ids=["1x4001", "4001x1"])
def test_staircase_saddles_each_kill_the_youngest_basin(rows, cols):
    """A 2000-link elder chain: minima 0..2000 on the even columns, saddles 10000, 9999, ... between them.

    Each saddle is lower than the one on its left, so it kills the youngest basin.
    """
    values = np.empty(4001)
    values[0::2] = np.arange(2001)
    values[1::2] = 10000 - np.arange(2000)
    d = diagram_of(ScalarField(rows, cols, values.reshape(rows, cols)))
    assert d.pairs["degree"].tolist() == [0] * 2000
    assert sorted(zip(d.pairs["birth"].tolist(), d.pairs["death"].tolist())) == [
        (i, 10001 - i) for i in range(1, 2001)]
    assert d.essential_min == 0.0


@pytest.mark.parametrize("side", [32, 64])
@pytest.mark.parametrize("transform", [*TRANSFORMS, "rounded"])
def test_matern_fields_match_reference(side, transform):
    """Deep basin forests: smooth fields of many vertices, and a copy with heavy ties."""
    values = field_law(MaternParams(5, 1), side, side).draw(substream(19, side)).values
    values = np.round(values * 2) if transform == "rounded" else TRANSFORMS[transform](values)
    assert_matches_reference(ScalarField(side, side, values))


@st.composite
def multigraphs(draw):
    """(links, n_nodes): a random multigraph in arbitrary link order, connected unless drawn otherwise.

    A random spanning tree under a random labelling, plus random extra links
    (self-loops and repeats among them), in a random order and orientation.
    Half of them are reordered by their larger end, as a filtration orders
    edges, which grows deep basin forests.
    """
    n = draw(st.integers(1, 12))
    tree = [(draw(st.integers(0, x - 1)), x) for x in range(1, n)]
    if not draw(st.booleans()):
        tree = draw(st.lists(st.sampled_from(tree), max_size=len(tree))) if tree else []
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(tree), max_size=n)) if tree else []
    links = draw(st.permutations(tree + extra + repeats))
    label = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    links = label[np.array(links, dtype=np.int64).reshape(-1, 2)]
    flip = np.array(draw(st.lists(st.booleans(), min_size=len(links), max_size=len(links))), dtype=bool)
    links[flip] = links[flip, ::-1]
    if draw(st.booleans()):
        links = links[np.argsort(links.max(axis=1, initial=0), kind="stable")]
    return links, n


@settings(max_examples=600, deadline=None)
@given(multigraphs())
def test_elder_rule_matches_reference(graph):
    """The basin-reduced rule makes the merges of the all-links pass, or both find the graph disconnected."""
    links, n_nodes = graph
    try:
        want = elder_reference(links, n_nodes)
    except AssertionError:
        with pytest.raises(AssertionError, match="not connected"):
            _elder_rule(links, n_nodes)
        return
    at, killed = _elder_rule(links, n_nodes)
    assert at.dtype == killed.dtype == np.int64
    assert at.tolist() == want[0].tolist() and killed.tolist() == want[1].tolist()


def large_multigraph(rng: np.random.Generator, n: int, by_larger_end: bool) -> np.ndarray:
    """A random spanning tree of ``n`` nodes plus ``n`` random links and ``n // 4`` repeats of tree links.

    The links are in random order and orientation under a random labelling,
    or reordered by their larger end, as a filtration orders edges.
    """
    tree = np.column_stack((rng.integers(0, np.arange(1, n)), np.arange(1, n)))
    extra = rng.integers(0, n, size=(n, 2))
    repeats = tree[rng.integers(0, n - 1, size=n // 4)]
    links = rng.permutation(n)[np.concatenate((tree, extra, repeats))]
    links = links[rng.permutation(len(links))]
    flip = rng.random(len(links)) < 0.5
    links[flip] = links[flip, ::-1]
    if by_larger_end:
        links = links[np.argsort(links.max(axis=1), kind="stable")]
    return links


@pytest.mark.parametrize("seed", range(8))
def test_elder_rule_rounds_match_reference(seed):
    """Graphs of hundreds to thousands of nodes pass the loop's link cutoff, so their basin graphs are
    hung again: for three to six rounds when the links come by larger end, and in random order until
    a round fails to halve the nodes, mostly after the second."""
    rng = np.random.default_rng(seed)
    for by_larger_end in (False, True):
        n = int(rng.integers(300, 3001))
        links = large_multigraph(rng, n, by_larger_end)
        at, killed = _elder_rule(links, n)
        want = elder_reference(links, n)
        assert at.dtype == killed.dtype == np.int64
        assert at.tolist() == want[0].tolist() and killed.tolist() == want[1].tolist()


class TestElderRule:
    """The one union-find loop, on hand-built graphs: (u, v) link rows over nodes 0..n-1."""

    def test_path_in_order(self):
        at, killed = _elder_rule(np.array([[0, 1], [1, 2], [2, 3]]), 4)
        assert at.tolist() == [0, 1, 2] and killed.tolist() == [1, 2, 3]

    def test_closing_link_of_a_cycle_merges_nothing(self):
        at, killed = _elder_rule(np.array([[0, 1], [1, 2], [2, 0], [2, 3]]), 4)
        assert at.tolist() == [0, 1, 3] and killed.tolist() == [1, 2, 3]

    def test_younger_root_dies(self):
        # {1, 3} and {0, 2} form first; the link 3-2 joins roots 1 and 0 and kills 1
        at, killed = _elder_rule(np.array([[3, 1], [2, 0], [3, 2]]), 4)
        assert at.tolist() == [0, 1, 2] and killed.tolist() == [3, 2, 1]

    def test_self_loops_repeats_and_elder_first_links(self):
        # 2's first link is a self-loop and 0 and 1 first meet a larger node, so
        # all three root basins and only 3 hangs below 0; the repeat 2-1 and the
        # self-loops merge nothing, and 0-1 comes after 3-2 has joined 0 and 1
        links = np.array([[2, 2], [1, 2], [2, 1], [0, 3], [3, 3], [3, 2], [0, 1]])
        at, killed = _elder_rule(links, 4)
        assert at.tolist() == [1, 3, 5] and killed.tolist() == [2, 3, 1]

    def test_single_node_needs_no_link(self):
        # no link at all, and three self-loops: the dual graph of a 1x4 grid
        for links in (np.empty((0, 2), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)):
            at, killed = _elder_rule(links, 1)
            assert at.tolist() == [] and killed.tolist() == []

    def test_disconnected_graph_raises(self):
        # two parts, and a node on no link at all (not an IndexError)
        for links, n_nodes in ((np.array([[0, 1], [2, 3], [3, 2]]), 4), (np.array([[0, 1]]), 3)):
            with pytest.raises(AssertionError, match="not connected"):
                _elder_rule(links, n_nodes)


class TestBettiOracle:
    def test_below_minimum(self, ring_field):
        filt = build_filtration(ring_field)
        assert betti_oracle(filt, 0.5) == (0, 0)

    def test_full_grid_is_contractible(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            filt = build_filtration(random_field(rng))
            top = float(np.max(filt.values))
            assert betti_oracle(filt, top) == (1, 0)

    def test_ring_at_nine_has_one_hole(self, ring_field):
        filt = build_filtration(ring_field)
        assert betti_oracle(filt, 9.0) == (1, 1)


@st.composite
def thin_or_tied_fields(draw):
    """Fields on 1xN, Nx1 and small rectangular grids, half of them valued among -1, -0.0, 0.0 and 2."""
    rows, cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ))
    if draw(st.booleans()):
        values = st.sampled_from([-1.0, -0.0, 0.0, 2.0])
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    return flat_field(rows, cols, draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=300, deadline=None)
@given(thin_or_tied_fields())
def test_betti_oracle_matches_union_find_reference(field):
    """The cell-grid oracle equals union-find on the sublevel prefix at every value, both signed zeros and +-inf."""
    filt = build_filtration(field)
    for a in [-np.inf, np.inf, -0.0, 0.0, *np.unique(filt.values).tolist()]:
        assert betti_oracle(filt, a) == betti_reference(filt, a), a


def full_graphs(filt):
    """Both graphs on every edge, read from the boundary matrix: (primal links, dual links, each face's last edge).

    Links are by edge order, the dual's not yet reversed; vertex j is node j,
    face j is dual node F - j and the outer node 0 fills a border edge's
    missing cofaces.  The last edges are edge orders.
    """
    bnd = boundary(filt)
    vertices, edges, faces = (np.flatnonzero(filt.dims == dim) for dim in range(3))
    node, edge_order = np.zeros(filt.n_cells, dtype=np.int64), np.zeros(filt.n_cells, dtype=np.int64)
    node[vertices] = np.arange(len(vertices))
    node[faces] = np.arange(len(faces), 0, -1)
    edge_order[edges] = np.arange(len(edges))
    dual, cofaces = np.zeros((len(edges), 2), dtype=np.int64), np.zeros(len(edges), dtype=np.int64)
    for f in faces.tolist():
        for e in edge_order[bnd[f]].tolist():
            dual[e, cofaces[e]] = node[f]
            cofaces[e] += 1
    return node[bnd[edges, :2]], dual, edge_order[bnd[faces]].max(axis=1, initial=-1)


@settings(max_examples=300, deadline=None)
@given(thin_or_tied_fields())
def test_face_last_edges_never_merge_and_the_degrees_split_the_edges(field):
    """On the unpruned graphs: a face's last edge closes its 4-cycle, so degree 0 never merges it, and
    degree 1 merges exactly the edges degree 0 does not, so each degree can drop the other's edges."""
    filt = build_filtration(field)
    primal, dual, last = full_graphs(filt)
    merged0 = elder_reference(primal, np.count_nonzero(filt.dims == 0))[0]
    merged1 = len(dual) - 1 - elder_reference(dual[::-1], len(last) + 1)[0]
    assert not np.isin(last, merged0).any()
    assert sorted(merged1.tolist()) == sorted(set(range(len(dual))) - set(merged0.tolist()))


@pytest.mark.parametrize("field", [
    pytest.param(flat_field(1, 1, [2.5]), id="1x1"),
    pytest.param(flat_field(1, 7, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]), id="1xn"),
    pytest.param(flat_field(7, 1, [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0]), id="nx1"),
    pytest.param(flat_field(4, 5, [1.5] * 20), id="constant"),
    pytest.param(flat_field(3, 4, [2.0, 0.0, 1.0, 2.0, 0.0, 2.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.0]), id="ties"),
    pytest.param(field_law(MaternParams(5, 1), 32, 32).draw(substream(23)), id="matern-32x32"),
])
def test_elder_rule_gets_only_the_edges_that_can_merge(field, monkeypatch):
    """Degree 0 gets E less the distinct face-last edges, degree 1 the F edges degree 0 left."""
    calls = []

    def counted(links, n_nodes):
        calls.append((len(links), n_nodes))
        return _elder_rule(links, n_nodes)

    monkeypatch.setattr(persistence, "_elder_rule", counted)
    filt = build_filtration(field)
    _, dual, last = full_graphs(filt)
    compute_persistence(filt)
    n_vertices, n_faces = field.rows * field.cols, len(last)
    assert calls == [(len(dual) - len(np.unique(last)), n_vertices), (n_faces, n_faces + 1)]


class TestBettiCurve:
    def test_two_components_alive(self):
        d = diagram_of(flat_field(1, 3, [0.0, 2.0, 1.0]))
        assert betti_curve(d, 1.5) == (2, 0)

    def test_closed_sublevel_merges_at_death(self):
        d = diagram_of(flat_field(1, 3, [0.0, 2.0, 1.0]))
        assert betti_curve(d, 2.0) == (1, 0)

    def test_empty_diagram(self):
        xs = np.arange(3, dtype=float)
        d = diagram_of(ScalarField(3, 3, xs[:, None] ** 2 + xs[None, :] ** 2))
        assert betti_curve(d, 0.0) == (1, 0)
        assert betti_curve(d, -1.0) == (0, 0)


def test_oracle_equivalence_randomized():
    """Diagram inversion agrees with brute force at every cell value."""
    rng = np.random.default_rng(14)
    for _ in range(120):
        field = random_field(rng, ties=bool(rng.integers(2)))
        filt = build_filtration(field)
        diagram = compute_persistence(filt)
        for a in np.unique(filt.values):
            assert betti_curve(diagram, float(a)) == betti_oracle(filt, float(a))


def test_diagram_csv_round_trip(tmp_path, ring_field):
    d = diagram_of(ring_field)
    path = tmp_path / "diagram.csv"
    write_diagram_csv(d, path)
    text = path.read_text().splitlines()
    assert text[0] == "degree,birth,death"
    assert read_diagram_csv(path) == [(p.degree, p.birth, p.death) for p in d.pairs]


@pytest.mark.parametrize("field", [
    pytest.param(lambda rng, ring: random_field(rng), id="untied"),
    pytest.param(lambda rng, ring: random_field(rng, ties=True), id="tied"),
    pytest.param(lambda rng, ring: ring, id="ring"),
    pytest.param(lambda rng, ring: ScalarField(3, 3, np.add.outer(np.arange(3.0) ** 2, np.arange(3.0) ** 2)),
                 id="empty"),
    # rows tied up to a zero's sign: 0,0,1 and 0,-0,1 keep the pairs' order through the file
    pytest.param(lambda rng, ring: flat_field(4, 4, [2, -0.0, 2, 0, 2, 1, 1, 0, -0.0, -0.0, 2, -0.0, -0.0, -0.0, 1, 2]),
                 id="signed-zeros"),
])
def test_diagram_csv_reads_back_as_the_same_pairs(tmp_path, ring_field, field):
    """``write_diagram_csv`` then the CLI's reader give the pairs of ``compute_persistence`` byte for byte."""
    rng = np.random.default_rng(16)
    for i in range(20):
        d = diagram_of(field(rng, ring_field))
        path = tmp_path / f"{i}.csv"
        write_diagram_csv(d, path)
        got = _read_diagram(path).pairs
        assert got.dtype == d.pairs.dtype and got.tobytes() == d.pairs.tobytes()


def test_diagram_csv_sorted(tmp_path):
    rng = np.random.default_rng(15)
    d = diagram_of(random_field(rng, max_rows=6, max_cols=6))
    path = tmp_path / "diagram.csv"
    write_diagram_csv(d, path)
    rows = read_diagram_csv(path)
    assert rows == sorted(rows)
