import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape.cubical import (
    ORIENT_V,
    ScalarField,
    build_filtration,
    make_generic,
    read_field_csv,
    sublevel_complex,
    vertex_rank,
    write_field_csv,
)
from fieldscape.errors import InvalidFieldError

from conftest import random_field


class TestScalarField:
    def test_shape_must_match(self):
        with pytest.raises(InvalidFieldError):
            ScalarField(2, 2, np.zeros((2, 3)))

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidFieldError):
            ScalarField(0, 3, np.zeros((0, 3)))

    def test_values_are_read_only(self):
        f = ScalarField.from_flat(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0


class TestMakeGeneric:
    def test_rejects_non_finite(self):
        f = ScalarField.from_flat(1, 2, [0.0, np.inf])
        with pytest.raises(InvalidFieldError):
            make_generic(f)

    def test_tied_pair_orders_by_index(self):
        # both stored values stay 3; index 0 compares below index 1
        f = make_generic(ScalarField.from_flat(1, 2, [3.0, 3.0]))
        assert f.values.tolist() == [[3.0, 3.0]]
        filt = build_filtration(f)
        assert filt.crit_vertex[1] == 1  # the later vertex owns the tie

    def test_distinct_values_unchanged(self):
        f = ScalarField.from_flat(1, 3, [0.0, 2.0, 1.0])
        assert make_generic(f) == f

    def test_all_tied_square_orders_by_index(self):
        filt = build_filtration(ScalarField.from_flat(2, 2, [1.0, 1.0, 1.0, 1.0]))
        vertex_cells = [i for i in range(filt.n_cells) if filt.dims[i] == 0]
        assert [int(filt.crit_vertex[i]) for i in vertex_cells] == [0, 1, 2, 3]

    def test_idempotent(self):
        f = ScalarField.from_flat(2, 2, [1.0, 1.0, 2.0, 0.0])
        assert make_generic(make_generic(f)) == make_generic(f)


class TestVertexRank:
    def test_is_a_permutation(self):
        rank = vertex_rank(random_field(np.random.default_rng(8), ties=True))
        assert rank.dtype == np.int64
        assert sorted(rank.ravel().tolist()) == list(range(rank.size))

    def test_orders_by_value_then_index(self):
        f = ScalarField.from_flat(2, 3, [2.0, 1.0, 2.0, 0.5, 1.0, 2.0])
        assert vertex_rank(f).tolist() == [[3, 1, 4], [0, 2, 5]]

    def test_signed_zeros_tie(self):
        f = ScalarField.from_flat(1, 4, [0.0, -0.0, -0.0, 0.0])
        assert vertex_rank(f).tolist() == [[0, 1, 2, 3]]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidFieldError):
            vertex_rank(ScalarField.from_flat(1, 2, [0.0, np.nan]))


class TestBuildFiltration:
    def test_1x2_max_rule(self):
        filt = build_filtration(ScalarField.from_flat(1, 2, [0.0, 5.0]))
        cells = [filt.cell(i) for i in range(filt.n_cells)]
        assert [(c.dim, c.value) for c in cells] == [(0, 0.0), (0, 5.0), (1, 5.0)]

    def test_2x2_face_and_edge_values(self):
        filt = build_filtration(ScalarField.from_flat(2, 2, [1.0, 2.0, 3.0, 4.0]))
        face = [filt.cell(i) for i in range(filt.n_cells) if filt.dims[i] == 2]
        assert [c.value for c in face] == [4.0]
        # edge between the vertices valued 1 and 3 is the vertical edge at (0, 0)
        edge = next(
            filt.cell(i)
            for i in range(filt.n_cells)
            if filt.dims[i] == 1 and filt.cell(i).orientation == "v" and filt.cell(i).anchor == (0, 0)
        )
        assert edge.value == 3.0

    def test_ring_faces_all_carry_center_value(self, ring_field):
        filt = build_filtration(ring_field)
        face_values = [float(filt.values[i]) for i in range(filt.n_cells) if filt.dims[i] == 2]
        assert face_values == [10.0] * 4

    def test_cell_counts_and_euler(self):
        for rows, cols in [(1, 1), (1, 5), (4, 1), (3, 4), (5, 5)]:
            filt = build_filtration(ScalarField(rows, cols, np.arange(rows * cols, dtype=float).reshape(rows, cols)))
            v, e, f = filt.cell_counts()
            assert v == rows * cols
            assert e == rows * (cols - 1) + (rows - 1) * cols
            assert f == (rows - 1) * (cols - 1)
            assert filt.euler_characteristic() == 1

    def test_every_cell_after_its_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            for i in range(filt.n_cells):
                assert all(b < i for b in filt.boundary_of(i))

    def test_edge_and_face_values_are_boundary_maxima(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            filt = build_filtration(random_field(rng))
            for i in range(filt.n_cells):
                bnd = filt.boundary_of(i)
                if bnd:
                    assert filt.values[i] == max(filt.values[b] for b in bnd)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        f = random_field(rng)
        a, b = build_filtration(f), build_filtration(f)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.boundary, b.boundary)
        assert np.array_equal(a.crit_vertex, b.crit_vertex)


class TestSublevel:
    def test_below_minimum_is_empty(self, ring_field):
        filt = build_filtration(ring_field)
        assert len(sublevel_complex(filt, -np.inf)) == 0
        assert len(sublevel_complex(filt, 0.999)) == 0

    def test_at_maximum_is_everything(self, ring_field):
        filt = build_filtration(ring_field)
        assert len(sublevel_complex(filt, 10.0)) == filt.n_cells

    def test_1x3_slice_has_two_vertices_no_edges(self):
        filt = build_filtration(ScalarField.from_flat(1, 3, [0.0, 2.0, 1.0]))
        cells = [filt.cell(i) for i in sublevel_complex(filt, 1.0)]
        assert sorted((c.dim, c.anchor) for c in cells) == [(0, (0, 0)), (0, (0, 2))]

    def test_monotone_and_boundary_closed(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            thresholds = np.sort(np.unique(filt.values))
            previous = set()
            for a in thresholds:
                current = set(sublevel_complex(filt, float(a)).tolist())
                assert previous <= current
                for i in current:
                    assert set(filt.boundary_of(i)) <= current
                previous = current


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        f = ScalarField(3, 4, rng.standard_normal((3, 4)) * 1e3)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert read_field_csv(path) == f

    def test_header_line(self, tmp_path):
        f = ScalarField.from_flat(2, 3, [1, 2, 3, 4, 5, 6])
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert path.read_text().splitlines()[0] == "2,3"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n1,2\n3,oops\n")
        with pytest.raises(InvalidFieldError):
            read_field_csv(path)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_sublevel_monotone_property(rows, cols, data):
    flat = data.draw(
        st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols)
    )
    filt = build_filtration(ScalarField.from_flat(rows, cols, [float(x) for x in flat]))
    a, b = sorted(data.draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4))))
    assert set(sublevel_complex(filt, a).tolist()) <= set(sublevel_complex(filt, b).tolist())


def _cell_vertices(filt, i, cols) -> list[int]:
    """Row-major indices of the vertices of cell i, from its dim, anchor and orientation."""
    r, c, d = int(filt.anchor_rows[i]), int(filt.anchor_cols[i]), int(filt.dims[i])
    if d == 1:
        dr, dc = (1, 0) if filt.orients[i] == ORIENT_V else (0, 1)
    else:
        dr = dc = d // 2
    return [(r + a) * cols + c + b for a in {0, dr} for b in {0, dc}]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
def test_owner_is_the_highest_vertex_and_gives_the_value(rows, cols, data):
    """On tied fields (signed zeros included) each cell's crit_vertex is its top vertex in
    (value, index) order, and its value is that vertex's value, bit for bit."""
    flat = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=rows * cols, max_size=rows * cols))
    filt = build_filtration(ScalarField.from_flat(rows, cols, flat))
    for i in range(filt.n_cells):
        assert filt.crit_vertex[i] == max(_cell_vertices(filt, i, cols), key=lambda v: (flat[v], v))
    owner_values = np.asarray(flat)[filt.crit_vertex]
    assert filt.values.tobytes() == owner_values.tobytes()
