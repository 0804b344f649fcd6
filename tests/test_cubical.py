import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape.cubical import (
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
        assert list(zip(filt.dims.tolist(), filt.values.tolist())) == [(0, 0.0), (0, 5.0), (1, 5.0)]

    def test_2x2_face_and_edge_values(self):
        filt = build_filtration(ScalarField.from_flat(2, 2, [1.0, 2.0, 3.0, 4.0]))
        assert filt.values[filt.dims == 2].tolist() == [4.0]
        # the vertical edge at (0, 0), between the vertices valued 1 and 3
        edge = next(i for i in range(filt.n_cells) if filt.dims[i] == 1 and _cell_vertices(filt, i) == {0, 2})
        assert filt.values[edge] == 3.0

    def test_ring_faces_all_carry_center_value(self, ring_field):
        filt = build_filtration(ring_field)
        face_values = [float(filt.values[i]) for i in range(filt.n_cells) if filt.dims[i] == 2]
        assert face_values == [10.0] * 4

    def test_cell_counts_and_euler(self):
        for rows, cols in [(1, 1), (1, 5), (4, 1), (3, 4), (5, 5)]:
            filt = build_filtration(ScalarField(rows, cols, np.arange(rows * cols, dtype=float).reshape(rows, cols)))
            v, e, f = np.bincount(filt.dims, minlength=3)
            assert v == rows * cols
            assert e == rows * (cols - 1) + (rows - 1) * cols
            assert f == (rows - 1) * (cols - 1)
            assert v - e + f == 1

    def test_every_cell_after_its_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            for i in range(filt.n_cells):
                assert all(b < i for b in _facets(filt, i))

    def test_edge_and_face_values_are_boundary_maxima(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            filt = build_filtration(random_field(rng))
            for i in range(filt.n_cells):
                bnd = _facets(filt, i)
                if bnd:
                    assert filt.values[i] == max(filt.values[b] for b in bnd)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        f = random_field(rng)
        a, b = build_filtration(f), build_filtration(f)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.boundary, b.boundary)
        assert np.array_equal(a.crit_vertex, b.crit_vertex)

    def test_golden_filtration_digest(self):
        """dtype, shape and bytes of the four arrays over a fixed set of fields.

        Any change to the cell order, a value, a facet or an owner fails here;
        record a new digest only together with an intended change of the filtration.
        """
        rng = np.random.default_rng(20250809)
        fields = [ScalarField(r, c, rng.standard_normal((r, c))) for r, c in [(1, 1), (3, 5), (6, 4), (9, 9)]]
        fields += [ScalarField(r, c, rng.integers(0, 3, (r, c)).astype(float)) for r, c in [(4, 4), (5, 7)]]
        fields += [ScalarField(r, c, rng.choice([-1.0, -0.0, 0.0, 2.0], (r, c))) for r, c in [(3, 3), (6, 5)]]
        fields += [ScalarField(r, c, rng.standard_normal((r, c))) for r, c in [(1, 9), (8, 1)]]
        fields.append(ScalarField(64, 64, rng.standard_normal((64, 64))))
        total = hashlib.sha256()
        for field in fields:
            filt = build_filtration(field)
            for name in ("values", "dims", "boundary", "crit_vertex"):
                a = getattr(filt, name)
                total.update(f"{name},{a.dtype},{a.shape};".encode() + np.ascontiguousarray(a).tobytes())
        assert total.hexdigest() == "0aba1243affd3cbbf33edd7a5d2e6bc8e0264c065e42bbc0e36940a6c49de642"


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
        cells = sublevel_complex(filt, 1.0)
        assert filt.dims[cells].tolist() == [0, 0]
        assert sorted(filt.crit_vertex[cells].tolist()) == [0, 2]

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
                    assert set(_facets(filt, i)) <= current
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


def _facets(filt, i) -> list[int]:
    """Sorted indices of the facets of cell i."""
    return [int(b) for b in filt.boundary[i] if b >= 0]


def _cell_vertices(filt, i) -> set[int]:
    """Row-major indices of the vertices of cell i: a vertex cell's own, else the union over its facets."""
    if filt.dims[i] == 0:
        return {int(filt.crit_vertex[i])}
    return set().union(*(_cell_vertices(filt, b) for b in _facets(filt, i)))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
def test_owner_is_the_highest_vertex_and_gives_the_value(rows, cols, data):
    """On tied fields (signed zeros included) the vertex cells come in (value, index) order,
    each cell's crit_vertex is its top vertex in that order, and its value is that vertex's
    value, bit for bit.  A cell's vertices are read through its facets, so the owners of
    ``cell_owners`` are checked against the facets of ``_grid_facets``."""
    flat = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=rows * cols, max_size=rows * cols))
    filt = build_filtration(ScalarField.from_flat(rows, cols, flat))
    order = sorted(range(rows * cols), key=lambda v: (flat[v], v))
    assert filt.crit_vertex[filt.dims == 0].tolist() == order
    for i in range(filt.n_cells):
        assert filt.crit_vertex[i] == max(_cell_vertices(filt, i), key=order.index)
    owner_values = np.asarray(flat)[filt.crit_vertex]
    assert filt.values.tobytes() == owner_values.tobytes()
