import errno
import hashlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fieldscape import cubical
from fieldscape.cubical import (
    ScalarField,
    build_filtration,
    make_generic,
    read_field_csv,
    read_records,
    write_field_csv,
    write_file,
    write_table,
)
from fieldscape.critical import detect_critical
from fieldscape.errors import InvalidFieldError
from fieldscape.grf import MaternParams, field_law, substream
from fieldscape.harness import MANIFEST_COLUMNS

from conftest import flat_field, random_field
from oracles import boundary, filtration_reference, vertex_rank_reference


class TestScalarField:
    def test_shape_must_match(self):
        with pytest.raises(InvalidFieldError):
            ScalarField(2, 2, np.zeros((2, 3)))

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidFieldError):
            ScalarField(0, 3, np.zeros((0, 3)))

    def test_values_are_read_only(self):
        f = flat_field(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0


class TestMakeGeneric:
    def test_rejects_non_finite(self):
        f = flat_field(1, 2, [0.0, np.inf])
        with pytest.raises(InvalidFieldError):
            make_generic(f)

    def test_tied_pair_orders_by_index(self):
        # both stored values stay 3; index 0 compares below index 1
        f = make_generic(flat_field(1, 2, [3.0, 3.0]))
        assert f.values.tolist() == [[3.0, 3.0]]
        filt = build_filtration(f)
        assert filt.crit_vertex[1] == 1  # the later vertex owns the tie

    def test_distinct_values_unchanged(self):
        f = flat_field(1, 3, [0.0, 2.0, 1.0])
        assert make_generic(f) == f

    def test_all_tied_square_orders_by_index(self):
        filt = build_filtration(flat_field(2, 2, [1.0, 1.0, 1.0, 1.0]))
        vertex_cells = [i for i in range(filt.n_cells) if filt.dims[i] == 0]
        assert [int(filt.crit_vertex[i]) for i in vertex_cells] == [0, 1, 2, 3]

    def test_idempotent(self):
        f = flat_field(2, 2, [1.0, 1.0, 2.0, 0.0])
        assert make_generic(make_generic(f)) == make_generic(f)


def filtration_rank(field: ScalarField) -> np.ndarray:
    """Each vertex's rank as ``build_filtration`` orders it, the position of its vertex cell among the vertex cells."""
    filt = build_filtration(field)
    order = filt.crit_vertex[filt.dims == 0]
    rank = np.full(field.rows * field.cols, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank.reshape(field.rows, field.cols)


class TestVertexRank:
    def test_is_a_permutation(self):
        field = random_field(np.random.default_rng(8), ties=True)
        filt = build_filtration(field)
        assert filt.crit_vertex.dtype == np.int64
        assert sorted(filt.crit_vertex[filt.dims == 0].tolist()) == list(range(field.rows * field.cols))

    def test_orders_by_value_then_index(self):
        f = flat_field(2, 3, [2.0, 1.0, 2.0, 0.5, 1.0, 2.0])
        assert filtration_rank(f).tolist() == vertex_rank_reference(f).tolist() == [[3, 1, 4], [0, 2, 5]]

    def test_signed_zeros_tie(self):
        f = flat_field(1, 4, [0.0, -0.0, -0.0, 0.0])
        assert filtration_rank(f).tolist() == vertex_rank_reference(f).tolist() == [[0, 1, 2, 3]]

    def test_rejects_non_finite(self):
        """The filtration and the census both rank the vertices, so both refuse NaN."""
        f = flat_field(1, 2, [0.0, np.nan])
        with pytest.raises(InvalidFieldError):
            build_filtration(f)
        with pytest.raises(InvalidFieldError):
            detect_critical(f)


@st.composite
def tied_or_distinct_grids(draw):
    """Grids of 1 x 1 up to 48 x 48: tie-heavy values with signed zeros, or normal draws with no two equal."""
    rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    if draw(st.booleans()):
        values = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from([-1.0, -0.0, 0.0, 2.0])))
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    return ScalarField(rows, cols, values)


@settings(max_examples=300, deadline=None)
@given(tied_or_distinct_grids())
def test_vertex_rank_is_the_stable_argsort_order(field):
    """The filtration's rank is the inverse of a stable argsort of the values, whether the fast sort alone runs (no
    two values equal) or its stable fallback does (ties, ``-0.0`` beside ``0.0``)."""
    assert filtration_rank(field).tolist() == vertex_rank_reference(field).tolist()


class TestBuildFiltration:
    def test_1x2_max_rule(self):
        filt = build_filtration(flat_field(1, 2, [0.0, 5.0]))
        assert list(zip(filt.dims.tolist(), filt.values.tolist())) == [(0, 0.0), (0, 5.0), (1, 5.0)]

    def test_2x2_face_and_edge_values(self):
        filt = build_filtration(flat_field(2, 2, [1.0, 2.0, 3.0, 4.0]))
        assert filt.values[filt.dims == 2].tolist() == [4.0]
        # the vertical edge at (0, 0), between the vertices valued 1 and 3
        edge = next(i for i, cell in enumerate(_cell_vertices(filt)) if filt.dims[i] == 1 and cell == {0, 2})
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
            for i, facets in enumerate(_facets(filt)):
                assert all(b < i for b in facets)

    def test_edge_and_face_values_are_boundary_maxima(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            filt = build_filtration(random_field(rng))
            for i, bnd in enumerate(_facets(filt)):
                if bnd:
                    assert filt.values[i] == max(filt.values[b] for b in bnd)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        f = random_field(rng)
        a, b = build_filtration(f), build_filtration(f)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.grid_id, b.grid_id)
        assert np.array_equal(boundary(a), boundary(b))
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
            arrays = {"values": filt.values, "dims": filt.dims, "boundary": boundary(filt),
                      "crit_vertex": filt.crit_vertex}
            for name, a in arrays.items():
                total.update(f"{name},{a.dtype},{a.shape};".encode() + np.ascontiguousarray(a).tobytes())
        assert total.hexdigest() == "0aba1243affd3cbbf33edd7a5d2e6bc8e0264c065e42bbc0e36940a6c49de642"


def _sublevel(filt, a: float) -> np.ndarray:
    """Sorted indices of the cells with value <= a, checked to be a prefix of the filtration."""
    cells = np.flatnonzero(filt.values <= a)
    assert cells.tolist() == list(range(len(cells)))
    return cells


class TestSublevel:
    def test_below_minimum_is_empty(self, ring_field):
        filt = build_filtration(ring_field)
        assert len(_sublevel(filt, -np.inf)) == 0
        assert len(_sublevel(filt, 0.999)) == 0

    def test_at_maximum_is_everything(self, ring_field):
        filt = build_filtration(ring_field)
        assert len(_sublevel(filt, 10.0)) == filt.n_cells

    def test_1x3_slice_has_two_vertices_no_edges(self):
        filt = build_filtration(flat_field(1, 3, [0.0, 2.0, 1.0]))
        cells = _sublevel(filt, 1.0)
        assert filt.dims[cells].tolist() == [0, 0]
        assert sorted(filt.crit_vertex[cells].tolist()) == [0, 2]

    def test_monotone_and_boundary_closed(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            thresholds = np.sort(np.unique(filt.values))
            facets = _facets(filt)
            previous = set()
            for a in thresholds:
                current = set(_sublevel(filt, float(a)).tolist())
                assert previous <= current
                for i in current:
                    assert set(facets[i]) <= current
                previous = current


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        f = ScalarField(3, 4, rng.standard_normal((3, 4)) * 1e3)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert read_field_csv(path) == f

    def test_header_line(self, tmp_path):
        f = flat_field(2, 3, [1, 2, 3, 4, 5, 6])
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert path.read_text().splitlines()[0] == "2,3"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n1,2\n3,oops\n")
        with pytest.raises(InvalidFieldError):
            read_field_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_rejects_non_finite_naming_the_file(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"2,2\n1,2\n3,{value}\n")
        with pytest.raises(InvalidFieldError, match=f"^{re.escape(str(path))}: non-finite value$"):
            read_field_csv(path)


class _FullRawFile(io.FileIO):
    """A raw file on a disk with ``room`` bytes free: writes stop there, then raise ENOSPC."""

    room = 0

    def write(self, data):
        left = self.room - self.tell()
        if left <= 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(bytes(data)[:left])


class TestWriteFile:
    """``write_file`` rewrites a file in place and cuts it at the end of the new text."""

    @pytest.mark.parametrize("old", ["", "a,b\n", "0123456789\n" * 300])
    @pytest.mark.parametrize("new", ["", "x,y\n", "abcdefghij\n" * 300, "ABCDEFGHIJ\n" * 301])
    def test_a_rewrite_leaves_exactly_the_new_text(self, tmp_path, old, new):
        path = tmp_path / "table.csv"
        path.write_text(old)
        inode = path.stat().st_ino
        write_file(path, new)
        assert path.read_bytes() == new.encode()
        assert path.stat().st_ino == inode

    def test_a_new_file_gets_the_mode_of_open(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_file(tmp_path / "written.csv", "1\n")
            with open(tmp_path / "opened.csv", "w") as f:
                f.write("1\n")
        finally:
            os.umask(umask)
        assert (tmp_path / "written.csv").stat().st_mode == (tmp_path / "opened.csv").stat().st_mode

    def test_a_crlf_manifest_with_a_non_ascii_model_round_trips(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("stale,longer,than,the,new,manifest\n" * 20)
        row = (5.0, 1.0, "Matérn-ß", "train", 0, 20250809, 0, 0, 0, 0, "fields/Matérn-ß/train-0000.csv")
        write_table(path, ",".join(MANIFEST_COLUMNS), "%g,%g,%s,%s,%d,%d:%d.%d.%d.%d,%s", [row], end="\r\n")
        line = "5,1,Matérn-ß,train,0,20250809:0.0.0.0,fields/Matérn-ß/train-0000.csv"
        (tmp_path / "expected.csv").write_text(",".join(MANIFEST_COLUMNS) + "\r\n" + line + "\r\n")
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert [r["model"] for r in read_records(path, MANIFEST_COLUMNS)] == ["Matérn-ß"]

    @pytest.mark.parametrize("room", [0, 5, 9000])
    def test_a_write_that_fails_part_way_leaves_no_old_tail(self, tmp_path, monkeypatch, room):
        """A full disk stops the write at ``room`` bytes; the file holds those and none of its old text."""
        path = tmp_path / "table.csv"
        path.write_text("old line\n" * 2000)
        new = "new line\n" * 1500
        monkeypatch.setattr(_FullRawFile, "room", room)

        def full_disk_open(fd, mode):
            """The built-in ``open`` that ``write_file`` wraps its descriptor with, over a raw file on a full disk."""
            return io.TextIOWrapper(io.BufferedWriter(_FullRawFile(fd, mode)))

        monkeypatch.setattr(cubical, "open", full_disk_open, raising=False)
        with pytest.raises(OSError) as failure:
            write_file(path, new)
        assert failure.value.errno == errno.ENOSPC
        assert path.read_bytes() == new.encode()[:room]


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_nan=False),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                                  -1.7976931348623157e308])))
def test_row_templates_format_as_format_does(x):
    """The ``%`` conversions of the table templates print a float as the ``format`` spellings always have."""
    assert "%.17g" % x == format(x, ".17g")
    assert "%g" % x == format(x, "g")
    assert "%.1f" % x == f"{x:.1f}"


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
    filt = build_filtration(flat_field(rows, cols, [float(x) for x in flat]))
    a, b = sorted(data.draw(st.tuples(st.floats(-4, 4), st.floats(-4, 4))))
    assert set(_sublevel(filt, a).tolist()) <= set(_sublevel(filt, b).tolist())


def _facets(filt) -> list[list[int]]:
    """Sorted indices of the facets of each cell."""
    return [[b for b in row if b >= 0] for row in boundary(filt).tolist()]


def _cell_vertices(filt) -> list[set[int]]:
    """Row-major indices of the vertices of each cell: a vertex cell's own, else the union over its facets."""
    facets = _facets(filt)

    def of(i):
        if filt.dims[i] == 0:
            return {int(filt.crit_vertex[i])}
        return set().union(*(of(b) for b in facets[i]))

    return [of(i) for i in range(filt.n_cells)]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
def test_owner_is_the_highest_vertex_and_gives_the_value(rows, cols, data):
    """On tied fields (signed zeros included) the vertex cells come in (value, index) order,
    each cell's crit_vertex is its top vertex in that order, and its value is that vertex's
    value, bit for bit.  A cell's vertices are read through its facets, so the owners of
    ``_star_slots`` are checked against the facets of ``oracles._grid_facets``."""
    flat = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=rows * cols, max_size=rows * cols))
    filt = build_filtration(flat_field(rows, cols, flat))
    order = sorted(range(rows * cols), key=lambda v: (flat[v], v))
    assert filt.crit_vertex[filt.dims == 0].tolist() == order
    for i, vertices in enumerate(_cell_vertices(filt)):
        assert filt.crit_vertex[i] == max(vertices, key=order.index)
    owner_values = np.asarray(flat)[filt.crit_vertex]
    assert filt.values.tobytes() == owner_values.tobytes()


def assert_matches_filtration_reference(field: ScalarField):
    """The arrays of ``build_filtration``, and its boundary matrix, equal the lexsort reference's in value and dtype."""
    filt, want = build_filtration(field), filtration_reference(field)
    got = {"values": filt.values, "dims": filt.dims, "boundary": boundary(filt), "crit_vertex": filt.crit_vertex,
           "grid_id": filt.grid_id}
    for name, a in got.items():
        b = getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit: -0.0 is not 0.0


@st.composite
def tied_or_continuous_fields(draw):
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        values = st.sampled_from([-1.0, -0.0, 0.0, 2.0])  # heavy ties, signed zeros among them
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    return flat_field(rows, cols, draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=400, deadline=None)
@given(tied_or_continuous_fields())
def test_filtration_matches_lexsort_reference(field):
    assert_matches_filtration_reference(field)


@pytest.mark.parametrize("rows, cols, flat", [
    pytest.param(1, 1, [2.5], id="1x1"),
    pytest.param(1, 7, [3.0, 1.0, 4.0, 1.0, 5.0, -0.0, 0.0], id="1xn"),
    pytest.param(7, 1, [2.0, 7.0, 0.0, 8.0, 2.0, 8.0, -0.0], id="nx1"),
])
def test_thin_grids_match_lexsort_reference(rows, cols, flat):
    """No faces (and on 1x1 no edges): every star slot off the grid must own nothing."""
    assert_matches_filtration_reference(flat_field(rows, cols, flat))


@pytest.mark.parametrize("side", [32, 64])
def test_matern_filtration_matches_lexsort_reference(side):
    values = field_law(MaternParams(5, 1), side, side).draw(substream(5, side)).values
    assert_matches_filtration_reference(ScalarField(side, side, values))
