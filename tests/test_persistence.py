import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape.cubical import ScalarField, build_filtration
from fieldscape.persistence import (
    _elder_rule,
    betti_curve,
    betti_oracle,
    compute_persistence,
    read_diagram_csv,
    write_diagram_csv,
)

from conftest import random_field
from reduction_reference import reference_persistence


def diagram_of(field: ScalarField):
    return compute_persistence(build_filtration(field))


class TestComputePersistence:
    def test_1x3_single_merge(self):
        d = diagram_of(ScalarField.from_flat(1, 3, [0.0, 2.0, 1.0]))
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
        assert d.pairs == ()
        assert d.essential_min == 0.0

    def test_pair_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            filt = build_filtration(random_field(rng, ties=bool(rng.integers(2))))
            d = compute_persistence(filt)
            for p in d.pairs:
                assert p.birth_cell < p.death_cell  # filtration order
                if p.degree == 0:
                    assert filt.dims[p.birth_cell] == 0 and filt.dims[p.death_cell] == 1
                else:
                    assert filt.dims[p.birth_cell] == 1 and filt.dims[p.death_cell] == 2
                assert p.birth <= p.death

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        f = random_field(rng)
        assert diagram_of(f) == diagram_of(f)


def assert_matches_reference(field: ScalarField):
    filt = build_filtration(field)
    got, want = compute_persistence(filt), reference_persistence(filt)
    assert got.pairs == want.pairs  # all five fields of every pair
    assert got.essential_min == want.essential_min


@st.composite
def small_fields(draw):
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        values = st.integers(0, 3).map(float)  # many ties
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return ScalarField.from_flat(rows, cols, flat)


@settings(max_examples=400, deadline=None)
@given(small_fields())
def test_union_find_matches_reference_reduction(field):
    assert_matches_reference(field)


@pytest.mark.parametrize("rows, cols, flat", [
    pytest.param(1, 1, [2.5], id="1x1"),
    pytest.param(1, 7, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0], id="1xn"),
    pytest.param(7, 1, [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0], id="nx1"),
    pytest.param(4, 5, [1.5] * 20, id="constant"),
    pytest.param(1, 6, [0.0] * 6, id="constant-1xn"),
])
def test_duality_edge_cases_match_reference(rows, cols, flat):
    """No faces, or nothing but ties: the outer node and tie order carry everything."""
    assert_matches_reference(ScalarField.from_flat(rows, cols, flat))


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

    def test_single_node_needs_no_link(self):
        at, killed = _elder_rule(np.empty((0, 2), dtype=np.int64), 1)
        assert at.tolist() == [] and killed.tolist() == []

    def test_disconnected_graph_raises(self):
        with pytest.raises(AssertionError, match="not connected"):
            _elder_rule(np.array([[0, 1], [2, 3], [3, 2]]), 4)


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


class TestBettiCurve:
    def test_two_components_alive(self):
        d = diagram_of(ScalarField.from_flat(1, 3, [0.0, 2.0, 1.0]))
        assert betti_curve(d, 1.5) == (2, 0)

    def test_closed_sublevel_merges_at_death(self):
        d = diagram_of(ScalarField.from_flat(1, 3, [0.0, 2.0, 1.0]))
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


def test_diagram_csv_sorted(tmp_path):
    rng = np.random.default_rng(15)
    d = diagram_of(random_field(rng, max_rows=6, max_cols=6))
    path = tmp_path / "diagram.csv"
    write_diagram_csv(d, path)
    rows = read_diagram_csv(path)
    assert rows == sorted(rows)
