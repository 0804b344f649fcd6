from itertools import permutations, product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldscape.critical import (
    EVENT_DTYPE,
    CriticalCensus,
    critical_values_from_diagram,
    detect_critical,
    write_census_csv,
)
from fieldscape.cubical import ScalarField, build_filtration
from fieldscape.persistence import betti_curve, betti_oracle, compute_persistence

from conftest import flat_field, random_field
from oracles import filtration_reference, vertex_rank_reference


def diagram_of(field):
    return compute_persistence(build_filtration(field))


def test_pairs_and_events_are_plain_structured_arrays(ring_field):
    """Column reads skip ``recarray.__getitem__``, while a row is still an ``np.record`` read by attribute."""
    diagram = diagram_of(ring_field)
    census = detect_critical(ring_field)
    for array in (diagram.pairs, census.events, critical_values_from_diagram(diagram).events):
        assert type(array) is np.ndarray and type(array[0]) is np.record
    assert (diagram.pairs[0].degree, diagram.pairs[0].birth) == (1, 8.0)
    assert [ev.index for ev in census.events] == census.events["index"].tolist()


class TestDetectCritical:
    def test_1x3_census(self):
        census = detect_critical(flat_field(1, 3, [0.0, 2.0, 1.0]))
        assert census.counts == (2, 1, 0)
        assert census.value_index_multiset() == {(0.0, 0): 1, (1.0, 0): 1, (2.0, 1): 1}

    def test_ring_has_one_saddle_one_max(self, ring_field):
        census = detect_critical(ring_field)
        assert census.counts == (1, 1, 1)
        ms = census.value_index_multiset()
        assert ms[(8.0, 1)] == 1 and ms[(10.0, 2)] == 1

    def test_monotone_field_has_unique_minimum(self):
        field = ScalarField(3, 4, np.arange(12, dtype=float).reshape(3, 4))
        census = detect_critical(field)
        n0, n1, n2 = census.counts
        assert n0 == 1
        assert n0 - n1 + n2 == 1

    def test_euler_relation(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            census = detect_critical(random_field(rng, 8, 8, ties=bool(rng.integers(2))))
            n0, n1, n2 = census.counts
            assert n0 - n1 + n2 == 1

    def test_monkey_saddle_multiplicity(self):
        # center has four lower edge-neighbors, diagonals high: the lower
        # link is four isolated nodes, a multiplicity-3 saddle
        vals = np.array([[9.0, 1.0, 9.0], [2.0, 5.0, 3.0], [9.0, 4.0, 9.0]])
        census = detect_critical(ScalarField(3, 3, vals))
        saddles = [e for e in census.events if e.index == 1]
        assert [(e.row, e.col, e.multiplicity) for e in saddles] == [(1, 1, 3)]

    def test_record_fields_and_row_attributes(self, ring_field):
        """The columns, their order and the per-row attributes that row-wise readers rely on."""
        events = detect_critical(ring_field).events
        assert events.dtype.names == ("row", "col", "value", "index", "multiplicity")
        ev = events[-1]
        assert (ev.row, ev.col, ev.value, ev.index, ev.multiplicity) == (1, 1, 10.0, 2, 1)

    def test_locality_of_decision(self):
        # events at the center vertex only depend on its 3x3 neighborhood
        rng = np.random.default_rng(22)
        for _ in range(30):
            field = random_field(rng, 7, 7)
            if field.rows < 3 or field.cols < 3:
                continue
            r = int(rng.integers(1, field.rows - 1))
            c = int(rng.integers(1, field.cols - 1))

            def events_at(f):
                return sorted(
                    (e.index, e.multiplicity)
                    for e in detect_critical(f).events
                    if (e.row, e.col) == (r, c)
                )

            before = events_at(field)
            perturbed = field.values.copy()
            far = np.ones_like(perturbed, dtype=bool)
            far[max(0, r - 1) : r + 2, max(0, c - 1) : c + 2] = False
            perturbed[far] = rng.standard_normal(int(far.sum())) * 100.0
            assert events_at(ScalarField(field.rows, field.cols, perturbed)) == before


class TestCensusFromDiagram:
    def test_1x3_example(self):
        census = critical_values_from_diagram(diagram_of(flat_field(1, 3, [0.0, 2.0, 1.0])))
        assert census.value_index_multiset() == {(0.0, 0): 1, (1.0, 0): 1, (2.0, 1): 1}

    def test_empty_diagram_keeps_essential_minimum(self):
        xs = np.arange(3, dtype=float)
        census = critical_values_from_diagram(diagram_of(ScalarField(3, 3, xs[:, None] ** 2 + xs[None, :] ** 2)))
        assert census.value_index_multiset() == {(0.0, 0): 1}

    def test_ring_census(self, ring_field):
        census = critical_values_from_diagram(diagram_of(ring_field))
        ms = census.value_index_multiset()
        assert ms[(8.0, 1)] == 1 and ms[(10.0, 2)] == 1 and ms[(1.0, 0)] == 1


def test_census_agreement_randomized():
    """The diagram determines the (value, index) census exactly."""
    rng = np.random.default_rng(23)
    for _ in range(150):
        field = random_field(rng, 8, 8, ties=bool(rng.integers(2)))
        assert detect_critical(field) == critical_values_from_diagram(diagram_of(field))


@st.composite
def tied_fields(draw) -> ScalarField:
    """Fields up to 6x6 with many value ties, signed zeros among them."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0]), min_size=rows * cols, max_size=rows * cols))
    return flat_field(rows, cols, flat)


@settings(max_examples=300, deadline=None)
@given(tied_fields())
@example(flat_field(1, 5, [0.0, -0.0, 2.0, -0.0, 0.0]))
@example(flat_field(4, 1, [-0.0, 2.0, 0.0, -1.0]))
def test_census_is_the_euler_characteristic_of_each_lower_star(field):
    """At every vertex, the census's n0 - n1 + n2 is V - E + F over the cells whose crit_vertex it is."""
    filt = build_filtration(field)
    star = np.zeros(field.rows * field.cols, dtype=np.int64)
    np.add.at(star, filt.crit_vertex, 1 - 2 * (filt.dims.astype(np.int64) % 2))
    local = np.zeros_like(star)
    for ev in detect_critical(field).events:
        local[ev.row * field.cols + ev.col] += (-1) ** ev.index * ev.multiplicity
    assert local.tolist() == star.tolist()


@settings(max_examples=300, deadline=None)
@given(tied_fields())
@example(flat_field(1, 1, [-0.0]))
@example(flat_field(1, 5, [0.0, -0.0, 2.0, -0.0, 0.0]))
@example(flat_field(4, 1, [-0.0, 2.0, 0.0, -1.0]))
def test_census_counts_the_lower_stars_of_the_filtration(field):
    """The census, rows and cols included, byte for byte, is the one its formula gives from the cells of
    ``filtration_reference`` whose crit_vertex each vertex is: with e edges and f faces there, [e == 0]
    index 0, max(e - f + [f == 4] - 1, 0) index 1 and [f == 4] index 2 events, vertex by vertex in row-major order."""
    ref = filtration_reference(field)
    star = np.bincount(3 * ref.crit_vertex + ref.dims, minlength=3 * field.rows * field.cols).reshape(-1, 3)
    want = []
    for v, (_, e, f) in enumerate(star.tolist()):
        r, c = divmod(v, field.cols)
        y = int(f == 4)
        want += [(r, c, field.values[r, c], index, m)
                 for index, m in enumerate((int(e == 0), max(e - f + y - 1, 0), y)) if m]
    got = detect_critical(field).events
    assert got.dtype.descr == EVENT_DTYPE.descr
    assert got.tobytes() == np.array(want, dtype=EVENT_DTYPE).tobytes()  # bit for bit: -0.0 is not 0.0


def _lower_link_events(rank: np.ndarray, r: int, c: int) -> list[tuple[int, int]]:
    """(index, multiplicity) at vertex (r, c) from its lower link, built and counted by brute force.

    Nodes are the N, E, S, W neighbours of lower rank; the NE, SE, SW, NW face
    joins its two edge-neighbours when its other three corners are all lower.
    A union-find counts components, and every arc that closes a loop is a cycle.
    """
    rows, cols = rank.shape

    def lower(dr, dc):
        return 0 <= r + dr < rows and 0 <= c + dc < cols and rank[r + dr, c + dc] < rank[r, c]

    sides = [(-1, 0), (0, 1), (1, 0), (0, -1)]
    nodes = [i for i, side in enumerate(sides) if lower(*side)]
    parent = {i: i for i in nodes}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    cycles = 0
    for i, (a, b) in enumerate(zip(sides, sides[1:] + sides[:1])):
        if lower(*a) and lower(*b) and lower(a[0] + b[0], a[1] + b[1]):
            ra, rb = find(i), find((i + 1) % 4)
            cycles += ra == rb
            parent[ra] = rb
    components = len({find(i) for i in nodes})
    mult = [int(not nodes), max(components - 1, 0), cycles]
    return [(index, m) for index, m in enumerate(mult) if m]


def test_census_counts_the_components_and_cycles_of_each_lower_link():
    """All 2**8 3x3 fields with centre 0 and neighbours +-1: at every vertex the census is
    [empty link] minima, components - 1 saddles and cycles maxima of its lower link."""
    for signs in product((-1.0, 1.0), repeat=8):
        vals = np.insert(np.array(signs), 4, 0.0).reshape(3, 3)
        field = ScalarField(3, 3, vals)
        rank = vertex_rank_reference(field)
        found: dict = {}
        for ev in detect_critical(field).events:
            found.setdefault((ev.row, ev.col), []).append((ev.index, ev.multiplicity))
        for r, c in product(range(3), range(3)):
            assert sorted(found.get((r, c), [])) == _lower_link_events(rank, r, c), (signs, r, c)


def _census_key(field: ScalarField):
    return frozenset(detect_critical(field).value_index_multiset().items())


def _diagram_key(field: ScalarField):
    d = diagram_of(field)
    return frozenset((p.degree, p.birth, p.death) for p in d.pairs)


class TestLocalityGap:
    def test_embedded_witness(self, locality_gap_witness):
        a, b = locality_gap_witness
        assert detect_critical(a) == detect_critical(b)
        assert _diagram_key(a) != _diagram_key(b)

    def test_witness_found_by_exhaustive_search(self, locality_gap_witness):
        """All 1x5 permutations: some census class holds two diagram classes."""
        by_census: dict = {}
        for perm in permutations(range(5)):
            field = flat_field(1, 5, [float(x) for x in perm])
            by_census.setdefault(_census_key(field), set()).add(_diagram_key(field))
        split = {census for census, diagrams in by_census.items() if len(diagrams) > 1}
        assert split, "no witness pair among 1x5 permutations"
        a, b = locality_gap_witness
        assert _census_key(a) == _census_key(b)
        assert _census_key(a) in split
        assert _diagram_key(a) != _diagram_key(b)
        assert {_diagram_key(a), _diagram_key(b)} <= by_census[_census_key(a)]

    def test_witness_fields_pass_oracle_equivalence(self, locality_gap_witness):
        for field in locality_gap_witness:
            filt = build_filtration(field)
            diagram = compute_persistence(filt)
            for a in np.unique(filt.values):
                assert betti_curve(diagram, float(a)) == betti_oracle(filt, float(a))


def test_census_csv(tmp_path, ring_field):
    census = detect_critical(ring_field)
    path = tmp_path / "census.csv"
    write_census_csv(census, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value,index,multiplicity"
    assert len(lines) == 1 + len(census.events)
    assert lines[1:] == ["0,0,1,0,1", "1,0,8,1,1", "1,1,10,2,1"]


def test_detect_critical_linear_scaling():
    """Local detection is O(vertices): time per vertex stays flat."""
    import time

    rng = np.random.default_rng(24)
    small = ScalarField(64, 64, rng.standard_normal((64, 64)))
    big = ScalarField(256, 256, rng.standard_normal((256, 256)))

    def best_of_three(field):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            detect_critical(field)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = best_of_three(small)
    t_big = best_of_three(big)
    vertex_ratio = (256 * 256) / (64 * 64)  # 16x
    # generous slack over linear; fails only on clearly superlinear behavior
    assert t_big < t_small * vertex_ratio * 8
