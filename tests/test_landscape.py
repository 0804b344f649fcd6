import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape.cubical import ScalarField, build_filtration
from fieldscape import landscape
from fieldscape.landscape import (
    LandscapeVector,
    SampleGrid,
    average,
    default_grid,
    difference,
    eval_landscape,
    max_depth,
    read_vector_csv,
    vectorize,
    vectorize_bars,
    write_vector_csv,
)
from fieldscape.persistence import compute_persistence


def brute_force_level(bars, k, t):
    """Materialize every tent value and sort; the independent oracle."""
    tents = sorted((max(0.0, min(t - b, d - t)) for b, d in bars), reverse=True)
    return tents[k - 1] if k <= len(tents) else 0.0


def random_bars(rng, max_bars=10):
    n = int(rng.integers(0, max_bars + 1))
    bars = []
    for _ in range(n):
        b = float(rng.uniform(-2, 2))
        bars.append((b, b + float(rng.uniform(1e-3, 3))))
    return bars


class TestEvalLandscape:
    def test_tent_peak_at_midpoint(self):
        assert eval_landscape([(1.0, 5.0)], 1, 3.0) == 2.0

    def test_zero_at_endpoint_and_beyond_depth(self):
        assert eval_landscape([(1.0, 5.0)], 1, 5.0) == 0.0
        assert eval_landscape([(1.0, 5.0)], 2, 3.0) == 0.0

    def test_second_level_of_nested_bars(self):
        assert eval_landscape([(1.0, 5.0), (2.0, 4.0)], 2, 3.0) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            bars = random_bars(rng)
            k = int(rng.integers(1, 12))
            t = float(rng.uniform(-3, 6))
            assert eval_landscape(bars, k, t) == brute_force_level(bars, k, t)


class TestVectorize:
    def test_single_bar_layout(self):
        grid = SampleGrid(np.array([0.0, 1.0, 2.0]))
        vec = vectorize_bars([(0.0, 2.0)], [], grid, 1)
        assert vec.entries.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_empty_diagram_is_zero(self):
        grid = SampleGrid.uniform(0.0, 1.0, 4)
        vec = vectorize_bars([], [], grid, 3)
        assert vec.entries.shape == (2 * 5 * 3,)
        assert not vec.entries.any()

    def test_length_formula(self):
        grid = SampleGrid.uniform(0.0, 1.0, 2)  # N = 2
        vec = vectorize_bars([(0.0, 1.0)], [], grid, 2)  # K = 2
        assert len(vec.entries) == 12

    def test_level_blocks_match_eval(self):
        rng = np.random.default_rng(32)
        grid = SampleGrid.uniform(-1.0, 4.0, 17)
        bars0, bars1 = random_bars(rng), random_bars(rng)
        vec = vectorize_bars(bars0, bars1, grid, 5)
        for deg, bars in ((0, bars0), (1, bars1)):
            for k in range(1, 6):
                expected = [eval_landscape(bars, k, float(t)) for t in grid.ts]
                assert vec.level(deg, k).tolist() == expected

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        grid = SampleGrid.uniform(0.0, 3.0, 10)
        bars = random_bars(rng, 8)
        shuffled = list(bars)
        rng.shuffle(shuffled)
        assert vectorize_bars(bars, [], grid, 4) == vectorize_bars(shuffled, [], grid, 4)

    def test_from_diagram(self, ring_field):
        diagram = compute_persistence(build_filtration(ring_field))
        grid = SampleGrid.uniform(0.0, 11.0, 11)
        vec = vectorize(diagram, grid, 2)
        # single degree-1 bar (8, 10): peak 1 at t=9
        assert vec.level(1, 1)[9] == 1.0
        assert not vec.level(0, 1).any()

    def test_depth_dominance_and_lipschitz(self):
        rng = np.random.default_rng(34)
        grid = SampleGrid.uniform(-2.0, 5.0, 40)
        dt = float(grid.ts[1] - grid.ts[0])
        for _ in range(50):
            vec = vectorize_bars(random_bars(rng), random_bars(rng), grid, 6)
            assert np.all(vec.entries >= 0)
            for deg in (0, 1):
                for k in range(1, 6):
                    upper, lower = vec.level(deg, k), vec.level(deg, k + 1)
                    assert np.all(upper >= lower)
                    assert np.max(np.abs(np.diff(upper))) <= dt + 1e-12

    def test_finite_support(self):
        grid = SampleGrid.uniform(-10.0, 10.0, 20)
        vec = vectorize_bars([(0.0, 2.0)], [(1.0, 1.5)], grid, 2)
        ts = grid.ts
        outside = (ts < 0.0) | (ts > 2.0)
        for deg in (0, 1):
            for k in (1, 2):
                assert not vec.level(deg, k)[outside].any()


class TestMaxDepth:
    def test_basic_overlaps(self):
        assert max_depth([]) == 0
        assert max_depth([(0.0, 2.0)]) == 1
        assert max_depth([(0.0, 2.0), (2.0, 4.0)]) == 1  # touching bars never overlap
        assert max_depth([(0.0, 4.0), (1.0, 3.0), (2.0, 6.0)]) == 3

    def test_levels_beyond_depth_vanish(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            bars = random_bars(rng, 8)
            m = max_depth(bars)
            # the overlap count is constant between endpoints, so midpoints of
            # consecutive endpoints probe every region exactly
            cuts = sorted({x for bar in bars for x in bar})
            probes = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + cuts
            assert not any(eval_landscape(bars, m + 1, t) for t in probes)
            if m > 0:
                assert any(eval_landscape(bars, m, t) > 0 for t in probes)


class TestAverageDifference:
    def grid(self):
        return SampleGrid.uniform(0.0, 1.0, 4)

    def vec(self, fill):
        entries = np.full(2 * 5 * 2, float(fill))
        return LandscapeVector(grid=self.grid(), depth=2, entries=entries)

    def test_average_identity(self):
        v = self.vec(1.5)
        assert average([v]) == v

    def test_average_with_zero_halves(self):
        v, z = self.vec(2.0), self.vec(0.0)
        assert np.allclose(average([v, z]).entries, v.entries / 2)

    def test_streaming_matches_two_pass(self):
        rng = np.random.default_rng(35)
        grid = SampleGrid.uniform(0.0, 2.0, 30)
        vecs = [
            vectorize_bars(random_bars(rng, 6), random_bars(rng, 6), grid, 3)
            for _ in range(1000)
        ]
        streamed = average(vecs).entries
        two_pass = np.sum([v.entries for v in vecs], axis=0) / len(vecs)
        assert np.max(np.abs(streamed - two_pass)) < 1e-12

    def test_mismatched_grid_rejected(self):
        other = LandscapeVector(
            grid=SampleGrid.uniform(0.0, 2.0, 4), depth=2, entries=np.zeros(20)
        )
        with pytest.raises(ValueError):
            average([self.vec(1.0), other])
        with pytest.raises(ValueError):
            difference(self.vec(1.0), other)

    def test_difference_basics(self):
        v = self.vec(1.0)
        assert not difference(v, v).entries.any()
        assert difference(v, self.vec(0.0)) == v
        signed = difference(self.vec(0.0), v)
        assert np.all(signed.entries == -1.0)


class TestSparsify:
    """Vector files list the nonzero entries only, as index,value lines."""

    def test_zero_vector(self, tmp_path):
        v = LandscapeVector(grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.zeros(6))
        write_vector_csv(v, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_text().splitlines()[3:] == []
        assert read_vector_csv(tmp_path / "v.csv") == v

    def test_single_entry(self, tmp_path):
        v = LandscapeVector(
            grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.array([0, 1, 0, 0, 0, 0.0])
        )
        write_vector_csv(v, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_text().splitlines()[3:] == ["1,1"]
        assert read_vector_csv(tmp_path / "v.csv") == v

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_round_trip_exact(self, tmp_path_factory, entries):
        v = LandscapeVector(
            grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.array(entries)
        )
        path = tmp_path_factory.mktemp("sparse") / "v.csv"
        write_vector_csv(v, path)
        assert read_vector_csv(path) == v


class TestDefaultGrid:
    def diagram(self, field_values):
        return compute_persistence(build_filtration(ScalarField.from_flat(1, len(field_values), field_values)))

    def test_single_bar_uniform(self):
        d = self.diagram([-1.0, 2.0, 0.0])  # single bar (0, 2)
        assert [(p.birth, p.death) for p in d.pairs] == [(0.0, 2.0)]
        grid = default_grid([d], 2)
        assert grid.ts.tolist() == [0.0, 1.0, 2.0]

    def test_span_across_diagrams(self):
        d1 = self.diagram([-1.0, 2.0, 0.0])   # bar (0, 2)
        d2 = self.diagram([-2.0, 3.0, -1.0])  # bar (-1, 3)
        grid = default_grid([d1, d2], 4)
        assert grid.ts.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0]

    def test_explicit_bounds(self):
        grid = default_grid([], 4, bounds=(-1.0, 3.0))
        assert grid.ts.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0]

    def test_all_empty_rejected(self):
        xs = np.arange(3, dtype=float)
        empty = compute_persistence(build_filtration(ScalarField(3, 3, xs[:, None] ** 2 + xs[None, :] ** 2)))
        with pytest.raises(ValueError):
            default_grid([empty], 5)


class TestVectorCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        grid = SampleGrid.uniform(-0.75, 2.25, 12)
        vec = vectorize_bars(random_bars(rng), random_bars(rng), grid, 3)
        path = tmp_path / "vec.csv"
        write_vector_csv(vec, path)
        assert read_vector_csv(path) == vec

    def test_header_metadata(self, tmp_path):
        vec = LandscapeVector(grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.zeros(6))
        path = tmp_path / "vec.csv"
        write_vector_csv(vec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,K,t0,tN"
        assert lines[1] == "2,1,0,1"
        assert lines[2] == "index,value"

    def test_dense_export(self, tmp_path):
        vec = LandscapeVector(
            grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.array([0, 1, 0, 0, 2, 0.0])
        )
        path = tmp_path / "vec.csv"
        path.write_text("N,K,t0,tN\n2,1,0,1\nindex,value\n0,0\n1,1\n2,0\n3,0\n4,2\n5,0\n")
        assert read_vector_csv(path) == vec

    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, monkeypatch):
        monkeypatch.setattr(landscape, "MAX_ENTRIES", 4)
        vec = LandscapeVector(grid=SampleGrid.uniform(0, 1, 2), depth=1, entries=np.zeros(6))
        with pytest.raises(ValueError):
            write_vector_csv(vec, tmp_path / "vec.csv")
        assert not (tmp_path / "vec.csv").exists()

    def test_signed_difference_round_trips(self, tmp_path):
        grid = SampleGrid.uniform(0, 1, 2)
        a = LandscapeVector(grid=grid, depth=1, entries=np.array([0, 1, 0, 0, 0, 0.0]))
        b = LandscapeVector(grid=grid, depth=1, entries=np.array([0, 3, 0, 1, 0, 0.0]))
        path = tmp_path / "diff.csv"
        write_vector_csv(difference(a, b), path)
        assert read_vector_csv(path) == difference(a, b)


@settings(max_examples=40, deadline=None)
@given(
    bars=st.lists(
        st.tuples(st.floats(-3, 3), st.floats(0.01, 4)).map(lambda t: (t[0], t[0] + t[1])),
        max_size=10,
    ),
    k=st.integers(1, 12),
    t=st.floats(-5, 8),
)
def test_eval_matches_oracle_property(bars, k, t):
    assert eval_landscape(bars, k, t) == brute_force_level(bars, k, t)
