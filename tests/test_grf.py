import hashlib
import warnings

import numpy as np
import pytest
from scipy import integrate

from fieldscape import grf
from fieldscape.cubical import ScalarField
from fieldscape.errors import ConfigError
from fieldscape.grf import (
    CHOLESKY_VERTEX_GUARD,
    MaternParams,
    ModelSpec,
    covariance_matrix,
    field_law,
    matern_coefficient,
    matern_cov,
    sample_model,
    substream,
)
from oracles import circulant_eigenvalues_reference

# pinned from the integral-representation quadrature oracle:
# sqrt(2) * K_1(sqrt(2)), the covariance at one range length for nu=1
MATERN_AT_RANGE = 0.4443425236322361
K1_AT_ONE = 0.6019072301972345


def kv_quadrature(nu: float, x: float) -> float:
    """Independent oracle: integral representation of K_nu by adaptive quadrature."""

    def integrand(t):
        c = np.cosh(t)
        return 0.5 * (np.exp(nu * t - x * c) + np.exp(-nu * t - x * c))

    hi = float(np.arccosh(max(2.0, 800.0 / x))) + 5.0
    with warnings.catch_warnings():
        # requesting near-machine precision trips quad's roundoff heuristic;
        # accuracy is still far beyond the 1e-10 this oracle certifies
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, 0.0, hi, epsabs=1e-300, epsrel=5e-15, limit=800)
    return val


def matern_oracle(d: float, p: MaternParams) -> float:
    """The Matern covariance at d > 0 with K_nu from the quadrature oracle."""
    s = np.sqrt(2.0 * p.nu) * d / p.eta
    return matern_coefficient(p.nu) * s**p.nu * kv_quadrature(p.nu, s)


class TestBesselK:
    """K_nu where the program evaluates it: inside ``matern_cov``."""

    def test_pinned_quadrature_value(self):
        # eta = sqrt(2) puts d = 1 at s = sqrt(2) * 1 / sqrt(2) = 1 exactly, where C = K_1(1)
        assert abs(matern_cov(1.0, MaternParams(eta=np.sqrt(2.0), nu=1)) - K1_AT_ONE) < 1e-13
        assert abs(kv_quadrature(1, 1.0) - K1_AT_ONE) < 1e-13

    def test_matches_quadrature_oracle_spot_checks(self):
        for nu in (1.0, 2.0):
            p = MaternParams(eta=5, nu=nu)
            for s in (0.01, 0.4, 3.0, 20.0):
                d = s * p.eta / np.sqrt(2.0 * nu)
                oracle = matern_oracle(d, p)
                assert abs(matern_cov(d, p) - oracle) <= 1e-10 * abs(oracle)


class TestMaternCov:
    def test_zero_distance_is_variance(self):
        p = MaternParams(eta=5, nu=1)
        assert matern_cov(0.0, p) == 1.0

    def test_long_range_tail(self):
        p = MaternParams(eta=5, nu=1)
        assert matern_cov(100 * p.eta, p) < 1e-6

    def test_pinned_value_at_range(self):
        p = MaternParams(eta=5, nu=1)
        assert abs(matern_cov(5.0, p) - MATERN_AT_RANGE) < 1e-13

    def test_monotone_decreasing(self):
        p = MaternParams(eta=5, nu=2)
        ds = np.linspace(0, 60, 400)
        assert np.all(np.diff(matern_cov(ds, p)) <= 0)

    def test_longer_range_decays_slower(self):
        p5 = MaternParams(eta=5, nu=1)
        p10 = MaternParams(eta=10, nu=1)
        ds = np.linspace(0.1, 80, 200)
        assert np.all(matern_cov(ds, p10) >= matern_cov(ds, p5))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MaternParams(eta=0, nu=1)
        with pytest.raises(ValueError):
            MaternParams(eta=5, nu=-1)
        with pytest.raises(ValueError):
            matern_cov(-1.0, MaternParams(eta=5, nu=1))

    @pytest.mark.parametrize("eta,nu,far", [(1.0, 100.0, 100.0), (2.0, 150.0, 20.0)])
    def test_large_smoothness_tail_reaches_zero(self, eta, nu, far):
        """At large nu, s**nu overflows where K_nu underflows: the covariance there is 0, not 1."""
        p = MaternParams(eta=eta, nu=nu)
        ds = np.linspace(0, 400, 4001)
        cov = matern_cov(ds, p)
        assert cov[0] == 1.0 and np.all(np.diff(cov) <= 0)
        assert cov[-1] == 0.0 and matern_cov(far, p) == 0.0

    def test_smoothness_150_keeps_its_covariance(self):
        cov = matern_cov([0.5, 1.0], MaternParams(eta=1.0, nu=150.0))
        np.testing.assert_allclose(cov, [0.8818039831102182, 0.6050140378355172], rtol=1e-12)

    @pytest.mark.parametrize("nu", [152.0, 155.0, 160.0, 200.0, 1e-320])
    def test_smoothness_without_a_normal_constant_rejected(self, nu):
        """A subnormal or zero 2**(1-nu)/Gamma(nu) would make the covariance 0 away from the origin."""
        with pytest.raises(ValueError, match="not a normal float"):
            MaternParams(eta=1.0, nu=nu)

    @pytest.mark.parametrize("name", ["eta", "nu"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_params_rejected(self, name, value):
        """An infinite range or smoothness would give constant fields."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MaternParams(**{"eta": 4.0, "nu": 1.0, name: value})


class TestCovarianceMatrix:
    @pytest.mark.parametrize("eta,nu", [(5.0, 1.0), (1.0, 0.5), (2.0, 150.0)])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 7), (7, 1), (5, 9), (33, 20), (64, 64)])
    def test_is_matern_of_pairwise_distances(self, rows, cols, eta, nu):
        """Bit for bit, ``matern_cov`` of the Euclidean distance between each pair of row-major vertices.

        Squared distances between integer coordinates are exact integers and ``matern_cov`` acts
        elementwise, so the oracle evaluates it once at the root of each integer up to the largest squared
        distance and compares 512 vertices at a time: a 64 x 64 grid has 16.8 million vertex pairs.
        """
        p = MaternParams(eta, nu)
        cov = covariance_matrix(p, rows, cols)
        assert cov.shape == (rows * cols, rows * cols)
        rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        coords = np.column_stack([rr.ravel(), cc.ravel()]).astype(np.float64)
        by_squared_distance = matern_cov(np.sqrt(np.arange((rows - 1) ** 2 + (cols - 1) ** 2 + 1.0)), p)
        for start in range(0, rows * cols, 512):
            diff = coords[start:start + 512, None, :] - coords[None, :, :]
            squared = np.sum(diff * diff, axis=-1).astype(np.int64)
            assert cov[start:start + 512].tobytes() == by_squared_distance[squared].tobytes()

    @pytest.mark.parametrize("eta,nu", [(5.0, 1.0), (1.0, 0.5), (2.0, 150.0)])
    @pytest.mark.parametrize("rows,cols", [(6, 11), (13, 4)])
    def test_non_square_grid_is_matern_of_each_distance(self, rows, cols, eta, nu):
        """Bit for bit, ``matern_cov`` evaluated directly on the whole matrix of vertex distances, no lag table."""
        p = MaternParams(eta, nu)
        i, j = np.divmod(np.arange(rows * cols), cols)
        distance = np.sqrt((i[:, None] - i) ** 2.0 + (j[:, None] - j) ** 2.0)
        assert covariance_matrix(p, rows, cols).tobytes() == matern_cov(distance, p).tobytes()


class TestCholeskySampler:
    def test_seed_determinism(self):
        p = MaternParams(eta=5, nu=1)
        a = field_law(p, 4, 4, "cholesky").draw(substream(7))
        b = field_law(p, 4, 4, "cholesky").draw(substream(7))
        assert a == b
        assert a != field_law(p, 4, 4, "cholesky").draw(substream(8))

    def test_vertex_guard(self):
        p = MaternParams(eta=5, nu=1)
        with pytest.raises(ValueError):
            field_law(p, 65, 64, "cholesky")
        assert CHOLESKY_VERTEX_GUARD == 4096

    def test_empirical_covariance(self):
        p = MaternParams(eta=3, nu=1)
        cov = covariance_matrix(p, 3, 3)
        law, rng = field_law(p, 3, 3, "cholesky"), substream(99)
        draws = np.stack([law.draw(rng).values.ravel() for _ in range(4000)])
        emp = draws.T @ draws / len(draws)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / len(draws))
        assert np.max(np.abs(emp - cov) / se) < 5.0


class TestCirculantSampler:
    def test_seed_determinism(self):
        p = MaternParams(eta=5, nu=1)
        assert field_law(p, 8, 8).draw(substream(9)) == field_law(p, 8, 8).draw(substream(9))

    def test_zero_mean(self):
        p = MaternParams(eta=4, nu=1)
        law = field_law(p, 4, 4)
        rng = substream(41)
        total = np.zeros((4, 4))
        n = 5000
        for _ in range(n):
            total += law.draw(rng).values
        assert np.max(np.abs(total / n)) < 5.0 / np.sqrt(n)

    def test_stationarity_by_displacement(self):
        # empirical covariance depends only on the displacement vector
        p = MaternParams(eta=3, nu=1)
        law = field_law(p, 4, 4)
        rng = substream(42)
        n = 6000
        draws = np.stack([law.draw(rng).values for _ in range(n)])
        # same displacement (0, 1) at two locations
        c_a = np.mean(draws[:, 0, 0] * draws[:, 0, 1])
        c_b = np.mean(draws[:, 2, 2] * draws[:, 2, 3])
        # and displacement (1, 1)
        c_c = np.mean(draws[:, 0, 0] * draws[:, 1, 1])
        c_d = np.mean(draws[:, 1, 2] * draws[:, 2, 3])
        tol = 5.0 * 2.0 / np.sqrt(n)
        assert abs(c_a - c_b) < tol
        assert abs(c_c - c_d) < tol

    def test_matches_cholesky_distribution(self):
        p = MaternParams(eta=5, nu=1)
        cov = covariance_matrix(p, 5, 5)
        law = field_law(p, 5, 5)
        rng = substream(43)
        n = 4000
        draws = np.stack([law.draw(rng).values.ravel() for _ in range(n)])
        emp = draws.T @ draws / n
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.max(np.abs(emp - cov) / se) < 5.0

    def test_fallback_warns_and_still_samples(self, monkeypatch):
        p = MaternParams(eta=5, nu=1)
        monkeypatch.setattr(grf, "MAX_PAD_FACTOR", 0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            field = field_law(p, 4, 4).draw(substream(11))
        assert field.values.shape == (4, 4)

    def test_runtime_trend_subquadratic(self):
        import time

        p = MaternParams(eta=5, nu=1)

        def best_of_three(rows):
            times = []
            for i in range(3):
                t0 = time.perf_counter()
                field_law(p, rows, rows).draw(substream(1000 + i))
                times.append(time.perf_counter() - t0)
            return min(times)

        field_law(p, 16, 16).draw(substream(0))  # warm caches
        t_small = best_of_three(64)
        t_big = best_of_three(256)
        # vertex count grows 16x; O(n log n) predicts ~21x, quadratic 256x
        assert t_big < t_small * 80


class TestCirculantSpectrum:
    """The torus spectrum reads one quarter-torus lag table, bit for bit the spectrum of every torus lag."""

    @pytest.mark.parametrize("eta,nu", [(5.0, 1.0), (1.0, 0.5), (20.0, 3.0)], ids=["5:1", "1:0.5", "20:3"])
    @pytest.mark.parametrize("rows,cols", [(16, 16), (5, 4), (17, 23), (1, 9)])
    @pytest.mark.parametrize("pad_factor", [1, 2, 4, 8])
    def test_equals_the_full_lag_spectrum(self, pad_factor, rows, cols, eta, nu):
        p, tr, tc = MaternParams(eta, nu), 2 * pad_factor * rows, 2 * pad_factor * cols
        lam = grf._circulant_eigenvalues(p, tr, tc)
        assert lam.shape == (tr, tc)
        assert np.array_equal(lam.view(np.int64), circulant_eigenvalues_reference(p, tr, tc).view(np.int64))

    def test_lag_tables_span_a_quarter_torus(self, monkeypatch):
        """A law build runs ``matern_cov`` once per distinct squared lag a**2 + b**2 of a (tr/2 + 1) x (tc/2 + 1)
        table, for each pad factor tried, at the exact roots of those squares.

        The Cholesky law, also as the fallback past ``MAX_PAD_FACTOR``, runs it on the distinct squares of its
        rows x cols table.
        """
        lags = []

        def recording(d, p):
            lags.append(np.asarray(d).tolist())
            return cov(d, p)

        def tables(p, rows, cols, sampler="circulant"):
            lags.clear()
            field_law(p, rows, cols, sampler)
            return lags

        def roots(rows, cols):
            """The roots of the distinct a**2 + b**2 over a < rows and b < cols, ascending."""
            return np.sqrt(sorted({a * a + b * b for a in range(rows) for b in range(cols)})).tolist()

        cov = grf.matern_cov
        monkeypatch.setattr(grf, "matern_cov", recording)
        assert tables(MaternParams(5, 1), 16, 16) == [roots(17, 17), roots(33, 33)]
        assert tables(MaternParams(1, 1), 16, 16) == [roots(17, 17)]
        assert tables(MaternParams(5, 1), 5, 4, "cholesky") == [roots(5, 4)]
        quarter_tables = [roots(6, 5), roots(11, 9), roots(21, 17), roots(41, 33)]
        assert tables(MaternParams(5, 1), 5, 4) == quarter_tables
        assert [len(t) for t in quarter_tables] == [19, 58, 188, 651]
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert tables(MaternParams(10, 1), 5, 4) == quarter_tables + [roots(5, 4)]


class TestFieldLaw:
    """A law built once draws the same fields, bit for bit, as a law built for each draw.

    The pinned digests are of the fields the samplers drew before they were
    split into a law and a draw.
    """

    @staticmethod
    def _same_draws(law, one_off, pinned):
        keys = [(44, 0), (44, 1), (44, 2), (45,)]
        fields = [law.draw(substream(*key)) for key in keys]
        assert fields == [one_off(substream(*key)) for key in keys]
        assert hashlib.sha256(b"".join(f.values.tobytes() for f in fields)).hexdigest()[:16] == pinned

    @pytest.mark.parametrize("eta,pad_factor,pinned", [
        (1.0, 1, "d124e749a9f3f781"), (5.0, 2, "f020de6806111881"), (10.0, 4, "5667269d25224d11")],
        ids=["pad1", "pad2", "pad4"])
    def test_circulant_at_each_pad_factor(self, eta, pad_factor, pinned):
        p = MaternParams(eta=eta, nu=1)
        law = field_law(p, 16, 16)
        assert law.pad_factor == pad_factor and law.root.shape == (32 * pad_factor, 32 * pad_factor)
        self._same_draws(law, lambda rng: field_law(p, 16, 16).draw(rng), pinned)

    def test_circulant_fallback_warns_once(self, monkeypatch):
        p = MaternParams(eta=5, nu=1)
        monkeypatch.setattr(grf, "MAX_PAD_FACTOR", 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            law = field_law(p, 5, 4)
            for i in range(3):
                law.draw(substream(44, i))
        assert law.pad_factor is None
        assert [w.category for w in caught] == [RuntimeWarning] and "falling back" in str(caught[0].message)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self._same_draws(law, lambda rng: field_law(p, 5, 4).draw(rng), "6d1a5be9e74a1261")
            self._same_draws(law, lambda rng: field_law(p, 5, 4, "cholesky").draw(rng), "6d1a5be9e74a1261")

    @pytest.mark.parametrize("rows,cols", [(16, 16), (5, 4), (17, 23), (1, 9)])
    @pytest.mark.parametrize("pad_factor", [1, 2, 4, 8])
    def test_torus_draw_is_the_full_fft2_cut_to_the_grid(self, pad_factor, rows, cols):
        """``draw`` prunes both passes of ``fft2``, and its field is bitwise the full transform's corner."""
        shape = (2 * pad_factor * rows, 2 * pad_factor * cols)
        root = substream(46, pad_factor, rows, cols).uniform(0.0, 1.0, shape)
        law = grf.FieldLaw(rows, cols, pad_factor, root)
        rng = substream(47, pad_factor)
        eps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.fft.fft2(root * eps).real[:rows, :cols]
        assert np.array_equal(law.draw(substream(47, pad_factor)).values.view(np.int64), full.view(np.int64))

    @pytest.mark.parametrize("rows,cols", [(16, 16), (5, 4), (1, 9)])
    @pytest.mark.parametrize("pad_factor", [1, 2])
    def test_torus_draw_with_clipped_eigenvalues(self, pad_factor, rows, cols):
        """A root with exact zeros, as ``np.maximum(lam, 0.0)`` leaves: the zeros' signs never reach the field."""
        shape = (2 * pad_factor * rows, 2 * pad_factor * cols)
        stream = substream(48, pad_factor, rows, cols)
        root = np.where(stream.random(shape) < 0.4, 0.0, stream.uniform(0.0, 1.0, shape))
        law = grf.FieldLaw(rows, cols, pad_factor, root)
        rng = substream(49, pad_factor)
        eps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.fft.fft2(root * eps).real[:rows, :cols]
        assert np.count_nonzero(root == 0.0) > 0
        assert np.array_equal(law.draw(substream(49, pad_factor)).values.view(np.int64), full.view(np.int64))

    def test_cholesky_sampler(self):
        p = MaternParams(eta=5, nu=2)
        law = field_law(p, 5, 4, "cholesky")
        assert law.pad_factor is None and law.root.shape == (20, 20)
        self._same_draws(law, lambda rng: field_law(p, 5, 4, "cholesky").draw(rng), "5927e98ea771e2e9")

    def test_model_draws_from_a_given_law(self):
        spec = ModelSpec("M2", "square", MaternParams(eta=5, nu=1))
        law = field_law(spec.matern, 6, 6)
        assert sample_model(spec, 6, 6, substream(5), law=law) == sample_model(spec, 6, 6, substream(5))

    def test_root_is_read_only(self):
        law = field_law(MaternParams(eta=5, nu=1), 4, 4)
        with pytest.raises(ValueError):
            law.root[0, 0] = 0.0


class TestSampleModel:
    def test_identity_equals_raw_gaussian(self):
        p = MaternParams(eta=5, nu=1)
        spec = ModelSpec("M1", "identity", p)
        assert sample_model(spec, 6, 6, substream(5)) == field_law(p, 6, 6).draw(substream(5))

    def test_square_nonnegative(self):
        spec = ModelSpec("M2", "square", MaternParams(eta=5, nu=1))
        assert np.all(sample_model(spec, 6, 6, substream(5)).values >= 0)

    def test_absolute_couples_identity(self):
        p = MaternParams(eta=5, nu=1)
        raw = sample_model(ModelSpec("M1", "identity", p), 6, 6, substream(5))
        ab = sample_model(ModelSpec("M3", "absolute", p), 6, 6, substream(5))
        assert np.array_equal(ab.values, np.abs(raw.values))

    def test_unknown_transform(self):
        spec = ModelSpec("bad", "cube", MaternParams(eta=5, nu=1))
        with pytest.raises(ConfigError):
            sample_model(spec, 4, 4, substream(1))

    def test_unknown_sampler(self):
        spec = ModelSpec("M1", "identity", MaternParams(eta=5, nu=1))
        with pytest.raises(ConfigError):
            sample_model(spec, 4, 4, substream(1), sampler="quantum")


class TestSubstream:
    def test_deterministic_and_keyed(self):
        a = substream(7, 1, 2).standard_normal(4)
        b = substream(7, 1, 2).standard_normal(4)
        c = substream(7, 1, 3).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_results_are_scalar_fields(self):
        f = field_law(MaternParams(eta=5, nu=1), 3, 7).draw(substream(1))
        assert isinstance(f, ScalarField)
        assert np.all(np.isfinite(f.values))
