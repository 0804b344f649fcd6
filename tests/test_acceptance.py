"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any failure is a red build.
"""

import hashlib
import time
from itertools import permutations
from pathlib import Path

import numpy as np

from fieldscape.classify import LabeledSet, evaluate, train_calibrated
from fieldscape.cli import main
from fieldscape.config import build_config
from fieldscape.critical import critical_values_from_diagram, detect_critical, locality_gap_demo
from fieldscape.cubical import ScalarField, build_filtration, make_generic
from fieldscape.grf import (
    MaternParams,
    ModelSpec,
    bessel_k,
    covariance_matrix,
    sample_field_cholesky,
    sample_field_circulant,
    sample_model,
    substream,
)
from fieldscape.harness import diagram_of_field, read_report_csv, run_experiment
from fieldscape.landscape import (
    SampleGrid,
    default_grid,
    read_vector_csv,
    vectorize,
    vectorize_bars,
    write_vector_csv,
)
from fieldscape.persistence import betti_curve, betti_oracle, compute_persistence

from test_grf import kv_quadrature

# pinned from the pilot run (identity transform, eta 5 vs 10, 32x32,
# 100+100 samples, seed 20250809 gave 99.5): the target threshold
PILOT_ACCURACY_THRESHOLD = 95.0
# headroom for criterion (c); the pilot report satisfies cal <= acc outright
CAL_NOISE_MARGIN = 2.0


def _ok(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def _random_field(rng, max_rows, max_cols) -> ScalarField:
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    return ScalarField(rows, cols, rng.standard_normal((rows, cols)))


def test_oracle_equivalence_500_fields():
    """Diagram inversion equals union-find brute force at every cell value."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(500):
        filt = build_filtration(make_generic(_random_field(rng, 6, 6)))
        diagram = compute_persistence(filt)
        for a in np.unique(filt.values):
            assert betti_curve(diagram, float(a)) == betti_oracle(filt, float(a))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    _ok(f"oracle equivalence (500 fields <= 6x6, exact, {elapsed:.1f}s < 30s)")


def test_census_agreement_500_fields():
    """detect_critical equals the diagram-derived census, exactly."""
    rng = np.random.default_rng(1002)
    for _ in range(500):
        field = make_generic(_random_field(rng, 8, 8))
        census = detect_critical(field)
        derived = critical_values_from_diagram(compute_persistence(build_filtration(field)))
        assert census == derived
    _ok("census agreement (500 generic fields <= 8x8, exact)")


def test_locality_gap_witness():
    """Equal censuses, unequal diagrams; verified by exhaustive 1x5 search."""
    a, b = locality_gap_demo()
    census_a = detect_critical(a)
    census_b = detect_critical(b)
    diag_a = compute_persistence(build_filtration(a))
    diag_b = compute_persistence(build_filtration(b))
    key_a = {(p.degree, p.birth, p.death) for p in diag_a.pairs}
    key_b = {(p.degree, p.birth, p.death) for p in diag_b.pairs}
    assert census_a == census_b
    assert key_a != key_b

    found = False
    seen: dict = {}
    for perm in permutations(range(5)):
        field = ScalarField.from_flat(1, 5, [float(x) for x in perm])
        census = frozenset(detect_critical(field).value_index_multiset().items())
        diagram = frozenset(
            (p.degree, p.birth, p.death)
            for p in compute_persistence(build_filtration(field)).pairs
        )
        seen.setdefault(census, set()).add(diagram)
        if len(seen[census]) > 1:
            found = True
    assert found, "exhaustive search found no witness"
    assert {frozenset(key_a), frozenset(key_b)} <= {
        frozenset(d) for d in seen[frozenset(census_a.value_index_multiset().items())]
    }
    _ok("locality-gap witness (embedded pair confirmed by exhaustive search)")


def test_landscape_laws_1000_diagrams():
    """Level dominance, 1-Lipschitz bound, and exact agreement with the tent-sort oracle."""
    rng = np.random.default_rng(1003)
    grid = SampleGrid.uniform(-2.0, 5.0, 25)
    dt = float(grid.ts[1] - grid.ts[0])
    depth = 12
    for _ in range(1000):
        n_bars = int(rng.integers(0, 11))
        bars = []
        for _ in range(n_bars):
            b = float(rng.uniform(-2, 3))
            bars.append((b, b + float(rng.uniform(1e-3, 2.0))))
        vec = vectorize_bars(bars, [], grid, depth)
        assert np.all(vec.entries >= 0)
        for k in range(1, depth):
            upper, lower = vec.level(0, k), vec.level(0, k + 1)
            assert np.all(upper >= lower)
            assert np.max(np.abs(np.diff(upper)), initial=0.0) <= dt + 1e-12
        for k in (1, 2, depth):
            for t in grid.ts[:: 5]:
                tents = sorted(
                    (max(0.0, min(float(t) - b, d - float(t))) for b, d in bars), reverse=True
                )
                oracle = tents[k - 1] if k <= len(tents) else 0.0
                assert vec.level(0, k)[int(np.where(grid.ts == t)[0][0])] == oracle
    _ok("landscape laws (1000 diagrams: dominance, Lipschitz, oracle-exact)")


def test_vector_shape_and_sparse_round_trip(tmp_path):
    """Vector length is 2(N+1)K; the sparse vector file round-trips exactly."""
    rng = np.random.default_rng(1004)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 9))
        grid = SampleGrid.uniform(0.0, float(rng.uniform(0.5, 4.0)), n)
        bars = [(b, b + float(rng.uniform(0.01, 1.0))) for b in rng.uniform(0, 2, rng.integers(0, 8))]
        vec = vectorize_bars(bars, bars[::-1], grid, k)
        assert len(vec.entries) == 2 * (n + 1) * k
        write_vector_csv(vec, tmp_path / "vec.csv")
        assert read_vector_csv(tmp_path / "vec.csv") == vec
    _ok("vector shape 2(N+1)K and exact sparse round trip (N <= 50, K <= 8)")


def test_matern_sampler_fidelity():
    """Cholesky matches the analytic covariance; circulant matches Cholesky."""
    start = time.perf_counter()
    p = MaternParams(eta=5, nu=1, sigma2=1.0)

    cov4 = covariance_matrix(p, 4, 4)
    rng = substream(1005)
    draws = np.stack(
        [sample_field_cholesky(p, 4, 4, rng).values.ravel() for _ in range(10_000)]
    )
    emp = draws.T @ draws / len(draws)
    se = np.sqrt((np.outer(np.diag(cov4), np.diag(cov4)) + cov4**2) / len(draws))
    worst4 = float(np.max(np.abs(emp - cov4) / se))
    assert worst4 < 5.0, f"cholesky vs analytic: {worst4:.2f} se"

    n = 4000
    chol = np.stack([sample_field_cholesky(p, 8, 8, substream(1006, i)).values.ravel() for i in range(n)])
    circ = np.stack([sample_field_circulant(p, 8, 8, substream(1007, i)).values.ravel() for i in range(n)])
    cov8 = covariance_matrix(p, 8, 8)
    emp_c = chol.T @ chol / n
    emp_f = circ.T @ circ / n
    se2 = np.sqrt(2.0 * (np.outer(np.diag(cov8), np.diag(cov8)) + cov8**2) / n)
    worst8 = float(np.max(np.abs(emp_c - emp_f) / se2))
    assert worst8 < 5.0, f"circulant vs cholesky: {worst8:.2f} se"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"sampler fidelity took {elapsed:.1f}s"
    _ok(
        f"matern sampler fidelity (10k chol {worst4:.2f}se, cross {worst8:.2f}se, "
        f"{elapsed:.0f}s < 2min)"
    )


def test_bessel_accuracy():
    """Quadrature oracle to 1e-10 relative on a log grid; K_2 recurrence to 1e-10."""
    xs = np.logspace(np.log10(0.01), np.log10(20.0), 25)
    worst = 0.0
    for nu in (1.0, 2.0):
        for x in xs:
            oracle = kv_quadrature(nu, float(x))
            rel = abs(bessel_k(nu, float(x)) - oracle) / abs(oracle)
            worst = max(worst, rel)
            assert rel <= 1e-10
    for x in xs:
        lhs = bessel_k(2, float(x))
        rhs = bessel_k(0, float(x)) + (2.0 / x) * bessel_k(1, float(x))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    _ok(f"bessel accuracy (worst rel err {worst:.1e} <= 1e-10, recurrence holds)")


def _classification_run(spec_a, spec_b, n_train, n_test, rows, cols, seed,
                        bins=100, depth=10, cost=1.0):
    def draws(spec, class_key):
        train = [
            diagram_of_field(sample_model(spec, rows, cols, substream(seed, class_key, 0, i)))
            for i in range(n_train)
        ]
        test = [
            diagram_of_field(sample_model(spec, rows, cols, substream(seed, class_key, 1, i)))
            for i in range(n_test)
        ]
        return train, test

    tr_a, te_a = draws(spec_a, 0)
    tr_b, te_b = draws(spec_b, 1)
    grid = default_grid(tr_a + tr_b, bins)
    train = LabeledSet.from_vectors(
        [vectorize(d, grid, depth) for d in tr_a] + [vectorize(d, grid, depth) for d in tr_b],
        [1.0] * n_train + [-1.0] * n_train,
    )
    test = LabeledSet.from_vectors(
        [vectorize(d, grid, depth) for d in te_a] + [vectorize(d, grid, depth) for d in te_b],
        [1.0] * n_test + [-1.0] * n_test,
    )
    return evaluate(train_calibrated(train, C=cost), test)


def test_classification_self_comparison_is_null():
    """(a) same-distribution classes: mean accuracy within 50 +- 5 over 5 seeds."""
    params = MaternParams(eta=5, nu=1)
    accs = []
    for s in range(5):
        report = _classification_run(
            ModelSpec("A", "identity", params),
            ModelSpec("B", "identity", params),
            n_train=50, n_test=100, rows=16, cols=16, seed=1000 + s,
        )
        accs.append(report.accuracy)
    mean_acc = float(np.mean(accs))
    assert 45.0 <= mean_acc <= 55.0, f"self-comparison mean accuracy {mean_acc:.1f}"
    _ok(f"self-comparison null (mean accuracy {mean_acc:.1f} in 50 +- 5 over 5 seeds)")


def test_classification_separates_matern_ranges():
    """(b) identity fields, eta 5 vs 10, desk scale: accuracy over the pinned threshold."""
    report = _classification_run(
        ModelSpec("A", "identity", MaternParams(eta=5, nu=1)),
        ModelSpec("B", "identity", MaternParams(eta=10, nu=1)),
        n_train=100, n_test=100, rows=32, cols=32, seed=20250809,
    )
    assert report.accuracy >= PILOT_ACCURACY_THRESHOLD, f"accuracy {report.accuracy:.1f}"
    _ok(
        f"matern-range separation (accuracy {report.accuracy:.1f} >= "
        f"{PILOT_ACCURACY_THRESHOLD} at desk scale)"
    )


def test_calibration_below_accuracy_across_report(tmp_path):
    """(c) the desk-scale report never shows calibration above accuracy + noise."""
    cfg = build_config(dict(seed=20250809, out=str(tmp_path / "desk"), threads=2))
    report_path = run_experiment(cfg)
    rows = read_report_csv(report_path)
    assert len(rows) == 9
    for row in rows:
        acc, cal = float(row["accuracy"]), float(row["calibration"])
        assert cal <= acc + CAL_NOISE_MARGIN, f"{row['comparison']}: cal {cal} vs acc {acc}"
    worst = max(float(r["calibration"]) - float(r["accuracy"]) for r in rows)
    _ok(f"calibration <= accuracy across the report (worst margin {worst:+.1f} pts)")


def test_end_to_end_determinism(tmp_path):
    """Two experiment runs, different thread counts: byte-identical outputs."""
    args = [
        "experiment", "--seed", "77", "--grid", "8x8", "--samples", "6",
        "--bins", "16", "--depth", "3", "--models", "M1:identity,M2:square",
        "--matern", "5:1",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "3"]) == 0

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    assert digest(out1 / "report.csv") == digest(out2 / "report.csv")
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*.csv"))
    assert files1 == files2
    for rel in files1:
        assert digest(out1 / rel) == digest(out2 / rel), rel
    _ok("end-to-end determinism (byte-identical reports across runs and threads)")
