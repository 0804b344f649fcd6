import hashlib
from pathlib import Path

import numpy as np
import pytest

from fieldscape import grf
from fieldscape.classify import train_calibrated
from fieldscape.cli import main
from fieldscape.config import ExperimentConfig, build_config, load_config, parse_flat_config
from fieldscape.critical import critical_values_from_diagram, detect_critical
from fieldscape.cubical import build_filtration, read_field_csv
from fieldscape.errors import ConfigError
from fieldscape.harness import (
    REFERENCE_REPORT_CELLS,
    _draw,
    _labeled,
    _row_vectors,
    _sample_jobs,
    compare_models,
    diagram_of_field,
    model_specs,
    read_report_csv,
    run_experiment,
    run_pipeline,
    run_simulate,
    row_label,
)
from fieldscape.landscape import default_grid, read_vector_csv
from fieldscape.persistence import betti_curve, betti_oracle, compute_persistence


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tiny_config(out, **kw) -> ExperimentConfig:
    base = dict(
        seed=404, rows=6, cols=6, train=4, test=3, bins=12, depth=3,
        models="M1:identity,M2:square", matern="4:1", out=str(out),
    )
    base.update(kw)
    return build_config(base)


class TestConfig:
    def test_parse_flat_subset(self):
        text = '\n'.join([
            "# experiment",
            "seed = 12",
            'out = "runs/a"  # trailing comment',
            "cost = 1.5",
        ])
        parsed = parse_flat_config(text)
        assert parsed == {"seed": 12, "out": "runs/a", "cost": 1.5}

    @pytest.mark.parametrize("line", ["train = true", "cost = true", "flag = false"])
    def test_parse_rejects_booleans(self, line):
        with pytest.raises(ConfigError):
            parse_flat_config(line)

    def test_parse_rejects_bare_strings(self):
        with pytest.raises(ConfigError):
            parse_flat_config("out = runs/a")

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"rows": 4})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"seed": 1, "rowz": 4})

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            build_config({"seed": 1, "train": 0})

    def test_model_and_matern_parsing(self):
        cfg = build_config({"seed": 1, "models": "A:identity,B:absolute", "matern": "2:1,3:0.5"})
        assert cfg.models == (("A", "identity"), ("B", "absolute"))
        assert cfg.matern == ((2.0, 1.0), (3.0, 0.5))

    def test_bad_model_entries(self):
        with pytest.raises(ConfigError):
            build_config({"seed": 1, "models": "A:tanh"})
        with pytest.raises(ConfigError):
            build_config({"seed": 1, "models": "A:identity,A:square"})

    def test_defaults_are_desk_scale(self):
        cfg = build_config({"seed": 1})
        assert (cfg.rows, cfg.cols) == (32, 32)
        assert (cfg.train, cfg.test) == (100, 100)
        assert (cfg.bins, cfg.depth) == (100, 10)
        assert cfg.cost == 1.0

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text('seed = 5\nrows = 8\ncols = 8\nmatern = "4:1"\n')
        cfg = load_config(path, {"rows": 16, "out": str(tmp_path / "o")})
        assert cfg.rows == 16 and cfg.cols == 8 and cfg.seed == 5


class TestSimulate:
    def test_manifest_counts_and_rerun_identical(self, tmp_path):
        cfg = tiny_config(tmp_path / "a")
        manifest = run_simulate(cfg)
        lines = Path(manifest).read_text().splitlines()
        n_models, per_model = len(cfg.models), cfg.train + cfg.test
        assert len(lines) == 1 + len(cfg.matern) * n_models * per_model

        cfg2 = tiny_config(tmp_path / "b")
        manifest2 = run_simulate(cfg2)
        a_fields = sorted((tmp_path / "a").rglob("*.csv"))
        b_fields = sorted((tmp_path / "b").rglob("*.csv"))
        assert [p.name for p in a_fields] == [p.name for p in b_fields]
        assert all(sha(x) == sha(y) for x, y in zip(a_fields, b_fields))

    def test_distinct_seeds_differ(self, tmp_path):
        run_simulate(tiny_config(tmp_path / "a"))
        run_simulate(tiny_config(tmp_path / "b", seed=405))
        a = read_field_csv(next((tmp_path / "a" / "fields").rglob("train-0000.csv")))
        b = read_field_csv(next((tmp_path / "b" / "fields").rglob("train-0000.csv")))
        assert a != b

    def test_substreams_distinct_within_run(self, tmp_path):
        run_simulate(tiny_config(tmp_path / "a"))
        fields = [read_field_csv(p) for p in sorted((tmp_path / "a" / "fields").rglob("*.csv"))]
        raveled = {f.values.tobytes() for f in fields}
        assert len(raveled) == len(fields)


class TestPipeline:
    def test_artifacts_and_invariants(self, tmp_path):
        cfg = tiny_config(tmp_path / "p", rows=8, cols=8, train=3, test=2)
        run_pipeline(cfg)
        field_paths = sorted((tmp_path / "p" / "fields").rglob("*.csv"))
        assert field_paths
        for fp in field_paths:
            field = read_field_csv(fp)
            filt = build_filtration(field)
            diagram = compute_persistence(filt)
            for a in np.unique(filt.values):
                assert betti_curve(diagram, float(a)) == betti_oracle(filt, float(a))
            assert detect_critical(field) == critical_values_from_diagram(diagram)

        vec_paths = sorted((tmp_path / "p" / "vectors").rglob("*.csv"))
        assert len(vec_paths) == len(field_paths)
        expected_len = 2 * (cfg.bins + 1) * cfg.depth
        for vp in vec_paths:
            assert len(read_vector_csv(vp).entries) == expected_len

        assert len(sorted((tmp_path / "p" / "diagrams").rglob("*.csv"))) == len(field_paths)
        assert len(sorted((tmp_path / "p" / "censuses").rglob("*.csv"))) == len(field_paths)


class TestExperiment:
    def test_report_shape_and_determinism_across_threads(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "x1", models="M1:identity,M2:square,M3:absolute")
        report1 = run_experiment(cfg1)
        rows = read_report_csv(report1)
        assert len(rows) == len(cfg1.matern) * 3  # three pairwise comparisons
        assert [r["comparison"] for r in rows] == ["M1 v M2", "M1 v M3", "M2 v M3"]

        cfg2 = tiny_config(tmp_path / "x2", models="M1:identity,M2:square,M3:absolute", threads=4)
        report2 = run_experiment(cfg2)
        assert sha(report1) == sha(report2)
        for sub in ("averages", "differences"):
            a = sorted((tmp_path / "x1" / sub).glob("*.csv"))
            b = sorted((tmp_path / "x2" / sub).glob("*.csv"))
            assert [p.name for p in a] == [p.name for p in b] and a
            assert all(sha(x) == sha(y) for x, y in zip(a, b))

    def test_train_test_hygiene(self, tmp_path):
        cfg = tiny_config(tmp_path / "h")
        vectors = _row_vectors(cfg, 0)
        train_only = [diagram_of_field(_draw(cfg, job)) for job in _sample_jobs(cfg)
                      if job[0] == 0 and job[6] == "train"]
        expected_grid = default_grid(train_only, cfg.bins)
        assert sorted(vectors) == [("M1", "test"), ("M1", "train"), ("M2", "test"), ("M2", "train")]
        for vecs in vectors.values():
            for v in vecs:
                assert v.grid == expected_grid
        # calibration parameters depend on the training split only
        result = compare_models(vectors, "M1", "M2", cfg.cost)
        train = _labeled(vectors["M1", "train"], vectors["M2", "train"])
        refit = train_calibrated(train, C=cfg.cost)
        assert refit.platt is not None
        again = compare_models(vectors, "M1", "M2", cfg.cost)
        assert (result.accuracy, result.calibration) == (again.accuracy, again.calibration)

    def test_reference_cells_documented(self):
        # layout constants for the report format; not a reproduction target
        assert REFERENCE_REPORT_CELLS[(5.0, 1.0)]["M1 v M2"] == (100.0, 97.4)
        assert REFERENCE_REPORT_CELLS[(10.0, 1.0)]["M1 v M3"] == (83.1, 73.3)
        for cells in REFERENCE_REPORT_CELLS.values():
            for acc, cal in cells.values():
                assert cal <= acc

    def test_row_label_stable(self):
        assert row_label(5.0, 1.0) == "eta5-nu1"
        assert row_label(2.5, 0.5) == "eta2.5-nu0.5"

    def test_model_specs_carry_row_params(self):
        cfg = tiny_config("unused", models="M1:identity,M2:square")
        specs = model_specs(cfg, 7.0, 2.0)
        assert [s.name for s in specs] == ["M1", "M2"]
        assert all(s.matern.eta == 7.0 and s.matern.nu == 2.0 for s in specs)


def tree_digest(root) -> str:
    """One SHA-256 over every (relative path, file content) pair under root."""
    total = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        total.update(path.relative_to(root).as_posix().encode() + b"\0")
        total.update(hashlib.sha256(path.read_bytes()).digest())
    return total.hexdigest()


# Digests of the output trees of tiny_config.  Any change to a written byte
# (formats, line ends, numerics, the file set) fails here; record new digests
# only together with an intended change of the outputs.
@pytest.mark.parametrize("run, digest", [
    (run_experiment, "48bc8b4aa16eaa8c1f0673fcdf856d4220901bcde2cd5130e60c7cb32c4ece72"),
    (run_pipeline, "7440b87860842e93ac26ed66adfabc6a9f9333522a27471cee62c53f346ac8d7"),
], ids=["run_experiment", "run_pipeline"])
def test_golden_output_digest(tmp_path, run, digest):
    run(tiny_config(tmp_path / "out"))
    assert tree_digest(tmp_path / "out") == digest


LANDSCAPE = ["landscape", "--vectors", "{src}/v", "--out", "{out}/avg.csv"]
VECTORIZE = ["vectorize", "--diagrams", "{src}/d", "--out", "{out}", "--t0", "0", "--t1", "3"]
MALFORMED_INPUTS = [
    pytest.param("v/a.csv", "N,K,t0,tN\n2,1,0,1\nindex,value\n-1,5\n", LANDSCAPE, id="vector-index-minus-one"),
    pytest.param("v/a.csv", "N,K,t0,tN\n2,1,0,1\nindex,value\n99,5\n", LANDSCAPE, id="vector-index-past-end"),
    pytest.param("v/a.csv", "N,K,t0,tN\n2,1,0,1\nindex,value\n1,nan\n", LANDSCAPE, id="vector-nan-value"),
    pytest.param("d/a.csv", "degree,birth,death\n0,nan,1\n", VECTORIZE, id="diagram-nan-birth"),
    pytest.param("d/a.csv", "degree,birth,death\n0,2,1\n", VECTORIZE, id="diagram-death-before-birth"),
    pytest.param("run/manifest.csv", "eta,nu,model,split,index,substream\n4,1,M1,train,0,1:0.0.0.0\n",
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], id="manifest-without-path"),
    pytest.param("empty.csv", "", ["plot", "{src}/empty.csv", "--out", "{out}"], id="plot-empty-file"),
]


@pytest.mark.parametrize("rel, content, argv", MALFORMED_INPUTS)
def test_malformed_input_exits_2(tmp_path, capsys, rel, content, argv):
    src = tmp_path / "in"
    (src / rel).parent.mkdir(parents=True, exist_ok=True)
    (src / rel).write_text(content)
    assert main([arg.format(src=src, out=tmp_path / "out") for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("input error:", "config error:")) and "Traceback" not in err


def test_failed_fallback_on_large_grid_is_numerical(tmp_path, monkeypatch):
    """A 65x65 grid is past the Cholesky guard: exit 3 when the embedding fails, 2 when asked for."""
    monkeypatch.setattr(grf, "_circulant_eigenvalues", lambda p, rows, cols: -np.ones((rows, cols)))
    argv = ["simulate", "--seed", "1", "--grid", "65x65", "--samples", "1",
            "--models", "M1:identity", "--matern", "4:1"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 3
    assert main(argv + ["--sampler", "cholesky", "--out", str(tmp_path / "b")]) == 2


class TestCli:
    def test_experiment_and_plot_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "experiment", "--seed", "11", "--grid", "6x6", "--samples", "3",
            "--bins", "10", "--depth", "2", "--models", "M1:identity,M2:square",
            "--matern", "4:1", "--out", str(out),
        ])
        assert code == 0
        report = out / "report.csv"
        assert report.exists()

        plots = tmp_path / "plots"
        inputs = [str(report)] + [str(p) for p in sorted((out / "averages").glob("*.csv"))]
        assert main(["plot", *inputs, "--out", str(plots)]) == 0
        svgs = sorted(plots.glob("*.svg"))
        assert len(svgs) == len(inputs)

        # byte-identical rendering
        plots2 = tmp_path / "plots2"
        assert main(["plot", *inputs, "--out", str(plots2)]) == 0
        for a, b in zip(svgs, sorted(plots2.glob("*.svg"))):
            assert sha(a) == sha(b)

    def test_stagewise_commands(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--seed", "12", "--grid", "6x6", "--samples", "2",
            "--models", "M1:identity", "--matern", "4:1", "--out", str(out),
        ]) == 0
        fields = out / "fields" / "eta4-nu1" / "M1"
        diagrams = tmp_path / "diagrams"
        assert main(["ph", "--fields", str(fields), "--out", str(diagrams)]) == 0
        assert len(list(diagrams.glob("*.csv"))) == 4

        vectors = tmp_path / "vectors"
        assert main([
            "vectorize", "--diagrams", str(diagrams), "--out", str(vectors),
            "--bins", "8", "--depth", "2",
        ]) == 0
        vec = read_vector_csv(next(iter(sorted(vectors.glob("*.csv")))))
        assert len(vec.entries) == 2 * 9 * 2

        avg = tmp_path / "avg.csv"
        assert main(["landscape", "--vectors", str(vectors), "--out", str(avg)]) == 0
        assert read_vector_csv(avg).depth == 2

        diff = tmp_path / "diff.csv"
        assert main([
            "landscape", "--vectors", str(vectors), "--diff", str(vectors), "--out", str(diff),
        ]) == 0
        assert not read_vector_csv(diff).entries.any()

    def test_classify_command(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--seed", "13", "--grid", "6x6", "--train", "4", "--test", "2",
            "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", str(out),
        ]) == 0
        assert main(["pipeline", "--seed", "13", "--grid", "6x6", "--train", "4", "--test", "2",
                     "--models", "M1:identity,M2:square", "--matern", "4:1",
                     "--bins", "10", "--depth", "2", "--out", str(out)]) == 0
        root = out / "vectors" / "eta4-nu1"
        model_path = tmp_path / "model.txt"
        code = main([
            "classify",
            "--train-pos", str(root / "M1"), "--train-neg", str(root / "M2"),
            "--test-pos", str(root / "M1"), "--test-neg", str(root / "M2"),
            "--model-out", str(model_path),
        ])
        assert code == 0
        assert model_path.exists()

    def test_config_error_exit_code(self, tmp_path):
        assert main(["experiment", "--out", str(tmp_path)]) == 2  # missing seed
        bad = tmp_path / "bad.toml"
        bad.write_text("seed = notanumber\n")
        assert main(["experiment", "--config", str(bad)]) == 2
        assert main(["ph", "--fields", str(tmp_path / "nowhere"), "--out", str(tmp_path)]) == 2

    def test_zero_vector_plot(self, tmp_path):
        from fieldscape.landscape import LandscapeVector, SampleGrid, write_vector_csv

        vec = LandscapeVector(grid=SampleGrid.uniform(0, 1, 4), depth=2, entries=np.zeros(20))
        src = tmp_path / "zero.csv"
        write_vector_csv(vec, src)
        assert main(["plot", str(src), "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "zero.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
