import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape import grf
from fieldscape.classify import train_calibrated
from fieldscape.cli import _config_from_args, build_parser, main
from fieldscape.config import (
    _COUNT_KEYS,
    DEFAULTS,
    SETTINGS,
    ExperimentConfig,
    build_config,
    load_config,
    parse_flat_config,
)
from fieldscape.critical import critical_values_from_diagram, detect_critical
from fieldscape.cubical import build_filtration, read_field_csv
from fieldscape.errors import ConfigError
from fieldscape.harness import (
    MANIFEST_COLUMNS,
    REFERENCE_REPORT_CELLS,
    _draw,
    _experiment_row,
    _labeled,
    _rows,
    _samples,
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


# a valid non-default value of each text key; a new text key needs one here
NON_DEFAULT_TEXT = {"out": "elsewhere", "models": "A:square", "matern": "4:1", "sampler": "cholesky"}


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

    @pytest.mark.parametrize("key", SETTINGS)
    def test_flag_and_file_agree(self, tmp_path, key):
        """A non-default value set through --key or a config file gives one config, on every command."""
        default = SETTINGS[key].default
        text = isinstance(default, str)
        value = NON_DEFAULT_TEXT[key] if text else default + 1
        path = tmp_path / "c.toml"
        path.write_text(f"seed = 3\n{key} = " + (f'"{value}"' if text else repr(value)) + "\n")
        from_file = load_config(path)
        assert from_file != build_config({"seed": 3})
        for command in ("simulate", "experiment", "pipeline"):
            args = build_parser().parse_args([command, "--seed", "3", f"--{key}", str(value)])
            assert _config_from_args(args) == from_file


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
        row = next(iter(_rows(_samples(cfg)).values()))
        vectors = _experiment_row(cfg, row)
        train_only = [diagram_of_field(_draw(cfg, s)) for s in _samples(cfg)
                      if s.key[0] == 0 and s.split == "train"]
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
EXPERIMENT = ["experiment", "--config", "{src}/c.toml", "--out", "{out}"]
SIMULATE = ["simulate", "--seed", "1", "--models", "M1:identity", "--matern", "4:1", "--out", "{out}"]
CLASSIFY = ["classify", "--train-pos", "{src}/p", "--train-neg", "{src}/n", "--test-pos", "{src}/p",
            "--test-neg", "{src}/n", "--model-out", "{out}/model.txt"]
# three separable vectors per class, enough for the calibration folds
VECTORS = {f"{cls}/{i}.csv": f"N,K,t0,tN\n2,1,0,1\nindex,value\n{index},{i + 1}\n"
           for cls, index in (("p", 1), ("n", 4)) for i in range(3)}
FIELD = "1,3\n0,2,1\n"
PLOT_REPORT = ["plot", "{src}/r.csv", "--out", "{out}"]
REPORT = "comparison,eta,nu,accuracy,calibration\nM1 v M2,{},{},{},90.0\n"
MALFORMED_INPUTS = [
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n-1,5\n"}, LANDSCAPE, "input",
                 id="vector-index-minus-one"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n99,5\n"}, LANDSCAPE, "input",
                 id="vector-index-past-end"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n1,nan\n"}, LANDSCAPE, "input", id="vector-nan-value"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n1,5\n1,7\n"}, LANDSCAPE, "input",
                 id="vector-index-repeated"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n100000000000000000000,5\n"}, LANDSCAPE, "input",
                 id="vector-index-past-int64"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n1000000000,1000,0,1\nindex,value\n"}, LANDSCAPE, "input",
                 id="vector-size-too-large"),
    pytest.param({"v/a.csv": "N,K,t0,tN\nx,1,0,1\nindex,value\n"}, LANDSCAPE, "input", id="vector-meta-not-a-number"),
    pytest.param({"v/a.csv": "N,K,t0,tN\n2,1,0,1\nindex,value\n1.5,5\n"}, LANDSCAPE, "input",
                 id="vector-index-fractional"),
    pytest.param({"d/a.csv": "degree,birth,death\n0,nan,1\n"}, VECTORIZE, "input", id="diagram-nan-birth"),
    pytest.param({"d/a.csv": "degree,birth,death\nx,1,2\n"}, VECTORIZE, "input", id="diagram-degree-not-a-number"),
    pytest.param({"d/a.csv": "degree,birth,death\n0,1\n"}, VECTORIZE, "input", id="diagram-line-short"),
    # an infinite span, or one that overflows, gives numpy warnings inside linspace
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, VECTORIZE[:5] + ["--t0=-inf", "--t1=inf"], "input",
                 id="vectorize-span-infinite", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, VECTORIZE[:5] + ["--t0=-1e308", "--t1=1e308"],
                 "input", id="vectorize-span-overflows", marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param({"d/a.csv": "degree,birth,death\n0,2,1\n"}, VECTORIZE, "input", id="diagram-death-before-birth"),
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream\n4,1,M1,train,0,1:0.0.0.0\n"},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-without-path"),
    # the pipeline would read victim.csv from outside its tree, then overwrite it with a vector file
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/../../victim.csv\n",
                  "run/fields/a.csv": FIELD, "victim.csv": FIELD},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-path-leaves-tree"),
    # the pipeline would take the misspelled split for test data and vectorize it on the training grid
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n4,1,M1,trian,1,1:0.0.0.1,fields/a.csv\n",
                  "run/fields/a.csv": FIELD},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-split-unknown"),
    # a NaN eta never equals itself, so it cannot name a matern row
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream,path\n"
                                      "nan,1,M1,train,0,1:0.0.0.0,fields/a.csv\n",
                  "run/fields/a.csv": FIELD},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-eta-not-finite"),
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream,path\nabc,1,M1,train,0,x,fields/a.csv\n",
                  "run/fields/a.csv": FIELD},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-eta-not-a-number"),
    # the second entry's outputs would overwrite the first's, dropping a sample
    pytest.param({"run/manifest.csv": "eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n4,1,M1,test,0,1:0.0.1.0,fields/a.csv\n",
                  "run/fields/a.csv": FIELD},
                 ["pipeline", "--seed", "1", "--out", "{src}/run"], "input", id="manifest-path-repeated"),
    pytest.param({"empty.csv": ""}, ["plot", "{src}/empty.csv", "--out", "{out}"], "input", id="plot-empty-file"),
    pytest.param({"r.csv": REPORT.format(5, 1, "nan")}, PLOT_REPORT, "input", id="plot-report-accuracy-nan"),
    pytest.param({"r.csv": REPORT.format(5, 1, "1e9")}, PLOT_REPORT, "input", id="plot-report-accuracy-1e9"),
    pytest.param({"r.csv": REPORT.format(5, 1, "-40")}, PLOT_REPORT, "input", id="plot-report-accuracy-negative"),
    pytest.param({"r.csv": REPORT.format(0, 1, 95.0)}, PLOT_REPORT, "input", id="plot-report-eta-zero"),
    pytest.param({"r.csv": REPORT.format("abc", 1, 90)}, PLOT_REPORT, "input", id="plot-report-eta-not-a-number"),
    pytest.param({"r.csv": REPORT.format(5, "inf", 95.0)}, PLOT_REPORT, "input", id="plot-report-nu-inf"),
    pytest.param({}, ["experiment", "--seed", "1", "--grid", "6x6", "--train", "1", "--test", "2",
                      "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", "{out}"], "input",
                 id="experiment-one-training-sample-per-class"),
    pytest.param({rel: text for rel, text in VECTORS.items() if rel not in ("p/1.csv", "p/2.csv")}, CLASSIFY,
                 "input", id="classify-one-positive-against-three-negatives"),
    pytest.param({"c.toml": "seed = 1e400\n"}, EXPERIMENT, "config", id="config-seed-overflows-to-inf"),
    pytest.param({"c.toml": "seed = 1\nrows = inf\n"}, EXPERIMENT, "config", id="config-rows-inf"),
    pytest.param({"c.toml": "seed = 1.7\n"}, EXPERIMENT, "config", id="config-seed-fractional"),
    pytest.param({"c.toml": "seed = 1\ntrain = 2.5\n"}, EXPERIMENT, "config", id="config-train-fractional"),
    pytest.param({"c.toml": "seed = 1\ncost = nan\n"}, EXPERIMENT, "config", id="config-cost-nan"),
    pytest.param({"c.toml": "seed = 1\nsigma2 = inf\n"}, EXPERIMENT, "config", id="config-sigma2-inf"),
    pytest.param({"c.toml": "seed = 1\nspacing = 1" + "0" * 400 + "\n"}, EXPERIMENT, "config",
                 id="config-spacing-past-float"),
    pytest.param({"c.toml": 'seed = 1\nmatern = "4:inf"\n'}, EXPERIMENT, "config", id="config-matern-nu-inf"),
    # both rows would write the same field files
    pytest.param({}, SIMULATE + ["--grid", "4x4", "--samples", "1", "--matern", "4:1,4.0:1"], "config",
                 id="flag-matern-repeated"),
    pytest.param({}, SIMULATE + ["--grid", "4x4", "--samples", "1", "--matern", "4:1,4.0000001:1"], "config",
                 id="flag-matern-rows-print-alike"),
    pytest.param({}, SIMULATE + ["--grid", "4x4", "--samples", "0"], "config", id="flag-samples-zero"),
    pytest.param({}, SIMULATE + ["--grid", "", "--samples", "1"], "config", id="flag-grid-empty"),
    pytest.param({}, SIMULATE + ["--grid", "4x4", "--sampler", "bogus"], "config", id="flag-sampler-unknown"),
    pytest.param(VECTORS, CLASSIFY + ["--cost", "nan"], "config", id="flag-cost-nan"),
    pytest.param(VECTORS, CLASSIFY + ["--cost", "inf"], "config", id="flag-cost-inf"),
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, VECTORIZE + ["--bins", "0"], "config",
                 id="flag-bins-zero"),
]


def _run_on_files(tmp_path, files, argv) -> int:
    """Write ``files`` under ``tmp_path/in``, then run the CLI with ``{src}`` and ``{out}`` filled in."""
    src = tmp_path / "in"
    for rel, content in files.items():
        (src / rel).parent.mkdir(parents=True, exist_ok=True)
        (src / rel).write_bytes(content.encode())
    return main([arg.format(src=src, out=tmp_path / "out") for arg in argv])


@pytest.mark.parametrize("files, argv, error", MALFORMED_INPUTS)
def test_malformed_input_exits_2(tmp_path, capsys, files, argv, error):
    """Exit 2 with a one-line error, every input file left as it was."""
    assert _run_on_files(tmp_path, files, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error} error:") and "Traceback" not in err
    assert {rel: (tmp_path / "in" / rel).read_bytes().decode() for rel in files} == files


# the file and the column that the error of each unreadable field names
UNREADABLE_FIELDS = {
    "vector-meta-not-a-number": ("v/a.csv", "N"),
    "vector-index-fractional": ("v/a.csv", "index"),
    "diagram-degree-not-a-number": ("d/a.csv", "degree"),
    "diagram-line-short": ("d/a.csv", "death"),
    "manifest-eta-not-a-number": ("run/manifest.csv", "eta"),
    "plot-report-eta-not-a-number": ("r.csv", "eta"),
}


@pytest.mark.parametrize("files, argv, name, column", [
    pytest.param(*case.values[:2], *UNREADABLE_FIELDS[case.id], id=case.id)
    for case in MALFORMED_INPUTS if case.id in UNREADABLE_FIELDS
])
def test_unreadable_field_names_its_file_and_column(tmp_path, capsys, files, argv, name, column):
    assert _run_on_files(tmp_path, files, argv) == 2
    err = capsys.readouterr().err
    path = str(tmp_path / "in" / name)
    assert path in err
    assert column in err.partition(path)[2]


def test_manifest_rows_group_on_values_not_text(tmp_path):
    """``4`` and ``4.0`` are one matern row, so the test sample is vectorized on the training sample's grid."""
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    (run / "fields" / "a.csv").write_text(FIELD)
    (run / "fields" / "b.csv").write_text("2,2\n0,3\n2,1\n")
    (run / "manifest.csv").write_text("eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n4.0,1,M1,test,0,1:0.0.1.0,fields/b.csv\n")
    assert main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "1", "--out", str(run)]) == 0
    train, test = (read_vector_csv(run / "vectors" / name) for name in ("a.csv", "b.csv"))
    assert test.grid == train.grid


ONE_TRAINING_SAMPLE = ["--seed", "1", "--grid", "8x8", "--train", "1", "--test", "2",
                       "--models", "M1:identity,M2:square", "--matern", "5:1"]


def test_experiment_with_one_training_sample_writes_nothing(tmp_path, capsys):
    """The class-size rule of the calibration runs before any field is drawn or any directory made."""
    out = tmp_path / "out"
    assert main(["experiment", *ONE_TRAINING_SAMPLE, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_one_training_sample_suffices_without_calibration(tmp_path, command):
    assert main([command, *ONE_TRAINING_SAMPLE, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["experiment", "pipeline"])
def test_all_empty_training_diagrams_exit_2_without_naming_bounds(tmp_path, capsys, command):
    """A 1x1 grid has no edges, so every diagram is empty and no grid can be derived."""
    argv = [command, "--seed", "1", "--grid", "1x1", "--samples", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "bounds" not in err


_INT = st.one_of(st.integers(-2, 60), st.integers(), st.just(10**20)).map(str)
_NUM = st.one_of(_INT, st.floats().map(repr), st.sampled_from(["nan", "-inf", "1e308", "-1e308", " 2 ", "1_0"]))


def _row(*fields):
    """One comma-joined line: the given fields three times in four, else a ragged line of numbers and junk."""
    typed = st.tuples(*fields).map(",".join)
    ragged = st.lists(_NUM | st.text(max_size=4), max_size=5).map(",".join)
    return st.one_of(typed, typed, typed, ragged)


@st.composite
def _file_text(draw, command):
    """Arbitrary text, or the command's input layout filled with number-like fields."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    if command == "vectorize":
        lines = ["degree,birth,death", *draw(st.lists(_row(_INT, _NUM, _NUM), max_size=6))]
    elif command == "ph":
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        lines = [draw(_row(st.just(str(rows)), st.just(str(cols)))),
                 *draw(st.lists(_row(*[_NUM] * cols), min_size=rows, max_size=rows + 1))]
    elif command == "plot":
        comparison = st.sampled_from(["M1 v M2", ""]) | st.text(max_size=4)
        lines = [REPORT.splitlines()[0], *draw(st.lists(_row(comparison, _NUM, _NUM, _NUM, _NUM), max_size=4))]
    else:
        size = st.integers(-1, 8).map(str) | _INT
        lines = ["N,K,t0,tN", draw(_row(size, size, _NUM, _NUM)), "index,value",
                 *draw(st.lists(_row(_INT, _NUM), max_size=6))]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@settings(max_examples=500, deadline=None)
@given(data=st.data(), command=st.sampled_from(["vectorize", "landscape", "ph", "plot"]))
def test_reader_fuzz_exits_cleanly(data, command):
    """No diagram, vector, field or report file crashes the CLI: exit 0 or 2, never a traceback."""
    text = data.draw(_file_text(command))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in"
        src.mkdir()
        (src / "a.csv").write_text(text)
        argv = {
            "vectorize": ["vectorize", "--diagrams", str(src), "--out", f"{tmp}/out", "--bins", "4", "--depth", "2"],
            "landscape": ["landscape", "--vectors", str(src), "--out", f"{tmp}/out/avg.csv"],
            "ph": ["ph", "--fields", str(src), "--out", f"{tmp}/out"],
            "plot": ["plot", str(src / "a.csv"), "--out", f"{tmp}/out"],
        }[command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


# field files the fuzzed manifests point at: two readable, one empty diagram, one malformed
FUZZ_FIELDS = {"a.csv": FIELD, "b.csv": "2,2\n0,3\n2,1\n", "c.csv": "1,1\n5\n", "d.csv": "2,2\n1,2\n"}
_FUZZ_PATH = st.one_of(
    st.sampled_from([f"fields/{name}" for name in FUZZ_FIELDS]),
    st.sampled_from(["fields/./a.csv", "fields/none.csv", "fields/../fields/a.csv", "/a.csv", "fields", "a.csv"]),
    st.text(max_size=8),
)


@st.composite
def _manifest_text(draw):
    """Arbitrary text, or the manifest header over entries of few eta/nu values, splits and paths."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    value = st.sampled_from(["4", "4.0", "5"]) | _NUM
    split = st.sampled_from(["train", "train", "test", "trian"])
    entry = _row(value, value, st.sampled_from(["M1", "M2"]), split, _INT, st.just("1:0.0.0.0"), _FUZZ_PATH)
    return draw(st.sampled_from(["\n", "\r\n"])).join([",".join(MANIFEST_COLUMNS), *draw(st.lists(entry, max_size=6))])


@settings(max_examples=200, deadline=None)
@given(text=_manifest_text())
def test_manifest_fuzz_exits_cleanly(text):
    """No manifest crashes the pipeline: exit 0 or 2, never a traceback, every input file left as it was."""
    inputs = {"manifest.csv": text, **{f"fields/{name}": content for name, content in FUZZ_FIELDS.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        for rel, content in inputs.items():
            (run / rel).parent.mkdir(parents=True, exist_ok=True)
            (run / rel).write_bytes(content.encode())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "2", "--out", str(run)])
        assert {rel: (run / rel).read_bytes().decode() for rel in inputs} == inputs
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


_CONFIG_VALUE = st.one_of(
    st.integers(-2, 40).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "2.0", "1_0", '"4:1"', '"4:inf,5:1"', '"M1:identity"', '"x"', "true"]),
    st.text(max_size=6),
)
_CONFIG_LINE = st.tuples(st.sampled_from([*DEFAULTS, "seed", "bogus"]), _CONFIG_VALUE).map(" = ".join)


@st.composite
def _config_text(draw):
    """Arbitrary text, or a valid seed line (half the time) followed by a few key = value lines."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=100))
    lines = ["seed = 7"] if draw(st.booleans()) else []
    lines += draw(st.lists(st.one_of(_CONFIG_LINE, _CONFIG_LINE, _CONFIG_LINE, st.text(max_size=20)), max_size=4))
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(text=_config_text())
def test_config_fuzz_validates_or_exits_2(text):
    """Config text yields a validated config holding the numbers as written, or the CLI exits 2 cleanly."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.toml"
        path.write_text(text)
        try:
            cfg = load_config(path)
        except ConfigError:
            argv = ["experiment", "--config", str(path), "--out", f"{tmp}/out"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert err.getvalue().startswith("config error:") and "Traceback" not in err.getvalue()
            return
    written = parse_flat_config(text)
    for key in ("seed", *_COUNT_KEYS, "cost", "sigma2", "spacing"):
        value = getattr(cfg, key)
        if isinstance(written.get(key), (int, float)):
            assert value == written[key]  # never truncated or rounded
        assert math.isfinite(value) and (value >= 0 if key == "seed" else value > 0)
    assert all(type(getattr(cfg, key)) is int for key in ("seed", *_COUNT_KEYS))
    assert all(math.isfinite(x) and x > 0 for row in cfg.matern for x in row)


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
