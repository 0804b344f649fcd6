import argparse
import contextlib
import dataclasses
import hashlib
import io
import math
import tempfile
import tomllib
import tracemalloc
import warnings
from functools import partial
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldscape import grf, harness
from fieldscape.classify import train_calibrated
from fieldscape.cli import _config_from_args, build_parser, main
from fieldscape.config import (
    SETTINGS,
    ExperimentConfig,
    build_config,
    load_config,
)
from fieldscape.critical import critical_values_from_diagram, detect_critical
from fieldscape.cubical import ScalarField, build_filtration, read_field_csv, read_records, write_file
from fieldscape.errors import ConfigError, TrainingError
from fieldscape.harness import (
    MANIFEST_COLUMNS,
    _draw,
    _experiment_row,
    _row_law,
    _rows,
    _samples,
    compare_models,
    diagram_of_field,
    labeled_set,
    model_specs,
    read_report_csv,
    run_experiment,
    run_pipeline,
    run_simulate,
    row_label,
    write_outputs,
)
from fieldscape.landscape import LandscapeVector, SampleGrid, default_grid, read_vector_csv, vectorize
from fieldscape.persistence import (
    betti_curve,
    betti_oracle,
    compute_persistence,
    read_diagram_csv,
    write_diagram_csv,
)
from fieldscape.plot import render_report_svg, render_vector_svg

from conftest import flat_field
from test_classify import read_model


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tiny_config(out, **kw) -> ExperimentConfig:
    base = dict(
        seed=404, rows=6, cols=6, train=4, test=3, bins=12, depth=3,
        models="M1:identity,M2:square", matern="4:1", out=str(out),
    )
    base.update(kw)
    return build_config(base)


# a valid non-default value of each text key
NON_DEFAULT_TEXT = {"out": "elsewhere", "models": "A:square", "matern": "4:1", "sampler": "cholesky"}


def config_file(tmp_path, text: str) -> Path:
    path = tmp_path / "c.toml"
    path.write_text(text)
    return path


class TestConfig:
    def test_parse_flat_subset(self, tmp_path):
        text = '\n'.join([
            "# experiment",
            "seed = 12",
            'out = "runs/a"  # trailing comment',
            "cost = 1.5",
        ])
        cfg = load_config(config_file(tmp_path, text))
        assert (cfg.seed, cfg.out, cfg.cost) == (12, Path("runs/a"), 1.5)

    @pytest.mark.parametrize("line", ["train = true", "cost = true", "flag = false"])
    def test_parse_rejects_booleans(self, tmp_path, line):
        with pytest.raises(ConfigError, match="must be an integer, a float or a string"):
            load_config(config_file(tmp_path, f"seed = 1\n{line}\n"))

    def test_parse_rejects_bare_strings(self, tmp_path):
        with pytest.raises(ConfigError, match="is not TOML"):
            load_config(config_file(tmp_path, "seed = 1\nout = runs/a\n"))

    def test_file_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_bytes(b"seed = 1\nout = \"\xff\"\n")
        with pytest.raises(ConfigError, match="is not TOML"):
            load_config(path)

    def test_crlf_ends_a_line_and_a_bare_cr_does_not(self, tmp_path):
        """CRLF ends a line and a bare CR does not: the file is read without newline translation."""
        assert load_config(config_file(tmp_path, "seed = 1\r\nrows = 4\r\n")).rows == 4
        for text in ("seed = 1\r", "seed = 7\n\r"):
            with pytest.raises(ConfigError, match="is not TOML"):
                load_config(config_file(tmp_path, text))

    def test_quoted_key_and_escaped_string_read_as_toml(self, tmp_path):
        cfg = load_config(config_file(tmp_path, 'seed = 1\n"rows" = 4\nout = "a\\"b"\n'))
        assert (cfg.rows, cfg.out) == (4, Path('a"b'))

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

    def test_matern_smoothness_needs_a_normal_constant(self):
        assert build_config({"seed": 1, "matern": "1:150"}).matern == ((1.0, 150.0),)
        with pytest.raises(ConfigError, match="'1:200'.*not a normal float"):
            build_config({"seed": 1, "matern": "5:1,1:200"})

    def test_bad_model_entries(self):
        with pytest.raises(ConfigError):
            build_config({"seed": 1, "models": "A:tanh"})
        with pytest.raises(ConfigError):
            build_config({"seed": 1, "models": "A:identity,A:square"})

    @pytest.mark.parametrize("name", ["", ".", "..", "../../x", "a/b", "a\\b", "M\n1", "M\r1", "M\t1", "M\x001",
                                      "M\u20281"])
    def test_model_name_is_one_path_component(self, name):
        """A model name is a directory of the field tree, part of the average and difference file names,
        and a field of manifest and report lines, which a line break or control character would split."""
        with pytest.raises(ConfigError, match="one plain path component"):
            build_config({"seed": 1, "models": f"{name}:identity,M2:square"})

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

    def test_each_key_declared_once(self):
        """The config fields after ``seed`` are the ``SETTINGS`` keys; the options of every run command are
        ``--config``, ``--seed`` and one ``--key`` per key (``test_flag_and_file_agree`` sets each one); and
        every text key has a non-default value."""
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["seed", *SETTINGS]
        assert set(NON_DEFAULT_TEXT) == {key for key, s in SETTINGS.items() if isinstance(s.default, str)}
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command in ("simulate", "experiment", "pipeline"):
            options = [flag for action in commands[command]._actions for flag in action.option_strings]
            assert sorted(options) == sorted(["-h", "--help", "--config", "--seed", *(f"--{k}" for k in SETTINGS)])

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
        law = _row_law(cfg, row)
        specs = model_specs(cfg, row[0].eta, row[0].nu)
        train_only = [diagram_of_field(_draw(cfg, s, law, specs)) for s in row if s.split == "train"]
        expected_grid = default_grid(train_only, cfg.bins)
        assert sorted(vectors) == [("M1", "test"), ("M1", "train"), ("M2", "test"), ("M2", "train")]
        for vecs in vectors.values():
            for v in vecs:
                assert v.grid == expected_grid
        # calibration parameters depend on the training split only
        result = compare_models(vectors, "M1", "M2", cfg.cost)
        train = labeled_set(vectors["M1", "train"], vectors["M2", "train"])
        refit = train_calibrated(train, C=cfg.cost)
        assert refit.platt is not None
        again = compare_models(vectors, "M1", "M2", cfg.cost)
        assert (result.accuracy, result.calibration) == (again.accuracy, again.calibration)

    def test_traced_peak_stays_below_two_rows_of_vectors(self, tmp_path):
        """Each row's vectors are freed before the next row's are built, and a comparison stacks one set at a time."""
        cfg = tiny_config(tmp_path / "m", rows=8, cols=8, train=20, test=20, bins=100, depth=10,
                          models="M1:identity,M2:square,M3:absolute", matern="2:1,3:1,2:2")
        row_bytes = len(cfg.models) * (cfg.train + cfg.test) * 2 * (cfg.bins + 1) * cfg.depth * 8
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * row_bytes

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
ONE_INTERVAL = "N,K,t0,tN\n1,1,0,1\nindex,value\n{}\n"
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
    # an average or a difference that overflows would write a vector file that the readers reject
    pytest.param({"v/a.csv": ONE_INTERVAL.format("0,1.7e308"), "v/b.csv": ONE_INTERVAL.format("0,-1.7e308")},
                 LANDSCAPE, "input", id="landscape-average-overflows"),
    pytest.param({"v/a.csv": ONE_INTERVAL.format("0,1e308"), "w/a.csv": ONE_INTERVAL.format("0,-1e308")},
                 LANDSCAPE + ["--diff", "{src}/w"], "input", id="landscape-difference-overflows"),
    # a symmetric y-axis past 8.99e307 spans more than a float holds
    pytest.param({"v.csv": ONE_INTERVAL.format("0,1e308\n1,-1e308")}, ["plot", "{src}/v.csv", "--out", "{out}"],
                 "input", id="plot-span-overflows"),
    pytest.param({"a.csv": VECTORS["p/0.csv"], "v.csv": ONE_INTERVAL.format("0,1e308\n1,-1e308")},
                 ["plot", "{src}/a.csv", "{src}/v.csv", "--out", "{out}"], "input", id="plot-second-span-overflows"),
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
    # a stage command reads every input before its first write
    pytest.param({"v.csv": VECTORS["p/0.csv"], "bad.csv": "garbage\n"},
                 ["plot", "{src}/v.csv", "{src}/bad.csv", "--out", "{out}"], "input",
                 id="plot-second-input-unreadable"),
    pytest.param({"f/a.csv": FIELD, "f/b.csv": "junk\n"}, ["ph", "--fields", "{src}/f", "--out", "{out}"], "input",
                 id="ph-second-field-unreadable"),
    pytest.param({"f/a.csv": FIELD, "f/b.csv": "1,3\n0,nan,1\n"}, ["ph", "--fields", "{src}/f", "--out", "{out}"],
                 "input", id="ph-field-not-finite"),
    pytest.param({"r.csv": REPORT.format(5, 1, "nan")}, PLOT_REPORT, "input", id="plot-report-accuracy-nan"),
    pytest.param({"r.csv": REPORT.format(5, 1, "1e9")}, PLOT_REPORT, "input", id="plot-report-accuracy-1e9"),
    pytest.param({"r.csv": REPORT.format(5, 1, "-40")}, PLOT_REPORT, "input", id="plot-report-accuracy-negative"),
    pytest.param({"r.csv": REPORT.format(0, 1, 95.0)}, PLOT_REPORT, "input", id="plot-report-eta-zero"),
    pytest.param({"r.csv": REPORT.format("abc", 1, 90)}, PLOT_REPORT, "input", id="plot-report-eta-not-a-number"),
    pytest.param({"r.csv": REPORT.format(5, "inf", 95.0)}, PLOT_REPORT, "input", id="plot-report-nu-inf"),
    pytest.param({}, ["experiment", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "1", "--test", "2",
                      "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", "{out}"], "input",
                 id="experiment-one-training-sample-per-class"),
    pytest.param({rel: text for rel, text in VECTORS.items() if rel not in ("p/1.csv", "p/2.csv")}, CLASSIFY,
                 "input", id="classify-one-positive-against-three-negatives"),
    pytest.param({"c.toml": "seed = 1e400\n"}, EXPERIMENT, "config", id="config-seed-overflows-to-inf"),
    pytest.param({"c.toml": "seed = 1\nrows = inf\n"}, EXPERIMENT, "config", id="config-rows-inf"),
    pytest.param({"c.toml": "seed = 1.7\n"}, EXPERIMENT, "config", id="config-seed-fractional"),
    pytest.param({"c.toml": "seed = 1\ntrain = 2.5\n"}, EXPERIMENT, "config", id="config-train-fractional"),
    pytest.param({"c.toml": "seed = 1\ncost = nan\n"}, EXPERIMENT, "config", id="config-cost-nan"),
    pytest.param({"c.toml": "seed = 1\ncost = inf\n"}, EXPERIMENT, "config", id="config-cost-inf"),
    pytest.param({"c.toml": "seed = 1\ncost = 1" + "0" * 400 + "\n"}, EXPERIMENT, "config",
                 id="config-cost-past-float"),
    pytest.param({"c.toml": 'seed = 1\nmatern = "4:inf"\n'}, EXPERIMENT, "config", id="config-matern-nu-inf"),
    pytest.param({"c.toml": "seed = 1\nseed = 2\n"}, EXPERIMENT, "config", id="config-key-repeated"),
    pytest.param({"c.toml": "seed = 1\ntrain = true\n"}, EXPERIMENT, "config", id="config-train-boolean"),
    pytest.param({"c.toml": "seed = 1\nrows = [8]\n"}, EXPERIMENT, "config", id="config-rows-array"),
    pytest.param({"c.toml": "seed = 1\n[grid]\nrows = 8\n"}, EXPERIMENT, "config", id="config-table"),
    pytest.param({"c.toml": "seed = 1979-05-27\n"}, EXPERIMENT, "config", id="config-seed-date"),
    pytest.param({"c.toml": "seed = 1\nrows 8\n"}, EXPERIMENT, "config", id="config-not-toml"),
    # the name's line break would split the manifest and report lines it is written into
    pytest.param({"c.toml": 'seed = 1\nmodels = "M\\n1:identity,M2:square"\n'}, EXPERIMENT, "config",
                 id="config-model-name-line-break"),
    # both rows would write the same field files
    pytest.param({}, SIMULATE + ["--rows", "4", "--cols", "4", "--train", "1", "--test", "1",
                                 "--matern", "4:1,4.0:1"], "config", id="flag-matern-repeated"),
    pytest.param({}, SIMULATE + ["--rows", "4", "--cols", "4", "--train", "1", "--test", "1",
                                 "--matern", "4:1,4.0000001:1"], "config", id="flag-matern-rows-print-alike"),
    pytest.param({}, SIMULATE + ["--rows", "4", "--cols", "4", "--sampler", "bogus"], "config",
                 id="flag-sampler-unknown"),
    pytest.param(VECTORS, CLASSIFY + ["--cost", "nan"], "config", id="flag-cost-nan"),
    pytest.param(VECTORS, CLASSIFY + ["--cost", "inf"], "config", id="flag-cost-inf"),
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, VECTORIZE + ["--bins", "0"], "config",
                 id="flag-bins-zero"),
    # 2 (bins + 1) depth = 6000020 entries: more than a vector file may hold, known before any work
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, VECTORIZE + ["--bins", "300000", "--depth", "10"],
                 "config", id="vectorize-vector-too-large"),
    pytest.param({}, ["experiment", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "2", "--test", "2",
                      "--models", "M1:identity,M2:square", "--matern", "4:1", "--bins", "300000", "--depth", "10",
                      "--out", "{out}"], "config", id="experiment-vector-too-large"),
    # the fields would go to {out}/escaped, outside the output directory
    pytest.param({}, SIMULATE[:3] + ["--models", "../escaped:identity,M2:square", "--out", "{out}/run"], "config",
                 id="flag-model-name-leaves-out"),
    # an output written over an input destroys it
    pytest.param({"f/a.csv": FIELD}, ["ph", "--fields", "{src}/f", "--out", "{src}/f"], "config",
                 id="ph-out-is-fields"),
    pytest.param({"d/a.csv": "degree,birth,death\n0,1,2\n"}, ["vectorize", "--diagrams", "{src}/d", "--out", "{src}/d"],
                 "config", id="vectorize-out-is-diagrams"),
    pytest.param(VECTORS, ["landscape", "--vectors", "{src}/p", "--out", "{src}/p/0.csv"], "config",
                 id="landscape-out-is-a-vector"),
    pytest.param(VECTORS, ["landscape", "--vectors", "{src}/p", "--diff", "{src}/n", "--out", "{src}/n/0.csv"],
                 "config", id="landscape-out-is-a-diff-vector"),
    pytest.param(VECTORS, CLASSIFY[:-1] + ["{src}/n/2.csv"], "config", id="classify-model-out-is-a-vector"),
    # a vector file named v.svg plotted into its own directory would be replaced by v.svg's plot
    pytest.param({"d/v.svg": VECTORS["p/0.csv"]}, ["plot", "{src}/d/v.svg", "--out", "{src}/d"], "config",
                 id="plot-out-overwrites-an-input"),
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
    """Exit 2 with a one-line error, every input file left as it was and no output file written."""
    assert _run_on_files(tmp_path, files, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error} error:") and "Traceback" not in err
    assert {rel: (tmp_path / "in" / rel).read_bytes().decode() for rel in files} == files
    assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []


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


def test_manifest_row_without_training_entries_exits_2_before_writing(tmp_path, capsys):
    """A row's vector grid comes from its training diagrams, so a row with none is rejected before any row
    writes its outputs."""
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    for name in ("a.csv", "b.csv", "c.csv"):
        (run / "fields" / name).write_text(FIELD)
    (run / "manifest.csv").write_text("eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n4,1,M1,test,0,1:0.0.1.0,fields/b.csv\n"
                                      "5,1,M1,test,0,1:1.0.1.0,fields/c.csv\n")
    assert main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "eta 5, nu 1 has no train entry" in err
    assert sorted(p.name for p in run.iterdir()) == ["fields", "manifest.csv"]


def test_manifest_field_missing_exits_2_before_writing(tmp_path, capsys):
    """Every listed field is checked before any row writes its outputs, not when its row is reached."""
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    for name in ("a.csv", "b.csv", "c.csv"):
        (run / "fields" / name).write_text(FIELD)
    (run / "manifest.csv").write_text("eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n4,1,M1,test,0,1:0.0.1.0,fields/b.csv\n"
                                      "5,1,M1,train,0,1:1.0.0.0,fields/c.csv\n5,1,M1,test,0,1:1.0.1.0,fields/d.csv\n")
    assert main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "'fields/d.csv' does not exist" in err
    assert sorted(p.name for p in run.iterdir()) == ["fields", "manifest.csv"]


def test_pipeline_with_a_field_that_does_not_parse_writes_nothing(tmp_path, capsys):
    """A field of the last row that does not parse stops the run before the first row writes its outputs."""
    run = tmp_path / "run"
    assert main(["simulate", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "3", "--test", "2",
                 "--models", "M1:identity,M2:square", "--matern", "5:1,5:2", "--out", str(run)]) == 0
    (run / "fields" / "eta5-nu2" / "M2" / "test-0001.csv").write_text("1,1\nx")
    assert main(["pipeline", "--seed", "1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "test-0001.csv: non-numeric value" in err
    assert sorted(p.name for p in run.iterdir()) == ["fields", "manifest.csv"]


def test_pipeline_whose_later_row_has_no_usable_training_diagram_writes_nothing(tmp_path, capsys):
    """Row 5's only training field is flat, so it has no grid; row 4, which has one, writes nothing either."""
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    (run / "fields" / "a.csv").write_text(FIELD)
    (run / "fields" / "b.csv").write_text("1,3\n1,1,1\n")
    (run / "manifest.csv").write_text("eta,nu,model,split,index,substream,path\n"
                                      "4,1,M1,train,0,1:0.0.0.0,fields/a.csv\n5,1,M1,train,0,1:1.0.0.0,fields/b.csv\n")
    assert main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "every training diagram is empty" in err
    assert sorted(p.name for p in run.iterdir()) == ["fields", "manifest.csv"]


def test_output_path_that_is_a_directory_exits_2_before_writing(tmp_path, capsys):
    run = tmp_path / "run"
    (run / "report.csv").mkdir(parents=True)
    assert main(["experiment", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "2", "--test", "1",
                 "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(run / "report.csv") in err
    assert list(run.rglob("*")) == [run / "report.csv"]


def test_output_parent_that_is_a_file_exits_2_before_writing(tmp_path, capsys):
    """No directory is made when a later one cannot be: the averages directory comes before differences."""
    run = tmp_path / "run"
    run.mkdir()
    (run / "differences").write_text("")
    assert main(["experiment", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "2", "--test", "1",
                 "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(run / "differences") in err
    assert list(run.rglob("*")) == [run / "differences"]


@pytest.mark.parametrize("paths, error", [
    pytest.param(["fields/a.csv", "fields/./a.csv"], "is listed twice", id="dot-repeats"),
    pytest.param(["fields//a.csv"], None, id="double-slash"),
    pytest.param(["fields/sub/../a.csv"], "is not a relative path under fields/", id="dot-dot"),
])
def test_manifest_paths_are_checked_as_normalized_paths(tmp_path, capsys, paths, error):
    """``fields/./a.csv`` names ``fields/a.csv`` again, ``fields//a.csv`` writes the outputs of ``a.csv``, and
    a ``..`` is rejected even where it would lead back under fields/; a rejected manifest writes nothing."""
    run = tmp_path / "run"
    (run / "fields").mkdir(parents=True)
    (run / "fields" / "a.csv").write_text(FIELD)
    (run / "manifest.csv").write_text("eta,nu,model,split,index,substream,path\n" + "".join(
        f"4,1,M1,train,{i},1:0.0.0.{i},{path}\n" for i, path in enumerate(paths)))
    code = main(["pipeline", "--seed", "1", "--bins", "4", "--depth", "1", "--out", str(run)])
    if error is None:
        assert code == 0
        assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()) == [
            "censuses/a.csv", "diagrams/a.csv", "fields/a.csv", "manifest.csv", "vectors/a.csv"]
    else:
        assert code == 2 and error in capsys.readouterr().err
        assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*")) == [
            "fields", "fields/a.csv", "manifest.csv"]


@pytest.mark.parametrize("key", [str, Path])
def test_write_outputs_checks_str_and_path_keys_alike(tmp_path, monkeypatch, key):
    """An output that is an existing directory, or whose parent is a file, raises before any directory is
    made or any file written, for ``str`` and ``Path`` keys alike, a bare file name among them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "new" / "taken").mkdir(parents=True)
    (tmp_path / "taken").mkdir()
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    write = partial(write_file, text="x")
    for last, error, message in (("taken", IsADirectoryError, "output taken is"),
                                 ("new/taken", IsADirectoryError, "output new/taken is"),
                                 ("file/b.csv", NotADirectoryError, "output directory file is")):
        with pytest.raises(error, match=message):
            write_outputs({key("new/a.csv"): write, key("c.csv"): write, key(last): write})
        assert sorted(tmp_path.rglob("*")) == before
    write_outputs({key("new/a.csv"): write, key("c.csv"): write})
    assert (tmp_path / "new" / "a.csv").read_text() == (tmp_path / "c.csv").read_text() == "x"


def test_model_names_holding_percent_signs_are_written_as_they_are(tmp_path):
    """Values enter a table only as ``%`` arguments, never into its row template."""
    names = ["M%d", "50%"]
    argv = ["--seed", "1", "--rows", "6", "--cols", "6", "--train", "2", "--test", "1",
            "--models", "M%d:identity,50%:square", "--matern", "4:1"]
    assert main(["simulate", *argv, "--out", str(tmp_path / "run")]) == 0
    assert main(["pipeline", *argv, "--out", str(tmp_path / "run")]) == 0
    manifest = read_records(tmp_path / "run" / "manifest.csv", MANIFEST_COLUMNS)
    assert [entry["model"] for entry in manifest] == [name for name in names for _ in range(3)]
    for entry in manifest:
        assert (tmp_path / "run" / "vectors" / Path(entry["path"]).relative_to("fields")).is_file()
    assert main(["experiment", *argv, "--out", str(tmp_path / "exp")]) == 0
    assert [row["comparison"] for row in read_report_csv(tmp_path / "exp" / "report.csv")] == ["M%d v 50%"]
    assert (tmp_path / "exp" / "differences" / "eta4-nu1-M%dv50%.csv").is_file()


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_writes_its_manifest_after_every_field(tmp_path, monkeypatch, threads):
    """A manifest on disk always lists a complete corpus."""
    written = []

    def recording(write, path_at):
        def wrapper(*args, **kwargs):
            write(*args, **kwargs)
            written.append(Path(args[path_at]).name)
        return wrapper

    monkeypatch.setattr(harness, "write_field_csv", recording(harness.write_field_csv, 1))
    monkeypatch.setattr(harness, "write_table", recording(harness.write_table, 0))
    run_simulate(tiny_config(tmp_path / "run", matern="4:1,6:1", train=3, test=2, threads=threads))
    assert len(written) == 2 * 2 * 5 + 1
    assert written[-1] == "manifest.csv" and "manifest.csv" not in written[:-1]


@pytest.mark.parametrize("command", ["simulate", "pipeline", "experiment"])
@pytest.mark.parametrize("models", [
    # "A v vB" and "Av v B" would both write the difference file "...-AvvB.csv"
    pytest.param("A:identity,vB:square,Av:absolute,B:identity", id="difference-file"),
    # "A v" v "B" and "A" v "v B" would both be the report row "A v v B"
    pytest.param("A v:identity,B:square,A:absolute,v B:identity", id="report-row"),
])
def test_model_pairs_sharing_an_output_name_exit_2_before_writing(tmp_path, capsys, command, models):
    out = tmp_path / "out"
    argv = [command, "--seed", "1", "--rows", "6", "--cols", "6", "--train", "4", "--test", "2",
            "--matern", "4:1", "--models", models, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: two model pairs share the output name")
    assert not out.exists()


ONE_TRAINING_SAMPLE = ["--seed", "1", "--rows", "8", "--cols", "8", "--train", "1", "--test", "2",
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
    argv = [command, "--seed", "1", "--rows", "1", "--cols", "1", "--train", "2", "--test", "2",
            "--out", str(tmp_path / "run")]
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
        comparison = st.sampled_from(["M1 v M2", "", "M1 <v> & M2", "M1\x01"]) | st.text(max_size=4)
        lines = [REPORT.splitlines()[0], *draw(st.lists(_row(comparison, _NUM, _NUM, _NUM, _NUM), max_size=4))]
    else:
        size = st.integers(-1, 8).map(str) | _INT
        meta = _row(size, size, _NUM, _NUM)
        if command == "classify":  # also the grid of the vectors it joins, so that the fit runs
            meta |= st.just(VECTORS["p/0.csv"].splitlines()[1])
        lines = ["N,K,t0,tN", draw(meta), "index,value", *draw(st.lists(_row(_INT, _NUM), max_size=6))]
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
        if command == "plot" and code == 0:
            minidom.parse(f"{tmp}/out/a.svg")  # well-formed
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()


def test_plot_escapes_text_from_its_inputs(tmp_path):
    """A report's comparison and a vector file's stem reach the SVG as text, markup characters included;
    a control character, which XML cannot hold, becomes U+FFFD."""
    files = {"r.csv": "comparison,eta,nu,accuracy,calibration\nM1 <v> & M2,5,1,90.0,80.0\nM1\x01,5,1,90.0,80.0\n",
             "a&b.csv": VECTORS["p/0.csv"]}
    assert _run_on_files(tmp_path, files, ["plot", "{src}/r.csv", "{src}/a&b.csv", "--out", "{out}"]) == 0

    def texts(name):
        svg = minidom.parse(str(tmp_path / "out" / name))
        return [node.firstChild.data for node in svg.getElementsByTagName("text")]

    assert {"M1 <v> & M2 (5,1)", "M1\ufffd (5,1)"} <= set(texts("r.svg"))
    assert "a&b (degree 0)" in texts("a&b.svg")


# sha256 of each rendering in test_plot_bytes_are_pinned
PLOT_DIGESTS = {
    "plain": "d3cba01cf57efc5d51646229649d8b060f8731b747c56768bc75bfbba91b0998",
    "titled": "d9e2c718c2c921077eae76171a55a63d100a4f1a6e760dbcb1eac708439536df",
    "difference": "4a859a83bdd088d8cff78d7aabaf50b60fae1baf2ecb9e88fb057a271421c5b0",
    "zero": "1910c910ae6380fa56b623ce69552300defbf7e6ef7986ceb77ba921de1b88cb",
    "report": "8dabc8071227ca91906f5e337d194e7c4bdae8a2759472b16f993ed77d043969",
    "report-empty": "53929377d9d80c52d5c3902947164e8a892369fff940b348a5f51c0d9b87bb6d",
}


def test_plot_bytes_are_pinned():
    """The SVG text of fixed vectors and reports, byte for byte: a plain vector, one titled with markup
    characters, a difference with negative entries, an all-zero one, a two-row report with markup and a
    control character, and an empty report.  Entries are exact multiples of 1/4 so the digests do not hang
    on the last bit of a libm call."""
    grid, n = SampleGrid(-1.0, 3.0, 8), 2 * 9 * 3
    ramp = (np.arange(n) % 7) / 4.0
    rows = [{"comparison": "M1 <v> & M2", "eta": "5", "nu": "1", "accuracy": "90.0", "calibration": "80.5"},
            {"comparison": "M1\x01", "eta": "2.5", "nu": "0.5", "accuracy": "55", "calibration": "100"}]
    svgs = {
        "plain": render_vector_svg(LandscapeVector(grid, 3, ramp)),
        "titled": render_vector_svg(LandscapeVector(grid, 3, ramp[::-1]), title="a <b> & c"),
        "difference": render_vector_svg(LandscapeVector(grid, 3, ramp - 0.75), title="M1-M2"),
        "zero": render_vector_svg(LandscapeVector(grid, 3, np.zeros(n))),
        "report": render_report_svg(rows),
        "report-empty": render_report_svg([]),
    }
    assert {name: hashlib.sha256(svg.encode()).hexdigest() for name, svg in svgs.items()} == PLOT_DIGESTS


CLASSIFY_ROLES = ("train-pos", "train-neg", "test-pos", "test-neg")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), role=st.sampled_from(CLASSIFY_ROLES))
def test_classify_fuzz_exits_cleanly(data, role):
    """One drawn vector file beside the three separable vectors of a class: exit 0, 2 or 3, never a
    traceback, and after exit 0 a model file that reads back."""
    files = {f"{r}/{rel[2:]}": text for r in CLASSIFY_ROLES for rel, text in VECTORS.items()
             if rel[0] == ("p" if r.endswith("pos") else "n")}
    files[f"{role}/x.csv"] = data.draw(_file_text("classify"))
    argv = ["classify", *(arg for r in CLASSIFY_ROLES for arg in (f"--{r}", f"{{src}}/{r}")),
            "--model-out", "{out}/model.txt"]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = _run_on_files(Path(tmp), files, argv)
        if code == 0:
            model, n, k = read_model(Path(tmp) / "out" / "model.txt")
            assert (n, k) == (2, 1) and len(model.w) == 6
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("test_grid, code", [("4,2,0,1", 0), ("4,2,-50,50", 2), ("9,1,0,1", 2)],
                         ids=["same-grid", "other-bounds", "other-N-and-K"])
def test_classify_test_vectors_need_the_training_grid(tmp_path, capsys, test_grid, code):
    """Test vectors of the training length on another grid, or another (N, K), would be scored against
    weights that do not match them: exit 2, no model written."""
    files = {f"{role}/{i}.csv": f"N,K,t0,tN\n{'4,2,0,1' if role.startswith('train') else test_grid}\n"
                                f"index,value\n{index},{i + 1}\n"
             for role, index in zip(CLASSIFY_ROLES, (1, 12, 1, 12)) for i in range(3)}
    argv = ["classify", *(arg for r in CLASSIFY_ROLES for arg in (f"--{r}", f"{{src}}/{r}")),
            "--model-out", "{out}/model.txt"]
    assert _run_on_files(tmp_path, files, argv) == code
    assert (tmp_path / "out" / "model.txt").exists() == (code == 0)
    if code:
        assert capsys.readouterr().err == "input error: landscape vectors disagree on grid or depth\n"


def test_classify_overflowing_vector_fails_fast(tmp_path, capsys):
    """A finite entry of 1e200 overflows its squared norm: exit 3 before the first sweep, not after
    ``MAX_EPOCHS`` sweeps that cannot move, with a message that names the overflow."""
    files = {f"{r}/{rel[2:]}": text for r in CLASSIFY_ROLES for rel, text in VECTORS.items()
             if rel[0] == ("p" if r.endswith("pos") else "n")}
    files["train-pos/x.csv"] = "N,K,t0,tN\n2,1,0,1\nindex,value\n2,1e200\n"
    argv = ["classify", *(arg for r in CLASSIFY_ROLES for arg in (f"--{r}", f"{{src}}/{r}"))]
    assert _run_on_files(tmp_path, files, argv) == 3
    assert capsys.readouterr().err == ("numerical failure: Gram matrix diagonal overflows: "
                                       "a training vector's squared norm is not finite\n")


def test_plot_rejects_inputs_sharing_a_stem(tmp_path, capsys):
    """``a/x.csv`` and ``b/x.csv`` would both write ``x.svg``, the second over the first."""
    files = {"a/x.csv": VECTORS["p/0.csv"], "b/x.csv": VECTORS["n/0.csv"]}
    assert _run_on_files(tmp_path, files, ["plot", "{src}/a/x.csv", "{src}/b/x.csv", "--out", "{out}"]) == 2
    assert capsys.readouterr().err.startswith("config error: inputs share the file name stems ['x']")
    assert not (tmp_path / "out").exists()


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
_CONFIG_LINE = st.tuples(st.sampled_from([*SETTINGS, "seed", "bogus"]), _CONFIG_VALUE).map(" = ".join)


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
    written = tomllib.loads(text)
    numbers = {"seed": 0, **{key: s.default for key, s in SETTINGS.items() if not isinstance(s.default, str)}}
    for key, default in numbers.items():
        value = getattr(cfg, key)
        if isinstance(written.get(key), (int, float)):
            assert value == written[key]  # never truncated or rounded
        assert math.isfinite(value) and (value >= 0 if key == "seed" else value > 0)
        assert type(value) is type(default)
    assert all(math.isfinite(x) and x > 0 for row in cfg.matern for x in row)


def test_failed_fallback_on_large_grid_is_numerical(tmp_path, monkeypatch):
    """A 65x65 grid is past the Cholesky guard: exit 3 when the embedding fails, 2 when asked for."""
    monkeypatch.setattr(grf, "_circulant_eigenvalues", lambda p, rows, cols: -np.ones((rows, cols)))
    argv = ["simulate", "--seed", "1", "--rows", "65", "--cols", "65", "--train", "1", "--test", "1",
            "--models", "M1:identity", "--matern", "4:1"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 3
    assert main(argv + ["--sampler", "cholesky", "--out", str(tmp_path / "b")]) == 2


def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    """A grid whose spectrum cannot be allocated is bad input: one error line, no traceback.  The
    allocation failure is simulated, so the test allocates nothing large."""
    def unable(p, rows, cols):
        raise MemoryError(f"Unable to allocate spectrum for a {rows}x{cols} torus")

    monkeypatch.setattr(grf, "_circulant_eigenvalues", unable)
    argv = ["experiment", "--seed", "1", "--rows", "16", "--cols", "16", "--train", "2", "--test", "2",
            "--matern", "5:1", "--models", "M1:identity,M2:square", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: Unable to allocate") and err.count("\n") == 1
    assert "Traceback" not in err


def test_experiment_failing_on_its_last_row_writes_nothing(tmp_path, monkeypatch, capsys):
    """The averages, differences and report are written only after the sweep's last row."""
    calls = []

    def fails_on_the_second_row(vectors, name_a, name_b, cost):
        calls.append((name_a, name_b))
        if len(calls) == 2:
            raise TrainingError("no fit on the last row")
        return compare_models(vectors, name_a, name_b, cost)

    monkeypatch.setattr(harness, "compare_models", fails_on_the_second_row)
    out = tmp_path / "run"
    argv = ["experiment", "--seed", "1", "--rows", "6", "--cols", "6", "--train", "2", "--test", "1",
            "--models", "M1:identity,M2:square", "--matern", "4:1,6:1", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numerical failure: no fit on the last row\n"
    assert len(calls) == 2
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_simulate_whose_last_row_law_fails_writes_nothing(tmp_path, capsys):
    """Row 2's circulant embedding fails and 70x70 is past the Cholesky guard: exit 3 before row 1's fields."""
    out = tmp_path / "sim"
    argv = ["simulate", "--seed", "1", "--rows", "70", "--cols", "70", "--matern", "2:1,1000:100",
            "--train", "2", "--test", "1", "--models", "M1:identity,M2:square", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("numerical failure: circulant embedding not nonnegative definite")
    assert not out.exists()


def test_large_smoothness_grid_simulates(tmp_path):
    """At nu=100 the torus corners are far enough for s**nu to overflow; their covariance is 0, so it embeds."""
    argv = ["simulate", "--seed", "1", "--rows", "64", "--cols", "64", "--train", "1", "--test", "1",
            "--models", "M1:identity", "--matern", "1:100", "--out", str(tmp_path / "sim")]
    assert main(argv) == 0


def test_smoothness_past_a_normal_constant_exits_2_before_writing(tmp_path, capsys):
    """At nu=200 the covariance constant is 0, so the fields would be white noise."""
    out = tmp_path / "sim"
    argv = ["simulate", "--seed", "1", "--rows", "8", "--cols", "8", "--train", "2", "--test", "2",
            "--models", "M1:identity", "--matern", "5:1,1:200", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: matern entry '1:200'")
    assert not out.exists()


def test_failed_embedding_warns_once_per_row(tmp_path, monkeypatch):
    """Every field of a matern row draws from one law, so its Cholesky fallback warns once."""
    monkeypatch.setattr(grf, "MAX_PAD_FACTOR", 0)
    cfg = tiny_config(tmp_path / "run", matern="4:1,6:1", train=3, test=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(cfg)
    fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallbacks) == len(cfg.matern) == 2
    assert all("falling back" in str(w.message) for w in fallbacks)


@pytest.mark.parametrize("run", [run_experiment, run_simulate])
def test_one_spectrum_per_row_and_pad_factor(tmp_path, monkeypatch, run):
    """At 16x16, eta=5 embeds at pad factor 2 and eta=10 at 4: 2 + 3 spectra, however many fields."""
    built = []

    def counting(p, rows, cols):
        built.append((p.eta, rows))
        return eigenvalues(p, rows, cols)

    eigenvalues = grf._circulant_eigenvalues
    monkeypatch.setattr(grf, "_circulant_eigenvalues", counting)
    run(tiny_config(tmp_path / "run", rows=16, cols=16, matern="5:1,10:1", train=2, test=1))
    assert built == [(5.0, 32), (5.0, 64), (10.0, 32), (10.0, 64), (10.0, 128)]


class TestCli:
    def test_experiment_and_plot_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "experiment", "--seed", "11", "--rows", "6", "--cols", "6", "--train", "3", "--test", "3",
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
            "simulate", "--seed", "12", "--rows", "6", "--cols", "6", "--train", "2", "--test", "2",
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

    def test_nested_inputs_keep_their_subdirectories(self, tmp_path):
        """Same-named files in different subdirectories each get their own diagram and vector."""
        out = tmp_path / "sim"
        assert main([
            "simulate", "--seed", "12", "--rows", "6", "--cols", "6", "--train", "2", "--test", "2",
            "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", str(out),
        ]) == 0
        fields = sorted(p.relative_to(out / "fields") for p in (out / "fields").rglob("*.csv"))
        assert len(fields) == 8 and len({p.name for p in fields}) == 4

        diagrams, vectors = tmp_path / "diagrams", tmp_path / "vectors"
        assert main(["ph", "--fields", str(out / "fields"), "--out", str(diagrams)]) == 0
        assert sorted(p.relative_to(diagrams) for p in diagrams.rglob("*.csv")) == fields
        for rel in fields:
            want = diagram_of_field(read_field_csv(out / "fields" / rel))
            assert read_diagram_csv(diagrams / rel) == [(p.degree, p.birth, p.death) for p in want.pairs]

        assert main(["vectorize", "--diagrams", str(diagrams), "--out", str(vectors),
                     "--bins", "8", "--depth", "2"]) == 0
        assert sorted(p.relative_to(vectors) for p in vectors.rglob("*.csv")) == fields

    @pytest.mark.parametrize("empty", [False, True], ids=["bars", "all-empty"])
    def test_vectorize_on_explicit_grid(self, tmp_path, empty):
        """``--t0``/``--t1`` fix the grid ends, wider than the bars span, even when no diagram has a bar."""
        rng = np.random.default_rng(17)
        fields = [flat_field(1, 3, [0.0, 1.0, 2.0]) if empty else ScalarField(5, 5, rng.normal(size=(5, 5)))
                  for _ in range(3)]
        diagrams = [diagram_of_field(f) for f in fields]
        pairs = np.concatenate([d.pairs for d in diagrams])
        assert (len(pairs) == 0) == empty
        assert np.all(pairs["birth"] > -5.0) and np.all(pairs["death"] < 5.0)
        (tmp_path / "d").mkdir()
        for i, d in enumerate(diagrams):
            write_diagram_csv(d, tmp_path / "d" / f"{i}.csv")
        out = tmp_path / "v"
        assert main(["vectorize", "--diagrams", str(tmp_path / "d"), "--out", str(out),
                     "--bins", "10", "--depth", "2", "--t0", "-5", "--t1", "5"]) == 0
        grid = SampleGrid(-5.0, 5.0, 10)
        for i, d in enumerate(diagrams):
            assert (out / f"{i}.csv").read_text().splitlines()[:2] == ["N,K,t0,tN", "10,2,-5,5"]
            assert read_vector_csv(out / f"{i}.csv") == vectorize(d, grid, 2)

    def test_classify_command(self, tmp_path):
        out = tmp_path / "sim"
        assert main([
            "simulate", "--seed", "13", "--rows", "6", "--cols", "6", "--train", "4", "--test", "2",
            "--models", "M1:identity,M2:square", "--matern", "4:1", "--out", str(out),
        ]) == 0
        assert main(["pipeline", "--seed", "13", "--rows", "6", "--cols", "6", "--train", "4", "--test", "2",
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

        vec = LandscapeVector(grid=SampleGrid(0, 1, 4), depth=2, entries=np.zeros(20))
        src = tmp_path / "zero.csv"
        write_vector_csv(vec, src)
        assert main(["plot", str(src), "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "zero.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
