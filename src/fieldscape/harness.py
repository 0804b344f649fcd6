"""End-to-end experiment runner: simulate, persist, vectorize, classify, report.

Every field is one ``Sample`` record, listed by ``_samples`` from the config or
by ``run_pipeline`` from its manifest and grouped into matern rows by ``_rows``.
Each runner maps one per-sample step on ``threads`` workers over one row at a
time, in manifest order.  All models of a row share one Matern covariance, so
simulate and experiment build one field law per row (the circulant spectrum or
Cholesky factor, see ``grf.field_law``) and draw every field of the row from
it.  Each drawn sample has its own Philox substream, keyed by (row, model,
split, index).  Every runner computes and checks everything before it writes
through ``write_outputs``, so a run that fails writes nothing; simulate's
manifest comes after every field.  ``run_pipeline`` holds every row's diagrams
and censuses until then, about 2.7 KB per 16x16 field and 0.82 MB per 256x256;
vectors and simulated fields are computed by their writers, so none is held.
``run_experiment`` holds one matern row's landscape vectors at a time, 2(N+1)K
float64 per field, and keeps only each row's averages and differences; each
comparison holds its stacked training set, then, once its model is trained,
its test set.  A rerun rewrites each file in place (``cubical.write_file``):
truncating frees every block, and a ``discard`` mount discards them.

The t-grid for vectorization is derived per matern row from the training
diagrams of all models in that row and reused verbatim on test data;
calibration parameters likewise come from the training split only.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .classify import EvalReport, LabeledSet, check_class_size, evaluate, train_calibrated
from .config import ExperimentConfig
from .critical import detect_critical, write_census_csv
from .cubical import (
    ScalarField,
    build_filtration,
    parse_number,
    read_field_csv,
    read_records,
    write_field_csv,
    write_table,
)
from .grf import FieldLaw, MaternParams, ModelSpec, field_law, sample_model, substream
from .landscape import (
    LandscapeVector,
    average,
    default_grid,
    difference,
    vectorize,
    write_vector_csv,
)
from .persistence import PersistenceDiagram, compute_persistence, write_diagram_csv

MANIFEST_COLUMNS = ("eta", "nu", "model", "split", "index", "substream", "path")
REPORT_COLUMNS = ("comparison", "eta", "nu", "accuracy", "calibration")


def row_label(eta: float, nu: float) -> str:
    return "eta%g-nu%g" % (eta, nu)


def model_specs(cfg: ExperimentConfig, eta: float, nu: float) -> list[ModelSpec]:
    params = MaternParams(eta, nu)
    return [ModelSpec(name=name, transform=transform, matern=params) for name, transform in cfg.models]


def _parallel_map(fn, items, threads: int):
    """Ordered map, threaded when asked; output order never depends on scheduling."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def write_outputs(outputs: dict, threads: int = 1) -> None:
    """The one writer: make each parent of the ordered {path: writer} map once, then call each writer with its path.

    An output path that is an existing directory raises IsADirectoryError,
    and a parent whose nearest existing ancestor is not a directory raises
    NotADirectoryError, before any directory is made or any file written.
    """
    parents = dict.fromkeys(path.parent for path in outputs)
    for parent in parents:
        ancestor = next(p for p in (parent, *parent.parents) if os.path.lexists(p))
        if not ancestor.is_dir():
            raise NotADirectoryError(f"output directory {ancestor} is an existing file")
    # one listing per existing parent: a stat per output path would keep each key's path string to the end
    directories = {parent / entry.name for parent in parents if parent.is_dir()
                   for entry in os.scandir(parent) if entry.is_dir()}
    for path in outputs:
        if path in directories:
            raise IsADirectoryError(f"output {path} is an existing directory")
    for parent in parents:
        parent.mkdir(parents=True, exist_ok=True)
    _parallel_map(lambda item: item[1](item[0]), outputs.items(), threads)


class Sample(NamedTuple):
    """One field: ``key`` is its substream key, empty when read from a manifest; ``path`` is under the output."""

    eta: float
    nu: float
    model: str
    split: str
    key: tuple[int, ...]
    path: Path


def _samples(cfg: ExperimentConfig) -> list[Sample]:
    """Every sample of the experiment, in manifest order."""
    return [
        Sample(eta, nu, name, split, (row_i, model_i, split_i, i),
               Path("fields", row_label(eta, nu), name, f"{split}-{i:04d}.csv"))
        for row_i, (eta, nu) in enumerate(cfg.matern)
        for model_i, (name, _) in enumerate(cfg.models)
        for split_i, (split, count) in enumerate((("train", cfg.train), ("test", cfg.test)))
        for i in range(count)
    ]


def _rows(samples: list[Sample]) -> dict[tuple[float, float], list[Sample]]:
    """The samples grouped by matern row (eta, nu), rows in order of first appearance."""
    rows: dict[tuple[float, float], list[Sample]] = {}
    for sample in samples:
        rows.setdefault((sample.eta, sample.nu), []).append(sample)
    return rows


def _row_law(cfg: ExperimentConfig, samples: list[Sample]) -> FieldLaw:
    """The one field law every sample of a matern row draws from."""
    return field_law(MaternParams(samples[0].eta, samples[0].nu), cfg.rows, cfg.cols, cfg.sampler)


def _draw(cfg: ExperimentConfig, sample: Sample, law: FieldLaw, specs: list[ModelSpec]) -> ScalarField:
    """The sample's field, drawn from its row's ``law`` and ``specs``, the row's ``model_specs``, built once per row."""
    return sample_model(specs[sample.key[1]], cfg.rows, cfg.cols, substream(cfg.seed, *sample.key), law=law)


def _computed(write, compute, *args):
    """A writer that calls ``compute(*args)`` only when it writes the result."""
    return lambda path: write(compute(*args), path)


def run_simulate(cfg: ExperimentConfig) -> Path:
    """Write one field CSV per sample, then a manifest listing every substream.

    Every row's law is built first, so a row whose law fails writes nothing,
    and the manifest comes after every field, so it means a complete corpus.
    """
    out = Path(cfg.out)
    samples = _samples(cfg)
    rows = [(row, _row_law(cfg, row), model_specs(cfg, eta, nu)) for (eta, nu), row in _rows(samples).items()]
    write_outputs({out / s.path: _computed(write_field_csv, _draw, cfg, s, law, specs)
                   for row, law, specs in rows for s in row}, cfg.threads)
    manifest = out / "manifest.csv"
    rows = [(s.eta, s.nu, s.model, s.split, s.key[3], cfg.seed, *s.key, s.path) for s in samples]
    write_outputs({manifest: partial(write_table, header=",".join(MANIFEST_COLUMNS),
                                     row_format="%g,%g,%s,%s,%d,%d:%d.%d.%d.%d,%s", rows=rows, end="\r\n")})
    return manifest


def diagram_of_field(field: ScalarField) -> PersistenceDiagram:
    """The per-sample step: filtration, then persistence."""
    return compute_persistence(build_filtration(field))


def _experiment_row(cfg: ExperimentConfig, samples: list[Sample]) -> dict[tuple[str, str], list[LandscapeVector]]:
    """Landscape vectors of one matern row, keyed by (model name, split), in sample order."""
    law, specs = _row_law(cfg, samples), model_specs(cfg, samples[0].eta, samples[0].nu)
    diagrams = _parallel_map(lambda s: diagram_of_field(_draw(cfg, s, law, specs)), samples, cfg.threads)
    grid = default_grid([d for s, d in zip(samples, diagrams) if s.split == "train"], cfg.bins)
    vectors: dict[tuple[str, str], list[LandscapeVector]] = {}
    for sample, diagram in zip(samples, diagrams):
        vectors.setdefault((sample.model, sample.split), []).append(vectorize(diagram, grid, cfg.depth))
    return vectors


def labeled_set(pos: list[LandscapeVector], neg: list[LandscapeVector]) -> LabeledSet:
    """``pos`` labeled +1 and ``neg`` -1; the caller has checked that they share one grid and depth."""
    return LabeledSet(np.stack([v.entries for v in pos + neg]), [1.0] * len(pos) + [-1.0] * len(neg))


def compare_models(vectors: dict[tuple[str, str], list[LandscapeVector]], name_a: str, name_b: str,
                   cost: float) -> EvalReport:
    """Train on the row's training split, evaluate on the test split.

    The first model is the positive class.
    """
    model = train_calibrated(labeled_set(vectors[name_a, "train"], vectors[name_b, "train"]), C=cost)
    # stacked only now, so the test matrix never sits beside the training matrix and its fold copies
    return evaluate(model, labeled_set(vectors[name_a, "test"], vectors[name_b, "test"]))


def write_report_csv(rows: list[tuple], path) -> None:
    """One line per (comparison, eta, nu, accuracy, calibration) row."""
    write_table(path, ",".join(REPORT_COLUMNS), "%s,%g,%g,%.1f,%.1f", rows)


def read_report_csv(path) -> list[dict]:
    """Report rows as dicts of their text fields.

    Values the writer never writes raise ValueError: accuracy or calibration
    outside [0, 100], and eta or nu not finite and positive.
    """
    rows = read_records(path, REPORT_COLUMNS)
    for row in rows:
        eta, nu, accuracy, calibration = (parse_number(path, key, row[key]) for key in REPORT_COLUMNS[1:])
        if not (0.0 < eta < math.inf and 0.0 < nu < math.inf
                and 0.0 <= accuracy <= 100.0 and 0.0 <= calibration <= 100.0):
            raise ValueError(f"{path}: row {row['comparison']!r} needs eta and nu finite and positive, "
                             f"accuracy and calibration in [0, 100]")
    return rows


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Full sweep: one report row per (matern row, model pair).

    Also writes per-model average landscape vectors and pairwise differences
    for plotting.
    """
    check_class_size(cfg.train)
    out = Path(cfg.out)
    names = [name for name, _ in cfg.models]
    report_rows = []
    outputs = {}
    for (eta, nu), samples in _rows(_samples(cfg)).items():
        vectors = _experiment_row(cfg, samples)
        label = row_label(eta, nu)

        averages = {}
        for name in names:
            averages[name] = average(vectors[name, "train"] + vectors[name, "test"])
            outputs[out / "averages" / f"{label}-{name}.csv"] = partial(write_vector_csv, averages[name])
        for name_a, name_b in combinations(names, 2):
            diff = difference(averages[name_a], averages[name_b])
            outputs[out / "differences" / f"{label}-{name_a}v{name_b}.csv"] = partial(write_vector_csv, diff)
            result = compare_models(vectors, name_a, name_b, cfg.cost)
            report_rows.append((f"{name_a} v {name_b}", eta, nu, result.accuracy, result.calibration))
        del vectors  # freed before the next row's vectors are built, so one row's vectors are held at a time

    report = out / "report.csv"
    outputs[report] = partial(write_report_csv, report_rows)
    write_outputs(outputs)
    return report


def _pipeline_row(cfg: ExperimentConfig, out: Path, samples: list[Sample]) -> dict:
    """{path: writer} of the diagram, census and vector files of one matern row's samples; writes nothing."""

    def step(sample: Sample):
        field = read_field_csv(out / sample.path)
        return diagram_of_field(field), detect_critical(field)

    diagrams, censuses = zip(*_parallel_map(step, samples, cfg.threads))
    grid = default_grid([d for s, d in zip(samples, diagrams) if s.split == "train"], cfg.bins)
    outputs = {}
    for sample, diagram, census in zip(samples, diagrams, censuses):
        rel = sample.path.relative_to("fields")
        outputs[out / "diagrams" / rel] = partial(write_diagram_csv, diagram)
        outputs[out / "censuses" / rel] = partial(write_census_csv, census)
        outputs[out / "vectors" / rel] = _computed(write_vector_csv, vectorize, diagram, grid, cfg.depth)
    return outputs


def run_pipeline(cfg: ExperimentConfig) -> Path:
    """File-level pipeline over a simulated corpus: diagrams, censuses, vectors.

    Reads the manifest under ``cfg.out`` (simulating first if absent) and
    writes one diagram CSV, one census CSV, and one vector CSV per sample,
    once every row is computed.
    """
    out = Path(cfg.out)
    manifest = out / "manifest.csv"
    if not manifest.exists():
        run_simulate(cfg)
    samples: dict[Path, Sample] = {}
    for entry in read_records(manifest, MANIFEST_COLUMNS):
        path = Path(entry["path"])
        # every read and write stays inside the output tree: no absolute path, no '..'
        if path.parts[:1] != ("fields",) or len(path.parts) < 2 or ".." in path.parts:
            raise ValueError(f"{manifest}: path {entry['path']!r} is not a relative path under fields/ without '..'")
        if entry["split"] not in ("train", "test"):
            raise ValueError(f"{manifest}: split {entry['split']!r} is neither 'train' nor 'test'")
        # two NaN keys never compare equal, so a NaN would split its matern row
        eta, nu = (parse_number(manifest, key, entry[key]) for key in ("eta", "nu"))
        if not (0.0 < eta < math.inf and 0.0 < nu < math.inf):
            raise ValueError(f"{manifest}: eta {entry['eta']!r} and nu {entry['nu']!r} must be finite and positive")
        # a repeated path would have its outputs written twice, the second over the first
        if path in samples:
            raise ValueError(f"{manifest}: path {entry['path']!r} is listed twice")
        # named here by its manifest entry, not by the error of the read that would fail
        if not (out / path).is_file():
            raise ValueError(f"{manifest}: field file {entry['path']!r} does not exist")
        samples[path] = Sample(eta, nu, entry["model"], entry["split"], (), path)
    rows = _rows(list(samples.values()))
    # a row's vector grid comes from its training diagrams
    for (eta, nu), row in rows.items():
        if all(s.split != "train" for s in row):
            raise ValueError(f"{manifest}: matern row eta {eta:g}, nu {nu:g} has no train entry")
    rows_outputs = [_pipeline_row(cfg, out, row) for row in rows.values()]
    write_outputs({path: write for outputs in rows_outputs for path, write in outputs.items()}, cfg.threads)
    return out
