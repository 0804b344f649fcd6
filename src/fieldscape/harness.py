"""End-to-end experiment runner: simulate, persist, vectorize, classify, report.

Every field is one ``Sample`` record, listed by ``_samples`` from the config or
by ``run_pipeline`` from its manifest and grouped into matern rows by ``_rows``.
Each runner maps one per-sample step on ``threads`` workers, in manifest order:
simulate over all samples, experiment and pipeline over one row at a time.  Each
drawn sample has its own Philox substream, keyed by (row, model, split, index).

The t-grid for vectorization is derived per matern row from the training
diagrams of all models in that row and reused verbatim on test data;
calibration parameters likewise come from the training split only.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

from .classify import EvalReport, LabeledSet, check_class_size, evaluate, train_calibrated
from .config import ExperimentConfig
from .critical import detect_critical, write_census_csv
from .cubical import (
    ScalarField,
    build_filtration,
    parse_number,
    read_field_csv,
    read_table,
    write_field_csv,
    write_table,
)
from .grf import MaternParams, ModelSpec, sample_model, substream
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

# Benchmark cells reported for this experiment layout by the study whose
# Matern rows the defaults mirror.  The bundled placeholder transforms do not
# reproduce them; they document the report format and the expected
# calibration <= accuracy ordering.
REFERENCE_REPORT_CELLS = {
    # (eta, nu): {comparison: (accuracy, calibration)}
    (5.0, 1.0): {"M1 v M2": (100.0, 97.4), "M1 v M3": (93.4, 88.1), "M2 v M3": (100.0, 97.2)},
    (10.0, 1.0): {"M1 v M2": (100.0, 96.3), "M1 v M3": (83.1, 73.3), "M2 v M3": (98.8, 94.9)},
    (5.0, 2.0): {"M1 v M2": (100.0, 97.4), "M1 v M3": (87.9, 80.9), "M2 v M3": (100.0, 97.1)},
}


@dataclass(frozen=True)
class ReportRow:
    comparison: str
    eta: float
    nu: float
    accuracy: float
    calibration: float


def _fmt_g(x: float) -> str:
    return format(x, "g")


def row_label(eta: float, nu: float) -> str:
    return f"eta{_fmt_g(eta)}-nu{_fmt_g(nu)}"


def model_specs(cfg: ExperimentConfig, eta: float, nu: float) -> list[ModelSpec]:
    params = MaternParams(eta=eta, nu=nu, sigma2=cfg.sigma2, spacing=cfg.spacing)
    return [ModelSpec(name=name, transform=transform, matern=params) for name, transform in cfg.models]


def _parallel_map(fn, items, threads: int):
    """Ordered map, threaded when asked; output order never depends on scheduling."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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


def _draw(cfg: ExperimentConfig, sample: Sample) -> ScalarField:
    spec = model_specs(cfg, sample.eta, sample.nu)[sample.key[1]]
    return sample_model(spec, cfg.rows, cfg.cols, substream(cfg.seed, *sample.key), sampler=cfg.sampler)


def _read_records(path, columns) -> list[dict]:
    """Rows of a text table with the given columns, as dicts."""
    rows = read_table(path, ",".join(columns))
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: every line needs the {len(columns)} fields {','.join(columns)}")
    return [dict(zip(columns, row)) for row in rows]


def run_simulate(cfg: ExperimentConfig) -> Path:
    """Write one field CSV per sample plus a manifest listing every substream."""
    out = Path(cfg.out)
    samples = _samples(cfg)
    _parallel_map(lambda s: write_field_csv(_draw(cfg, s), out / s.path), samples, cfg.threads)
    manifest = out / "manifest.csv"
    # CRLF line ends keep manifests byte-identical to those of earlier versions
    write_table(manifest, ",".join(MANIFEST_COLUMNS), (
        (_fmt_g(s.eta), _fmt_g(s.nu), s.model, s.split, str(s.key[3]),
         f"{cfg.seed}:{'.'.join(map(str, s.key))}", str(s.path))
        for s in samples
    ), end="\r\n")
    return manifest


def diagram_of_field(field: ScalarField) -> PersistenceDiagram:
    """The per-sample step: filtration, then persistence."""
    return compute_persistence(build_filtration(field))


def vectorize_row(train: list[PersistenceDiagram], diagrams: list[PersistenceDiagram], bins: int, depth: int,
                  bounds: tuple[float, float] | None = None) -> list[LandscapeVector]:
    """The per-row step: landscape vectors of ``diagrams`` on the grid ``train`` spans.

    ``train`` is the row's training split; ``diagrams`` holds both splits.
    ``bounds`` replaces the scan of ``train`` with explicit grid ends.
    """
    grid = default_grid(train, bins, bounds)
    return [vectorize(d, grid, depth) for d in diagrams]


def _experiment_row(cfg: ExperimentConfig, samples: list[Sample]) -> dict[tuple[str, str], list[LandscapeVector]]:
    """Landscape vectors of one matern row, keyed by (model name, split), in sample order."""
    diagrams = _parallel_map(lambda s: diagram_of_field(_draw(cfg, s)), samples, cfg.threads)
    train = [d for s, d in zip(samples, diagrams) if s.split == "train"]
    vectors: dict[tuple[str, str], list[LandscapeVector]] = {}
    for sample, vec in zip(samples, vectorize_row(train, diagrams, cfg.bins, cfg.depth)):
        vectors.setdefault((sample.model, sample.split), []).append(vec)
    return vectors


def _labeled(pos: list[LandscapeVector], neg: list[LandscapeVector]) -> LabeledSet:
    return LabeledSet.from_vectors(pos + neg, [1.0] * len(pos) + [-1.0] * len(neg))


def compare_models(vectors: dict[tuple[str, str], list[LandscapeVector]], name_a: str, name_b: str,
                   cost: float) -> EvalReport:
    """Train on the row's training split, evaluate on the test split.

    The first model is the positive class.
    """
    train = _labeled(vectors[name_a, "train"], vectors[name_b, "train"])
    test = _labeled(vectors[name_a, "test"], vectors[name_b, "test"])
    return evaluate(train_calibrated(train, C=cost), test)


def write_report_csv(rows: list[ReportRow], path) -> None:
    write_table(path, ",".join(REPORT_COLUMNS), (
        (r.comparison, _fmt_g(r.eta), _fmt_g(r.nu), f"{r.accuracy:.1f}", f"{r.calibration:.1f}")
        for r in rows
    ))


def read_report_csv(path) -> list[dict]:
    """Report rows as dicts of their text fields.

    Values the writer never writes raise ValueError: accuracy or calibration
    outside [0, 100], and eta or nu not finite and positive.
    """
    rows = _read_records(path, REPORT_COLUMNS)
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
    report_rows: list[ReportRow] = []
    for (eta, nu), samples in _rows(_samples(cfg)).items():
        vectors = _experiment_row(cfg, samples)
        label = row_label(eta, nu)

        averages = {}
        for name in names:
            averages[name] = average(vectors[name, "train"] + vectors[name, "test"])
            write_vector_csv(averages[name], out / "averages" / f"{label}-{name}.csv")
        for name_a, name_b in combinations(names, 2):
            diff = difference(averages[name_a], averages[name_b])
            write_vector_csv(diff, out / "differences" / f"{label}-{name_a}v{name_b}.csv")
            result = compare_models(vectors, name_a, name_b, cfg.cost)
            report_rows.append(
                ReportRow(f"{name_a} v {name_b}", eta, nu, result.accuracy, result.calibration)
            )

    report = out / "report.csv"
    write_report_csv(report_rows, report)
    return report


def _pipeline_row(cfg: ExperimentConfig, out: Path, samples: list[Sample]) -> None:
    """Diagram, census and vector files of one matern row's samples."""

    def step(sample: Sample):
        field = read_field_csv(out / sample.path)
        return diagram_of_field(field), detect_critical(field)

    diagrams, censuses = zip(*_parallel_map(step, samples, cfg.threads))
    train = [d for s, d in zip(samples, diagrams) if s.split == "train"]
    vectors = vectorize_row(train, diagrams, cfg.bins, cfg.depth)
    for sample, diagram, census, vec in zip(samples, diagrams, censuses, vectors):
        rel = sample.path.relative_to("fields")
        write_diagram_csv(diagram, out / "diagrams" / rel)
        write_census_csv(census, out / "censuses" / rel)
        write_vector_csv(vec, out / "vectors" / rel)


def run_pipeline(cfg: ExperimentConfig) -> Path:
    """File-level pipeline over a simulated corpus: diagrams, censuses, vectors.

    Reads the manifest under ``cfg.out`` (simulating first if absent) and
    writes one diagram CSV, one census CSV, and one vector CSV per sample,
    one matern row at a time, so only one row's objects are alive at once.
    """
    out = Path(cfg.out)
    manifest = out / "manifest.csv"
    if not manifest.exists():
        run_simulate(cfg)
    samples: dict[Path, Sample] = {}
    for entry in _read_records(manifest, MANIFEST_COLUMNS):
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
        samples[path] = Sample(eta, nu, entry["model"], entry["split"], (), path)
    for row in _rows(list(samples.values())).values():
        _pipeline_row(cfg, out, row)
    return out
