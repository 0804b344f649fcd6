"""End-to-end experiment runner: simulate, persist, vectorize, classify, report.

Every sample is drawn from its own Philox substream keyed by (matern row,
model, split, sample index), so reruns and different thread counts produce
byte-identical outputs.  Work is parallelized over samples with results
collected in manifest order.

The t-grid for vectorization is derived per matern row from the training
diagrams of all models in that row and reused verbatim on test data;
calibration parameters likewise come from the training split only.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .classify import EvalReport, LabeledSet, evaluate, train_calibrated
from .config import ExperimentConfig
from .critical import detect_critical, write_census_csv
from .cubical import ScalarField, build_filtration, read_field_csv, read_table, write_field_csv, write_table
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


def _sample_jobs(cfg: ExperimentConfig):
    """Every (row, model, split, index) of the experiment, in manifest order."""
    jobs = []
    for row_i, (eta, nu) in enumerate(cfg.matern):
        for model_i, spec in enumerate(model_specs(cfg, eta, nu)):
            for split_i, (split, count) in enumerate((("train", cfg.train), ("test", cfg.test))):
                for sample_i in range(count):
                    jobs.append((row_i, eta, nu, model_i, spec, split_i, split, sample_i))
    return jobs


def _draw(cfg: ExperimentConfig, job) -> ScalarField:
    row_i, _eta, _nu, model_i, spec, split_i, _split, sample_i = job
    rng = substream(cfg.seed, row_i, model_i, split_i, sample_i)
    return sample_model(spec, cfg.rows, cfg.cols, rng, sampler=cfg.sampler)


def _read_records(path, columns) -> list[dict]:
    """Rows of a text table with the given columns, as dicts."""
    rows = read_table(path, ",".join(columns))
    if any(len(row) != len(columns) for row in rows):
        raise ValueError(f"{path}: every line needs the {len(columns)} fields {','.join(columns)}")
    return [dict(zip(columns, row)) for row in rows]


def run_simulate(cfg: ExperimentConfig) -> Path:
    """Write one field CSV per sample plus a manifest listing every substream."""
    out = Path(cfg.out)
    fields_dir = out / "fields"
    fields_dir.mkdir(parents=True, exist_ok=True)

    jobs = _sample_jobs(cfg)
    fields = _parallel_map(lambda job: _draw(cfg, job), jobs, cfg.threads)

    manifest_rows = []
    for job, field in zip(jobs, fields):
        row_i, eta, nu, model_i, spec, split_i, split, sample_i = job
        rel = Path(row_label(eta, nu)) / spec.name / f"{split}-{sample_i:04d}.csv"
        path = fields_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        write_field_csv(field, path)
        manifest_rows.append((
            _fmt_g(eta), _fmt_g(nu), spec.name, split, str(sample_i),
            f"{cfg.seed}:{row_i}.{model_i}.{split_i}.{sample_i}", str(Path("fields") / rel),
        ))

    manifest = out / "manifest.csv"
    # CRLF line ends keep manifests byte-identical to those of earlier versions
    write_table(manifest, ",".join(MANIFEST_COLUMNS), manifest_rows, end="\r\n")
    return manifest


def diagram_of_field(field: ScalarField) -> PersistenceDiagram:
    """The per-sample step: filtration, then persistence."""
    return compute_persistence(build_filtration(field))


def vectorize_row(train: list[PersistenceDiagram], diagrams: list[PersistenceDiagram], bins: int, depth: int,
                  threads: int, bounds: tuple[float, float] | None = None) -> list[LandscapeVector]:
    """The per-row step: landscape vectors of ``diagrams`` on the grid ``train`` spans.

    ``train`` is the row's training split; ``diagrams`` holds both splits.
    ``bounds`` replaces the scan of ``train`` with explicit grid ends.
    """
    grid = default_grid(train, bins, bounds)
    return _parallel_map(lambda d: vectorize(d, grid, depth), diagrams, threads)


def _row_vectors(cfg: ExperimentConfig, row_i: int) -> dict[tuple[str, str], list[LandscapeVector]]:
    """Landscape vectors of one matern row, keyed by (model name, split), in sample order."""
    jobs = [job for job in _sample_jobs(cfg) if job[0] == row_i]
    fields = _parallel_map(lambda job: _draw(cfg, job), jobs, cfg.threads)
    diagrams = _parallel_map(diagram_of_field, fields, cfg.threads)
    train = [d for job, d in zip(jobs, diagrams) if job[6] == "train"]
    vectors: dict[tuple[str, str], list[LandscapeVector]] = {}
    for job, vec in zip(jobs, vectorize_row(train, diagrams, cfg.bins, cfg.depth, cfg.threads)):
        vectors.setdefault((job[4].name, job[6]), []).append(vec)
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
    return _read_records(path, REPORT_COLUMNS)


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Full sweep: one report row per (matern row, model pair).

    Also writes per-model average landscape vectors and pairwise differences
    for plotting.
    """
    out = Path(cfg.out)
    (out / "averages").mkdir(parents=True, exist_ok=True)
    (out / "differences").mkdir(parents=True, exist_ok=True)

    names = [name for name, _ in cfg.models]
    report_rows: list[ReportRow] = []
    for row_i, (eta, nu) in enumerate(cfg.matern):
        vectors = _row_vectors(cfg, row_i)
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


def _pipeline_row(cfg: ExperimentConfig, out: Path, entries: list[dict]) -> None:
    """Diagram, census and vector files of one matern row's manifest entries."""
    fields = _parallel_map(lambda e: read_field_csv(out / e["path"]), entries, cfg.threads)
    diagrams = _parallel_map(diagram_of_field, fields, cfg.threads)
    censuses = _parallel_map(detect_critical, fields, cfg.threads)
    train = [d for e, d in zip(entries, diagrams) if e["split"] == "train"]
    vectors = vectorize_row(train, diagrams, cfg.bins, cfg.depth, cfg.threads)
    for entry, diagram, census, vec in zip(entries, diagrams, censuses, vectors):
        rel = Path(entry["path"]).relative_to("fields")
        for sub, writer, obj in (
            ("diagrams", write_diagram_csv, diagram),
            ("censuses", write_census_csv, census),
            ("vectors", write_vector_csv, vec),
        ):
            path = out / sub / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            writer(obj, path)


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

    rows: dict[tuple[str, str], list[dict]] = {}
    for entry in _read_records(manifest, MANIFEST_COLUMNS):
        rows.setdefault((entry["eta"], entry["nu"]), []).append(entry)
    for entries in rows.values():
        _pipeline_row(cfg, out, entries)
    return out
