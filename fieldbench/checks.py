"""Correctness checks on a workload's outputs; they run outside the timed region.

Three kinds, all built on the package's public functions:

* a digest of every output file, compared at the default seed against the
  digest recorded in ``digests.json`` and, at any seed, between the untraced
  and the traced run of the same config;
* structural checks of every output file (names, headers, counts, ranges,
  and identities such as difference = average_a - average_b);
* spot checks that redraw a few of the workload's fields from their
  substreams and compare ``betti_curve`` against ``betti_oracle`` at several
  thresholds and ``detect_critical`` against ``critical_values_from_diagram``;
  for the file pipeline they also recompute the written field, diagram,
  census and vector of those samples.
"""

from __future__ import annotations

import csv
import hashlib
from itertools import combinations
from pathlib import Path

import numpy as np

from fieldscape.critical import critical_values_from_diagram, detect_critical
from fieldscape.cubical import build_filtration, read_field_csv
from fieldscape.grf import sample_model, substream
from fieldscape.harness import model_specs, read_report_csv, row_label
from fieldscape.landscape import read_vector_csv, vectorize
from fieldscape.persistence import betti_curve, betti_oracle, compute_persistence, read_diagram_csv

from workloads import spot_jobs

THRESHOLD_QUANTILES = (0.2, 0.4, 0.6, 0.8)


def tree_digest(root) -> dict:
    """File count, total bytes and one SHA-256 over every (path, content) pair."""
    root = Path(root)
    total = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    size = 0
    for path in files:
        data = path.read_bytes()
        size += len(data)
        total.update(path.relative_to(root).as_posix().encode() + b"\0")
        total.update(hashlib.sha256(data).digest())
    return {"files": len(files), "bytes": size, "sha256": total.hexdigest()}


def stale_files(root, since_ns: int) -> list[str]:
    """Output files not written after ``since_ns``: left over from an earlier iteration.

    Iterations rewrite one output tree in place, so a program that stopped
    writing a file would otherwise pass on the previous iteration's copy.
    """
    root = Path(root)
    return sorted(
        p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and p.stat().st_mtime_ns < since_ns
    )


def _draw(cfg, key):
    row_i, model_i, _split_i, _sample_i = key
    eta, nu = cfg.matern[row_i]
    spec = model_specs(cfg, eta, nu)[model_i]
    return sample_model(spec, cfg.rows, cfg.cols, substream(cfg.seed, *key), sampler=cfg.sampler)


def _spot_check(field, label: str, problems: list[str]):
    """Diagram of the field, after checking it against both oracles."""
    filt = build_filtration(field)
    diagram = compute_persistence(filt)
    for q in THRESHOLD_QUANTILES:
        a = float(np.quantile(field.values, q))
        if betti_curve(diagram, a) != betti_oracle(filt, a):
            problems.append(f"{label}: betti_curve disagrees with betti_oracle at {a!r}")
    if detect_critical(field) != critical_values_from_diagram(diagram):
        problems.append(f"{label}: detect_critical disagrees with critical_values_from_diagram")
    return diagram


def _check_experiment(cfg, out: Path, spot_fields: int, problems: list[str]) -> dict:
    names = [name for name, _ in cfg.models]
    expected_rows = []
    expected_files = {"report.csv"}
    for eta, nu in cfg.matern:
        label = row_label(eta, nu)
        averages = {}
        for name in names:
            rel = f"averages/{label}-{name}.csv"
            expected_files.add(rel)
            averages[name] = read_vector_csv(out / rel)
            if np.any(averages[name].entries < 0):
                problems.append(f"{rel}: negative landscape average")
        for a, b in combinations(names, 2):
            rel = f"differences/{label}-{a}v{b}.csv"
            expected_files.add(rel)
            diff = read_vector_csv(out / rel)
            if not np.array_equal(diff.entries, averages[a].entries - averages[b].entries):
                problems.append(f"{rel}: not the difference of the two averages")
            expected_rows.append((f"{a} v {b}", eta, nu))

    found = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    if found != expected_files:
        problems.append(f"output files differ from the expected set: {sorted(found ^ expected_files)[:5]}")

    report = read_report_csv(out / "report.csv")
    if [(r["comparison"], float(r["eta"]), float(r["nu"])) for r in report] != expected_rows:
        problems.append("report.csv: rows do not match the configured comparisons")
    accuracy = [float(r["accuracy"]) for r in report]
    calibration = [float(r["calibration"]) for r in report]
    if not all(0.0 <= v <= 100.0 for v in accuracy + calibration):
        problems.append("report.csv: accuracy or calibration outside [0, 100]")

    for key in spot_jobs(cfg, spot_fields):
        _spot_check(_draw(cfg, key), f"field {key}", problems)
    return {
        "accuracy_pct": float(np.mean(accuracy)) if accuracy else None,
        "calibration_pct": float(np.mean(calibration)) if calibration else None,
    }


def _read_census_rows(path: Path) -> list[tuple]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["row", "col", "value", "index", "multiplicity"]:
            return []
        return [(int(r), int(c), float(v), int(i), int(m)) for r, c, v, i, m in reader]


def _check_pipeline(cfg, out: Path, spot_fields: int, problems: list[str]) -> dict:
    with (out / "manifest.csv").open(newline="") as fh:
        entries = list(csv.DictReader(fh))
    expected = len(cfg.matern) * len(cfg.models) * (cfg.train + cfg.test)
    if len(entries) != expected:
        problems.append(f"manifest.csv: {len(entries)} entries, expected {expected}")

    by_key = {}
    expected_files = {"manifest.csv"}
    for entry in entries:
        rel = Path(entry["path"]).relative_to("fields")
        expected_files.update(f"{sub}/{rel.as_posix()}" for sub in ("fields", "diagrams", "censuses", "vectors"))
        seed, _, key = entry["substream"].partition(":")
        if int(seed) != cfg.seed:
            problems.append(f"{entry['path']}: substream of another seed")
        by_key[tuple(int(k) for k in key.split("."))] = rel
    found = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    if found != expected_files:
        problems.append(f"output files differ from the expected set: {sorted(found ^ expected_files)[:5]}")

    for key in spot_jobs(cfg, spot_fields):
        rel = by_key.get(key)
        if rel is None:
            problems.append(f"manifest.csv: no entry for substream {key}")
            continue
        field = read_field_csv(out / "fields" / rel)
        if field != _draw(cfg, key):
            problems.append(f"fields/{rel}: differs from a fresh draw of its substream")
        diagram = _spot_check(field, f"fields/{rel}", problems)
        if read_diagram_csv(out / "diagrams" / rel) != sorted((p.degree, p.birth, p.death) for p in diagram.pairs):
            problems.append(f"diagrams/{rel}: differs from the recomputed diagram")
        census = sorted(
            (ev.row, ev.col, ev.value, ev.index, ev.multiplicity) for ev in detect_critical(field).events
        )
        if _read_census_rows(out / "censuses" / rel) != census:
            problems.append(f"censuses/{rel}: differs from the recomputed census")
        vec = read_vector_csv(out / "vectors" / rel)
        if (vec.grid.n_intervals, vec.depth) != (cfg.bins, cfg.depth) or vec != vectorize(diagram, vec.grid, vec.depth):
            problems.append(f"vectors/{rel}: differs from the recomputed vector")
    return {}


def check_outputs(entry: str, cfg, out, spot_fields: int) -> tuple[list[str], dict]:
    """Problems found in a run's outputs, plus the report means where there is a report."""
    problems: list[str] = []
    check = _check_experiment if entry == "run_experiment" else _check_pipeline
    try:
        summary = check(cfg, Path(out), spot_fields, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable or malformed output
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        summary = {}
    return problems, summary
