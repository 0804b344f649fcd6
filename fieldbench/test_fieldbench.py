"""Self-tests of the benchmark: tiny configs run end to end, and the checks catch corruption."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fieldscape import harness
from fieldscape.config import build_config

import run
from checks import check_outputs, stale_files, tree_digest
from reference import NOMINAL_S, SpeedProbe, reference_seconds
from tracing import LAYERS, TRACED, Tracer, layer_metrics
from workloads import WORKLOADS, config_mapping

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "fieldbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _tiny(workload: str, out: Path, threads=None):
    cfg = build_config(config_mapping(workload, 5, out, "tiny", threads))
    getattr(harness, WORKLOADS[workload]["entry"])(cfg)
    return cfg


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "desk", "--seed", "5", "--seconds", "0", "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_per_layer_metrics_come_from_the_layer_map():
    layers = {m["name"]: m for m in LAYERS}
    for m in BENCHMARK["per_layer"]:
        assert (layers[m["name"]]["unit"], layers[m["name"]]["better"]) == (m["unit"], m["better"])
    for name in TRACED:
        module, func = name.split(".")
        assert callable(getattr(sys.modules[f"fieldscape.{module}"], func))


def test_reference_seconds_scale_by_the_sampled_speed():
    assert reference_seconds(1.0, []) == (1.0, 1.0)
    own, ref = reference_seconds(1.0, [NOMINAL_S] * 4)
    assert own == pytest.approx(1.0 - 4 * NOMINAL_S) and ref == pytest.approx(own)
    own, ref = reference_seconds(1.0, [2 * NOMINAL_S] * 2)
    assert ref == pytest.approx(own / 2)


def test_speed_probe_samples_while_running_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period_s=0.01) as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5 and all(s > 0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _traced(workload, out):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("harness.root") as root:
            cfg = _tiny(workload, out, threads=1)
    finally:
        tracer.uninstall()
    return tracer, root[0], cfg


@pytest.mark.parametrize("workload", ["desk", "corpus16"])
def test_self_times_account_for_wall_and_counts_repeat(workload, tmp_path):
    runs = [_traced(workload, tmp_path / f"r{i}") for i in range(2)]
    values = []
    for tracer, root_id, cfg in runs:
        layers, problems = layer_metrics(tracer, root_id, 1.0, tree_digest(cfg.out)["bytes"])
        assert problems == []
        values.append(layers)
    counts = [m["name"] for m in LAYERS if m["kind"] == "count"]
    assert [values[0][c] for c in counts] == [values[1][c] for c in counts]
    assert values[0]["grf.fields"] > 0 and values[0]["persistence.pairs0"] > 0
    assert tree_digest(runs[0][2].out) == tree_digest(runs[1][2].out)


def test_fits_nest_under_train_calibrated(tmp_path):
    tracer, _, _ = _traced("desk", tmp_path)
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    parents = {names[parent] for _, parent, name, _, _ in tracer.spans if name in ("classify.train_svm", "classify.fit_sigmoid")}
    assert parents == {"classify.train_calibrated"}


def _flip_leading_digit_of_last_value(path: Path) -> None:
    data = bytearray(path.read_bytes())
    i = data.rindex(b",") + 1
    while not chr(data[i]).isdigit():
        i += 1
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_byte_trips_the_checks(workload, tmp_path):
    cfg = _tiny(workload, tmp_path / "out")
    entry, spot = WORKLOADS[workload]["entry"], len(cfg.models) * (cfg.train + cfg.test) * len(cfg.matern)
    assert check_outputs(entry, cfg, cfg.out, spot)[0] == []
    before = tree_digest(cfg.out)
    victim = sorted((cfg.out / ("differences" if entry == "run_experiment" else "diagrams")).rglob("*.csv"))[0]
    _flip_leading_digit_of_last_value(victim)
    assert tree_digest(cfg.out)["sha256"] != before["sha256"]
    assert run._digest_problems([{"digest": tree_digest(cfg.out)}], before)
    problems, _ = check_outputs(entry, cfg, cfg.out, spot)
    assert problems


def test_files_not_rewritten_are_stale(tmp_path):
    cfg = _tiny("desk", tmp_path / "out")
    assert stale_files(cfg.out, 0) == []
    started = time.time_ns()
    time.sleep(0.01)
    (cfg.out / "report.csv").write_text((cfg.out / "report.csv").read_text())
    assert "report.csv" not in stale_files(cfg.out, started)
    assert len(stale_files(cfg.out, started)) == tree_digest(cfg.out)["files"] - 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fieldbench", tmp_path / "fieldbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
