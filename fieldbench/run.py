"""Fieldscape benchmark: one workload, timed from outside the program.

Run from the repository root:

    python3 fieldbench/run.py --workload desk --seed 20250809 --seconds 15 --trace 0

Load is a closed loop with one client: each iteration is a fresh Python
process that starts after the previous one has ended.  With ``--trace 0``
the run first starts a few set-up-only processes, then repeats untraced
iterations until ``--seconds`` have passed, and reports the median of each
end-to-end metric.  ``wall_s`` and ``setup_s`` are in reference seconds:
the host's speed drifts by up to 1.7x within seconds, so each worker samples
it with ``reference.SpeedProbe`` while it measures and scales its times to a
host of fixed speed; the raw times are printed and recorded beside them.
With ``--trace 1`` it alternates an untraced and a traced iteration of the
same config at one thread and reports the per-layer metrics of the traced
one, in raw seconds; the traced wall time less the untraced one is the
tracing overhead.  Every iteration's outputs are digested and checked
outside the timed region; any failure makes the result incorrect and the
exit code nonzero.  The last line of standard output is one JSON object;
the full record, with every iteration's values and the environment, is
written under ``.fieldbench-work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, config_mapping  # noqa: E402

SETUP_PROBES = 7     # set-up-only processes per untraced run, for a steady setup_s
RUN_BUDGET_S = 170   # a run never starts an iteration it cannot finish within this
WORK = Path(".fieldbench-work")
DIGESTS = HERE / "digests.json"


def recorded_digest(workload: str, seed: int, scale: str) -> dict | None:
    """The output digest recorded for this workload, if the run uses the recorded seed."""
    if scale != "full" or seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def _metric_specs() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def _git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _worker(spec: dict, env: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    spec = dict(spec, spawned_at=time.time())
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    if proc.returncode != 0 or not record:
        record.setdefault("error", f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return record


def _iteration(workload: str, args, deadline: float, *, trace: bool, threads=None, check: bool) -> dict:
    # Every iteration of a workload rewrites the same output tree in place.
    # Deleting thousands of files before the next run made the kernel's share
    # of corpus16's file writes grow from 0.6 s to 4 s over consecutive runs;
    # rewriting kept it near 1 s.  Without a manifest, run_pipeline simulates
    # again, so every iteration does the full work.
    out = WORK / f"out-{workload}-{args.scale}"
    (out / "manifest.csv").unlink(missing_ok=True)
    spec = {
        "mode": "run",
        "entry": WORKLOADS[workload]["entry"],
        "config": config_mapping(workload, args.seed, out, args.scale, threads),
        "trace": trace,
        "check": check,
        "spot_fields": WORKLOADS[workload]["spot_fields"],
    }
    record = _worker(spec, args.env, deadline - time.monotonic())
    record["traced"] = trace
    return record


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def _digest_problems(records, recorded) -> list[str]:
    digests = {r["digest"]["sha256"] for r in records if "digest" in r}
    problems = []
    if len(digests) > 1:
        problems.append(f"outputs differ between iterations of one config: {sorted(digests)}")
    if recorded is not None and digests and digests != {recorded["sha256"]}:
        problems.append(f"outputs differ from the digest recorded for this workload and seed: {sorted(digests)}")
    return problems


def bench(args) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    records: list[dict] = []
    workload = args.workload
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = _worker(
                {"mode": "setup", "config": config_mapping(workload, args.seed, WORK / "unused", args.scale)},
                args.env, deadline - time.monotonic(),
            )
            records.append(dict(probe, setup_probe=True))
    first = True  # spot checks are costly on large grids; digests cover every iteration
    while True:
        t0 = time.monotonic()
        if args.trace:
            records.append(_iteration(workload, args, deadline, trace=False, threads=1, check=first))
            records.append(_iteration(workload, args, deadline, trace=True, threads=1, check=False))
        else:
            records.append(_iteration(workload, args, deadline, trace=False, check=first))
        first = False
        now = time.monotonic()
        if now - start >= args.seconds or now + 1.5 * (now - t0) > deadline:
            break

    iterations = [r for r in records if not r.get("setup_probe")]
    problems = [p for r in records for p in r.get("problems", [])]
    problems += [f"iteration error: {r['error']}" for r in records if "error" in r]
    problems += _digest_problems(iterations, recorded_digest(workload, args.seed, args.scale))
    failed = sum(1 for r in iterations if "error" in r or r.get("problems"))
    if problems and not failed:
        failed = len(iterations)  # a cross-iteration check failed: no iteration is trustworthy
    good = [r for r in iterations if "error" not in r] or iterations
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    setups = [r for r in records if "setup_s" in r]
    summary = {
        "wall_s": _median(untraced, "ref_wall_s"),
        "setup_s": _median(setups, "ref_setup_s"),
        "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        "error_rate": failed / len(iterations),
        "accuracy_pct": _median(untraced, "accuracy_pct"),
        "calibration_pct": _median(untraced, "calibration_pct"),
        "raw_wall_s": _median(untraced, "wall_s"),
        "raw_setup_s": _median(setups, "setup_s"),
        "probes": _median(untraced, "probes"),
    }
    layers = {}
    if traced and all("layers" in r for r in traced):
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        if summary["raw_wall_s"] is not None:
            layers["harness.trace_overhead_s"] = layers["wall_s"] - summary["raw_wall_s"]

    specs = _metric_specs()
    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    source = layers if args.trace else summary
    metrics = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in wanted
        if source.get(m["name"]) is not None
    }
    if len(metrics) != len(wanted):
        problems.append(f"metrics not measured: {sorted({m['name'] for m in wanted} - set(metrics))}")
    line = {
        "correct": not problems,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": metrics,
    }
    first_good = next((r for r in good if "numpy" in r), {})
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "scale": args.scale,
        "environment": {
            "python": platform.python_version(),
            "numpy": first_good.get("numpy"),
            "scipy": first_good.get("scipy"),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "platform": platform.platform(),
        },
        "summary": summary,
        "layers": layers,
        "problems": problems,
        "iterations": records,
        "result": line,
    }
    return line, record


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# fieldbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['git_commit']}")
    runs = [r for r in record["iterations"] if not r.get("setup_probe")]
    print(f"# iterations={len(runs)} (wall, user, sys) s: "
          f"{[tuple(round(r[k], 3) for k in ('wall_s', 'user_s', 'sys_s')) for r in runs if 'wall_s' in r]}")
    if record["trace"]:
        layer_map = json.loads((HERE / "layers.json").read_text())["metrics"]
        print(f"# traced wall_s={record['layers'].get('wall_s')}")
        for m in layer_map:
            value = record["layers"].get(m["name"])
            print(f"{m['name']:28s} {value!s:>24} {m['unit']:6s} moves {m['moves']}")
    else:
        for name, value in record["summary"].items():
            print(f"{name:28s} {'n/a (no report)' if value is None else value!s:>24}")
    for problem in record["problems"]:
        print(f"# PROBLEM: {problem}")


def _record_digest(args) -> int:
    """Store the default-seed output digest of one workload in digests.json."""
    if args.seed != DEFAULT_SEED or args.scale != "full":
        print("fieldbench: digests are recorded at the default seed and full scale only", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 10 * RUN_BUDGET_S
    rec = _iteration(args.workload, args, deadline, trace=False, check=True)
    if "error" in rec or rec["problems"]:
        print(json.dumps(rec, indent=1), file=sys.stderr)
        return 1
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[args.workload] = rec["digest"]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps(rec["digest"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload's shape in about a second (self-tests)")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this workload's default-seed output digest and exit")
    args = parser.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "fieldscape" / "__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("fieldbench: run from the repository root; src/fieldscape or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    WORK.mkdir(exist_ok=True)
    if args.record_digest:
        return _record_digest(args)

    line, record = bench(args)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    print(f"# record: {path}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
