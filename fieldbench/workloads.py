"""Benchmark workloads: each maps a seed to the config the program receives.

``desk`` is the paper's experiment at the package defaults, single-threaded.
``field256`` isolates persistence on large grids, where the column reduction
dominates wall time and memory.  ``corpus16`` is the file pipeline on tiny
grids: many small tasks, CSV writes beside reads, the local critical census,
and no classifier.  It runs on one thread: with two threads on a two-core
machine its wall time spread 11-19 % across runs, against 4 % on one thread,
and the GIL left the two-thread run barely faster.  The ``tiny`` scale keeps
each workload's shape but runs in a second; only the self-tests use it.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 20250809

# entry: the harness function the workload times.
# spot_fields: how many of its fields the checks redraw and recompute.
WORKLOADS = {
    "desk": {
        "entry": "run_experiment",
        "config": {},
        "tiny": {"rows": 8, "cols": 8, "matern": "5:1", "models": "M1:identity,M2:square",
                 "train": 6, "test": 3, "bins": 16, "depth": 3},
        "spot_fields": 3,
    },
    "field256": {
        "entry": "run_experiment",
        "config": {"rows": 256, "cols": 256, "matern": "5:1", "models": "M1:identity,M2:square",
                   "train": 2, "test": 1},
        "tiny": {"rows": 24, "cols": 24, "matern": "5:1", "models": "M1:identity,M2:square",
                 "train": 2, "test": 1, "bins": 16, "depth": 3},
        "spot_fields": 1,
    },
    "corpus16": {
        "entry": "run_pipeline",
        "config": {"rows": 16, "cols": 16},
        "tiny": {"rows": 6, "cols": 6, "matern": "5:1,5:2", "models": "M1:identity,M2:square",
                 "train": 3, "test": 2, "bins": 8, "depth": 2},
        "spot_fields": 3,
    },
}


def config_mapping(workload: str, seed: int, out, scale: str = "full", threads: int | None = None) -> dict:
    """Raw mapping for ``fieldscape.config.build_config``.

    ``threads`` overrides the workload's thread count; the traced run uses 1
    so that spans never overlap.
    """
    spec = WORKLOADS[workload]
    mapping = {"seed": int(seed), "out": str(out)}
    mapping.update(spec["tiny"] if scale == "tiny" else spec["config"])
    if threads is not None:
        mapping["threads"] = threads
    return mapping


def spot_jobs(cfg, count: int) -> list[tuple[int, int, int, int]]:
    """A seed-determined pick of (matern row, model, split, sample) keys to recheck."""
    keys = [
        (row_i, model_i, split_i, sample_i)
        for row_i in range(len(cfg.matern))
        for model_i in range(len(cfg.models))
        for split_i, n in enumerate((cfg.train, cfg.test))
        for sample_i in range(n)
    ]
    return sorted(random.Random(cfg.seed).sample(keys, min(count, len(keys))))
