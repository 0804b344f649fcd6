"""One workload iteration, or a setup-only probe, in a fresh Python process.

``run.py`` starts it as ``python3 fieldbench/worker.py '<spec json>'`` with
``src`` on ``PYTHONPATH`` and reads one JSON object from the last line of its
standard output.  Set-up runs from process start to the config built; the
timed region is the workload's harness call alone.  Both are also given in
reference seconds, from a ``reference.SpeedProbe`` running inside them
(not in a traced iteration, whose spans would absorb the probes).  Digests,
checks and the per-layer summary come after the timed region and after peak
RSS is read.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def run(spec: dict) -> dict:
    from reference import SpeedProbe, reference_seconds

    with SpeedProbe() as probe:
        from fieldscape import harness
        from fieldscape.config import build_config

        cfg = build_config(spec["config"])
    setup, ref_setup = reference_seconds(time.time() - spec["spawned_at"], probe.samples)
    result = {"setup_s": setup, "ref_setup_s": ref_setup}
    if spec["mode"] == "setup":
        return result

    entry = getattr(harness, spec["entry"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    # file times come from a coarse kernel clock that may lag time.time_ns()
    started_ns = time.time_ns() - 50_000_000
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        with SpeedProbe() as probe:
            entry(cfg)
        samples = probe.samples
    else:
        samples = []
        with tracer.span(f"harness.{spec['entry']}") as root:
            entry(cfg)
    wall, ref_wall = reference_seconds(time.perf_counter() - t0, samples)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    user, sys_ = usage.ru_utime - usage0.ru_utime, usage.ru_stime - usage0.ru_stime
    cpu = user + sys_
    peak_rss_mb = usage.ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    import numpy
    import scipy

    from checks import check_outputs, stale_files, tree_digest

    digest = tree_digest(cfg.out)
    result.update(
        wall_s=wall, ref_wall_s=ref_wall, probes=len(samples),
        cpu_s=cpu, user_s=user, sys_s=sys_, peak_rss_mb=peak_rss_mb, digest=digest,
        problems=[f"{name}: not rewritten by this iteration" for name in stale_files(cfg.out, started_ns)],
        numpy=numpy.__version__, scipy=scipy.__version__,
    )
    if spec["check"]:
        problems, summary = check_outputs(spec["entry"], cfg, cfg.out, spec["spot_fields"])
        result["problems"] += problems
        result.update(summary)
    if tracer is not None:
        layers, problems = layer_metrics(tracer, root[0], cpu, digest["bytes"])
        result["layers"] = layers
        result["problems"] += problems
    return result


def main() -> int:
    try:
        result = run(json.loads(sys.argv[1]))
    except Exception:  # reported to the parent, which counts the iteration as failed
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
