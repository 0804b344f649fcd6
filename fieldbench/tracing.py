"""Spans around calls into the program's public functions, from outside it.

``Tracer.install`` replaces each traced function in its defining module and
in every other ``fieldscape`` module that imported it by name (the harness
imports ``compute_persistence``, ``build_filtration``, ``sample_model`` and
the rest that way).  Each call records a span with its parent's id, so
``train_svm`` and ``fit_sigmoid`` nest under ``train_calibrated``, and a few
counts taken from the call's arguments and result.  Spans stay in memory
until the run ends.

What public functions cannot show is not measured here: how often the
circulant spectrum is recomputed, the torus pad factor, and the SVM's epochs
all happen inside single calls and wait for tracing inside the program.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from fieldscape.classify import KKT_TOL

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())["metrics"]


def _support_vectors(args, kwargs, model) -> int:
    """Training rows on or inside the margin: y * f(x) <= 1, up to the solver's tolerance."""
    data = kwargs.get("data", args[0] if args else None)
    return int(np.count_nonzero(data.y * model.decision(data.X) <= 1.0 + KKT_TOL))


def _count_sample(counts, args, kwargs, result):
    counts["grf.fields"] += 1


def _count_filtration(counts, args, kwargs, result):
    counts["cubical.cells"] += result.n_cells


def _count_diagram(counts, args, kwargs, result):
    counts["persistence.fields"] += 1
    n0 = sum(1 for p in result.pairs if p.degree == 0)
    counts["persistence.pairs0"] += n0
    counts["persistence.pairs1"] += len(result.pairs) - n0


def _count_census(counts, args, kwargs, result):
    counts["critical.events"] += sum(result.counts)


def _count_vector(counts, args, kwargs, result):
    counts["landscape.nonzero"] += int(np.count_nonzero(result.entries))
    counts["landscape.entries"] += result.entries.size


def _count_fit(counts, args, kwargs, result):
    counts["classify.svm_fits"] += 1
    counts["classify.support_vectors"] += _support_vectors(args, kwargs, result)


COUNT_HOOKS = {
    "grf.sample_model": _count_sample,
    "cubical.build_filtration": _count_filtration,
    "persistence.compute_persistence": _count_diagram,
    "critical.detect_critical": _count_census,
    "landscape.vectorize": _count_vector,
    "classify.train_svm": _count_fit,
}

TRACED = [name for m in LAYERS if m["kind"] == "self_time" for name in m["of"]]


class Tracer:
    """In-memory spans ``[id, parent id, name, start, end]`` plus counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name, perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("fieldscape.")]
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(sys.modules[f"fieldscape.{module}"], func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover, by span id."""
        children = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        return {sid: (end - start) - children[sid] for sid, _p, _n, start, end in self.spans}


def layer_metrics(tracer: Tracer, root_id: int, cpu_s: float, bytes_written: int) -> tuple[dict, list[str]]:
    """Per-layer values of one traced run, plus accounting problems.

    The root span is the workload's harness call; its self time is the glue.
    Every other span's self time belongs to exactly one metric, so the
    self-time metrics plus the glue add up to the root span's duration.
    """
    self_times = tracer.self_times()
    by_name = defaultdict(float)
    for sid, _parent, name, _start, _end in tracer.spans:
        if sid != root_id:
            by_name[name] += self_times[sid]
    _, _, _, start, end = tracer.spans[root_id]
    wall = end - start

    values: dict[str, float] = {}
    for m in LAYERS:
        kind = m["kind"]
        if kind == "self_time":
            values[m["name"]] = sum(by_name.pop(f, 0.0) for f in m["of"])
        elif kind == "count":
            values[m["name"]] = tracer.counts[m["key"]]
        elif kind == "ratio":
            num = values.get(m["num"], tracer.counts[m["num"]])
            den = values.get(m["den"], tracer.counts[m["den"]])
            values[m["name"]] = m["scale"] * num / den if den else 0.0
        elif kind == "glue":
            values[m["name"]] = self_times[root_id]
        elif kind == "cpu":
            values[m["name"]] = cpu_s
        elif kind == "bytes_written":
            values[m["name"]] = bytes_written / 2**20

    problems = [f"spans of {name} belong to no metric" for name in by_name]
    accounted = sum(values[m["name"]] for m in LAYERS if m["kind"] in ("self_time", "glue"))
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"layer self times add up to {accounted!r} s, traced wall is {wall!r} s")
    return {"wall_s": wall, **values}, problems
