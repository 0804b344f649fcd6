"""Command-line interface.

Subcommands mirror the pipeline stages: ``simulate``, ``ph``, ``landscape``,
``vectorize``, ``classify``, ``experiment``, ``pipeline``, ``plot``.  Exit
codes: 0 on success, 2 for configuration problems (bad flags, bad config
file, malformed input files, an output that would overwrite an input, a
problem too large to allocate), 3 for numerical failures.  Each command
reads and checks its inputs and computes what can fail before it writes
through ``harness.write_outputs``, so one that exits 2 or 3 has written
nothing, short of a failed write.  The exception: ``pipeline`` without a
manifest first runs ``simulate``, and that complete corpus stays.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .classify import evaluate, train_calibrated, write_model
from .config import SETTINGS, check, check_vector_size, load_config
from .cubical import read_field_csv, write_file
from .errors import ConfigError, NumericalError
from .harness import (
    diagram_of_field,
    labeled_set,
    read_report_csv,
    run_experiment,
    run_pipeline,
    run_simulate,
    write_outputs,
)
from .landscape import (
    SampleGrid,
    average,
    check_compatible,
    default_grid,
    difference,
    read_vector_csv,
    vectorize,
    write_vector_csv,
)
from .persistence import PersistenceDiagram, read_diagram_csv, sorted_pairs, write_diagram_csv
from .plot import render_report_svg, render_vector_svg


def _add_setting_flags(p: argparse.ArgumentParser, keys) -> None:
    """A ``--key`` flag for each experiment key, typed and described by its ``SETTINGS`` entry."""
    for key in keys:
        p.add_argument(f"--{key}", type=type(SETTINGS[key].default), help=SETTINGS[key].help)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="TOML config file of flat 'key = value' settings; flags override it")
    p.add_argument("--seed", type=int, help="master seed (mandatory unless set in the config)")
    _add_setting_flags(p, SETTINGS)


def _config_from_args(args):
    return load_config(args.config, {key: getattr(args, key) for key in ("seed", *SETTINGS)})


def _cmd_run(args) -> int:
    """``simulate``, ``experiment`` or ``pipeline``: config from file and flags, run, print the result path."""
    print(args.run(_config_from_args(args)))
    return 0


def _field_csvs(directory: Path) -> list[Path]:
    paths = sorted(directory.rglob("*.csv"))
    if not paths:
        raise ConfigError(f"no CSV files under {directory}")
    return paths


def _check_outputs(inputs, outputs) -> None:
    """ConfigError, before anything is written, when an output path is one of the input files."""
    overwritten = {Path(p).resolve() for p in inputs} & {Path(p).resolve() for p in outputs}
    if overwritten:
        raise ConfigError(f"output {min(overwritten)} would overwrite an input")


def _cmd_stage(args) -> int:
    """Check, write and print what ``args.stage`` returns: its inputs, {output path: its writer}, lines to print."""
    inputs, outputs, lines = args.stage(args)
    _check_outputs(inputs, outputs)
    write_outputs(outputs)
    for line in lines:
        print(line)
    return 0


def _cmd_ph(args):
    fields, out = Path(args.fields), Path(args.out)
    paths = _field_csvs(fields)
    outputs = {out / path.relative_to(fields): partial(write_diagram_csv, diagram_of_field(read_field_csv(path)))
               for path in paths}
    return paths, outputs, [out]


def _read_diagram(path: Path) -> PersistenceDiagram:
    """A diagram CSV as a diagram; the file keeps neither cells nor the essential minimum."""
    columns = list(zip(*read_diagram_csv(path))) or [(), (), ()]  # degree, birth, death
    cells = [-1] * len(columns[0])
    return PersistenceDiagram(sorted_pairs(*columns, cells, cells), essential_min=float("nan"))


def _cmd_vectorize(args):
    bins, depth = check("bins", args.bins), check("depth", args.depth)
    check_vector_size(bins, depth)
    if (args.t0 is None) != (args.t1 is None):
        raise ConfigError("--t0 and --t1 go together")
    source, out = Path(args.diagrams), Path(args.out)
    paths = _field_csvs(source)
    diagrams = [_read_diagram(p) for p in paths]
    grid = default_grid(diagrams, bins) if args.t0 is None else SampleGrid(args.t0, args.t1, bins)
    outputs = {out / path.relative_to(source): partial(write_vector_csv, vectorize(diagram, grid, depth))
               for path, diagram in zip(paths, diagrams)}
    return paths, outputs, [out]


def _cmd_landscape(args):
    paths = _field_csvs(Path(args.vectors))
    other = _field_csvs(Path(args.diff)) if args.diff else []
    result = average([read_vector_csv(p) for p in paths])
    if args.diff:
        result = difference(result, average([read_vector_csv(p) for p in other]))
    return paths + other, {Path(args.out): partial(write_vector_csv, result)}, [Path(args.out)]


def _cmd_classify(args):
    cost = check("cost", args.cost)
    inputs = [_field_csvs(Path(d)) for d in (args.train_pos, args.train_neg, args.test_pos, args.test_neg)]
    train_pos, train_neg, test_pos, test_neg = ([read_vector_csv(p) for p in paths] for paths in inputs)
    # the model's weights are read against one grid and depth, so the test vectors need the training ones
    grid, depth = check_compatible(train_pos + train_neg + test_pos + test_neg)
    model = train_calibrated(labeled_set(train_pos, train_neg), C=cost)
    report = evaluate(model, labeled_set(test_pos, test_neg))
    outputs = {Path(args.model_out): partial(write_model, model, grid, depth)} if args.model_out else {}
    lines = [f"accuracy,{report.accuracy:.1f}", f"calibration,{report.calibration:.1f}"]
    return [p for paths in inputs for p in paths], outputs, lines


def _cmd_plot(args):
    paths = [Path(p) for p in args.inputs]
    stems = [p.stem for p in paths]
    repeated = sorted({s for s in stems if stems.count(s) > 1})
    if repeated:
        raise ConfigError(f"inputs share the file name stems {repeated}; each would write the same <stem>.svg")
    outputs = {}
    for path in paths:
        if path.read_text().startswith("comparison,"):
            svg = render_report_svg(read_report_csv(path))
        else:
            svg = render_vector_svg(read_vector_csv(path), title=path.stem)
        outputs[Path(args.out) / (path.stem + ".svg")] = partial(write_file, text=svg)
    return paths, outputs, list(outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldscape",
        description="Random-field topology pipeline: simulate, persist, vectorize, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw model samples and write field CSVs plus a manifest")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_run, run=run_simulate)

    p = sub.add_parser("ph", help="persistence diagrams for a directory of field CSVs")
    p.add_argument("--fields", required=True, help="directory of field CSVs")
    p.add_argument("--out", required=True, help="output directory for diagram CSVs")
    p.set_defaults(fn=_cmd_stage, stage=_cmd_ph)

    p = sub.add_parser("vectorize", help="landscape vectors for a directory of diagram CSVs")
    p.add_argument("--diagrams", required=True, help="directory of diagram CSVs (training set defines the grid)")
    p.add_argument("--out", required=True, help="output directory for vector CSVs")
    _add_setting_flags(p, ("bins", "depth"))
    p.add_argument("--t0", type=float, help="explicit grid lower bound")
    p.add_argument("--t1", type=float, help="explicit grid upper bound")
    p.set_defaults(fn=_cmd_stage, stage=_cmd_vectorize)

    p = sub.add_parser("landscape", help="average landscape of a directory of vector CSVs")
    p.add_argument("--vectors", required=True, help="directory of vector CSVs")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--diff", help="second directory; output becomes average difference")
    p.set_defaults(fn=_cmd_stage, stage=_cmd_landscape)

    p = sub.add_parser("classify", help="train and evaluate a calibrated linear SVM")
    p.add_argument("--train-pos", required=True)
    p.add_argument("--train-neg", required=True)
    p.add_argument("--test-pos", required=True)
    p.add_argument("--test-neg", required=True)
    _add_setting_flags(p, ("cost",))
    p.add_argument("--model-out", help="write the trained model file here")
    p.set_defaults(fn=_cmd_stage, stage=_cmd_classify)

    p = sub.add_parser("experiment", help="full sweep producing the accuracy/calibration report")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_run, run=run_experiment)

    p = sub.add_parser("pipeline", help="diagrams, censuses, and vectors for a simulated corpus")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_run, run=run_pipeline)

    p = sub.add_parser("plot", help="render vector or report CSVs as SVG")
    p.add_argument("inputs", nargs="+", help="vector or report CSV files")
    p.add_argument("--out", required=True, help="output directory for SVGs")
    p.set_defaults(fn=_cmd_stage, stage=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a grid too large to allocate
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
