"""Command-line interface.

Subcommands mirror the pipeline stages: ``simulate``, ``ph``, ``landscape``,
``vectorize``, ``classify``, ``experiment``, ``pipeline``, ``plot``.  Exit
codes: 0 on success, 2 for configuration problems (bad flags, bad config
file, malformed input files), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classify import evaluate, train_calibrated, write_model
from .config import load_config
from .cubical import read_field_csv
from .errors import ConfigError, NumericalError
from .landscape import average, difference, read_vector_csv, write_vector_csv
from .persistence import PersistenceDiagram, PersistencePair, read_diagram_csv, write_diagram_csv
from .plot import render_report_svg, render_vector_svg


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key-value config file")
    p.add_argument("--seed", type=int, help="master seed (mandatory unless set in the config)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--grid", metavar="RxC", help="grid size, e.g. 32x32")
    p.add_argument("--depth", type=int, help="landscape levels kept (K)")
    p.add_argument("--samples", type=int, help="sets both train and test sample counts")
    p.add_argument("--threads", type=int, help="worker threads for per-sample work")
    p.add_argument("--rows", type=int, help=argparse.SUPPRESS)
    p.add_argument("--cols", type=int, help=argparse.SUPPRESS)
    p.add_argument("--train", type=int, help="training samples per class")
    p.add_argument("--test", type=int, help="test samples per class")
    p.add_argument("--bins", type=int, help="sample-grid intervals (N)")
    p.add_argument("--cost", type=float, help="SVM cost parameter")
    p.add_argument("--models", help='model list, e.g. "M1:identity,M2:square"')
    p.add_argument("--matern", help='matern rows, e.g. "5:1,10:1"')
    p.add_argument("--sigma2", type=float, help="field variance")
    p.add_argument("--spacing", type=float, help="grid spacing in eta units")
    p.add_argument("--sampler", choices=["circulant", "cholesky"], help="field sampler")


def _config_from_args(args):
    overrides = {
        key: getattr(args, key, None)
        for key in ("seed", "out", "depth", "threads", "rows", "cols", "train", "test",
                    "bins", "cost", "models", "matern", "sigma2", "spacing", "sampler")
    }
    if getattr(args, "grid", None):
        try:
            rows, cols = (int(tok) for tok in args.grid.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--grid expects RxC, got {args.grid!r}") from None
        overrides["rows"], overrides["cols"] = rows, cols
    if getattr(args, "samples", None):
        overrides["train"] = overrides["test"] = args.samples
    return load_config(args.config, overrides)


def _cmd_simulate(args) -> int:
    from .harness import run_simulate

    manifest = run_simulate(_config_from_args(args))
    print(manifest)
    return 0


def _cmd_experiment(args) -> int:
    from .harness import run_experiment

    report = run_experiment(_config_from_args(args))
    print(report)
    return 0


def _cmd_pipeline(args) -> int:
    from .harness import run_pipeline

    out = run_pipeline(_config_from_args(args))
    print(out)
    return 0


def _field_csvs(directory: Path) -> list[Path]:
    paths = sorted(directory.rglob("*.csv"))
    if not paths:
        raise ConfigError(f"no CSV files under {directory}")
    return paths


def _cmd_ph(args) -> int:
    from .harness import diagram_of_field

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in _field_csvs(Path(args.fields)):
        write_diagram_csv(diagram_of_field(read_field_csv(path)), out / path.name)
    print(out)
    return 0


def _read_diagram(path: Path) -> PersistenceDiagram:
    """A diagram CSV as a diagram; the file keeps neither cells nor the essential minimum."""
    pairs = tuple(PersistencePair(deg, b, d, -1, -1) for deg, b, d in read_diagram_csv(path))
    return PersistenceDiagram(pairs=pairs, essential_min=float("nan"))


def _cmd_vectorize(args) -> int:
    from .harness import vectorize_row

    if (args.t0 is None) != (args.t1 is None):
        raise ConfigError("--t0 and --t1 go together")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = _field_csvs(Path(args.diagrams))
    diagrams = [_read_diagram(p) for p in paths]
    bounds = None if args.t0 is None else (args.t0, args.t1)
    vectors = vectorize_row(diagrams, diagrams, args.bins, args.depth, threads=1, bounds=bounds)
    for path, vec in zip(paths, vectors):
        write_vector_csv(vec, out / path.name)
    print(out)
    return 0


def _cmd_landscape(args) -> int:
    vectors = [read_vector_csv(p) for p in _field_csvs(Path(args.vectors))]
    result = average(vectors)
    if args.diff:
        other = average([read_vector_csv(p) for p in _field_csvs(Path(args.diff))])
        result = difference(result, other)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_vector_csv(result, out)
    print(out)
    return 0


def _cmd_classify(args) -> int:
    from .harness import _labeled

    def load_dir(directory):
        return [read_vector_csv(p) for p in _field_csvs(Path(directory))]

    train = _labeled(load_dir(args.train_pos), load_dir(args.train_neg))
    test = _labeled(load_dir(args.test_pos), load_dir(args.test_neg))
    model = train_calibrated(train, C=args.cost)
    report = evaluate(model, test)
    if args.model_out:
        Path(args.model_out).parent.mkdir(parents=True, exist_ok=True)
        write_model(model, train.grid, train.depth, args.model_out)
    print(f"accuracy,{report.accuracy:.1f}")
    print(f"calibration,{report.calibration:.1f}")
    return 0


def _cmd_plot(args) -> int:
    from .harness import read_report_csv

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in [Path(p) for p in args.inputs]:
        target = out / (path.stem + ".svg")
        if path.read_text().startswith("comparison,"):
            render_report_svg(read_report_csv(path), target)
        else:
            render_vector_svg(read_vector_csv(path), target, title=path.stem)
        print(target)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldscape",
        description="Random-field topology pipeline: simulate, persist, vectorize, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw model samples and write field CSVs plus a manifest")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("ph", help="persistence diagrams for a directory of field CSVs")
    p.add_argument("--fields", required=True, help="directory of field CSVs")
    p.add_argument("--out", required=True, help="output directory for diagram CSVs")
    p.set_defaults(fn=_cmd_ph)

    p = sub.add_parser("vectorize", help="landscape vectors for a directory of diagram CSVs")
    p.add_argument("--diagrams", required=True, help="directory of diagram CSVs (training set defines the grid)")
    p.add_argument("--out", required=True, help="output directory for vector CSVs")
    p.add_argument("--bins", type=int, default=100, help="sample-grid intervals (N)")
    p.add_argument("--depth", type=int, default=10, help="landscape levels kept (K)")
    p.add_argument("--t0", type=float, help="explicit grid lower bound")
    p.add_argument("--t1", type=float, help="explicit grid upper bound")
    p.set_defaults(fn=_cmd_vectorize)

    p = sub.add_parser("landscape", help="average landscape of a directory of vector CSVs")
    p.add_argument("--vectors", required=True, help="directory of vector CSVs")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--diff", help="second directory; output becomes average difference")
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("classify", help="train and evaluate a calibrated linear SVM")
    p.add_argument("--train-pos", required=True)
    p.add_argument("--train-neg", required=True)
    p.add_argument("--test-pos", required=True)
    p.add_argument("--test-neg", required=True)
    p.add_argument("--cost", type=float, default=1.0)
    p.add_argument("--model-out", help="write the trained model file here")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("experiment", help="full sweep producing the accuracy/calibration report")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("pipeline", help="diagrams, censuses, and vectors for a simulated corpus")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("plot", help="render vector or report CSVs as SVG")
    p.add_argument("inputs", nargs="+", help="vector or report CSV files")
    p.add_argument("--out", required=True, help="output directory for SVGs")
    p.set_defaults(fn=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
