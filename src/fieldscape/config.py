"""Experiment configuration: TOML config files plus CLI overrides.

Each experiment key is declared once, as an ``ExperimentConfig`` field
carrying its ``Setting``; ``SETTINGS`` is read from those fields, and
``check``, the config-file keys and the CLI flags all derive from it.

Config files are TOML with flat keys: each value is an integer, a float or
a string, never a boolean, array, table or date, and a repeated key is an
error.  Every key can be overridden by the CLI flag of the same name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError
from .grf import SAMPLERS, TRANSFORMS, MaternParams
from .landscape import MAX_ENTRIES


def _entries(raw: str, key: str, form: str) -> list[tuple[str, str, str]]:
    """(entry, left, right) for each nonblank comma-separated ``left:right`` entry of a text value."""
    entries = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{key} entry {item!r} is not {form!r}")
        entries.append((item, parts[0].strip(), parts[1].strip()))
    if not entries:
        raise ConfigError(f"need at least one {key} entry")
    return entries


def _parse_models(raw: str) -> tuple[tuple[str, str], ...]:
    models = tuple((name, transform) for _, name, transform in _entries(raw, "model", "name:transform"))
    for name, transform in models:
        # a name is a directory and a file name part of every output path, and a
        # field of the manifest and report lines, which a line break would split
        if name in ("", ".", "..") or "/" in name or "\\" in name or not name.isprintable():
            raise ConfigError(f"model name {name!r} must be one plain path component of printable characters")
        if transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform {transform!r} in model {name!r}")
    if len({name for name, _ in models}) != len(models):
        raise ConfigError("model names must be unique")
    # each model pair names one difference file "<a>v<b>" and one report row "<a> v <b>"
    pairs = list(combinations((name for name, _ in models), 2))
    for sep in ("v", " v "):
        joined = [sep.join(pair) for pair in pairs]
        if len(set(joined)) != len(joined):
            clash = next(name for name in joined if joined.count(name) > 1)
            raise ConfigError(f"two model pairs share the output name {clash!r}")
    return models


def _parse_matern_rows(raw: str) -> tuple[tuple[float, float], ...]:
    rows = []
    for item, eta, nu in _entries(raw, "matern", "eta:nu"):
        try:
            eta, nu = float(eta), float(nu)
        except ValueError:
            raise ConfigError(f"matern entry {item!r} is not numeric") from None
        try:
            MaternParams(eta, nu)  # finite and positive, nu with a normal covariance constant
        except ValueError as exc:
            raise ConfigError(f"matern entry {item!r}: {exc}") from None
        rows.append((eta, nu))
    # rows that print alike would share their output files
    if len({(format(eta, "g"), format(nu, "g")) for eta, nu in rows}) != len(rows):
        raise ConfigError("matern rows must be distinct to 6 significant digits")
    return tuple(rows)


def _parse_sampler(raw: str) -> str:
    if raw not in SAMPLERS:
        raise ConfigError(f"unknown sampler {raw!r}; available: {sorted(SAMPLERS)}")
    return raw


class Setting(NamedTuple):
    """One experiment key: its default, its ``--key`` help and, for a text key, its parser."""

    default: int | float | str
    help: str
    parse: Callable[[str], object] | None = None


def _key(default: int | float | str, help: str, parse: Callable[[str], object] | None = None):
    """An ``ExperimentConfig`` field that is the experiment key ``Setting(default, help, parse)``."""
    return field(metadata={"setting": Setting(default, help, parse)})


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: the seed, then one field per experiment key."""

    seed: int
    rows: int = _key(32, "grid rows")
    cols: int = _key(32, "grid columns")
    train: int = _key(100, "training samples per class")
    test: int = _key(100, "test samples per class")
    bins: int = _key(100, "sample-grid intervals (N)")
    depth: int = _key(10, "landscape levels kept (K)")
    cost: float = _key(1.0, "SVM cost parameter")
    threads: int = _key(1, "worker threads for per-sample work")
    out: Path = _key("fieldscape-out", "output directory", Path)
    models: tuple[tuple[str, str], ...] = _key(
        "M1:identity,M2:square,M3:absolute", 'model list, e.g. "M1:identity,M2:square"', _parse_models)
    matern: tuple[tuple[float, float], ...] = _key("5:1,10:1,5:2", 'matern rows, e.g. "5:1,10:1"', _parse_matern_rows)
    sampler: str = _key("circulant", f"field sampler, one of {', '.join(SAMPLERS)}", _parse_sampler)


SETTINGS = {f.name: f.metadata["setting"] for f in fields(ExperimentConfig) if "setting" in f.metadata}


def _integer(key: str, value) -> int:
    """``value`` as an int; a float must be finite and integral, never truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def check(key: str, value=None):
    """The config value of ``key`` set to ``value``; None means the default.

    An integer key must be a positive integer and a float key finite and
    positive; a text key's value goes through the key's parser.
    """
    default, _, parse = SETTINGS[key]
    if value is None:
        value = default
    if isinstance(default, str):
        return parse(str(value))
    if isinstance(default, int):
        value = _integer(key, value)
        if value < 1:
            raise ConfigError(f"{key} must be positive, got {value}")
        return value
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{key} must be finite and positive, got {value}")
    return value


def check_vector_size(bins: int, depth: int) -> None:
    """ConfigError unless a vector file can hold the 2 (bins + 1) depth entries of one landscape vector."""
    if 2 * (bins + 1) * depth > MAX_ENTRIES:
        raise ConfigError(f"bins {bins} and depth {depth} give {2 * (bins + 1) * depth} landscape entries, "
                          f"more than the {MAX_ENTRIES} a vector file may hold")


def build_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw mapping (file plus overrides) into an ExperimentConfig."""
    unknown = set(mapping) - {"seed", *SETTINGS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if mapping.get("seed") is None:
        raise ConfigError("seed is mandatory; wall-clock seeding is not supported")
    seed = _integer("seed", mapping["seed"])
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    cfg = ExperimentConfig(seed=seed, **{key: check(key, mapping.get(key)) for key in SETTINGS})
    check_vector_size(cfg.bins, cfg.depth)
    return cfg


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """The config of the TOML file at ``path`` (if any) with the non-None ``overrides`` laid over it.

    The file is decoded from its bytes, without newline translation, so a bare
    CR, which TOML rejects, is not read as a line break.
    """
    mapping: dict = {}
    if path is not None:
        import tomllib  # here, not at the top: a mapping passed to build_config never pays for the import

        try:
            mapping = tomllib.loads(Path(path).read_bytes().decode("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path} is not TOML: {exc}") from None
        for key, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ConfigError(f"{path}: {key} must be an integer, a float or a string, got {value!r}")
    if overrides:
        mapping.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(mapping)
