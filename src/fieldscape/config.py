"""Experiment configuration: flat key-value files plus CLI overrides.

Config files are a flat subset of TOML: ``key = value`` lines where value is
an integer, a float, or a double-quoted string; no key takes a boolean.
Comments start with ``#``.  Every key can be overridden by the CLI flag of
the same name.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .grf import SAMPLERS, TRANSFORMS

DEFAULTS = {
    "rows": 32,
    "cols": 32,
    "train": 100,
    "test": 100,
    "bins": 100,   # N: sample-grid intervals
    "depth": 10,   # K: landscape levels kept
    "cost": 1.0,
    "threads": 1,
    "out": "fieldscape-out",
    "models": "M1:identity,M2:square,M3:absolute",
    "matern": "5:1,10:1,5:2",
    "sigma2": 1.0,
    "spacing": 1.0,
    "sampler": "circulant",
}

_COUNT_KEYS = ("rows", "cols", "train", "test", "bins", "depth", "threads")


def parse_flat_config(text: str, source: str = "<config>") -> dict:
    """Parse the flat TOML subset into a raw key-value mapping."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if value.startswith('"'):
            end = value.find('"', 1)
            rest = value[end + 1 :].strip() if end > 0 else ""
            if end < 0 or (rest and not rest.startswith("#")):
                raise ConfigError(f"{source}:{lineno}: malformed string value")
            out[key] = value[1:end]
        else:
            comment = value.find("#")
            if comment >= 0:
                value = value[:comment].strip()
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    raise ConfigError(
                        f"{source}:{lineno}: bare value {value!r} is not a number; quote strings"
                    ) from None
    return out


def _parse_models(raw: str) -> list[tuple[str, str]]:
    models = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"model entry {item!r} is not 'name:transform'")
        name, transform = parts[0].strip(), parts[1].strip()
        if transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform {transform!r} in model {name!r}")
        models.append((name, transform))
    if len(models) < 1:
        raise ConfigError("need at least one model")
    if len({name for name, _ in models}) != len(models):
        raise ConfigError("model names must be unique")
    return models


def _parse_matern_rows(raw: str) -> list[tuple[float, float]]:
    rows = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"matern entry {item!r} is not 'eta:nu'")
        try:
            eta, nu = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"matern entry {item!r} is not numeric") from None
        if eta <= 0 or nu <= 0:
            raise ConfigError(f"matern entry {item!r} must be positive")
        rows.append((eta, nu))
    if not rows:
        raise ConfigError("need at least one matern row")
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    rows: int = DEFAULTS["rows"]
    cols: int = DEFAULTS["cols"]
    train: int = DEFAULTS["train"]
    test: int = DEFAULTS["test"]
    bins: int = DEFAULTS["bins"]
    depth: int = DEFAULTS["depth"]
    cost: float = DEFAULTS["cost"]
    threads: int = DEFAULTS["threads"]
    out: Path = Path(DEFAULTS["out"])
    models: tuple[tuple[str, str], ...] = ()
    matern: tuple[tuple[float, float], ...] = ()
    sigma2: float = DEFAULTS["sigma2"]
    spacing: float = DEFAULTS["spacing"]
    sampler: str = DEFAULTS["sampler"]


def build_config(mapping: dict) -> ExperimentConfig:
    """Validate a raw mapping (file plus overrides) into an ExperimentConfig."""
    known = set(DEFAULTS) | {"seed"}
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in mapping or mapping["seed"] is None:
        raise ConfigError("seed is mandatory; wall-clock seeding is not supported")

    merged = dict(DEFAULTS)
    merged.update({k: v for k, v in mapping.items() if v is not None})

    try:
        seed = int(merged["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {merged['seed']!r}") from None
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    for key in _COUNT_KEYS:
        try:
            merged[key] = int(merged[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {merged[key]!r}") from None
        if merged[key] < 1:
            raise ConfigError(f"{key} must be positive, got {merged[key]}")

    for key in ("cost", "sigma2", "spacing"):
        try:
            merged[key] = float(merged[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {merged[key]!r}") from None
        if merged[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {merged[key]}")

    if merged["sampler"] not in SAMPLERS:
        raise ConfigError(f"unknown sampler {merged['sampler']!r}; available: {sorted(SAMPLERS)}")

    return ExperimentConfig(
        seed=seed,
        rows=merged["rows"],
        cols=merged["cols"],
        train=merged["train"],
        test=merged["test"],
        bins=merged["bins"],
        depth=merged["depth"],
        cost=merged["cost"],
        threads=merged["threads"],
        out=Path(merged["out"]),
        models=tuple(_parse_models(str(merged["models"]))),
        matern=tuple(_parse_matern_rows(str(merged["matern"]))),
        sigma2=merged["sigma2"],
        spacing=merged["spacing"],
        sampler=str(merged["sampler"]),
    )


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    mapping: dict = {}
    if path is not None:
        source = str(path)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
        mapping.update(parse_flat_config(text, source=source))
    if overrides:
        mapping.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(mapping)
