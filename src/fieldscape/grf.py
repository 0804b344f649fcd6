"""Stationary Gaussian random fields on a grid with Matern covariance.

Two exact samplers: a dense Cholesky factorization (ground truth, guarded to
small grids) and circulant embedding on an enlarged torus via FFT (the fast
path, O(n log n)).  Both are driven by Philox counter-based generators so
per-sample substreams are reproducible and safe to draw in parallel.

Model classes are pointwise transformations of the Gaussian field.  The
built-in M1/M2/M3 assignments (identity, square, absolute) are illustrative
placeholders so the pipeline runs end to end; they are not canonical model
definitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cubical import ScalarField
from .errors import ConfigError, FactorizationError

CHOLESKY_VERTEX_GUARD = 4096
COV_JITTER = 1e-10  # times sigma2, added to the diagonal before factorizing


@dataclass(frozen=True)
class MaternParams:
    """Range eta (grid-spacing units), smoothness nu, variance sigma2, grid step."""

    eta: float
    nu: float
    sigma2: float = 1.0
    spacing: float = 1.0

    def __post_init__(self):
        for name in ("eta", "nu", "sigma2", "spacing"):
            value = float(getattr(self, name))
            if not value > 0:
                raise ValueError(f"MaternParams.{name} must be positive")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ModelSpec:
    """A named model: a pointwise transform applied to a Matern Gaussian field."""

    name: str
    transform: str
    matern: MaternParams


TRANSFORMS = {
    "identity": lambda x: x,
    "square": np.square,
    "absolute": np.abs,
}


def bessel_k(nu: float, x) -> np.ndarray | float:
    """Modified Bessel function of the second kind K_nu, x > 0."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("bessel_k requires x > 0")
    out = special.kv(nu, x)
    if np.any(~np.isfinite(out)):
        raise ValueError(f"bessel_k overflowed at nu={nu}")
    return out if out.ndim else float(out)


def matern_cov(d, p: MaternParams) -> np.ndarray | float:
    """Matern covariance at distance d >= 0; continuous with C(0) = sigma2."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    scaled = np.atleast_1d(np.sqrt(2.0 * p.nu) * d / p.eta)
    out = np.full(scaled.shape, p.sigma2, dtype=np.float64)
    pos = scaled > 0
    if np.any(pos):
        s = scaled[pos]
        vals = (
            p.sigma2
            * (2.0 ** (1.0 - p.nu) / special.gamma(p.nu))
            * s**p.nu
            * special.kv(p.nu, s)
        )
        # K_nu overflows for denormal-tiny s where the true limit is sigma2;
        # at huge s it underflows to the correct 0
        out[pos] = np.where(np.isfinite(vals), vals, p.sigma2)
    return out.reshape(d.shape) if d.ndim else float(out[0])


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for one deterministic substream of a master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def _grid_coords(rows: int, cols: int, spacing: float) -> np.ndarray:
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return spacing * np.column_stack([rr.ravel(), cc.ravel()]).astype(np.float64)


def covariance_matrix(p: MaternParams, rows: int, cols: int) -> np.ndarray:
    """Dense vertex-by-vertex covariance under the Matern model."""
    coords = _grid_coords(rows, cols, p.spacing)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    return matern_cov(dist, p)


def sample_field_cholesky(p: MaternParams, rows: int, cols: int, seed) -> ScalarField:
    """Exact sampler via dense Cholesky; guarded to small grids."""
    n = rows * cols
    if n > CHOLESKY_VERTEX_GUARD:
        raise ValueError(f"{rows}x{cols} exceeds the dense factorization guard ({CHOLESKY_VERTEX_GUARD} vertices)")
    rng = _as_generator(seed)
    cov = covariance_matrix(p, rows, cols)
    cov[np.diag_indices_from(cov)] += COV_JITTER * p.sigma2
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance not positive definite after jitter: {exc}") from exc
    z = chol @ rng.standard_normal(n)
    return ScalarField(rows, cols, z.reshape(rows, cols))


def _circulant_eigenvalues(p: MaternParams, torus_rows: int, torus_cols: int) -> np.ndarray:
    i = np.arange(torus_rows)
    j = np.arange(torus_cols)
    di = np.minimum(i, torus_rows - i)
    dj = np.minimum(j, torus_cols - j)
    dist = p.spacing * np.sqrt(di[:, None] ** 2.0 + dj[None, :] ** 2.0)
    kernel = matern_cov(dist, p)
    return np.fft.fft2(kernel).real  # kernel is even in both axes


def sample_field_circulant(
    p: MaternParams, rows: int, cols: int, seed, max_pad_factor: int = 8
) -> ScalarField:
    """FFT sampler by circulant embedding on an enlarged torus.

    The torus starts at twice the grid and doubles until the embedded
    covariance is nonnegative definite; beyond ``max_pad_factor`` it falls
    back to the Cholesky sampler with a warning, or raises
    FactorizationError when the grid exceeds the Cholesky guard.  Same law
    as the dense sampler, not bit-identical to it.
    """
    rng = _as_generator(seed)
    factor = 1
    while factor <= max_pad_factor:
        tr, tc = 2 * factor * rows, 2 * factor * cols
        lam = _circulant_eigenvalues(p, tr, tc)
        floor = -1e-10 * lam.max()
        if lam.min() >= floor:
            lam = np.maximum(lam, 0.0)
            eps = rng.standard_normal((tr, tc)) + 1j * rng.standard_normal((tr, tc))
            spectrum = np.sqrt(lam / (tr * tc))
            draw = np.fft.fft2(spectrum * eps)
            return ScalarField(rows, cols, draw.real[:rows, :cols])
        factor *= 2
    if rows * cols > CHOLESKY_VERTEX_GUARD:
        raise FactorizationError(
            f"circulant embedding not nonnegative definite up to pad factor {max_pad_factor}, "
            f"and {rows}x{cols} exceeds the Cholesky fallback's guard ({CHOLESKY_VERTEX_GUARD} vertices)"
        )
    warnings.warn(
        f"circulant embedding not nonnegative definite up to pad factor {max_pad_factor}; "
        "falling back to the Cholesky sampler",
        RuntimeWarning,
        stacklevel=2,
    )
    return sample_field_cholesky(p, rows, cols, rng)


SAMPLERS = {
    "circulant": sample_field_circulant,
    "cholesky": sample_field_cholesky,
}


def sample_model(spec: ModelSpec, rows: int, cols: int, seed, sampler: str = "circulant") -> ScalarField:
    """Draw the Gaussian field and apply the model's pointwise transform."""
    try:
        transform = TRANSFORMS[spec.transform]
    except KeyError:
        raise ConfigError(
            f"unknown transform {spec.transform!r}; available: {sorted(TRANSFORMS)}"
        ) from None
    try:
        draw = SAMPLERS[sampler]
    except KeyError:
        raise ConfigError(f"unknown sampler {sampler!r}; available: {sorted(SAMPLERS)}") from None
    gauss = draw(spec.matern, rows, cols, seed)
    return ScalarField(rows, cols, transform(gauss.values))
