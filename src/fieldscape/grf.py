"""Stationary unit-variance Gaussian random fields on a grid with Matern covariance.

Two exact samplers: a dense Cholesky factorization (ground truth, guarded to
small grids) and circulant embedding on an enlarged torus via FFT (the fast
path, O(n log n)).  Each is split into a ``FieldLaw``, built once per
covariance by ``field_law`` (the circulant spectrum or the Cholesky factor,
with the fallback warning, once per law), and its cheap ``draw(rng)``, the
one way to draw a field.  ``rng`` is a Philox ``substream`` generator, so
per-sample substreams are reproducible and safe to draw in parallel from one
shared law.

A field's law is set by its range eta and smoothness nu alone, with lags
counted in grid steps.  Both samplers read one table, ``_lag_covariance``:
the Matern correlation at lags 0..n-1 on each axis.  The dense covariance
indexes it by each vertex pair's lags |i - k| and |j - l|; the tr x tc torus
reads a (tr/2 + 1) x (tc/2 + 1) table at the wrapped lags min(i, tr - i) and
min(j, tc - j), which never exceed tr/2 and tc/2.  Equal lags give equal
``matern_cov`` values, so the spectrum is bitwise that of the whole torus.
The table itself evaluates ``matern_cov`` once per distinct squared lag
a**2 + b**2, an exact integer, and equal squares have equal roots: a 257 x 257
table holds 66049 lags but 22026 distinct squares.

Model classes are pointwise transformations of the Gaussian field.  The
built-in M1/M2/M3 assignments (identity, square, absolute) are illustrative
placeholders so the pipeline runs end to end; they are not canonical model
definitions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cubical import ScalarField
from .errors import ConfigError, FactorizationError

CHOLESKY_VERTEX_GUARD = 4096
MAX_PAD_FACTOR = 8  # the circulant torus grows to at most 2 * MAX_PAD_FACTOR times the grid per axis
COV_JITTER = 1e-10  # added to the unit diagonal before factorizing


def matern_coefficient(nu: float) -> float:
    """The constant 2**(1 - nu) / Gamma(nu) of the Matern covariance."""
    return 2.0 ** (1.0 - nu) / special.gamma(nu)


@dataclass(frozen=True)
class MaternParams:
    """A unit-variance Matern field: range eta in grid steps and smoothness nu, both finite and positive.

    ``matern_coefficient(nu)`` must be a normal float: past nu of about 151 the covariance would fade to 0.
    """

    eta: float
    nu: float

    def __post_init__(self):
        for name in ("eta", "nu"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"MaternParams.{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)
        if not matern_coefficient(self.nu) >= np.finfo(float).tiny:
            raise ValueError(f"MaternParams.nu = {self.nu:g}: 2**(1-nu)/Gamma(nu) is not a normal float")


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


def matern_cov(d, p: MaternParams) -> np.ndarray | float:
    """Matern correlation at lag d >= 0 grid steps; continuous with C(0) = 1, the unit variance."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    scaled = np.atleast_1d(np.sqrt(2.0 * p.nu) * d / p.eta)
    out = np.ones(scaled.shape, dtype=np.float64)
    pos = scaled > 0
    if np.any(pos):
        s = scaled[pos]
        kv = special.kv(p.nu, s)
        # K_nu overflows only at tiny s, where the limit is 1; s**nu
        # overflows only at large s, where K_nu underflows and the limit is 0
        with np.errstate(over="ignore", invalid="ignore"):
            vals = matern_coefficient(p.nu) * s**p.nu * kv
        out[pos] = np.where(np.isfinite(vals), vals, np.where(np.isinf(kv), 1.0, 0.0))
    return out.reshape(d.shape) if d.ndim else float(out[0])


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for one deterministic substream of a master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _lag_covariance(p: MaternParams, rows: int, cols: int) -> np.ndarray:
    """The rows x cols lag table: the covariance at row lag a and column lag b, for a < rows and b < cols.

    ``matern_cov`` runs once per distinct a**2 + b**2, in ascending order,
    into a lookup table by squared lag: no sort, and 2.5 times faster than
    ``np.unique`` at 257 x 257.
    """
    di, dj = np.arange(rows), np.arange(cols)
    squared = di[:, None] ** 2 + dj[None, :] ** 2
    occurs = np.zeros(squared[-1, -1] + 1, dtype=bool)  # the last lag is the longest
    occurs[squared] = True
    by_square = np.zeros(len(occurs))
    by_square[occurs] = matern_cov(np.sqrt(np.flatnonzero(occurs).astype(np.float64)), p)
    return by_square[squared]


def covariance_matrix(p: MaternParams, rows: int, cols: int) -> np.ndarray:
    """Dense covariance of the row-major vertices: the rows x cols lag table at (|i - k|, |j - l|)."""
    i, j = np.arange(rows), np.arange(cols)
    lag_i, lag_j = np.abs(i[:, None] - i), np.abs(j[:, None] - j)
    table = _lag_covariance(p, rows, cols)
    return table[lag_i[:, None, :, None], lag_j[None, :, None, :]].reshape(rows * cols, rows * cols)


@dataclass(frozen=True, eq=False)
class FieldLaw:
    """The law of a Matern Gaussian field on a rows x cols grid, factored once for many draws.

    On the circulant path ``pad_factor`` is the torus pad factor and ``root``
    holds sqrt(lam / (tr * tc)) on the tr x tc torus.  On the dense path
    ``pad_factor`` is None and ``root`` is the lower Cholesky factor of the
    jittered covariance.  ``root`` is read-only, so threads may share a law;
    ``draw`` takes each field's own ``substream`` generator.
    """

    rows: int
    cols: int
    pad_factor: int | None
    root: np.ndarray

    def __post_init__(self):
        self.root.flags.writeable = False

    def draw(self, rng: np.random.Generator) -> ScalarField:
        """One field from ``rng``, a ``substream`` generator: on the torus, ``fft2(root * eps).real[:rows, :cols]``.

        ``root`` scales the real normals of ``eps``, drawn first, and then its imaginary ones straight into one
        complex array: ``root * eps`` but for the sign of an exact zero, so the field is the same bit for bit.
        """
        rows, cols, root = self.rows, self.cols, self.root
        if self.pad_factor is None:
            return ScalarField(rows, cols, (root @ rng.standard_normal(rows * cols)).reshape(rows, cols))
        z = np.empty(root.shape, dtype=np.complex128)
        np.multiply(root, rng.standard_normal(root.shape), out=z.real)
        np.multiply(root, rng.standard_normal(root.shape), out=z.imag)
        return ScalarField(rows, cols, np.fft.fft(np.fft.fft(z)[:, :cols], axis=0)[:rows].real)


def _cholesky_law(p: MaternParams, rows: int, cols: int) -> FieldLaw:
    if rows * cols > CHOLESKY_VERTEX_GUARD:
        raise ValueError(f"{rows}x{cols} exceeds the dense factorization guard ({CHOLESKY_VERTEX_GUARD} vertices)")
    cov = covariance_matrix(p, rows, cols)
    cov[np.diag_indices_from(cov)] += COV_JITTER
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"covariance not positive definite after jitter: {exc}") from exc
    return FieldLaw(rows, cols, None, chol)


def _circulant_eigenvalues(p: MaternParams, torus_rows: int, torus_cols: int) -> np.ndarray:
    """Torus spectrum: ``fft2`` of the (tr/2 + 1) x (tc/2 + 1) lag table at (min(i, tr - i), min(j, tc - j))."""
    i, j = np.arange(torus_rows), np.arange(torus_cols)
    table = _lag_covariance(p, torus_rows // 2 + 1, torus_cols // 2 + 1)
    kernel = table[np.minimum(i, torus_rows - i)[:, None], np.minimum(j, torus_cols - j)]
    return np.fft.fft2(kernel).real  # kernel is even in both axes


def _circulant_law(p: MaternParams, rows: int, cols: int) -> FieldLaw:
    """The torus starts at twice the grid and doubles until the embedded covariance is nonnegative definite.

    Beyond ``MAX_PAD_FACTOR`` the law falls back to the Cholesky factor with a
    warning, or raises FactorizationError past the Cholesky guard.  Same law
    as the dense sampler, not bit-identical draws.
    """
    factor = 1
    while factor <= MAX_PAD_FACTOR:
        tr, tc = 2 * factor * rows, 2 * factor * cols
        lam = _circulant_eigenvalues(p, tr, tc)
        if lam.min() >= -1e-10 * lam.max():
            return FieldLaw(rows, cols, factor, np.sqrt(np.maximum(lam, 0.0) / (tr * tc)))
        factor *= 2
    if rows * cols > CHOLESKY_VERTEX_GUARD:
        raise FactorizationError(
            f"circulant embedding not nonnegative definite up to pad factor {MAX_PAD_FACTOR}, "
            f"and {rows}x{cols} exceeds the Cholesky fallback's guard ({CHOLESKY_VERTEX_GUARD} vertices)"
        )
    warnings.warn(
        f"circulant embedding not nonnegative definite up to pad factor {MAX_PAD_FACTOR}; "
        "falling back to the Cholesky sampler",
        RuntimeWarning,
        stacklevel=3,
    )
    return _cholesky_law(p, rows, cols)


SAMPLERS = {
    "circulant": _circulant_law,
    "cholesky": _cholesky_law,
}


def field_law(p: MaternParams, rows: int, cols: int, sampler: str = "circulant") -> FieldLaw:
    """The law of one Matern field on a rows x cols grid under ``sampler``, built for many draws.

    Every field of one covariance draws from one law, so the spectrum or the
    factor is built once and each ``draw`` costs its random numbers and one
    matrix product, or ``fft2`` pruned to the grid's columns, then rows.  The
    fallback warning and any FactorizationError come from here, once per law;
    ``law.draw(rng)`` with a ``substream`` generator draws a field.
    """
    try:
        build = SAMPLERS[sampler]
    except KeyError:
        raise ConfigError(f"unknown sampler {sampler!r}; available: {sorted(SAMPLERS)}") from None
    return build(p, rows, cols)


def sample_model(spec: ModelSpec, rows: int, cols: int, rng: np.random.Generator, sampler: str = "circulant", *,
                 law: FieldLaw | None = None) -> ScalarField:
    """Draw the Gaussian field from ``rng`` and apply the model's pointwise transform.

    ``rng`` is the field's ``substream`` generator, passed to ``law.draw``.
    ``law`` is ``field_law(spec.matern, rows, cols, sampler)`` built once by a
    caller that draws many fields of one covariance; without it this call
    builds its own.
    """
    try:
        transform = TRANSFORMS[spec.transform]
    except KeyError:
        raise ConfigError(
            f"unknown transform {spec.transform!r}; available: {sorted(TRANSFORMS)}"
        ) from None
    if law is None:
        law = field_law(spec.matern, rows, cols, sampler)
    gauss = law.draw(rng)
    return ScalarField(rows, cols, transform(gauss.values))
