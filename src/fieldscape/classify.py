"""Linear soft-margin SVM with sigmoid probability calibration.

Training solves the L1-loss dual by coordinate descent over the box
0 <= alpha <= C with the bias folded in as a constant feature, visiting
samples in a fixed cyclic order so results are deterministic.  Landscape
vectors are far longer than a training set is large (2020 entries against
200 samples at the defaults), so the solver works on the n x n matrix
Q = (y y^T) * (X X^T + 1), built once per fit, not on the weight vector: it
reads each coordinate's gradient from G = Q alpha - 1, and each alpha change
updates G with one row of Q.  Every ``NEWTON_EVERY`` sweeps it also takes
one Newton step on the free set F = {i : 0 < alpha_i < C}: the min-norm
solution d of Q_FF d = -G_F, cut at the box.  A full step along d is the
exact minimum of the dual on that line even when Q_FF is singular, so a
step never raises the dual objective (``_free_set_newton_step``).
Landscape Gram matrices are ill-conditioned (at the defaults 150-175 of
Q's 200 eigenvalues lie below 1e-3 of its largest, and a single level's
slice has rank 30-60), and there the sweeps alone creep towards the
optimum: the 9 final fits of the default experiment take 60-661 sweeps
without the step and 21-151 with it.  Q costs 8 n^2 bytes, 0.3 MiB at
n = 200 where X is 3.1 MiB; it outgrows X only when n > d + 1, which at the
default bins and depth means more than 1010 training samples per class.  A
``MemoryError`` there maps to exit 2 like any other input too large to
hold.  The decision function is the plain dot product plus bias; features
are never standardized, so the geometry of the landscape vectors is
preserved.

Calibration follows the classic regularized sigmoid fit: smoothed targets
t+ = (N+ + 1)/(N+ + 2), t- = 1/(N- + 2) and Newton iterations with a
backtracking line search on held-out decision values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, TrainingError
from .landscape import SampleGrid, write_sparse

KKT_TOL = 1e-7
MAX_EPOCHS = 20000
NEWTON_EVERY = 10
SIGMOID_MAX_ITER = 100
FOLDS = 3
MODEL_HEADER = "N,K,C,A,B,bias"


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Feature matrix of stacked landscape vectors with +-1 labels."""

    X: np.ndarray          # (n_samples, n_features)
    y: np.ndarray          # (n_samples,) values in {-1, +1}

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("need a nonempty 2-d feature matrix")
        if y.shape != (len(X),):
            raise ValueError("labels do not match samples")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.X)

    def subset(self, idx) -> "LabeledSet":
        return LabeledSet(X=self.X[idx], y=self.y[idx])


@dataclass(frozen=True)
class EvalReport:
    accuracy: float     # percent correctly allocated
    calibration: float  # mean probability assigned to the true class, percent


def _logistic(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(z)), each tail written so that exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
    return out


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Weights, bias, and sigmoid calibration of a trained linear SVM."""

    w: np.ndarray
    b: float
    C: float
    platt: tuple[float, float] | None = None  # (A, B), probability 1/(1+exp(A f + B))

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels in {-1, +1}; the boundary itself maps to +1."""
        return np.where(self.decision(X) >= 0, 1.0, -1.0)

    def prob_positive(self, X: np.ndarray) -> np.ndarray:
        if self.platt is None:
            raise ValueError("model is not calibrated")
        a, b = self.platt
        return _logistic(a * self.decision(X) + b)


def train_svm(data: LabeledSet, C: float = 1.0) -> ClassifierModel:
    """Dual coordinate descent for the L1-loss linear SVM, on the Gram matrix, with free-set Newton steps.

    Step i reads its gradient G[i] from G = Q alpha - 1, and an alpha change
    updates G with row i of Q.  Sweeps visit the samples in the fixed cyclic
    order and stop once the largest projected-gradient violation of a full
    sweep drops below ``KKT_TOL``; ``TrainingError`` if none has by
    ``MAX_EPOCHS``.  After every ``NEWTON_EVERY``-th sweep that does not stop,
    ``_free_set_newton_step`` moves the free alphas towards the minimum of
    the dual over them, which never raises the dual objective.  Then
    w = X^T (alpha * y), b = sum(alpha * y).

    A training vector whose squared norm overflows leaves a diagonal entry
    of Q that is not finite, on which every step is a no-op; that raises
    ``TrainingError`` before the first sweep.
    """
    if C <= 0:
        raise ValueError("cost C must be positive")
    y = data.y
    if not (np.any(y > 0) and np.any(y < 0)):
        raise TrainingError("training needs both classes")
    if np.all(np.ptp(data.X, axis=0) == 0.0):
        raise TrainingError("degenerate data: all training vectors are identical")

    n = len(data)
    with np.errstate(over="ignore"):  # an overflow is reported below, as a TrainingError
        Q = (data.X @ data.X.T + 1.0) * np.outer(y, y)
    qii = Q.diagonal().tolist()
    if not np.all(np.isfinite(qii)):
        raise TrainingError("Gram matrix diagonal overflows: a training vector's squared norm is not finite")
    alpha = [0.0] * n
    G = np.full(n, -1.0)

    for epoch in range(1, MAX_EPOCHS + 1):
        worst = 0.0
        for i in range(n):
            g = G.item(i)
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                worst = max(worst, abs(pg))
                new = min(max(a - g / qii[i], 0.0), C)
                if new != a:
                    G += (new - a) * Q[i]  # Q is symmetric: row i is column i
                    alpha[i] = new
        if worst < KKT_TOL:
            break
        if epoch % NEWTON_EVERY == 0:
            alpha, G = _free_set_newton_step(Q, G, np.array(alpha), C)
    else:
        raise TrainingError(f"dual coordinate descent did not reach tol={KKT_TOL} "
                            f"within {MAX_EPOCHS} epochs")

    ay = np.array(alpha) * y
    return ClassifierModel(w=data.X.T @ ay, b=float(ay.sum()), C=float(C))


def _free_set_newton_step(Q: np.ndarray, G: np.ndarray, alpha: np.ndarray, C: float) -> tuple[list, np.ndarray]:
    """One Newton step on the free set F = {i : 0 < alpha_i < C}, cut at the box; returns (alpha, G = Q alpha - 1).

    d is the min-norm solution of Q_FF d = -G_F.  Along d the dual is
    q(t) = q(0) - s t + s t^2 / 2 with s = G_F . Q_FF^+ G_F >= 0, so t = 1 is
    its exact minimum even when Q_FF is singular, and any t in [0, 1]
    lowers it.  The step takes t = min(1, the largest t that keeps alpha_F
    in [0, C]); the clip only absorbs rounding.  G is recomputed in full.
    """
    free = np.flatnonzero((alpha > 0.0) & (alpha < C))
    if free.size:
        a = alpha[free]
        d = np.linalg.lstsq(Q[np.ix_(free, free)], -G[free], rcond=None)[0]
        with np.errstate(divide="ignore"):  # d_i = 0 gives an infinite reach, never the minimum
            reach = np.where(d < 0.0, -a / d, np.where(d > 0.0, (C - a) / d, np.inf))
        alpha[free] = np.clip(a + min(1.0, float(reach.min())) * d, 0.0, C)
        G = Q @ alpha - 1.0
    return alpha.tolist(), G


def fit_sigmoid(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Newton fit of p(y=+1 | f) = 1/(1 + exp(A f + B)) with smoothed targets."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n_pos = int(np.sum(labels > 0))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise CalibrationError("calibration needs both classes")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(labels > 0, hi, lo)

    min_step, sigma, tol = 1e-10, 1e-12, 1e-5
    a, b = 0.0, math.log((n_neg + 1.0) / (n_pos + 1.0))

    def nll(a_, b_):
        z = a_ * scores + b_
        # t*z + log(1 + exp(-z)) evaluated stably on both tails
        return float(np.sum(np.where(z >= 0, t * z + np.log1p(np.exp(-z)),
                                     (t - 1.0) * z + np.log1p(np.exp(z)))))

    fval = nll(a, b)
    for _ in range(SIGMOID_MAX_ITER):
        p = _logistic(a * scores + b)
        q = 1.0 - p
        d2 = p * q
        h11 = float(np.sum(scores * scores * d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.sum(scores * d2))
        d1 = t - p
        g1 = float(np.sum(scores * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < tol and abs(g2) < tol:
            return a, b
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            na, nb = a + step * da, b + step * db
            nf = nll(na, nb)
            if nf < fval + 1e-4 * step * gd:
                a, b, fval = na, nb, nf
                break
            step /= 2.0
        else:
            raise CalibrationError("sigmoid line search failed")
    raise CalibrationError(f"sigmoid fit did not converge in {SIGMOID_MAX_ITER} iterations")


def _fold_indices(y: np.ndarray) -> list[np.ndarray]:
    """Deterministic stratified folds: round-robin within each class in input order."""
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in (-1.0, 1.0):
        members = np.nonzero(y == cls)[0]
        assignment[members] = np.arange(len(members)) % FOLDS
    return [np.nonzero(assignment == f)[0] for f in range(FOLDS)]


def check_class_size(smallest: int) -> None:
    """ValueError unless the smallest class has 2 samples, so every fold's complement holds both classes."""
    if smallest < 2:
        raise ValueError(f"calibration needs at least 2 training samples per class for its {FOLDS}-fold "
                         f"split; the smallest class has {smallest}")


def train_calibrated(data: LabeledSet, C: float = 1.0) -> ClassifierModel:
    """Final model trained on all data; sigmoid fit on pooled out-of-fold scores."""
    check_class_size(int(min(np.sum(data.y > 0), np.sum(data.y < 0))))
    scores = np.empty(len(data))
    for fold in _fold_indices(data.y):
        rest = np.setdiff1d(np.arange(len(data)), fold)
        part = train_svm(data.subset(rest), C=C)
        scores[fold] = part.decision(data.X[fold])
    a, b = fit_sigmoid(scores, data.y)
    final = train_svm(data, C=C)
    return replace(final, platt=(a, b))


def evaluate(model: ClassifierModel, test: LabeledSet) -> EvalReport:
    """Percent accuracy and percent mean probability on the true class."""
    if len(test) == 0:
        raise ValueError("empty test set")
    correct = model.predict(test.X) == test.y
    p_pos = model.prob_positive(test.X)
    p_true = np.where(test.y > 0, p_pos, 1.0 - p_pos)
    return EvalReport(
        accuracy=100.0 * float(np.mean(correct)),
        calibration=100.0 * float(np.mean(p_true)),
    )


def write_model(model: ClassifierModel, grid: SampleGrid, depth: int, path) -> None:
    """Text format: ``N,K,C,A,B,bias`` header plus sparse ``index,value`` weights."""
    if model.platt is None:
        raise ValueError("write_model expects a calibrated model")
    a, b = model.platt
    write_sparse(path, MODEL_HEADER, "%d,%d" + ",%.17g" * 4, (grid.n_intervals, depth, model.C, a, b, model.b), model.w)
