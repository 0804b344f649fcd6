import itertools

import numpy as np
import pytest

from fieldscape.classify import (
    ClassifierModel,
    LabeledSet,
    evaluate,
    fit_sigmoid,
    primal_objective,
    read_model,
    train_calibrated,
    train_svm,
    write_model,
)
from fieldscape.errors import TrainingError
from fieldscape.landscape import SampleGrid


def qp_oracle(X, y, C):
    """Exact dual optimum by active-set enumeration (bias folded into the kernel)."""
    n = len(X)
    Xa = np.hstack([X, np.ones((n, 1))])
    Q = (Xa * y[:, None]) @ (Xa * y[:, None]).T
    best = -np.inf
    for assign in itertools.product((0, 1, 2), repeat=n):
        at_c = [i for i, s in enumerate(assign) if s == 1]
        free = [i for i, s in enumerate(assign) if s == 2]
        zero = [i for i, s in enumerate(assign) if s == 0]
        alpha = np.zeros(n)
        alpha[at_c] = C
        if free:
            rhs = np.ones(len(free))
            if at_c:
                rhs = rhs - Q[np.ix_(free, at_c)].sum(axis=1) * C
            try:
                sol = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol <= 1e-12) or np.any(sol >= C - 1e-12):
                continue
            alpha[free] = sol
        grad = Q @ alpha - 1.0
        if zero and np.any(grad[zero] < -1e-9):
            continue
        if at_c and np.any(grad[at_c] > 1e-9):
            continue
        best = max(best, float(alpha.sum() - 0.5 * alpha @ Q @ alpha))
    return best


class TestTrainSvm:
    def test_symmetric_separable_pair(self):
        data = LabeledSet(X=np.array([[-1.0], [1.0]]), y=np.array([-1.0, 1.0]))
        model = train_svm(data, C=100.0)
        f = model.decision(np.array([[-1.0], [1.0]]))
        assert np.allclose(f, [-1.0, 1.0], atol=1e-6)
        assert np.allclose(model.w, [1.0], atol=1e-6)
        assert abs(model.b) < 1e-6

    def test_duplication_invariance_hard_margin(self):
        # with zero hinge at the optimum, duplicating points changes nothing
        X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        single = train_svm(LabeledSet(X=X, y=y), C=1000.0)
        doubled = train_svm(LabeledSet(X=np.vstack([X, X]), y=np.hstack([y, y])), C=1000.0)
        probe = np.array([[1.0, 0.5], [2.0, 0.2], [-1.0, 3.0]])
        assert np.allclose(single.decision(probe), doubled.decision(probe), atol=1e-4)

    def test_separable_zero_training_error_and_qp_objective(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            n = int(rng.integers(4, 9))
            X = rng.standard_normal((n, 2))
            y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0, 1.0, -1.0)
            if len(np.unique(y)) < 2:
                continue
            C = float(rng.choice([0.5, 1.0, 10.0]))
            data = LabeledSet(X=X, y=y)
            model = train_svm(data, C=C)
            oracle = qp_oracle(X, y, C)
            # strong duality: primal at the solution meets the exact dual optimum
            assert abs(primal_objective(data, model) - oracle) < 1e-5
        # and a genuinely separable set trains to zero error
        Xs = np.array([[0.0, 0.0], [0.1, 0.2], [2.0, 2.0], [2.2, 1.8]])
        ys = np.array([-1.0, -1.0, 1.0, 1.0])
        m = train_svm(LabeledSet(X=Xs, y=ys), C=10.0)
        assert np.all(m.predict(Xs) == ys)

    def test_mixed_data_qp_objective(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            n = int(rng.integers(4, 8))
            X = rng.standard_normal((n, 2))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            if len(np.unique(y)) < 2:
                y[0] = -y[0]
            C = float(rng.choice([0.5, 2.0]))
            data = LabeledSet(X=X, y=y)
            model = train_svm(data, C=C)
            assert abs(primal_objective(data, model) - qp_oracle(X, y, C)) < 1e-5

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((30, 6))
        y = np.where(X[:, 0] + 0.1 * rng.standard_normal(30) > 0, 1.0, -1.0)
        perm = rng.permutation(30)
        a = train_svm(LabeledSet(X=X, y=y), C=1.0)
        b = train_svm(LabeledSet(X=X[perm], y=y[perm]), C=1.0)
        assert np.max(np.abs(a.decision(X) - b.decision(X))) < 1e-6

    def test_scale_relation(self):
        # gamma-scaled features with cost C / gamma^2 classify identically
        rng = np.random.default_rng(54)
        X = np.abs(rng.standard_normal((40, 5)))
        y = np.where(X[:, 0] > X[:, 1], 1.0, -1.0)
        gamma = 7.5
        base = train_svm(LabeledSet(X=X, y=y), C=1.0)
        scaled = train_svm(LabeledSet(X=gamma * X, y=y), C=1.0 / gamma**2)
        probe = np.abs(rng.standard_normal((60, 5)))
        assert np.array_equal(base.predict(probe), scaled.predict(gamma * probe))

    def test_degenerate_data_rejected(self):
        X = np.ones((6, 3))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        with pytest.raises(TrainingError):
            train_svm(LabeledSet(X=X, y=y), C=1.0)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_svm(LabeledSet(X=np.eye(3), y=np.ones(3)), C=1.0)


class TestPlatt:
    def test_separated_holdout_gets_confident_probabilities(self):
        rng = np.random.default_rng(56)
        X = np.vstack([rng.normal(-2, 0.3, (20, 1)), rng.normal(2, 0.3, (20, 1))])
        y = np.hstack([-np.ones(20), np.ones(20)])
        model = train_svm(LabeledSet(X=X, y=y), C=10.0)
        a, b = fit_sigmoid(model.decision(X), y)
        assert a < 0  # positively oriented decision function
        calibrated = ClassifierModel(w=model.w, b=model.b, C=model.C, platt=(a, b))
        p = calibrated.prob_positive(X)
        p_true = np.where(y > 0, p, 1 - p)
        assert np.all(p_true > 0.5)
        assert np.all((p > 0) & (p < 1))

    def test_symmetric_scores_balanced_labels(self):
        a, b = fit_sigmoid(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
        assert abs(b) < 1e-6

    def test_constant_scores_hit_smoothed_base_rate(self):
        n_pos, n_neg = 6, 4
        scores = np.zeros(n_pos + n_neg)
        labels = np.hstack([np.ones(n_pos), -np.ones(n_neg)])
        a, b = fit_sigmoid(scores, labels)
        p = 1.0 / (1.0 + np.exp(b))
        hi = (n_pos + 1) / (n_pos + 2)
        lo = 1 / (n_neg + 2)
        expected = (n_pos * hi + n_neg * lo) / (n_pos + n_neg)
        assert abs(p - expected) < 1e-6

    @pytest.mark.parametrize("n_pos, n_neg", [(1, 5), (1, 1), (4, 0)])
    def test_class_below_two_samples_is_bad_input(self, n_pos, n_neg):
        """A class too small for every fold complement to hold it is a ValueError, not a numerical failure."""
        X = np.arange(n_pos + n_neg, dtype=float)[:, None]
        y = np.hstack([np.ones(n_pos), -np.ones(n_neg)])
        with pytest.raises(ValueError, match=f"3-fold split; the smallest class has {min(n_pos, n_neg)}$"):
            train_calibrated(LabeledSet(X=X, y=y))


class TestEvaluate:
    def _perfect_model(self):
        # huge margins with steep calibration: probabilities indistinguishable from 1
        return ClassifierModel(w=np.array([100.0]), b=0.0, C=1.0, platt=(-50.0, 0.0))

    def test_all_correct_with_certain_probabilities(self):
        model = self._perfect_model()
        test = LabeledSet(X=np.array([[-1.0], [1.0], [2.0]]), y=np.array([-1.0, 1.0, 1.0]))
        report = evaluate(model, test)
        assert report.accuracy == 100.0
        assert report.calibration == pytest.approx(100.0, abs=1e-8)

    def test_constant_classifier_on_balanced_data(self):
        model = ClassifierModel(w=np.array([0.0]), b=1.0, C=1.0, platt=(-1.0, 0.0))
        X = np.ones((10, 1))
        y = np.hstack([np.ones(5), -np.ones(5)])
        report = evaluate(model, LabeledSet(X=X, y=y))
        assert report.accuracy == 50.0

    def test_calibration_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(57)
        X = rng.standard_normal((30, 2)) * 50
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        model = train_calibrated(LabeledSet(X=X, y=y), C=1.0)
        p = model.prob_positive(X)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_empty_test_rejected(self):
        model = self._perfect_model()
        with pytest.raises(ValueError):
            evaluate(model, LabeledSet(X=np.zeros((0, 1)), y=np.zeros(0)))


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(58)
        grid = SampleGrid.uniform(0.0, 2.0, 4)
        depth = 2
        dim = 2 * grid.n_points * depth
        X = rng.standard_normal((12, dim))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        model = train_calibrated(LabeledSet(X=X, y=y, grid=grid, depth=depth), C=2.0)
        path = tmp_path / "model.txt"
        write_model(model, grid, depth, path)
        loaded, n, k = read_model(path)
        assert (n, k) == (4, 2)
        assert np.array_equal(loaded.w, model.w)
        assert loaded.b == model.b and loaded.C == model.C and loaded.platt == model.platt

    def test_header(self, tmp_path):
        model = ClassifierModel(w=np.zeros(6), b=0.5, C=1.0, platt=(-1.0, 0.25))
        path = tmp_path / "model.txt"
        write_model(model, SampleGrid.uniform(0, 1, 2), 1, path)
        assert path.read_text().splitlines()[0] == "N,K,C,A,B,bias"

    @pytest.mark.parametrize("line", ["-1,5", "6,5", "1,nan", "1,inf"])
    def test_rejects_bad_entries(self, tmp_path, line):
        path = tmp_path / "model.txt"
        path.write_text(f"N,K,C,A,B,bias\n2,1,1,-1,0,0.5\nindex,value\n{line}\n")
        with pytest.raises(ValueError):
            read_model(path)
