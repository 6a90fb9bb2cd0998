"""Weighted logistic regression: gradient exactness, the Newton solver against the
gradient-descent oracle, convergence warnings, scoring contracts."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from oracles import oracle_gd_logreg

from fairbench.dataset import TabularDataset, make_synthetic
from fairbench.errors import FairbenchWarning, FitError
from fairbench.metrics import classification_metrics
from fairbench.model import LogRegConfig, fit_model, loss_and_gradient, predict_scores, train_logreg
from fairbench.model import logreg as logreg_module


def separable_fixture():
    rng = np.random.default_rng(0)
    n = 60
    labels = np.array([0, 1] * (n // 2))
    features = np.column_stack([labels * 4.0 - 2.0 + rng.normal(scale=0.1, size=n),
                                rng.normal(size=n)])
    return TabularDataset(features, labels, np.array([0, 0, 1, 1] * (n // 4)),
                          np.ones(n), ("sep", "noise"), "separable")


def _dataset(features, labels, name):
    n, d = features.shape
    protected = np.arange(n) % 2
    return TabularDataset(features, labels, protected, np.ones(n), tuple(f"f{j}" for j in range(d)), name)


def _labels_from(rng, logit):
    return (rng.random(len(logit)) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)


def one_hot_fixture():
    """A full 5-level one-hot block (collinear with the intercept) and two numerics."""
    rng = np.random.default_rng(20)
    n = 300
    level = rng.integers(0, 5, n)
    num = rng.normal(size=(n, 2))
    features = np.column_stack([np.eye(5)[level], num])
    return _dataset(features, _labels_from(rng, 0.6 * level - 1.2 + num[:, 0]), "one_hot")


def lfr_shaped_fixture():
    """Rank <= 10: soft assignments to 10 prototypes times the prototypes, as LFR outputs."""
    rng = np.random.default_rng(21)
    n, d, k = 300, 20, 10
    logits = 3.0 * rng.normal(size=(n, k))
    assign = np.exp(logits - logits.max(axis=1, keepdims=True))
    assign /= assign.sum(axis=1, keepdims=True)
    features = assign @ rng.normal(size=(k, d))
    return _dataset(features, _labels_from(rng, 2.0 * features[:, 0] - features[:, 1]), "lfr_shaped")


def dir_shaped_fixture():
    """A one-hot block plus a repaired copy of its level index: nearly, not exactly, collinear."""
    rng = np.random.default_rng(22)
    n = 400
    level = rng.integers(0, 8, n)
    repaired = level + rng.normal(scale=0.05, size=n)
    features = np.column_stack([np.eye(8)[level], repaired, rng.normal(size=n)])
    return _dataset(features, _labels_from(rng, 0.5 * level - 2.0 + features[:, -1]), "dir_shaped")


ORACLE_FIXTURES = {
    "synthetic": lambda: make_synthetic(seed=4, n=150, disparity=0.2),
    "one_hot": one_hot_fixture,
    "lfr_shaped": lfr_shaped_fixture,
    "dir_shaped": dir_shaped_fixture,
}


class TestGradient:
    def test_matches_central_differences_at_10_random_points(self):
        rng = np.random.default_rng(1)
        n, d = 25, 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.uniform(0.2, 2.0, n)
        eps = 1e-6
        for _ in range(10):
            coef = rng.normal(size=d)
            intercept = float(rng.normal())
            _, grad_c, grad_b = loss_and_gradient(x, y, w, coef, intercept, 0.05)
            num_c = np.zeros(d)
            for j in range(d):
                up, down = coef.copy(), coef.copy()
                up[j] += eps
                down[j] -= eps
                num_c[j] = (loss_and_gradient(x, y, w, up, intercept, 0.05)[0]
                            - loss_and_gradient(x, y, w, down, intercept, 0.05)[0]) / (2 * eps)
            num_b = (loss_and_gradient(x, y, w, coef, intercept + eps, 0.05)[0]
                     - loss_and_gradient(x, y, w, coef, intercept - eps, 0.05)[0]) / (2 * eps)
            rel = max(np.abs(grad_c - num_c).max() / max(np.abs(num_c).max(), 1e-12),
                      abs(grad_b - num_b) / max(abs(num_b), 1e-12))
            assert rel <= 1e-6


class TestTraining:
    def test_separable_perfect_training_accuracy(self):
        ds = separable_fixture()
        model = train_logreg(ds, LogRegConfig(l2=1e-4))
        scores = predict_scores(model, ds)
        m = classification_metrics(ds.labels, scores, 0.5, ds.protected)
        assert m.balanced_accuracy == 1.0

    def test_duplicated_record_equals_doubled_weight(self):
        ds = make_synthetic(seed=2, n=40, disparity=0.2)
        dup_idx = np.concatenate([np.arange(40), [7]])
        duplicated = ds.take(dup_idx)
        weights = np.ones(40)
        weights[7] = 2.0
        weighted = ds.replace(weights=weights)
        cfg = LogRegConfig(l2=1e-3, tol=1e-10)
        a = train_logreg(duplicated, cfg)
        b = train_logreg(weighted, cfg)
        assert np.abs(a.coefficients - b.coefficients).max() < 1e-8
        # the intercept is unregularized, so its identification is looser
        assert abs(a.intercept - b.intercept) < 1e-7

    def test_weight_scale_invariance(self):
        ds = make_synthetic(seed=3, n=100, disparity=0.3)
        scaled = ds.replace(weights=ds.weights * 37.5)
        cfg = LogRegConfig(tol=1e-9)
        a = train_logreg(ds, cfg)
        b = train_logreg(scaled, cfg)
        assert np.abs(a.coefficients - b.coefficients).max() < 1e-9
        assert abs(a.intercept - b.intercept) < 1e-9

    @pytest.mark.parametrize("fixture", sorted(ORACLE_FIXTURES))
    def test_matches_gd_oracle(self, fixture):
        ds = ORACLE_FIXTURES[fixture]()
        cfg = LogRegConfig()
        newton, gd = train_logreg(ds, cfg), oracle_gd_logreg(ds, cfg)
        assert newton.final_gradient_norm <= cfg.tol
        assert newton.final_loss <= gd.final_loss * (1 + 1e-10)
        # Near |g| = 1e-9 a step's loss decrease is below the loss's rounding,
        # so GD stalls there; at tol 1e-8 it converges and, with curvature at
        # least l2, lies within tol / l2 = 1e-6 of the optimum
        tight = LogRegConfig(l2=1e-2, tol=1e-10)
        newton, gd = train_logreg(ds, tight), oracle_gd_logreg(ds, LogRegConfig(l2=1e-2, tol=1e-8))
        assert newton.final_gradient_norm <= tight.tol
        assert gd.final_gradient_norm <= 1e-8
        assert np.abs(newton.coefficients - gd.coefficients).max() < 1e-6
        assert abs(newton.intercept - gd.intercept) < 1e-6

    @pytest.mark.parametrize("standardize", [True, False])
    def test_unregularized_rank_deficient_features_fit(self, standardize):
        # a full one-hot block is collinear with the intercept and the last
        # column duplicates the one before it: the Hessian is singular at l2=0
        rng = np.random.default_rng(23)
        n = 300
        level = rng.integers(0, 4, n)
        num = rng.normal(size=n)
        features = np.column_stack([np.eye(4)[level], num, num])
        ds = _dataset(features, _labels_from(rng, num + level - 1.5), "rank_deficient")
        cfg = LogRegConfig(l2=0.0, standardize=standardize)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_logreg(ds, cfg)
        assert model.final_gradient_norm <= cfg.tol

    def test_row_order_invariance(self):
        ds = make_synthetic(seed=5, n=80, disparity=0.3)
        perm = np.random.default_rng(0).permutation(80)
        shuffled = ds.take(perm)
        cfg = LogRegConfig(tol=1e-9)
        a = train_logreg(ds, cfg)
        b = train_logreg(shuffled, cfg)
        assert np.abs(a.coefficients - b.coefficients).max() < 1e-9

    def test_single_class_rejected(self):
        ds = make_synthetic(seed=6, n=20, disparity=0.0)
        all_pos = ds.replace(labels=np.ones(20, dtype=np.int64))
        with pytest.raises(FitError, match="single class"):
            train_logreg(all_pos)

    @pytest.mark.parametrize("params, message", [
        ("{tol: .nan}", "tol must be positive and finite, got nan"),
        ("{tol: .inf}", "tol must be positive and finite, got inf"),
        ("{l2: .nan}", "l2 must be non-negative and finite, got nan"),
        ("{l2: .inf}", "l2 must be non-negative and finite, got inf"),
        # once 0 Newton steps, zero coefficients and a job reported ok
        ("{max_iter: -1}", "logreg.max_iter must be non-negative, got -1"),
    ])
    def test_non_finite_parameter_is_refused_by_its_config(self, params, message):
        # a NaN tol once ran 0 Newton steps and returned zero coefficients
        with pytest.raises(FitError, match=message):
            fit_model("logreg", make_synthetic(seed=0, n=100, disparity=0.2), yaml.safe_load(params))

    def test_deterministic(self):
        ds = make_synthetic(seed=7, n=60, disparity=0.2)
        a = train_logreg(ds, LogRegConfig())
        b = train_logreg(ds, LogRegConfig())
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.intercept == b.intercept


class TestConvergence:
    def test_warns_when_max_iter_is_reached(self):
        ds = make_synthetic(seed=13, n=100, disparity=0.2)
        with pytest.warns(FairbenchWarning, match=r"max_iter reached after 1 of max_iter=1 Newton steps; "
                                                  r"gradient max-norm \S+ > tol 1e-06"):
            model = train_logreg(ds, LogRegConfig(max_iter=1))
        assert model.iterations == 1
        assert model.final_gradient_norm > 1e-6

    def test_warns_when_the_line_search_finds_no_decrease(self, monkeypatch):
        ds = make_synthetic(seed=13, n=100, disparity=0.2)
        rise = itertools.count()

        def rising_loss(*args):
            loss, grad_coef, grad_b = loss_and_gradient(*args)
            return loss + next(rise), grad_coef, grad_b

        monkeypatch.setattr(logreg_module, "loss_and_gradient", rising_loss)
        with pytest.warns(FairbenchWarning, match=r"line search found no decrease after 0 of max_iter=5000 "
                                                  r"Newton steps; gradient max-norm \S+ > tol 1e-06"):
            model = train_logreg(ds)
        assert model.iterations == 0

    @pytest.mark.parametrize("l2", [0.0, 1e-4, 1e-2])
    @pytest.mark.parametrize("fixture", sorted(ORACLE_FIXTURES))
    def test_converges_past_the_loss_rounding_level(self, fixture, l2):
        # below |g| ~ 1e-9 a Newton step lowers the loss by less than the
        # loss's rounding error, so the Armijo test alone cannot accept it
        with warnings.catch_warnings():
            warnings.simplefilter("error", FairbenchWarning)
            model = train_logreg(ORACLE_FIXTURES[fixture](), LogRegConfig(l2=l2, tol=1e-13))
        assert model.iterations <= 10

    def test_default_fit_does_not_warn(self):
        ds = make_synthetic(seed=13, n=100, disparity=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FairbenchWarning)
            model = train_logreg(ds)
        assert model.final_gradient_norm <= 1e-6

    def test_peak_memory_below_three_feature_matrices(self):
        # the Hessian takes one (n, d) scaled copy of the standardized
        # features; an (n, d+1) copy with a ones column per step would not fit
        n, d = 20_000, 100
        rng = np.random.default_rng(24)
        features = rng.normal(size=(n, d))
        ds = _dataset(features, _labels_from(rng, features[:, 0]), "mem")
        tracemalloc.start()
        try:
            train_logreg(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * d * 8


class TestScoring:
    def test_zero_model_scores_half(self):
        ds = make_synthetic(seed=8, n=30, disparity=0.0)
        from fairbench.model.logreg import TrainedModel
        model = TrainedModel(
            coefficients=np.zeros(2), intercept=0.0,
            feature_means=np.zeros(2), feature_scales=np.ones(2),
            final_loss=0.0, final_gradient_norm=0.0, iterations=0,
        )
        assert np.array_equal(predict_scores(model, ds), np.full(30, 0.5))

    def test_monotone_in_positive_coefficient_feature(self):
        ds = make_synthetic(seed=9, n=100, disparity=0.2)
        model = train_logreg(ds, LogRegConfig())
        j = int(np.argmax(model.coefficients))
        assert model.coefficients[j] > 0
        bumped = ds.features.copy()
        bumped[:, j] += 1.0
        scores_base = predict_scores(model, ds)
        scores_up = predict_scores(model, ds.replace(features=bumped))
        assert (scores_up >= scores_base).all()

    def test_scores_in_open_unit_interval(self):
        ds = make_synthetic(seed=10, n=200, disparity=0.4)
        extreme = ds.replace(features=ds.features * 1e6)
        model = train_logreg(ds, LogRegConfig())
        scores = predict_scores(model, extreme)
        assert (scores > 0.0).all() and (scores < 1.0).all()

    def test_training_loss_reproducible_from_scores(self):
        ds = make_synthetic(seed=11, n=120, disparity=0.3)
        cfg = LogRegConfig(l2=1e-3)
        model = train_logreg(ds, cfg)
        x = (ds.features - model.feature_means) / model.feature_scales
        loss, _, _ = loss_and_gradient(
            x, ds.labels.astype(float), ds.weights, model.coefficients, model.intercept, cfg.l2
        )
        assert abs(loss - model.final_loss) < 1e-10

    def test_dimension_mismatch(self):
        ds = make_synthetic(seed=12, n=30, disparity=0.0)
        model = train_logreg(ds, LogRegConfig())
        wrong = ds.replace(features=np.hstack([ds.features, ds.features]),
                           feature_names=("a", "b", "c", "d"))
        with pytest.raises(FitError, match="dimension"):
            predict_scores(model, wrong)
