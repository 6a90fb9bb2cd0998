"""Fair representation learning: gradient exactness, monotone descent, transform behavior."""

import math
import tracemalloc
import warnings
from dataclasses import asdict
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import oracle_lfr_fit, oracle_lfr_point, oracle_soft_assignments

from fairbench.dataset import TabularDataset, make_synthetic, standardize
from fairbench.errors import FairbenchWarning, FitError
from fairbench.metrics import consistency
from fairbench.preproc import fit_method, lfr as lfr_module, lfr_fit, lfr_transform
from fairbench.preproc.lfr import LfrConfig, LfrModel, _assignments, _Problem


def std_synthetic(seed=0, n=200, disparity=0.3):
    ds, _, _ = standardize(make_synthetic(seed=seed, n=n, disparity=disparity))
    return ds


def finite_difference_check(rng, n=30, d=3, k=4, eps=1e-6):
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    s = np.zeros(n, dtype=int)
    s[rng.permutation(n)[: n // 2]] = 1
    problem = _Problem(x, y, s, 7.0, 0.3, 1.0)
    prototypes = rng.normal(size=(k, d))
    weights = rng.uniform(0.1, 0.9, k)

    def objective(v, w):
        return problem.at(v, w)[0]

    *_, state = problem.at(prototypes, weights)
    grad_v, grad_w = problem.gradients(state, prototypes, weights)
    num_v = np.zeros_like(prototypes)
    for i in range(k):
        for j in range(d):
            up, down = prototypes.copy(), prototypes.copy()
            up[i, j] += eps
            down[i, j] -= eps
            num_v[i, j] = (objective(up, weights) - objective(down, weights)) / (2 * eps)
    num_w = np.zeros_like(weights)
    for i in range(k):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        num_w[i] = (objective(prototypes, up) - objective(prototypes, down)) / (2 * eps)
    rel_v = np.abs(grad_v - num_v).max() / max(np.abs(num_v).max(), 1e-12)
    rel_w = np.abs(grad_w - num_w).max() / max(np.abs(num_w).max(), 1e-12)
    return max(rel_v, rel_w)


def _memory_fixture():
    n, d = 2000, 200
    rng = np.random.default_rng(5)
    return TabularDataset(rng.normal(size=(n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n),
                          np.ones(n), tuple(f"f{j}" for j in range(d)), "mem")


class TestGradients:
    def test_matches_central_differences_at_10_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            assert finite_difference_check(rng) <= 1e-4


# The fits of this file's tests: (dataset, config, seed).
FITS = {
    "non_increasing": (std_synthetic, LfrConfig(prototypes=5, max_iter=300, tol=1e-9), 1),
    **{f"parity_seed{seed}": (
        partial(std_synthetic, seed=5, n=240, disparity=0.0),
        LfrConfig(prototypes=5, a_z=10.0, a_x=0.05, a_y=0.5, max_iter=300, tol=1e-9), seed,
    ) for seed in range(5)},
    "cost": (partial(std_synthetic, seed=3), LfrConfig(prototypes=5, max_iter=100), 1),
    "memory": (_memory_fixture, LfrConfig(prototypes=10, max_iter=5), 0),
    "max_iter": (std_synthetic, LfrConfig(prototypes=5, max_iter=3), 1),
    "defaults": (std_synthetic, LfrConfig(prototypes=5), 1),
    "deterministic": (partial(std_synthetic, seed=2, n=120), LfrConfig(prototypes=4, max_iter=100), 3),
    "labels_binary": (partial(std_synthetic, seed=6, n=150), LfrConfig(prototypes=5, max_iter=200), 0),
    "label_collapse": (partial(std_synthetic, seed=7, n=150, disparity=0.4),
                       LfrConfig(prototypes=4, a_z=200.0, a_x=0.01, a_y=0.01, max_iter=400), 2),
    "dimension": (partial(std_synthetic, seed=8, n=100), LfrConfig(prototypes=4, max_iter=50), 0),
}
# From step 2 on, these fits' parity gap is about 1e-17, so sign(gap) in the
# gradient is the sign of rounding noise: the two forms' paths part at step 57.
ROUNDING_SENSITIVE = ("defaults", "non_increasing")


def _fit_and_oracle(fit):
    make, cfg, seed = FITS[fit]
    ds = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FairbenchWarning)
        trace = lfr_fit(ds, cfg, seed).objective_trace
    params = asdict(cfg)
    oracle = oracle_lfr_fit(ds, n_prototypes=params.pop("prototypes"), seed=seed, **params)
    return np.array(trace), np.array(oracle.objective_trace)


class TestRecordSpaceOracle:
    def test_point_matches_at_10_random_points(self):
        rng = np.random.default_rng(31)
        n, d, k = 150, 6, 5
        for _ in range(10):
            x = rng.normal(size=(n, d))
            x = (x - x.mean(axis=0)) / x.std(axis=0)
            y = rng.integers(0, 2, n).astype(float)
            s = np.zeros(n, dtype=int)
            s[rng.permutation(n)[: rng.integers(20, n - 20)]] = 1
            point = (x, y, s, rng.normal(size=(k, d)), rng.random(k), *rng.uniform(0.1, 10.0, 3))
            prototypes, weights = point[3:5]
            problem = _Problem(x, y, s, *point[5:])
            objective, parts, state = problem.at(prototypes, weights)
            got = (objective, *parts, *problem.gradients(state, prototypes, weights))
            want_objective, want_parts, *want_grads = oracle_lfr_point(*point)
            for value, expected in zip(got, (want_objective, *want_parts, *want_grads)):
                assert np.all(np.abs(value - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0))

    @pytest.mark.parametrize("fit", sorted(set(FITS) - set(ROUNDING_SENSITIVE)))
    def test_fit_takes_the_same_steps(self, fit):
        trace, expected = _fit_and_oracle(fit)
        assert len(trace) == len(expected)
        # relative on the stop rule's scale, max(|objective|, 1)
        assert (np.abs(trace - expected) <= 1e-9 * np.maximum(np.abs(expected), 1.0)).all()

    @pytest.mark.parametrize("fit", ROUNDING_SENSITIVE)
    def test_fit_on_a_rounding_noise_gap_parts_late_and_ends_alike(self, fit):
        trace, expected = _fit_and_oracle(fit)
        head = slice(0, 50)
        assert (np.abs(trace[head] - expected[head]) <= 1e-9 * np.maximum(np.abs(expected[head]), 1.0)).all()
        # final objectives 0.72655 against 0.72766 (300 steps each) and
        # 0.71335 against 0.71354 (571 steps against 545)
        assert abs(trace[-1] - expected[-1]) <= 5e-3 * abs(expected[-1])


class TestSoftAssignments:
    @pytest.mark.parametrize("case", ["z_scored", "record_on_prototype", "saturated"])
    def test_matches_loop_oracle(self, case):
        rng = np.random.default_rng(21)
        if case == "z_scored":
            x = rng.normal(size=(40, 6))
            x = (x - x.mean(axis=0)) / x.std(axis=0)
            prototypes = x[rng.choice(40, size=5, replace=False)] + rng.normal(scale=0.3, size=(5, 6))
        elif case == "record_on_prototype":
            # the distance to the record's own prototype cancels to zero
            prototypes = rng.normal(scale=3.0, size=(4, 5))
            x = np.vstack([prototypes, prototypes[2] + 1e-9, rng.normal(size=(6, 5))])
        else:
            # prototypes hundreds of units apart push every row to one-hot
            prototypes = np.array([[0.0, 0.0, 0.0], [300.0, 0.0, 0.0], [0.0, -300.0, 0.0]])
            x = prototypes[rng.integers(0, 3, 12)] + rng.normal(size=(12, 3))
        got = _assignments(prototypes @ x.T, (prototypes * prototypes).sum(axis=1)).T
        want = np.array(oracle_soft_assignments(x.tolist(), prototypes.tolist()))
        assert np.abs(got - want).max() <= 1e-12


class TestFit:
    def test_objective_trace_non_increasing(self):
        model = lfr_fit(std_synthetic(), LfrConfig(prototypes=5, max_iter=300, tol=1e-9), seed=1)
        trace = np.array(model.objective_trace)
        assert len(trace) >= 2
        assert (np.diff(trace) <= 0).all()
        assert trace[-1] <= trace[0]

    def test_parity_term_below_random_baseline(self):
        # fitted prototypes separate groups less than random prototypes do
        ds = std_synthetic(seed=5, n=240, disparity=0.0)
        problem = _Problem(ds.features, ds.labels.astype(float), ds.protected, 1.0, 1.0, 1.0)
        fitted_l_z, random_l_z = [], []
        for seed in range(5):
            model = lfr_fit(ds, LfrConfig(prototypes=5, a_z=10.0, a_x=0.05, a_y=0.5, max_iter=300, tol=1e-9),
                            seed=seed)
            _, (l_z_fit, _, _), _ = problem.at(model.prototypes, model.label_weights)
            rng = np.random.default_rng(1000 + seed)
            rand_v = rng.normal(size=model.prototypes.shape)
            rand_w = rng.random(len(model.label_weights))
            _, (l_z_rand, _, _), _ = problem.at(rand_v, rand_w)
            fitted_l_z.append(l_z_fit)
            random_l_z.append(l_z_rand)
        assert np.mean(fitted_l_z) < np.mean(random_l_z)

    def test_too_many_prototypes_rejected(self):
        ds = std_synthetic(n=20)
        with pytest.raises(FitError, match="fewer prototypes"):
            lfr_fit(ds, LfrConfig(prototypes=20))

    @pytest.mark.parametrize("field, value", [
        ("a_z", -50.0), ("a_x", -1.0), ("a_y", math.nan), ("tol", -1e-6), ("max_iter", -3), ("a_z", math.inf)])
    def test_parameter_that_cannot_fit_is_rejected(self, field, value):
        # a negative weight would make the fit maximize its term
        ds = std_synthetic(n=60)
        with pytest.raises(FitError, match=rf"{field} must be non-negative"):
            LfrConfig(**{field: value})
        with pytest.raises(FitError, match=rf"{field} must be non-negative"):
            fit_method("LFR", ds, {field: value})

    def test_x_enters_two_products_per_step_and_none_per_trial(self, monkeypatch):
        # one product builds P x^T; each step takes the gradient's and G x^T,
        # and its line-search trials take none
        ds = std_synthetic(seed=3)
        plain = ds.features

        class CountingFeatures(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                args = [a.view(np.ndarray) if isinstance(a, np.ndarray) else a for a in inputs]
                if ufunc is np.matmul and any(np.shares_memory(a, plain) for a in args
                                              if isinstance(a, np.ndarray)):
                    CountingFeatures.products += 1
                return getattr(ufunc, method)(*args, **kwargs)

        evaluations = 0
        real_evaluate = lfr_module._Problem.evaluate

        def evaluate(*args):
            nonlocal evaluations
            evaluations += 1
            return real_evaluate(*args)

        monkeypatch.setattr(lfr_module._Problem, "evaluate", evaluate)
        counted = SimpleNamespace(features=plain.view(CountingFeatures), labels=ds.labels,
                                  protected=ds.protected)
        model = lfr_fit(counted, LfrConfig(prototypes=5, max_iter=100), seed=1)
        steps = len(model.objective_trace) - 1
        assert steps > 2
        assert evaluations > steps + 1, "fixture no longer backtracks; pick another seed"
        assert CountingFeatures.products == 1 + 2 * steps

    @pytest.mark.filterwarnings("ignore::fairbench.errors.FairbenchWarning")
    def test_peak_memory_below_twice_the_features(self):
        # no (n, d) temporary, let alone the (n, K, d) broadcast tensor: the
        # (K, n) state is a twentieth of x at K = 10, d = 200
        ds = _memory_fixture()
        tracemalloc.start()
        try:
            lfr_fit(ds, LfrConfig(prototypes=10, max_iter=5), seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * ds.features.nbytes

    def test_warns_when_max_iter_is_reached(self):
        ds = std_synthetic()
        with pytest.warns(FairbenchWarning, match=r"max_iter=3 steps: last relative objective drop"):
            model = lfr_fit(ds, LfrConfig(prototypes=5, max_iter=3), seed=1)
        assert len(model.objective_trace) == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error", FairbenchWarning)
            lfr_fit(ds, LfrConfig(prototypes=5), seed=1)  # converges within the default max_iter

    def test_deterministic_given_seed(self):
        ds = std_synthetic(seed=2, n=120)
        a = lfr_fit(ds, LfrConfig(prototypes=4, max_iter=100), seed=3)
        b = lfr_fit(ds, LfrConfig(prototypes=4, max_iter=100), seed=3)
        assert np.array_equal(a.prototypes, b.prototypes)
        assert np.array_equal(a.label_weights, b.label_weights)
        assert a.objective_trace == b.objective_trace


class TestTransform:
    def test_input_on_prototype_maps_to_prototype(self):
        # well-separated prototypes saturate the softmax: a record equal to a
        # prototype reconstructs to that prototype within 1e-3
        rng = np.random.default_rng(4)
        d = 3
        prototypes = np.array([[0.0] * d, [10.0] * d, [-10.0] * d, [20.0] + [0.0] * (d - 1)])
        model = LfrModel(prototypes=prototypes, label_weights=np.array([0.9, 0.1, 0.5, 0.7]),
                         objective_trace=(1.0, 0.5))
        from fairbench.dataset import TabularDataset
        features = prototypes.copy() + rng.normal(scale=1e-9, size=prototypes.shape)
        ds = TabularDataset(features, [1, 0, 1, 0], [0, 1, 0, 1], np.ones(4),
                            ("a", "b", "c"), "t")
        out = lfr_transform(model, ds)
        assert np.abs(out.features - prototypes).max() < 1e-3

    def test_labels_binary(self):
        ds = std_synthetic(seed=6, n=150)
        model = lfr_fit(ds, LfrConfig(prototypes=5, max_iter=200), seed=0)
        out = lfr_transform(model, ds)
        assert set(np.unique(out.labels)) <= {0, 1}
        assert out.n == ds.n
        assert np.array_equal(out.protected, ds.protected)
        assert np.array_equal(out.weights, ds.weights)

    def test_label_collapse_gives_consistency_one(self):
        # aggressive parity weight with a weak label term collapses the labels;
        # whenever that happens consistency must be exactly 1
        ds = std_synthetic(seed=7, n=150, disparity=0.4)
        model = lfr_fit(ds, LfrConfig(prototypes=4, a_z=200.0, a_x=0.01, a_y=0.01, max_iter=400), seed=2)
        out = lfr_transform(model, ds)
        assert len(np.unique(out.labels)) == 1, "fixture no longer collapses; pick another seed"
        assert consistency(out) == 1.0

    def test_dimension_mismatch(self):
        ds = std_synthetic(seed=8, n=100)
        model = lfr_fit(ds, LfrConfig(prototypes=4, max_iter=50), seed=0)
        narrower = ds.replace(features=ds.features[:, :1], feature_names=("proxy",))
        with pytest.raises(FitError, match="dimension"):
            lfr_transform(model, narrower)
