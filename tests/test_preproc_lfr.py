"""Fair representation learning: gradient exactness, monotone descent, transform behavior."""

import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import oracle_soft_assignments

from fairbench.dataset import TabularDataset, make_synthetic, standardize
from fairbench.errors import FairbenchWarning, FitError
from fairbench.metrics import consistency
from fairbench.preproc import lfr as lfr_module, lfr_fit, lfr_transform
from fairbench.preproc.lfr import _soft_assignments, lfr_gradients, lfr_objective


def std_synthetic(seed=0, n=200, disparity=0.3):
    ds, _, _ = standardize(make_synthetic(seed=seed, n=n, disparity=disparity))
    return ds


def finite_difference_check(rng, n=30, d=3, k=4, eps=1e-6):
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    s = np.zeros(n, dtype=int)
    s[rng.permutation(n)[: n // 2]] = 1
    a_z, a_x, a_y = 7.0, 0.3, 1.0
    prototypes = rng.normal(size=(k, d))
    weights = rng.uniform(0.1, 0.9, k)

    grad_v, grad_w = lfr_gradients(x, y, s, prototypes, weights, a_z, a_x, a_y)
    num_v = np.zeros_like(prototypes)
    for i in range(k):
        for j in range(d):
            up, down = prototypes.copy(), prototypes.copy()
            up[i, j] += eps
            down[i, j] -= eps
            f_up, _ = lfr_objective(x, y, s, up, weights, a_z, a_x, a_y)
            f_down, _ = lfr_objective(x, y, s, down, weights, a_z, a_x, a_y)
            num_v[i, j] = (f_up - f_down) / (2 * eps)
    num_w = np.zeros_like(weights)
    for i in range(k):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        f_up, _ = lfr_objective(x, y, s, prototypes, up, a_z, a_x, a_y)
        f_down, _ = lfr_objective(x, y, s, prototypes, down, a_z, a_x, a_y)
        num_w[i] = (f_up - f_down) / (2 * eps)
    rel_v = np.abs(grad_v - num_v).max() / max(np.abs(num_v).max(), 1e-12)
    rel_w = np.abs(grad_w - num_w).max() / max(np.abs(num_w).max(), 1e-12)
    return max(rel_v, rel_w)


class TestGradients:
    def test_matches_central_differences_at_10_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            assert finite_difference_check(rng) <= 1e-4


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
        got = _soft_assignments(x, prototypes)
        want = np.array(oracle_soft_assignments(x.tolist(), prototypes.tolist()))
        assert np.abs(got - want).max() <= 1e-12


class TestFit:
    def test_objective_trace_non_increasing(self):
        model = lfr_fit(std_synthetic(), n_prototypes=5, seed=1, max_iter=300, tol=1e-9)
        trace = np.array(model.objective_trace)
        assert len(trace) >= 2
        assert (np.diff(trace) <= 0).all()
        assert trace[-1] <= trace[0]

    def test_parity_term_below_random_baseline(self):
        # fitted prototypes separate groups less than random prototypes do
        ds = std_synthetic(seed=5, n=240, disparity=0.0)
        fitted_l_z, random_l_z = [], []
        for seed in range(5):
            model = lfr_fit(ds, n_prototypes=5, a_z=10.0, a_x=0.05, a_y=0.5,
                            seed=seed, max_iter=300, tol=1e-9)
            _, (l_z_fit, _, _) = lfr_objective(
                ds.features, ds.labels.astype(float), ds.protected,
                model.prototypes, model.label_weights, 1.0, 1.0, 1.0,
            )
            rng = np.random.default_rng(1000 + seed)
            rand_v = rng.normal(size=model.prototypes.shape)
            rand_w = rng.random(len(model.label_weights))
            _, (l_z_rand, _, _) = lfr_objective(
                ds.features, ds.labels.astype(float), ds.protected,
                rand_v, rand_w, 1.0, 1.0, 1.0,
            )
            fitted_l_z.append(l_z_fit)
            random_l_z.append(l_z_rand)
        assert np.mean(fitted_l_z) < np.mean(random_l_z)

    def test_too_many_prototypes_rejected(self):
        ds = std_synthetic(n=20)
        with pytest.raises(FitError, match="fewer prototypes"):
            lfr_fit(ds, n_prototypes=20)

    def test_each_candidate_assigned_once(self, monkeypatch):
        # the gradient reuses the accepted candidate's forward pass, so every
        # soft assignment belongs to one objective evaluation
        calls = {"assign": 0, "forward": 0}
        real_assign, real_forward = lfr_module._soft_assignments, lfr_module._forward

        def assign(*args):
            calls["assign"] += 1
            return real_assign(*args)

        def forward(*args):
            calls["forward"] += 1
            return real_forward(*args)

        monkeypatch.setattr(lfr_module, "_soft_assignments", assign)
        monkeypatch.setattr(lfr_module, "_forward", forward)
        model = lfr_fit(std_synthetic(seed=3), n_prototypes=5, seed=1, max_iter=100)
        assert calls["forward"] >= len(model.objective_trace) > 2
        assert calls["assign"] == calls["forward"]

    @pytest.mark.filterwarnings("ignore::fairbench.errors.FairbenchWarning")
    def test_peak_memory_below_half_the_broadcast_tensor(self):
        n, d, k = 2000, 200, 10
        rng = np.random.default_rng(5)
        ds = TabularDataset(rng.normal(size=(n, d)), rng.integers(0, 2, n), rng.integers(0, 2, n),
                            np.ones(n), tuple(f"f{j}" for j in range(d)), "mem")
        tracemalloc.start()
        try:
            lfr_fit(ds, n_prototypes=k, seed=0, max_iter=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8 / 2

    def test_warns_when_max_iter_is_reached(self):
        ds = std_synthetic()
        with pytest.warns(FairbenchWarning, match=r"max_iter=3 steps: last relative objective drop"):
            model = lfr_fit(ds, n_prototypes=5, seed=1, max_iter=3)
        assert len(model.objective_trace) == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error", FairbenchWarning)
            lfr_fit(ds, n_prototypes=5, seed=1)  # converges within the default max_iter

    def test_deterministic_given_seed(self):
        ds = std_synthetic(seed=2, n=120)
        a = lfr_fit(ds, n_prototypes=4, seed=3, max_iter=100)
        b = lfr_fit(ds, n_prototypes=4, seed=3, max_iter=100)
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
        from fairbench.preproc.lfr import LfrModel
        model = LfrModel(
            prototypes=prototypes,
            label_weights=np.array([0.9, 0.1, 0.5, 0.7]),
            weight_parity=1.0, weight_reconstruction=1.0, weight_label=1.0,
            objective_trace=(1.0, 0.5),
        )
        from fairbench.dataset import TabularDataset
        features = prototypes.copy() + rng.normal(scale=1e-9, size=prototypes.shape)
        ds = TabularDataset(features, [1, 0, 1, 0], [0, 1, 0, 1], np.ones(4),
                            ("a", "b", "c"), "t")
        out = lfr_transform(model, ds)
        assert np.abs(out.features - prototypes).max() < 1e-3

    def test_labels_binary(self):
        ds = std_synthetic(seed=6, n=150)
        model = lfr_fit(ds, n_prototypes=5, seed=0, max_iter=200)
        out = lfr_transform(model, ds)
        assert set(np.unique(out.labels)) <= {0, 1}
        assert out.n == ds.n
        assert np.array_equal(out.protected, ds.protected)
        assert np.array_equal(out.weights, ds.weights)

    def test_label_collapse_gives_consistency_one(self):
        # aggressive parity weight with a weak label term collapses the labels;
        # whenever that happens consistency must be exactly 1
        ds = std_synthetic(seed=7, n=150, disparity=0.4)
        model = lfr_fit(ds, n_prototypes=4, a_z=200.0, a_x=0.01, a_y=0.01,
                        seed=2, max_iter=400)
        out = lfr_transform(model, ds)
        assert len(np.unique(out.labels)) == 1, "fixture no longer collapses; pick another seed"
        assert consistency(out) == 1.0

    def test_dimension_mismatch(self):
        ds = std_synthetic(seed=8, n=100)
        model = lfr_fit(ds, n_prototypes=4, seed=0, max_iter=50)
        narrower = ds.replace(features=ds.features[:, :1], feature_names=("proxy",))
        with pytest.raises(FitError, match="dimension"):
            lfr_transform(model, narrower)
