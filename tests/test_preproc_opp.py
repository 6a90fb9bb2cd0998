"""Probabilistic pre-processing: simplex invariants, endpoints, oracle gap, direction."""

import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import oracle_opp_fit, oracle_opp_transform

import fairbench
from fairbench.dataset import TabularDataset
from fairbench.errors import FairbenchWarning, FitError
from fairbench.metrics import base_rate, disparate_impact, statistical_parity_difference
from fairbench.preproc import OppConfig, fit_method, opp_fit, opp_transform


def surrogate(seed=7, n=1500, rate0=0.2, rate1=0.8):
    """Two balanced groups with controllable favorable rates and one numeric column."""
    rng = np.random.default_rng(seed)
    protected = np.zeros(n, dtype=np.int64)
    protected[rng.permutation(n)[: n // 2]] = 1
    labels = np.zeros(n, dtype=np.int64)
    for s, rate in ((0, rate0), (1, rate1)):
        rows = np.flatnonzero(protected == s)
        k = int(round(rate * len(rows)))
        labels[rows[rng.permutation(len(rows))[:k]]] = 1
    features = rng.normal(labels * 1.5, 1.0)[:, None]
    return TabularDataset(features, labels, protected, np.ones(n), ("x",), "surrogate")


def minority_fixture():
    """A 5% unprivileged minority with rates 0.3 against 0.7 and one numeric column.

    The table-space fit multiplies 32 of its entries down to exact zeros and
    then stalls for 500 steps at fairness residual 0.41.
    """
    n = 800
    rng = np.random.default_rng(0)
    protected = (rng.random(n) >= 0.05).astype(np.int64)
    labels = (rng.random(n) < np.where(protected == 1, 0.7, 0.3)).astype(np.int64)
    features = rng.normal(labels, 1.0)[:, None]
    return TabularDataset(features, labels, protected, np.ones(n), ("x",), "minority")


# the surrogate fits of this file that stop on an objective drop well above
# rounding; at seed 1's budget-0 identity fit both forms end near 1e-15, where
# a last step's acceptance turns on the objective's rounding
ORACLE_FITS = {
    "simplex": (dict(seed=2), OppConfig(epsilon=0.05, distortion_budget=0.3, bins=3, max_iter=200)),
    "trace": (dict(seed=3), OppConfig(epsilon=0.05, distortion_budget=0.25, bins=4, max_iter=300)),
    "deterministic": (dict(seed=5, n=400), OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=100)),
    "label-only": (dict(seed=6, n=1000, rate0=0.2, rate1=0.8),
                   OppConfig(epsilon=0.05, distortion_budget=0.4, bins=2, max_iter=2000, columns=())),
    "identity": (dict(seed=8, n=500, rate0=0.5, rate1=0.5),
                 OppConfig(epsilon=100.0, distortion_budget=0.0, bins=4, max_iter=300)),
    "transform": (dict(seed=9), OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=150)),
    "eval-splits": (dict(seed=11, n=600), OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=150)),
}


class TestFit:
    def test_identity_when_distortion_budget_zero(self):
        ds = surrogate(seed=1, n=600, rate0=0.45, rate1=0.55)
        mapping = opp_fit(ds, OppConfig(epsilon=100.0, distortion_budget=0.0, bins=4, max_iter=400))
        off_diagonal = 0.0
        for r, key in enumerate(mapping.row_keys):
            for t, target in enumerate(mapping.target_keys):
                if (key[0], key[1]) != target:
                    off_diagonal = max(off_diagonal, mapping.table[r, t])
        assert off_diagonal < 1e-3
        assert mapping.fairness_residual == 0.0
        assert mapping.distortion_residual < 1e-3

    def test_rows_stay_on_simplex(self):
        ds = surrogate(seed=2)
        mapping = opp_fit(ds, OppConfig(epsilon=0.05, distortion_budget=0.3, bins=3, max_iter=200))
        sums = mapping.table.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-9
        assert (mapping.table >= 0).all()
        # the fit carries parameters and normalizes the table once, at the end
        assert mapping.row_sum_drift <= 1e-9

    def test_penalty_trace_non_increasing(self):
        ds = surrogate(seed=3)
        mapping = opp_fit(ds, OppConfig(epsilon=0.05, distortion_budget=0.25, bins=4, max_iter=300))
        trace = np.array(mapping.penalty_trace)
        assert len(trace) >= 2
        assert (np.diff(trace) <= 1e-15).all()

    def test_domain_size_guard(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(300, 8))
        ds = TabularDataset(features, rng.integers(0, 2, 300),
                            np.array([0, 1] * 150), np.ones(300),
                            tuple(f"c{i}" for i in range(8)), "t")
        with pytest.raises(FitError, match=r"domain too large.* from 8 discretized column\(s\); set .*`columns`"):
            opp_fit(ds, OppConfig(bins=5))

    def test_deterministic_fit(self):
        ds = surrogate(seed=5, n=400)
        a = opp_fit(ds, OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=100))
        b = opp_fit(ds, OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=100))
        assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("fixture", sorted(ORACLE_FITS))
    def test_matches_table_space_oracle(self, fixture):
        kwargs, cfg = ORACLE_FITS[fixture]
        ds = surrogate(**kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FairbenchWarning)  # both warn alike on an unmet budget
            fitted, oracle = opp_fit(ds, cfg), oracle_opp_fit(ds, cfg)
        assert len(fitted.penalty_trace) == len(oracle.penalty_trace)
        # relative on the stop rule's scale, max(|objective|, 1)
        trace, expected = np.array(fitted.penalty_trace), np.array(oracle.penalty_trace)
        assert (np.abs(trace - expected) <= 1e-12 * np.maximum(np.abs(expected), 1.0)).all()
        assert np.abs(fitted.table - oracle.table).max() <= 1e-12

    def test_underflowed_entries_do_not_stall_the_fit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FairbenchWarning)
            mapping = opp_fit(minority_fixture(), OppConfig(bins=4))
        assert mapping.fairness_residual <= 1e-3
        assert mapping.distortion_residual <= 1e-3

    def test_trial_that_leaves_a_row_no_mass_halves(self):
        # the first trial sets the distortion scale to 4 + 730, where
        # exp(-scale) is below the smallest normal float: some rows' masses
        # underflow and their terms overflow, which must halve the trial
        rng = np.random.default_rng(15)
        n = 200
        protected = (rng.random(n) >= 0.2).astype(np.int64)
        labels = (rng.random(n) < np.where(protected == 1, 0.7, 0.3)).astype(np.int64)
        b = (rng.random(n) < 0.1 + 0.8 * labels).astype(float)
        ds = TabularDataset(np.column_stack([b, rng.normal(labels, 1.0)]), labels, protected, np.ones(n),
                            ("b", "x"), "t")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", FairbenchWarning)  # the budget of 0 is not met
            mapping = opp_fit(ds, OppConfig(bins=3, rho_dist=730.0, distortion_budget=0.0))
        trace = np.array(mapping.penalty_trace)
        assert len(trace) >= 2 and np.isfinite(trace).all()
        assert (np.diff(trace) < 0).all()

    def test_warns_when_max_iter_ends_the_fit(self):
        ds = minority_fixture()
        with pytest.warns(FairbenchWarning, match=r"stopped at max_iter=5 steps: last relative objective drop \S+"):
            mapping = opp_fit(ds, OppConfig(bins=4, max_iter=5))
        assert len(mapping.penalty_trace) == 6

    @pytest.mark.parametrize("field", ["max_iter", "rho_fair", "rho_dist", "label_flip_cost"])
    def test_config_rejects_negative_values(self, field):
        with pytest.raises(FitError, match=f"{field} must be non-negative"):
            OppConfig(**{field: -1})


    @pytest.mark.parametrize("params, message", [
        ("{distortion_budget: .nan}", "distortion_budget must be non-negative, got nan"),
        ("{epsilon: .nan}", "epsilon must be positive, got nan"),
        ("{rho_fair: .inf}", "rho_fair must be non-negative and finite, got inf"),
        ("{label_flip_cost: .inf}", "label_flip_cost must be non-negative and finite, got inf"),
    ])
    def test_non_finite_parameter_is_refused_by_its_config(self, params, message):
        # a NaN budget once dropped the distortion constraint without a word
        with pytest.raises(FitError, match=message):
            fit_method("OPP", minority_fixture(), yaml.safe_load(params))


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (6, 1), (50, 2), (400, 3), (200, 4)])
@pytest.mark.parametrize("high", [1, 3, 12])
def test_unique_rows_match_numpy_row_unique(shape, high):
    from fairbench.preproc.opp import _unique_rows

    matrix = np.random.default_rng(shape[0] * high).integers(-2, high, shape, dtype=np.int64)
    rows, inverse = _unique_rows(matrix)
    expected_rows, expected_inverse = np.unique(matrix, axis=0, return_inverse=True)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(inverse, expected_inverse.ravel())


class TestToyOracle:
    def test_label_only_problem_matches_grid_search(self):
        """4-row label transform: mirror descent reaches the 0.01-grid optimum."""
        ds = surrogate(seed=6, n=1000, rate0=0.2, rate1=0.8)
        # restrict to the label domain: no feature columns at all
        cfg = OppConfig(epsilon=0.05, distortion_budget=0.4, bins=2, max_iter=2000, columns=())
        mapping = opp_fit(ds, cfg)
        assert len(mapping.row_keys) == 4      # (y, s) pairs
        assert len(mapping.target_keys) == 2   # y values

        p_row = {}
        w = ds.weights / ds.weights.sum()
        for i in range(ds.n):
            key = (int(ds.labels[i]), int(ds.protected[i]))
            p_row[key] = p_row.get(key, 0.0) + w[i]
        p_y = {y: p_row[(y, 0)] + p_row[(y, 1)] for y in (0, 1)}
        p_s = {s: p_row[(0, s)] + p_row[(1, s)] for s in (0, 1)}
        target = p_y[1]

        def objective(q00, q01, q10, q11):
            # q_ys = P(yhat=1 | y, s); all arguments broadcast
            p_hat1 = (p_row[(0, 0)] * q00 + p_row[(0, 1)] * q01
                      + p_row[(1, 0)] * q10 + p_row[(1, 1)] * q11)
            p_hat0 = 1.0 - p_hat1
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = (np.where(p_hat1 > 0, p_hat1 * np.log(np.maximum(p_hat1, 1e-300) / p_y[1]), 0.0)
                      + np.where(p_hat0 > 0, p_hat0 * np.log(np.maximum(p_hat0, 1e-300) / p_y[0]), 0.0))
            rate0 = (p_row[(0, 0)] * q00 + p_row[(1, 0)] * q10) / p_s[0]
            rate1 = (p_row[(0, 1)] * q01 + p_row[(1, 1)] * q11) / p_s[1]
            fair = (np.maximum(0.0, np.abs(rate0 / target - 1.0) - cfg.epsilon)
                    + np.maximum(0.0, np.abs(rate1 / target - 1.0) - cfg.epsilon))
            dist = (p_row[(0, 0)] * q00 + p_row[(0, 1)] * q01
                    + p_row[(1, 0)] * (1.0 - q10) + p_row[(1, 1)] * (1.0 - q11))
            return kl + cfg.rho_fair * fair + cfg.rho_dist * np.maximum(0.0, dist - cfg.distortion_budget)

        # exhaustive 0.01-grid search over the four free parameters,
        # vectorized over the three inner axes and chunked on the first
        grid = np.round(np.linspace(0.0, 1.0, 101), 2)
        g1 = grid[:, None, None]
        g2 = grid[None, :, None]
        g3 = grid[None, None, :]
        best = np.inf
        for q00 in grid:
            best = min(best, float(objective(q00, g1, g2, g3).min()))

        row_index = {key: r for r, key in enumerate(mapping.row_keys)}
        tgt1 = next(t for t, key in enumerate(mapping.target_keys) if key[1] == 1)
        fitted_q = {
            (y, s): float(mapping.table[row_index[(0, y, s)], tgt1]) for y in (0, 1) for s in (0, 1)
        }
        fitted = float(objective(fitted_q[(0, 0)], fitted_q[(0, 1)], fitted_q[(1, 0)], fitted_q[(1, 1)]))
        # grid resolution bounds how far the continuous optimum can undercut it
        assert fitted <= best + 0.02
        # and the transformed group rates respect the tolerance band
        for s in (0, 1):
            rate = sum(p_row[(y, s)] * fitted_q[(y, s)] for y in (0, 1)) / p_s[s]
            assert abs(rate / target - 1.0) <= cfg.epsilon + 1e-6


class TestTransform:
    def test_identity_map_returns_binned_input(self):
        ds = surrogate(seed=8, n=500, rate0=0.5, rate1=0.5)
        mapping = opp_fit(ds, OppConfig(epsilon=100.0, distortion_budget=0.0, bins=4, max_iter=300))
        out = opp_transform(mapping, ds, seed=0)
        assert np.array_equal(out.labels, ds.labels)
        # features land on their own bin's median
        pos = mapping.column_names.index("x")
        edges = np.asarray(mapping.bin_edges[pos])
        codes = np.searchsorted(edges, ds.features[:, 0], side="right")
        expected = np.array([mapping.bin_values[pos][c] for c in codes])
        assert np.array_equal(out.features[:, 0], expected)

    def test_deterministic_given_seed(self):
        ds = surrogate(seed=9)
        mapping = opp_fit(ds, OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=150))
        a = opp_transform(mapping, ds, seed=5)
        b = opp_transform(mapping, ds, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = opp_transform(mapping, ds, seed=6)
        assert not (np.array_equal(a.labels, c.labels) and np.array_equal(a.features, c.features))

    def test_matches_per_record_reference_sampler(self):
        # training ties x to b and never pairs b=1, label 1 with group 0, so
        # the evaluation records below reach unseen cells and unseen keys
        rng = np.random.default_rng(21)
        b = rng.integers(0, 2, 300).astype(float)
        protected = rng.integers(0, 2, 300)
        labels = rng.integers(0, 2, 300) * ((b == 0) | (protected == 1))
        x = rng.normal(3.0 * b, 0.5)
        train = TabularDataset(np.column_stack([b, x]), labels, protected, np.ones(300), ("b", "x"), "t")
        mapping = opp_fit(train, OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=150))

        b = rng.integers(0, 2, 200).astype(float)
        b[:7] = 0.4  # off the fitted levels: clamped to the nearest
        evaluation = TabularDataset(np.column_stack([b, rng.normal(1.5, 2.0, 200)]),
                                    rng.integers(0, 2, 200), rng.integers(0, 2, 200), np.ones(200),
                                    ("b", "x"), "e")
        for ds in (train, evaluation):
            for seed in (0, 1, 2):
                features, labels, paths = oracle_opp_transform(mapping, ds, seed)
                if ds is evaluation:
                    assert min(paths.values()) > 0, paths
                    with pytest.warns(FairbenchWarning, match="clamped"):
                        out = opp_transform(mapping, ds, seed)
                else:
                    assert paths == {"clamped": 0, "snapped": 0, "unseen_key": 0}
                    out = opp_transform(mapping, ds, seed)
                assert np.array_equal(out.features, features)
                assert np.array_equal(out.labels, labels)

    def test_equal_sized_eval_splits_draw_apart(self):
        # the splits differ only in a column OPP does not discretize
        train = surrogate(seed=11, n=600)
        fitted = fit_method("OPP", train, {"columns": ["x"], "epsilon": 0.1, "distortion_budget": 0.3,
                                           "bins": 3, "max_iter": 150}, seed=0)
        base = surrogate(seed=12, n=200)

        def with_z(z):
            return TabularDataset(np.column_stack([base.features[:, 0], z]), base.labels, base.protected,
                                  base.weights, ("x", "z"), "e")

        validation = fitted.transform_eval(with_z(np.zeros(200)))
        test = fitted.transform_eval(with_z(np.ones(200)))
        assert not np.array_equal(validation.features[:, 0], test.features[:, 0])

    def test_evaluation_draws_do_not_follow_the_cache_format(self, tmp_path, monkeypatch):
        from fairbench.dataset import SplitSpec
        from fairbench.dataset import cache as cache_module
        from fairbench.pipeline import run_bench_stage, run_prep_stage

        ds = surrogate(seed=13, n=400)
        params = {"columns": ["x"], "epsilon": 0.1, "distortion_budget": 0.3, "bins": 3, "max_iter": 150}

        def processed_sweeps(cache):
            stage1 = run_prep_stage(ds, None, "OPP", params, seed=2, cache_dir=cache, dataset_name="s")
            arm = run_bench_stage(stage1, split_spec=SplitSpec(seed=2), cache_dir=cache).processed
            return stage1.original_cache_key, repr((arm.validation, arm.test))  # repr: NaN != NaN

        key, sweeps = processed_sweeps(tmp_path / "now")
        monkeypatch.setattr(cache_module, "VERSION", cache_module.VERSION + 1)
        other_key, other_sweeps = processed_sweeps(tmp_path / "next")
        assert other_key != key  # the new version re-keyed the original
        assert other_sweeps == sweeps

    def test_transforms_read_nothing_of_the_cache(self):
        src = Path(fairbench.__file__).parent
        for path in (src / "preproc").glob("*.py"):
            imports = [line for line in path.read_text(encoding="utf-8").splitlines()
                       if line.startswith(("from ", "import "))]
            assert not [line for line in imports if "cache" in line], path
        assert not [path for path in src.rglob("*.py") if "content_key" in path.read_text(encoding="utf-8")]

    def test_group_and_weights_preserved(self):
        ds = surrogate(seed=10)
        mapping = opp_fit(ds, OppConfig(epsilon=0.1, distortion_budget=0.3, bins=3, max_iter=150))
        out = opp_transform(mapping, ds, seed=1)
        assert np.array_equal(out.protected, ds.protected)
        assert np.array_equal(out.weights, ds.weights)
        assert out.n == ds.n

    def test_directional_fairness_improvement(self):
        # adult-shaped surrogate: unprivileged minority with a much lower rate
        rng = np.random.default_rng(12)
        n = 3000
        protected = (rng.random(n) < 0.67).astype(np.int64)
        rate = np.where(protected == 1, 0.30, 0.11)
        labels = (rng.random(n) < rate).astype(np.int64)
        x1 = rng.normal(1.1 * labels + 0.6 * protected, 1.0)
        x2 = rng.normal(1.3 * labels, 1.0)
        ds = TabularDataset(np.column_stack([x1, x2]), labels, protected, np.ones(n),
                            ("a", "b"), "adult-like")
        mapping = opp_fit(ds, OppConfig(epsilon=0.15, distortion_budget=0.25, bins=4, max_iter=500))
        out = opp_transform(mapping, ds, seed=3)
        assert abs(statistical_parity_difference(out)) < abs(statistical_parity_difference(ds))
        assert disparate_impact(out) > disparate_impact(ds)
        assert abs(base_rate(out) - base_rate(ds)) <= 0.03
