"""Ingestion, encoding, splitting, caching, synthetic generation."""

import numpy as np
import pytest

from fairbench.dataset import (
    RawTable,
    SplitSpec,
    TabularDataset,
    cache_key,
    cache_load,
    cache_store,
    content_key,
    datasets_equal,
    encode,
    load_csv,
    make_synthetic,
    schema_from_dict,
    split,
    split_indices,
)
from fairbench.dataset.cache import MAGIC
from fairbench.errors import DataFormatError, FairbenchError, FairbenchWarning, SchemaError
from fairbench.metrics import statistical_parity_difference


def simple_schema(**overrides):
    doc = {
        "name": "toy",
        "label": {"column": "income", "favorable": "high"},
        "protected": {"column": "sex", "privileged": ["M"]},
        "features": {"numeric": ["age"], "categorical": ["city"]},
    }
    doc.update(overrides)
    return schema_from_dict(doc)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city\n30,M,high,x\n40,F,low,y\n50,M,high,x\n")
        table = load_csv(path, simple_schema())
        assert table.n == 3
        assert table.columns == ("age", "sex", "income", "city")

    def test_missing_label_column_named(self, tmp_path):
        path = write(tmp_path, "age,sex,city\n30,M,x\n")
        with pytest.raises(DataFormatError, match="income"):
            load_csv(path, simple_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", simple_schema())

    def test_ragged_row_position(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city\n30,M,high,x\n40,F\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path, simple_schema())

    def test_quoted_cells(self, tmp_path):
        path = write(tmp_path, 'age,sex,income,city\n30,M,high,"york, new"\n31,F,low,z\n')
        table = load_csv(path, simple_schema())
        assert table.rows[0][3] == "york, new"

    def test_unreferenced_columns_retained(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city,extra\n30,M,high,x,1\n31,F,low,y,2\n")
        table = load_csv(path, simple_schema())
        assert "extra" in table.columns


class TestEncode:
    def test_label_and_protected_mapping(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city\n30,M,high,x\n40,F,low,y\n50,M,low,x\n")
        ds = encode(load_csv(path, simple_schema()), simple_schema())
        assert ds.labels.tolist() == [1, 0, 0]
        assert ds.protected.tolist() == [1, 0, 1]
        assert ds.weights.tolist() == [1.0, 1.0, 1.0]

    def test_meps_style_binarization(self):
        # utilization {3, 10, 15} -> labels {0, 1, 1} under the <10 / >=10 rule
        schema = schema_from_dict({
            "name": "meps_mini",
            "label": {"column": "utilization_high", "favorable": "1"},
            "protected": {"column": "race", "privileged": ["W"]},
            "features": {"numeric": ["age"]},
            "binarize": [{
                "column": "utilization_high",
                "from": "utilization",
                "rules": [{"when": "< 10", "value": "0"}, {"when": ">= 10", "value": "1"}],
            }],
        })
        table = RawTable(
            columns=("age", "race", "utilization"),
            rows=(("30", "W", "3"), ("40", "B", "10"), ("50", "W", "15")),
        )
        ds = encode(table, schema)
        assert ds.labels.tolist() == [0, 1, 1]

    def test_one_hot_rows_sum_to_one(self):
        schema = simple_schema()
        table = RawTable(
            columns=("age", "sex", "income", "city"),
            rows=(("1", "M", "high", "a"), ("2", "F", "low", "b"),
                  ("3", "M", "high", "c"), ("4", "F", "low", "a")),
        )
        ds = encode(table, schema)
        onehot = ds.features[:, [ds.feature_names.index(f"city={v}") for v in "abc"]]
        assert np.array_equal(onehot.sum(axis=1), np.ones(4))
        assert ds.feature_names == ("age", "city=a", "city=b", "city=c")

    def test_protected_column_excluded_from_features(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city\n30,M,high,x\n40,F,low,y\n")
        ds = encode(load_csv(path, simple_schema()), simple_schema())
        assert not any(name.startswith("sex") for name in ds.feature_names)

    def test_protected_kept_when_overridden(self):
        schema = simple_schema(
            features={"numeric": ["age"], "categorical": ["city", "sex"]},
            keep_protected_in_features=True,
        )
        table = RawTable(columns=("age", "sex", "income", "city"),
                         rows=(("1", "M", "high", "a"), ("2", "F", "low", "b")))
        ds = encode(table, schema)
        assert any(name.startswith("sex=") for name in ds.feature_names)

    def test_unseen_pinned_category_all_zero_with_warning(self):
        schema = simple_schema(categories={"city": ["a", "b"]})
        table = RawTable(columns=("age", "sex", "income", "city"),
                         rows=(("1", "M", "high", "a"), ("2", "F", "low", "zz")))
        with pytest.warns(FairbenchWarning, match="all-zero"):
            ds = encode(table, schema)
        cols = [ds.feature_names.index("city=a"), ds.feature_names.index("city=b")]
        assert ds.features[1, cols].tolist() == [0.0, 0.0]

    def test_non_numeric_cell_reported(self):
        table = RawTable(columns=("age", "sex", "income", "city"),
                         rows=(("1", "M", "high", "a"), ("oops", "F", "low", "b")))
        with pytest.raises(DataFormatError, match="age"):
            encode(table, simple_schema())

    def test_missing_rows_dropped_with_count(self):
        schema = simple_schema(missing={"tokens": ["?"], "drop_rows": True})
        table = RawTable(columns=("age", "sex", "income", "city"),
                         rows=(("1", "M", "high", "a"), ("?", "F", "low", "b"), ("3", "F", "low", "b")))
        with pytest.warns(FairbenchWarning, match="dropped 1 row"):
            ds = encode(table, schema)
        assert ds.n == 2

    def test_binary_partition_recoverable(self):
        schema = simple_schema()
        table = RawTable(columns=("age", "sex", "income", "city"),
                         rows=tuple((str(i), "M" if i % 3 else "F", "high" if i % 2 else "low", "a")
                               for i in range(1, 13)))
        ds = encode(table, schema)
        for i, row in enumerate(table.rows):
            assert (row[1] == "M") == bool(ds.protected[i])
            assert (row[2] == "high") == bool(ds.labels[i])


class TestSplit:
    def test_exact_fraction_sizes(self):
        ds = make_synthetic(seed=0, n=100, disparity=0.2)
        train, val, test = split(ds, SplitSpec(seed=7))
        assert (train.n, val.n, test.n) == (70, 15, 15)

    def test_rounding_remainder_to_train(self):
        # n=101: round-half-up gives 15/15 to val/test, remainder 71 to train
        ds = make_synthetic(seed=0, n=101, disparity=0.2)
        idx = split_indices(ds, SplitSpec(seed=7))
        sizes = tuple(len(i) for i in idx)
        assert sizes == (71, 15, 15)
        assert sum(sizes) == 101

    def test_deterministic_given_seed(self):
        ds = make_synthetic(seed=1, n=100, disparity=0.2)
        a = split_indices(ds, SplitSpec(seed=7))
        b = split_indices(ds, SplitSpec(seed=7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = split_indices(ds, SplitSpec(seed=8))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_partition_disjoint_exhaustive(self):
        ds = make_synthetic(seed=2, n=137, disparity=0.3)
        idx = split_indices(ds, SplitSpec(seed=3))
        merged = np.concatenate(idx)
        assert len(merged) == 137
        assert len(np.unique(merged)) == 137

    def test_stratification_within_one_of_proportional(self):
        ds = make_synthetic(seed=3, n=400, disparity=0.3)
        idx = split_indices(ds, SplitSpec(seed=5))
        cell_of = ds.labels * 2 + ds.protected
        for c in range(4):
            total = (cell_of == c).sum()
            for part, frac in zip(idx, (0.70, 0.15, 0.15)):
                got = (cell_of[part] == c).sum()
                assert abs(got - total * frac) <= 1.0 + 1e-9

    def test_each_split_contains_both_groups(self):
        ds = make_synthetic(seed=4, n=80, disparity=0.4)
        for part in split(ds, SplitSpec(seed=1)):
            assert set(np.unique(part.protected)) == {0, 1}

    def test_empty_cell_falls_back_to_label_stratification(self):
        n = 40
        labels = np.array([1, 0] * 20)
        protected = np.array([1] * 20 + [0] * 20)
        labels[protected == 0] = 0  # (unprivileged, positive) cell empty
        ds = TabularDataset(np.random.default_rng(0).normal(size=(n, 2)),
                            labels, protected, np.ones(n), ("a", "b"), "t")
        with pytest.warns(FairbenchWarning, match="stratifying on label only"):
            idx = split_indices(ds, SplitSpec(seed=0))
        assert sum(len(i) for i in idx) == n

    def test_fraction_sum_validated(self):
        with pytest.raises(FairbenchError, match="sum to 1"):
            SplitSpec(train=0.9, validation=0.15, test=0.15)

    def test_too_small_rejected(self):
        ds = make_synthetic(seed=0, n=9, disparity=0.0)
        with pytest.raises(FairbenchError, match="at least 10"):
            split_indices(ds, SplitSpec())


class TestCache:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = make_synthetic(seed=5, n=50, disparity=0.3)
        # adversarial reals survive the binary round-trip
        features = ds.features.copy()
        features[0, 0] = 1.0 / 3.0
        features[1, 1] = 1e-308
        ds = ds.replace(features=features, weights=ds.weights * np.pi)
        key = cache_key("syn", "original", {}, 5)
        cache_store(ds, key, tmp_path)
        loaded = cache_load(key, tmp_path)
        assert datasets_equal(ds, loaded)

    def test_miss_is_absent_not_error(self, tmp_path):
        assert cache_load(cache_key("never", "stored", {}, 0), tmp_path) is None

    def test_same_key_single_entry_last_wins(self, tmp_path):
        a = make_synthetic(seed=1, n=20, disparity=0.0)
        b = make_synthetic(seed=2, n=20, disparity=0.0)
        key = cache_key("syn", "original", {}, 1)
        cache_store(a, key, tmp_path)
        cache_store(b, key, tmp_path)
        assert len(list(tmp_path.glob("*.fpds"))) == 1
        assert datasets_equal(cache_load(key, tmp_path), b)

    def test_magic_header_is_eight_bytes(self, tmp_path):
        ds = make_synthetic(seed=1, n=10, disparity=0.0)
        key = cache_key("syn", "m", {}, 0)
        path = cache_store(ds, key, tmp_path)
        assert len(MAGIC) == 8
        assert path.read_bytes()[:8] == MAGIC
        assert path.name == f"{key}.fpds"

    def test_no_temp_residue(self, tmp_path):
        ds = make_synthetic(seed=1, n=10, disparity=0.0)
        cache_store(ds, cache_key("a", "b", {}, 0), tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("damage", ["truncated", "bad_magic", "old_format"])
    def test_unreadable_entry_is_a_warned_miss(self, tmp_path, damage):
        ds = make_synthetic(seed=1, n=20, disparity=0.0)
        path = cache_store(ds, content_key(ds), tmp_path)
        blob = path.read_bytes()
        path.write_bytes({
            "truncated": blob[:len(blob) - 8],
            "bad_magic": b"XXXXXXXX" + blob[8:],
            "old_format": b"FPDSTXT\nversion 1\nn 20\nd 2\nend\n",
        }[damage])
        with pytest.warns(FairbenchWarning, match=path.name):
            assert cache_load(content_key(ds), tmp_path) is None

    def test_content_key_covers_the_protected_column(self):
        ds = make_synthetic(seed=1, n=20, disparity=0.0)
        assert content_key(ds) == content_key(ds.replace())
        assert content_key(ds.replace(protected=1 - ds.protected)) != content_key(ds)

    def test_key_depends_on_all_parts(self):
        base = cache_key("d", "m", {"x": 1}, 0)
        assert cache_key("d2", "m", {"x": 1}, 0) != base
        assert cache_key("d", "m2", {"x": 1}, 0) != base
        assert cache_key("d", "m", {"x": 2}, 0) != base
        assert cache_key("d", "m", {"x": 1}, 1) != base
        assert cache_key("d", "m", {"x": 1}, 0) == base


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(seed=9, n=100, disparity=0.5)
        b = make_synthetic(seed=9, n=100, disparity=0.5)
        assert datasets_equal(a, b)

    def test_zero_disparity_spd_zero(self):
        spds = [statistical_parity_difference(make_synthetic(seed=s, n=2000, disparity=0.0))
                for s in range(5)]
        assert abs(np.mean(spds)) < 0.1
        assert all(abs(v) < 1e-12 for v in spds)  # exact-count construction

    def test_disparity_spd_matches_over_20_seeds(self):
        spds = [statistical_parity_difference(make_synthetic(seed=s, n=2000, disparity=0.4))
                for s in range(20)]
        assert abs(np.mean(spds) - (-0.4)) < 0.05

    def test_group_balance(self):
        ds = make_synthetic(seed=0, n=1000, disparity=0.2)
        assert (ds.protected == 1).sum() == 500

    def test_minimum_size_enforced(self):
        with pytest.raises(FairbenchError):
            make_synthetic(seed=0, n=7, disparity=0.0)


class TestTabularDataset:
    def test_invariants_validated(self):
        with pytest.raises(FairbenchError, match="labels"):
            TabularDataset(np.ones((2, 1)), [1, 2], [0, 1], [1, 1], ("a",))
        with pytest.raises(FairbenchError, match="weights"):
            TabularDataset(np.ones((2, 1)), [1, 0], [0, 1], [-1, 1], ("a",))
        with pytest.raises(FairbenchError, match="feature names"):
            TabularDataset(np.ones((2, 2)), [1, 0], [0, 1], [1, 1], ("a",))

    def test_immutable_arrays(self):
        ds = make_synthetic(seed=0, n=10, disparity=0.0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_provenance_lineage(self):
        ds = make_synthetic(seed=0, n=10, disparity=0.0)
        out = ds.with_provenance_step("step")
        assert out.provenance.startswith(ds.provenance)
        assert out.provenance.endswith("step")
