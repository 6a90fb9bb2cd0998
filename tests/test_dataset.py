"""Ingestion, encoding, splitting, caching, synthetic generation."""

import dataclasses
import hashlib
import json
import math
import struct
import warnings

import numpy as np
import pytest

from fairbench.dataset import (
    RawTable,
    SplitSpec,
    TabularDataset,
    cache_key,
    cache_load,
    cache_store,
    datasets_equal,
    encode,
    load_csv,
    load_schema,
    make_synthetic,
    schema_from_dict,
    split,
    split_indices,
)
from fairbench.dataset.cache import (MAGIC, VERSION, cache_path, dumps, entry_key, loads, record_load, record_path,
                                     record_store)
from fairbench.dataset import cache as cache_module
from fairbench.dataset import schema as schema_module
from fairbench.dataset.recipes import prepare_german, schema_path
from fairbench.dataset.schema import declared_sensitive_attributes
from fairbench.errors import DataFormatError, FairbenchError, FairbenchWarning, SchemaError
from fairbench.metrics import statistical_parity_difference
from fairbench.pipeline.stage1 import prepare_original

from conftest import flip_first_feature
from oracles import oracle_v2_entry


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
        with pytest.raises(DataFormatError, match="data.csv: line 3 has 2 cells, header has 4$"):
            load_csv(path, simple_schema())

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("age,sex,income,city\n30,M,high,Montr\u00e9al\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="data.csv: 'utf-8' codec can't decode byte 0xe9 in position"):
            load_csv(path, simple_schema())

    def test_quoted_cells(self, tmp_path):
        path = write(tmp_path, 'age,sex,income,city\n30,M,high,"york, new"\n31,F,low,z\n')
        table = load_csv(path, simple_schema())
        assert table.rows[0][3] == "york, new"

    def test_unreferenced_columns_retained(self, tmp_path):
        path = write(tmp_path, "age,sex,income,city,extra\n30,M,high,x,1\n31,F,low,y,2\n")
        table = load_csv(path, simple_schema())
        assert "extra" in table.columns

    def test_cells_stripped_once_at_construction(self, tmp_path):
        path = write(tmp_path, " age ,sex,income,city\n 30 , M ,high,x \n31,F,low,y\n")
        table = load_csv(path, simple_schema())
        assert table.columns == ("age", "sex", "income", "city")
        assert table.rows == (("30", "M", "high", "x"), ("31", "F", "low", "y"))

    def test_repeated_header_names_the_column(self, tmp_path):
        # at one time binarization read the first `age` and the feature the second
        path = write(tmp_path, "age,income,age,sex\n30,high,20,M\n20,low,30,F\n")
        with pytest.raises(DataFormatError, match=f"{path.name}: column 'age' appears twice"):
            load_csv(path, simple_schema())
        with pytest.raises(DataFormatError, match="column 'age' appears twice"):
            RawTable(columns=("age", "income", " age"), rows=(("30", "high", "20"),))

    def test_a_column_named_twice_with_equal_cells_is_read(self, tmp_path):
        # as in ProPublica's COMPAS file, whose two `priors_count` columns agree
        path = write(tmp_path, "age,sex,income,city,age\n30,M,high,x, 30\n\n40,F,low,y,40\n")
        table = load_csv(path, simple_schema())
        assert table.columns == ("age", "sex", "income", "city", "age")
        assert table.lines == (2, 4)
        with pytest.raises(DataFormatError, match="data.csv: column 'age' appears twice in the header and holds "
                                                  "'50' and '5' on line 3$"):
            load_csv(write(tmp_path, "age,sex,income,city,age\n30,M,high,x,30\n50,F,low,y,5\n"), simple_schema())


class TestSchema:
    @pytest.mark.parametrize("override, message", [
        ({"protected": ["sex"]}, "protected must be a mapping, got list"),
        ({"sensitive_options": ["sex", "age"]}, "sensitive_options must be a mapping, got list"),
        ({"sensitive_options": {"sex": "M"}}, "sensitive_options.sex must be a mapping, got str"),
        ({"label": "income"}, "label must be a mapping, got str"),
        ({"features": ["age"]}, "features must be a mapping, got list"),
        ({"binarize": ["age"]}, r"binarize\[0\] must be a mapping, got str"),
        ({"missing": ["?"]}, "missing must be a mapping, got list"),
        ({"categories": ["city"]}, "categories must be a mapping, got list"),
        # a string where a list belongs was once read character by character
        ({"features": {"numeric": "age"}}, "features.numeric must be a list, got str"),
        ({"features": {"numeric": ["age"], "categorical": "city"}}, "features.categorical must be a list, got str"),
        ({"drop": "fnlwgt"}, "drop must be a list, got str"),
        ({"missing": {"tokens": "?"}}, "missing.tokens must be a list, got str"),
        ({"categories": {"city": "abc"}}, "categories.city must be a list, got str"),
        ({"binarize": {"column": "g"}}, "binarize must be a list, got dict"),
        ({"binarize": [{"column": "g", "from": "age", "rules": {"when": "default", "value": "x"}}]},
         r"binarize\[0\].rules must be a list, got dict"),
        # DatasetSchema itself refuses this one, so the text starts with the schema's name
        ({"name": "<schema>", "categories": {"city": ["a", "b", "a"]}}, "categories.city repeats the level 'a'"),
    ])
    def test_block_of_the_wrong_type_names_its_key(self, override, message):
        with pytest.raises(SchemaError, match=f"<schema>: {message}"):
            simple_schema(**override)

    @pytest.mark.parametrize("override, where, key", [
        ({"label": {"column": "income", "favorable": "high", "favourable": "high"}}, "label", "favourable"),
        ({"protected": {"column": "sex", "privileged": ["M"], "privileged_values": ["M"]}},
         "protected", "privileged_values"),
        ({"sensitive_options": {"sex": {"column": "sex", "privilege": ["M"]}}}, "sensitive_options.sex", "privilege"),
        ({"features": {"numeric": ["age"], "categoric": ["city"]}}, "features", "categoric"),
        # `drop_rows` misspelt once kept every row with a missing token
        ({"missing": {"tokens": ["?"], "drop_row": True}}, "missing", "drop_row"),
        ({"categories": {"cty": ["a", "b"]}}, "categories", "cty"),
        ({"binarize": [{"column": "g", "source": "age", "rules": []}]}, r"binarize\[0\]", "source"),
        ({"binarize": [{"column": "g", "from": "age", "rules": [{"when": "default", "value": "x", "else": "y"}]}]},
         r"binarize\[0\].rules\[0\]", "else"),
    ])
    def test_unknown_key_in_a_block_names_the_block_and_key(self, override, where, key):
        with pytest.raises(SchemaError, match=f"<schema>: {where}: unknown keys \\['{key}'\\]"):
            simple_schema(**override)

    # `bool("false")` once read both quoted strings as true
    @pytest.mark.parametrize("override, key, value", [
        ({"keep_protected_in_features": "false"}, "keep_protected_in_features", "'false'"),
        ({"keep_protected_in_features": "no"}, "keep_protected_in_features", "'no'"),
        ({"keep_protected_in_features": 1}, "keep_protected_in_features", "1"),
        ({"missing": {"tokens": ["?"], "drop_rows": "false"}}, "missing.drop_rows", "'false'"),
        ({"missing": {"tokens": ["?"], "drop_rows": "no"}}, "missing.drop_rows", "'no'"),
        ({"missing": {"drop_rows": None}}, "missing.drop_rows", "None"),
    ])
    def test_a_flag_must_be_a_yaml_boolean(self, override, key, value):
        with pytest.raises(SchemaError, match=f"<schema>: {key} must be true or false, got {value}$"):
            simple_schema(**override)

    def test_yaml_booleans_set_the_flags(self):
        schema = simple_schema(keep_protected_in_features=True, missing={"drop_rows": True})
        assert schema.keep_protected_in_features and schema.drop_missing_rows
        schema = simple_schema(keep_protected_in_features=False, missing={"drop_rows": False})
        assert not schema.keep_protected_in_features and not schema.drop_missing_rows

    def test_schema_file_is_parsed_once_per_content(self, tmp_path, monkeypatch):
        path = tmp_path / "toy.yaml"
        path.write_text("name: toy\nlabel: {column: income, favorable: high}\n"
                        "protected: {column: sex, privileged: [M]}\nfeatures: {numeric: [age]}\n", encoding="utf-8")
        parsed, parse = [], schema_module.yaml_document
        monkeypatch.setattr(schema_module, "yaml_document",
                            lambda blob, where: parsed.append(blob) or parse(blob, where))
        declared_sensitive_attributes(path)
        first = load_schema(path)
        assert load_schema(path) == first and len(parsed) == 1
        path.write_text(path.read_text(encoding="utf-8").replace("[M]", "[F]"), encoding="utf-8")
        assert load_schema(path).privileged_values == frozenset({"F"}) and len(parsed) == 2

    def test_repeated_pinned_level_is_refused_on_construction(self):
        schema = simple_schema(categories={"city": ["a", "b"]})
        with pytest.raises(SchemaError, match="toy: categories.city repeats the level 'b'"):
            dataclasses.replace(schema, categories={"city": ("b", "a", "b", "b")})

    def test_comparison_rule_needs_a_number(self):
        rules = [{"when": "> abc", "value": "old"}]
        with pytest.raises(SchemaError, match=r"binarize\[0\].rules\[0\]: '>' needs a number, got 'abc'"):
            simple_schema(binarize=[{"column": "g", "from": "age", "rules": rules}])


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


def store(ds, root):
    """Write `ds`'s entry under its content key, as preparation does; the entry's path."""
    entry = dumps(ds)
    return cache_store(entry, entry_key(entry), root)


class TestCache:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = make_synthetic(seed=5, n=50, disparity=0.3)
        # adversarial reals survive the binary round-trip
        features = ds.features.copy()
        features[0, 0] = 1.0 / 3.0
        features[1, 1] = 1e-308
        ds = ds.replace(features=features, weights=ds.weights * np.pi)
        key = entry_key(dumps(ds))
        cache_store(dumps(ds), key, tmp_path)
        loaded = cache_load(key, tmp_path)
        assert datasets_equal(ds, loaded)

    def test_miss_is_absent_not_error(self, tmp_path):
        assert cache_load(cache_key("never", "stored", {}, 0), tmp_path) is None

    def test_same_key_single_entry_last_wins(self, tmp_path):
        a = make_synthetic(seed=1, n=20, disparity=0.0)
        b = make_synthetic(seed=2, n=20, disparity=0.0)
        key = entry_key(dumps(b))
        cache_store(dumps(a), key, tmp_path)
        cache_store(dumps(b), key, tmp_path)
        assert len(list(tmp_path.glob("*.fpds"))) == 1
        assert datasets_equal(cache_load(key, tmp_path), b)

    def test_magic_header_is_eight_bytes(self, tmp_path):
        ds = make_synthetic(seed=1, n=10, disparity=0.0)
        key = cache_key("syn", "m", {}, 0)
        path = cache_store(dumps(ds), key, tmp_path)
        assert len(MAGIC) == 8
        assert path.read_bytes()[:8] == MAGIC
        assert path.name == f"{key}.fpds"

    def test_no_temp_residue(self, tmp_path):
        ds = make_synthetic(seed=1, n=10, disparity=0.0)
        cache_store(dumps(ds), cache_key("a", "b", {}, 0), tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("damage", ["truncated", "bad_magic", "old_format"])
    def test_unreadable_entry_is_a_warned_miss(self, tmp_path, damage):
        ds = make_synthetic(seed=1, n=20, disparity=0.0)
        path = store(ds, tmp_path)
        blob = path.read_bytes()
        path.write_bytes({
            "truncated": blob[:len(blob) - 8],
            "bad_magic": b"XXXXXXXX" + blob[8:],
            "old_format": b"FPDSTXT\nversion 1\nn 20\nd 2\nend\n",
        }[damage])
        # rejected at the key check, before the parser sees the bytes
        with pytest.warns(FairbenchWarning, match=f"{path.name}: its bytes no longer hash to its key"):
            assert cache_load(entry_key(dumps(ds)), tmp_path) is None

    def test_content_key_covers_the_protected_column(self):
        ds = make_synthetic(seed=1, n=20, disparity=0.0)
        assert entry_key(dumps(ds)) == entry_key(dumps(ds.replace()))
        assert entry_key(dumps(ds.replace(protected=1 - ds.protected))) != entry_key(dumps(ds))

    def test_key_depends_on_all_parts(self):
        base = cache_key("d", "m", {"x": 1}, 0)
        assert cache_key("d2", "m", {"x": 1}, 0) != base
        assert cache_key("d", "m2", {"x": 1}, 0) != base
        assert cache_key("d", "m", {"x": 2}, 0) != base
        assert cache_key("d", "m", {"x": 1}, 1) != base
        assert cache_key("d", "m", {"x": 1}, 0) == base

    def test_an_entry_whose_content_no_longer_hashes_to_its_key_is_a_warned_miss(self, tmp_path):
        ds = make_synthetic(seed=3, n=30, disparity=0.2)
        path = store(ds, tmp_path)
        assert path.read_bytes() == dumps(ds)
        flip_first_feature(path)  # still parses, with one feature changed
        loads(path.read_bytes())
        with pytest.warns(FairbenchWarning, match=f"{path.name}: its bytes no longer hash to its key"):
            assert cache_load(entry_key(dumps(ds)), tmp_path) is None


def german_dataset(tmp_path, n=200):
    """An encoded German-shaped dataset read through the bundled `german.yaml`."""
    rng = np.random.default_rng(3)

    def code(prefix, count):
        return f"{prefix}{rng.integers(1, count + 1)}"

    rows = [" ".join([
        code("A1", 4), str(rng.integers(4, 72)), f"A3{rng.integers(0, 5)}", f"A4{rng.integers(0, 10)}",
        str(rng.integers(250, 18424)), code("A6", 5), code("A7", 5), str(rng.integers(1, 5)), code("A9", 5),
        code("A10", 3), str(rng.integers(1, 5)), code("A12", 4), str(rng.integers(19, 75)), code("A14", 3),
        code("A15", 3), str(rng.integers(1, 5)), code("A17", 4), str(rng.integers(1, 3)), code("A19", 2),
        code("A20", 2), str(rng.integers(1, 3))]) for _ in range(n)]
    raw = tmp_path / "german.data"
    raw.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema = load_schema(schema_path("german"))
    return encode(load_csv(prepare_german(raw, tmp_path / "german.csv"), schema), schema)


def _header(path):
    blob = path.read_bytes()
    (length,) = np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))
    return json.loads(blob[len(MAGIC) + 8:len(MAGIC) + 8 + int(length)])


def _metric_fields(**overrides):
    fields = {"base_rate": 0.5, "base_rate_unprivileged": 1 / 3, "base_rate_privileged": 0.0,
              "consistency": 0.743, "disparate_impact": 0.1 + 0.2, "statistical_parity_difference": -0.0,
              "num_positives": 120, "num_negatives": 80, "empirical_difference": 1e-308}
    return dict(fields, **overrides)


def _float_bits(fields):
    return {name: struct.pack("<d", value) if isinstance(value, float) else value for name, value in fields.items()}


class TestRecords:
    """A stage-1 record: the version, flat fields and their sha256, beside the dataset entries."""

    @pytest.mark.parametrize("disparate_impact", [math.inf, math.nan, 0.1 + 0.2])
    def test_fields_round_trip_bit_for_bit(self, tmp_path, disparate_impact):
        fields = _metric_fields(disparate_impact=disparate_impact)
        path = record_store(fields, "k", tmp_path)
        assert path == record_path(tmp_path, "k") and path.name == "k.metrics.fpds"
        loaded = record_load("k", tmp_path, dict)
        assert _float_bits(loaded) == _float_bits(fields)
        assert [type(v) for v in loaded.values()] == [type(v) for v in fields.values()]
        header = _header(path)
        assert header["version"] == VERSION and set(header) == {"version", "fields", "sha256"}
        assert path.stat().st_size == len(MAGIC) + 8 + len(json.dumps(header, sort_keys=True, separators=(",", ":")))

    def test_miss_is_absent_not_error(self, tmp_path):
        record_store(_metric_fields(), "k", tmp_path)
        assert record_load("other", tmp_path, dict) is None
        assert cache_load("k", tmp_path) is None  # a record is not a dataset entry

    @pytest.mark.parametrize("damage, match", [
        ("digit", "no longer hash to its sha256"), ("truncated", "corrupt cache entry header"),
        ("version", "unsupported cache version 4"), ("body", "record has"),
    ])
    def test_a_damaged_record_is_a_warned_miss(self, tmp_path, damage, match):
        path = record_store(_metric_fields(), "k", tmp_path)
        blob = path.read_bytes()
        if damage == "digit":
            at = blob.index(b'"num_positives":') + len(b'"num_positives":')
            blob = blob[:at] + b"2" + blob[at + 1:]  # 120 -> 220, the same length
        elif damage == "truncated":
            blob = blob[:-5]
        elif damage == "version":
            blob = blob.replace(b'"version":3', b'"version":4')
        else:
            blob += b"\0"
        path.write_bytes(blob)
        with pytest.warns(FairbenchWarning, match=f"{path.name}: .*{match}"):
            assert record_load("k", tmp_path, dict) is None


def _array_bytes(k, n):
    """Body bytes of one stored array: n raw values (k=0), or a k-value table and its codes."""
    return 8 * n if k == 0 else 8 * k + (1 if k <= 256 else 2) * n


def _table_dataset(n=1000):
    """Columns: 0.0 and -0.0 mixed, constant, 256 and 257 distinct values, continuous."""
    rng = np.random.default_rng(8)
    signed = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    features = np.column_stack([
        signed, np.full(n, 2.5), rng.permutation(np.arange(n) % 256) / 7.0,
        rng.permutation(np.arange(n) % 257) * 1e-3, rng.normal(size=n),
    ])
    labels, protected = rng.integers(0, 2, n), rng.integers(0, 2, n)
    return TabularDataset(features, labels, protected, rng.uniform(0.5, 2.0, n),
                          ("signed", "constant", "d256", "d257", "normal"), "tables")


class TestCompactEntries:
    """Each stored array as its raw values or as its distinct values plus one narrow code per row."""

    def test_each_column_round_trips_bit_exact_in_its_smaller_form(self, tmp_path):
        ds = _table_dataset()
        path = store(ds, tmp_path)
        header = _header(path)
        assert header["version"] == VERSION == 3
        # labels and protected as 2-value tables; the weights are continuous
        assert header["tables"] == [2, 1, 256, 257, 0, 2, 2, 0]
        n = ds.n
        body = (8 * 2 + n) + (8 + n) + (8 * 256 + n) + (8 * 257 + 2 * n) + 8 * n + 2 * (8 * 2 + n) + 8 * n
        assert path.stat().st_size == len(MAGIC) + 8 + len(json.dumps(header, sort_keys=True,
                                                                       separators=(",", ":"))) + body
        loaded = cache_load(entry_key(dumps(ds)), tmp_path)
        assert datasets_equal(loaded, ds)
        assert (np.signbit(loaded.features[:, 0]) == np.signbit(ds.features[:, 0])).all()
        assert np.signbit(ds.features[:, 0]).any() and not np.signbit(ds.features[:, 0]).all()

    def test_content_key_is_the_sha256_of_the_entry_bytes(self, tmp_path):
        for ds in (_table_dataset(), make_synthetic(seed=2, n=30, disparity=0.1)):
            path = store(ds, tmp_path)
            assert entry_key(dumps(ds)) == hashlib.sha256(path.read_bytes()).hexdigest() == path.stem
            assert entry_key(dumps(ds)) != hashlib.sha256(oracle_v2_entry(ds)).hexdigest()

    def test_equal_content_gives_equal_entry_bytes_and_key(self):
        rng = np.random.default_rng(4)
        features = rng.integers(-8, 9, (60, 3)) / 4.0  # every value exact in float32
        features[0, 0] = -0.0
        labels, protected = rng.integers(0, 2, 60), rng.integers(0, 2, 60)
        fields = dict(labels=labels, protected=protected, weights=rng.uniform(0.5, 2.0, 60),
                      feature_names=("a", "b", "c"), provenance="toy[sex]")
        ds = TabularDataset(features, **fields)
        same = [ds.replace(), TabularDataset(np.asfortranarray(features), **fields),
                TabularDataset(features.astype(np.float32), **fields)]
        for other in same:
            assert dumps(other) == dumps(ds)
            assert entry_key(dumps(other)) == entry_key(dumps(ds))
        changed = [ds.replace(protected=np.where(np.arange(60) == 7, 1 - protected, protected)),
                   ds.replace(feature_names=("a", "b", "d")), ds.replace(provenance="toy[age]")]
        keys = {entry_key(dumps(other)) for other in [ds, *changed]}
        assert len(keys) == 1 + len(changed)

    def test_german_original_entry_is_at_most_a_quarter_of_its_dense_size(self, tmp_path):
        ds = german_dataset(tmp_path, n=1000)
        assert len(dumps(ds)) * 4 <= len(oracle_v2_entry(ds))
        assert datasets_equal(loads(dumps(ds)), ds)

    @pytest.mark.parametrize("damage, match", [
        ("bad_magic", "bad magic"), ("truncated", "truncated at 12 bytes"),
        ("code_past_table", "code past the end"), ("extra_byte", "expected"), ("missing_byte", "expected"),
    ])
    def test_a_bad_magic_code_or_length_fails_to_parse(self, damage, match):
        blob = bytearray(dumps(_table_dataset(n=300)))
        if damage == "bad_magic":
            blob[:len(MAGIC)] = b"XXXXXXXX"
        elif damage == "truncated":
            del blob[12:]
        elif damage == "code_past_table":
            (header_len,) = np.frombuffer(blob, dtype="<u8", count=1, offset=len(MAGIC))
            blob[len(MAGIC) + 8 + int(header_len) + 8 * 2 + 5] = 2  # row 5 of column 0's 2-value table
        elif damage == "extra_byte":
            blob += b"\0"
        else:
            del blob[-1]
        with pytest.raises(DataFormatError, match=match):
            loads(bytes(blob))

    @pytest.mark.parametrize("where", ["header", "table", "codes", "raw"])
    def test_a_flipped_byte_is_a_warned_miss_that_preparation_rewrites(self, tmp_path, where):
        ds = _table_dataset(n=300)
        path = store(ds, tmp_path)
        blob = bytearray(path.read_bytes())
        header = _header(path)
        body = len(blob) - sum(_array_bytes(k, ds.n) for k in header["tables"])
        # column 0 is a 2-value table then its uint8 codes; column 4 ("normal") is raw
        raw = body + sum(_array_bytes(k, ds.n) for k in header["tables"][:4])
        at = {"header": blob.index(b'"normal"') + 1, "table": body, "codes": body + 8 * 2 + 5, "raw": raw + 3}[where]
        blob[at] ^= 0x01
        # each still parses, as another dataset: only the key check catches it
        assert not datasets_equal(loads(bytes(blob)), ds)
        path.write_bytes(bytes(blob))
        with pytest.warns(FairbenchWarning, match=f"{path.name}: its bytes no longer hash to its key"):
            assert prepare_original(ds, None, tmp_path, "tables").cache_key == path.stem
        assert path.read_bytes() == dumps(ds)

    def test_an_entry_that_exists_but_cannot_be_read_is_a_warned_miss(self, tmp_path):
        ds = make_synthetic(seed=1, n=20, disparity=0.0)
        cache_path(tmp_path, entry_key(dumps(ds))).mkdir()
        with pytest.warns(FairbenchWarning, match=f"{entry_key(dumps(ds))}.fpds: it cannot be read"):
            assert cache_load(entry_key(dumps(ds)), tmp_path) is None

    def test_a_warm_preparation_compares_the_entry_bytes_and_parses_none(self, tmp_path, monkeypatch):
        ds = _table_dataset(n=200)
        path = cache_path(tmp_path, prepare_original(ds, None, tmp_path, "tables").cache_key)
        written = path.stat().st_ino  # a rewrite renames a new file into place
        parsed = []
        monkeypatch.setattr(cache_module, "loads", lambda blob: parsed.append(blob) or loads(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prepare_original(ds, None, tmp_path, "tables").cache_key == path.stem
        assert parsed == []
        assert path.stat().st_ino == written

    def test_preparation_makes_the_entry_bytes_once(self, tmp_path, monkeypatch):
        import fairbench.pipeline.stage1 as stage1_module

        made = []
        for module in (cache_module, stage1_module):
            monkeypatch.setattr(module, "dumps", lambda ds: made.append(dumps(ds)) or made[-1])
        prepared = prepare_original(_table_dataset(n=200), None, tmp_path, "tables")
        assert made == [cache_path(tmp_path, prepared.cache_key).read_bytes()]

    @pytest.mark.parametrize("old_entry", [dumps, oracle_v2_entry], ids=["version_3", "version_2"])
    def test_an_older_cache_is_a_silent_miss_left_in_place(self, tmp_path, old_entry):
        ds = _table_dataset(n=200)
        # earlier versions kept an original under the sha256 of its dense form
        old = cache_path(tmp_path, hashlib.sha256(oracle_v2_entry(ds)).hexdigest())
        old.write_bytes(old_entry(ds))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prepare_original(ds, None, tmp_path, "tables").cache_key == entry_key(dumps(ds))
        assert old.read_bytes() == old_entry(ds)
        assert cache_path(tmp_path, entry_key(dumps(ds))).read_bytes() == dumps(ds)


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
