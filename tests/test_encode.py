"""`encode` (column by column) against `oracle_encode` (row by row): the same
dataset bytes under `cache.dumps`, the same warnings and the same error texts."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from oracles import oracle_encode

from fairbench.dataset import RawTable, encode, load_csv, load_schema, schema_from_dict
from fairbench.dataset.cache import dumps
from fairbench.dataset.recipes import schema_path
from fairbench.dataset.schema import declared_sensitive_attributes
from fairbench.errors import FairbenchError

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("adult", "bank", "compas", "german", "meps")


def outcome(fn, table, schema):
    """(dataset bytes or error text, warnings in order) of one encoding."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = dumps(fn(table, schema))
        except (FairbenchError, KeyError, ValueError) as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_as_oracle(table, schema):
    got = outcome(encode, table, schema)
    assert got == outcome(oracle_encode, table, schema)
    return got


def schema_table(schema, seed, n=120):
    """Random cells for every column `schema` reads: rule sources draw values
    its rules cover, labels and groups both of their classes, numerics numbers,
    categoricals a few levels and the missing token, all with stray padding."""
    rng = np.random.default_rng(seed)
    rules = {}
    for rule in schema.binarize:
        rules.setdefault(rule.source, []).append(rule)

    def pool(col):
        listed = [v for rule in rules.get(col, ()) if rule.op == "in" for v in rule.value]
        if listed:
            return listed
        if col in rules or col in schema.numeric_columns:
            return [str(v) for v in range(0, 70, 3)] + ["2.5", "-0"]
        if col == schema.label_column:
            return [str(schema.favorable_value), "no"]
        if col == schema.protected_column:
            return sorted(schema.privileged_values) + ["other"]
        return ["a", "b", "c", "d", "e", "f", "g", "?"]

    columns = sorted(schema.referenced_columns())
    pools = [pool(c) for c in columns]
    rows = [[rng.choice(p) + " " * int(rng.integers(0, 2)) for p in pools] for _ in range(n)]
    return RawTable(columns=tuple(columns), rows=tuple(rows))


def bundled_cases():
    for name in BUNDLED:
        for attr in declared_sensitive_attributes(schema_path(name)):
            yield pytest.param(name, attr, id=f"{name}-{attr}")


@pytest.mark.parametrize("name, sensitive", bundled_cases())
@pytest.mark.parametrize("drop_rows", [False, True], ids=["keep-missing", "drop-missing"])
def test_bundled_schema_matches_oracle(name, sensitive, drop_rows):
    schema = load_schema(schema_path(name), sensitive)
    if drop_rows:
        schema = schema_from_dict({**_doc(name), "missing": {"tokens": ["?"], "drop_rows": True}}, sensitive)
    result, _ = assert_same_as_oracle(schema_table(schema, seed=len(name)), schema)
    assert isinstance(result, bytes), result


def _doc(name):
    return yaml.safe_load(schema_path(name).read_text(encoding="utf-8"))


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, sensitive", [("german", "sex"), ("german", "age"), ("adult", "sex"), ("adult", "race")])
def test_benchmark_csv_matches_oracle(tmp_path, name, sensitive):
    path = tmp_path / f"{name}.csv"
    getattr(_bench_gen(), f"write_{name}")(path, 300, 7, 0)
    schema = load_schema(schema_path(name), sensitive)
    result, _ = assert_same_as_oracle(load_csv(path, schema), schema)
    assert isinstance(result, bytes), result


TOY = {
    "name": "toy",
    "label": {"column": "income", "favorable": "high"},
    "protected": {"column": "sex", "privileged": ["M"]},
    "features": {"numeric": ["age"], "categorical": ["city"]},
}
COLUMNS = ("age", "sex", "income", "city")
ROWS = (("30", "M", "high", "a"), ("41", "F", "low", "b"), ("25", "F", "high", "a"),
        ("?", "M", "low", "c"), ("52", "M", "high", "?"), ("19", "F", "low", "b"))
BINARIZE_AGE = [{"column": "age_group", "from": "age",
                 "rules": [{"when": "> 25", "value": "old"}, {"when": "default", "value": "young"}]}]

def table(rows, columns=COLUMNS):
    return RawTable(columns=columns, rows=rows)


EDGE_CASES = {
    "pinned-levels-with-unseen-values": (
        {"categories": {"city": ["b", "a", "zz"]}}, table(ROWS[:3] + (("33", "F", "low", "c"),) + ROWS[5:])),
    "pinned-empty-levels": ({"categories": {"city": []}}, table(ROWS[:3])),
    "pinned-empty-levels-only-feature": (
        {"features": {"categorical": ["city"]}, "categories": {"city": []}}, table(ROWS[:3])),
    "drop-rows": ({"missing": {"tokens": ["?"], "drop_rows": True}}, table(ROWS)),
    "drop-rows-then-non-numeric": (
        {"missing": {"tokens": ["?"], "drop_rows": True}}, table(ROWS + (("x", "F", "low", "a"),))),
    "drop-every-row": ({"missing": {"tokens": ["?", "M", "F"], "drop_rows": True}}, table(ROWS)),
    "missing-tokens-kept": ({"missing": {"tokens": ["?"]}}, table(ROWS[:3] + ROWS[4:])),
    "in-place-binarization": ({"binarize": [{"column": "city", "rules": [
        {"when": "in [a, b]", "value": "ab"}, {"when": "default", "value": "other"}]}]}, table(ROWS[:3] + ROWS[4:])),
    "derived-binarization": ({"binarize": BINARIZE_AGE,
                              "features": {"numeric": ["age"], "categorical": ["city", "age_group"]}},
                             table(ROWS[:3] + ROWS[4:])),
    "padded-rule-output": ({"binarize": [{"column": "age_group", "from": "age", "rules": [
        {"when": "> 25", "value": " old "}, {"when": "default", "value": "young "}]}],
        "features": {"numeric": ["age"], "categorical": ["age_group"]}}, table(ROWS[:3] + ROWS[4:])),
    "derived-group": ({"protected": {"column": "age_group", "privileged": ["old"]},
                       "binarize": BINARIZE_AGE}, table(ROWS[:3] + ROWS[4:])),
    "chained-binarization": ({"binarize": BINARIZE_AGE + [{"column": "age_group", "rules": [
        {"when": "== old", "value": "1"}, {"when": "== young", "value": "0"}]}],
        "features": {"numeric": ["age", "age_group"], "categorical": ["city"]}}, table(ROWS[:3] + ROWS[4:])),
    "derived-missing-dropped": ({"binarize": [{"column": "age_group", "from": "age", "rules": [
        {"when": "> 40", "value": "?"}, {"when": "default", "value": "ok"}]}],
        "missing": {"tokens": ["?"], "drop_rows": True}}, table(ROWS[:3] + ROWS[4:])),
    "rule-matches-nothing": ({"binarize": [{"column": "age_group", "from": "age",
                                            "rules": [{"when": "> 25", "value": "old"}]}]}, table(ROWS)),
    "binarization-source-absent": ({"binarize": [{"column": "g", "from": "nowhere",
                                                  "rules": [{"when": "default", "value": "x"}]}]}, table(ROWS[:3])),
    "non-numeric-cell": ({}, table(ROWS)),
    "keep-protected-in-features": ({"features": {"numeric": ["age"], "categorical": ["city", "sex"]},
                                    "keep_protected_in_features": True}, table(ROWS[:3])),
    "no-feature-columns": ({"features": {"numeric": ["age", "absent"]}},
                           table((("M", "high", "1"), ("F", "low", "2")), ("sex", "income", "other"))),
    "numeric-favorable-value": ({"label": {"column": "income", "favorable": 1}}, table(
        (("30", "M", "1", "a"), ("41", "F", "1.0", "b"), ("25", "F", "0", "a")))),
}


@pytest.mark.parametrize("overrides, raw", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_matches_oracle(overrides, raw):
    assert_same_as_oracle(raw, schema_from_dict({**TOY, **overrides}))


def test_raw_table_with_padded_and_non_string_cells_matches_oracle():
    table = RawTable(
        columns=(" age", "sex ", "income", "city"),
        rows=((30, " M", "high ", "a"), (41.5, "F", "low", " b "), (True, "M", "high", 7),
              ("  25  ", "F", "low", 7.0)),
    )
    assert table.rows[0] == ("30", "M", "high", "a")
    assert table.rows[2] == ("True", "M", "high", "7")
    schema = schema_from_dict({**TOY, "features": {"categorical": ["city"], "numeric": ["age"]}})
    result, _ = assert_same_as_oracle(table, schema)
    assert "non-numeric cell 'True'" in result
    fixed = RawTable(columns=table.columns, rows=table.rows[:2] + table.rows[3:])
    result, _ = assert_same_as_oracle(fixed, schema)
    assert isinstance(result, bytes), result


@pytest.mark.parametrize("drop_rows", [False, True], ids=["keep-missing", "drop-missing"])
@pytest.mark.parametrize("overrides, age, message", [
    (EDGE_CASES["rule-matches-nothing"][0], "25", "value '25' matches no binarization rule"),
    ({}, "x", "non-numeric cell 'x' in a numeric column"),
], ids=["binarization-miss", "non-numeric-cell"])
def test_error_texts_name_the_file_line_below_a_blank_line(tmp_path, overrides, age, message, drop_rows):
    # line 3 is blank and line 4 is dropped as missing where asked; the bad cell sits on line 5
    path = tmp_path / "data.csv"
    path.write_text(f"age,sex,income,city\n30,M,high,a\n\n41,F,low,?\n{age},F,low,b\n", encoding="utf-8")
    schema = schema_from_dict({**TOY, **overrides, "missing": {"tokens": ["?"], "drop_rows": drop_rows}})
    result, _ = outcome(encode, load_csv(path, schema), schema)
    assert result == f"DataFormatError: row 5, column 'age': {message}"


def test_error_texts_name_the_row():
    """The cases above compare error texts; these pin what they say."""
    schema = schema_from_dict({**TOY, **EDGE_CASES["rule-matches-nothing"][0]})
    result, _ = outcome(encode, RawTable(columns=COLUMNS, rows=ROWS), schema)
    assert result == "DataFormatError: row 4, column 'age': value '25' matches no binarization rule"
    result, _ = outcome(encode, RawTable(columns=COLUMNS, rows=ROWS), schema_from_dict(TOY))
    assert result == "DataFormatError: row 5, column 'age': non-numeric cell '?' in a numeric column"
    # file rows 5 and 6 are dropped as missing; the cell 'x' still sits on file row 8
    overrides, raw = EDGE_CASES["drop-rows-then-non-numeric"]
    result, _ = outcome(encode, raw, schema_from_dict({**TOY, **overrides}))
    assert result == "DataFormatError: row 8, column 'age': non-numeric cell 'x' in a numeric column"
