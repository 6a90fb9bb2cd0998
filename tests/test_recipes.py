"""Dataset preparation recipes and bundled schema documents."""

import re

import pytest

from fairbench.dataset import encode, load_csv, load_schema
from fairbench.dataset.recipes import (
    ADULT_COLUMNS,
    GERMAN_COLUMNS,
    bundled_schemas,
    prepare_adult,
    prepare_bank,
    prepare_compas,
    prepare_german,
    prepare_meps,
    schema_path,
)
from fairbench.dataset.schema import declared_sensitive_attributes
from fairbench.errors import DataFormatError, SchemaError
from fairbench.preproc import fit_method

GERMAN_RAW = (
    "A11 6 A34 A43 1169 A65 A75 4 A93 A101 4 A121 67 A143 A152 2 A173 1 A192 A201 1\n"
    "A12 48 A32 A43 5951 A61 A73 2 A92 A101 2 A121 22 A143 A152 1 A173 1 A191 A201 2\n"
)

ADULT_RAW = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
    " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
    "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial,"
    " Husband, White, Male, 0, 0, 13, United-States, <=50K\n"
)

ADULT_TEST_RAW = (
    "|1x3 Cross validator\n"
    "25, Private, 226802, 11th, 7, Never-married, Machine-op-inspct,"
    " Own-child, Black, Male, 0, 0, 40, United-States, <=50K.\n"
)


def test_every_bundled_schema_loads():
    assert set(bundled_schemas()) == {"adult", "bank", "compas", "german", "meps"}
    for name in bundled_schemas():
        schema = load_schema(schema_path(name))
        assert schema.name == name


def test_german_schema_sensitive_options():
    sex = load_schema(schema_path("german"), sensitive="sex")
    assert sex.protected_column == "sex"
    assert sex.privileged_values == frozenset({"male"})
    age = load_schema(schema_path("german"), sensitive="age")
    assert age.protected_column == "age_group"
    with pytest.raises(SchemaError, match="not declared"):
        load_schema(schema_path("german"), sensitive="height")


def test_prepare_german_adds_header(tmp_path):
    raw = tmp_path / "german.data"
    raw.write_text(GERMAN_RAW, encoding="utf-8")
    out = prepare_german(raw, tmp_path / "german.csv")
    text = out.read_text()
    assert text.startswith(",".join(GERMAN_COLUMNS))
    table = load_csv(out, load_schema(schema_path("german")))
    assert table.n == 2
    assert table.rows[0][GERMAN_COLUMNS.index("credit_risk")] == "1"


def test_prepare_adult_merges_and_strips_periods(tmp_path):
    data = tmp_path / "adult.data"
    test = tmp_path / "adult.test"
    data.write_text(ADULT_RAW, encoding="utf-8")
    test.write_text(ADULT_TEST_RAW, encoding="utf-8")
    out = prepare_adult(data, tmp_path / "adult.csv", test_path=test)
    table = load_csv(out, load_schema(schema_path("adult")))
    assert table.n == 3  # comment line skipped, no rows dropped
    labels = [row[ADULT_COLUMNS.index("income")] for row in table.rows]
    assert labels == ["<=50K", "<=50K", "<=50K"]  # trailing period removed


def test_german_pipeline_reproduces_reference_group_structure(tmp_path):
    """A simulated raw file with the reference (sex x label) cell counts must
    come out of prepare -> encode -> metrics with the reference values:
    the male codes are A91/A93/A94, good credit is 1, counts 499/690 and
    201/310 give DI 0.897, SPD -0.075, empirical difference 0.239."""
    import numpy as np

    from fairbench.dataset import encode
    from fairbench.metrics import dataset_metrics

    rng = np.random.default_rng(0)
    cells = [  # (personal_status pool, credit_risk, count)
        (["A91", "A93", "A94"], "1", 499),
        (["A91", "A93", "A94"], "2", 191),
        (["A92", "A95"], "1", 201),
        (["A92", "A95"], "2", 109),
    ]
    rows = []
    for pool, risk, count in cells:
        for _ in range(count):
            status = pool[rng.integers(len(pool))]
            rows.append(
                f"A11 {rng.integers(4, 72)} A32 A43 {rng.integers(250, 18424)} A61 A73 "
                f"{rng.integers(1, 5)} {status} A101 {rng.integers(1, 5)} A121 "
                f"{rng.integers(19, 75)} A143 A152 {rng.integers(1, 4)} A173 "
                f"{rng.integers(1, 3)} A191 A201 {risk}"
            )
    order = rng.permutation(len(rows))
    raw = tmp_path / "german.data"
    raw.write_text("\n".join(rows[i] for i in order) + "\n", encoding="utf-8")

    csv = prepare_german(raw, tmp_path / "german.csv")
    schema = load_schema(schema_path("german"), sensitive="sex")
    ds = encode(load_csv(csv, schema), schema)
    metrics = dataset_metrics(ds)
    assert ds.n == 1000
    assert (metrics.num_positives, metrics.num_negatives) == (700, 300)
    assert metrics.base_rate == pytest.approx(0.700, abs=1e-12)
    assert metrics.disparate_impact == pytest.approx(0.897, abs=0.005)
    assert metrics.statistical_parity_difference == pytest.approx(-0.075, abs=0.005)
    assert metrics.empirical_difference == pytest.approx(0.239, abs=0.01)


COMPAS_HEADER = ("sex,age,age_cat,race,juv_fel_count,juv_misd_count,juv_other_count,"
                 "priors_count,c_charge_degree,two_year_recid,days_b_screening_arrest,"
                 "is_recid,score_text")


def test_prepare_compas_applies_cohort_filter(tmp_path):
    rows = [
        "Male,30,25 - 45,African-American,0,0,0,1,F,1,0,1,Low",       # kept
        "Male,30,25 - 45,Caucasian,0,0,0,1,F,0,40,1,Low",             # screening gap
        "Female,50,Greater than 45,Caucasian,0,0,0,0,M,0,-2,-1,Low",  # is_recid -1
        "Male,22,Less than 25,Hispanic,0,0,0,0,F,1,0,1,High",         # race filtered
        "Male,22,Less than 25,Caucasian,0,0,0,0,O,1,0,1,High",        # ordinary traffic
        "Female,35,25 - 45,Caucasian,0,1,0,2,M,0,5,0,Medium",         # kept
    ]
    raw = tmp_path / "compas-scores-two-years.csv"
    raw.write_text(COMPAS_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = prepare_compas(raw, tmp_path / "compas.csv")
    table = load_csv(out, load_schema(schema_path("compas")))
    assert table.n == 2
    races = {row[table.columns.index("race")] for row in table.rows}
    assert races == {"African-American", "Caucasian"}


def _encodes_and_fits_by_default(csv, name):
    """`csv` encodes under the bundled schema `name` for each attribute it declares, and RW and DIR fit it with {}."""
    attributes = declared_sensitive_attributes(schema_path(name))
    for attribute in attributes:
        schema = load_schema(schema_path(name), sensitive=attribute)
        ds = encode(load_csv(csv, schema), schema)
        assert set(ds.protected) == {0, 1} and set(ds.labels) == {0, 1}, attribute
        for method in ("RW", "DIR"):
            assert fit_method(method, ds, {}).train.n == ds.n
    return attributes


BANK_HEADER = (
    '"age";"job";"marital";"education";"default";"housing";"loan";"contact";"month";"day_of_week";'
    '"duration";"campaign";"pdays";"previous";"poutcome";"emp.var.rate";"cons.price.idx";'
    '"cons.conf.idx";"euribor3m";"nr.employed";"y"'
)


def test_prepare_bank_unquotes_cells_and_renames_dotted_columns(tmp_path):
    # (age, marital, y): each age group and each marital group holds both labels
    people = [(56, "married", "no"), (57, "married", "yes"), (22, "single", "yes"), (21, "single", "no"),
              (37, "single", "yes"), (40, "divorced", "no"), (23, "married", "yes"), (24, "married", "no")]
    rows = [f'{age};"services";"{marital}";"basic.4y";"no";"yes";"no";"telephone";"may";"mon";{100 + i};'
            f'{1 + i % 3};999;0;"nonexistent";1.1;93.994;-36.4;4.857;5191;"{y}"'
            for i, (age, marital, y) in enumerate(people)]
    raw = tmp_path / "bank-additional-full.csv"
    raw.write_text(BANK_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = prepare_bank(raw, tmp_path / "bank.csv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",")[15:20] == ["emp_var_rate", "cons_price_idx", "cons_conf_idx", "euribor3m",
                                          "nr_employed"]
    # quotes go, and a dot inside a value stays
    assert lines[1] == "56,services,married,basic.4y,no,yes,no,telephone,may,mon,100,1,999,0,nonexistent," \
                       "1.1,93.994,-36.4,4.857,5191,no"
    assert _encodes_and_fits_by_default(out, "bank") == ["age", "marital"]


MEPS_HEADER = ("PANEL,HISPANX,RACEV2X,SEX,AGELAST,MARRY16X,REGION16,INSCOV16,"
               "OBTOTV16,OPTOTV16,ERTOT16,IPNGTD16,HHTOTD16")


def test_prepare_meps_keeps_the_panel_derives_race_and_sums_visits(tmp_path):
    rows = [
        "21,2,1,1,30,1,2,1,6,3,1,1,1",       # White, 12 visits
        "21,2,1,2,45,2,3,1,1,1,0,0,0",       # White, 2
        "21,1,1,1,50,1,1,2,10,5,0,0,0",      # Hispanic white: Non-White, 15
        "21,2,2,2,25,5,4,3,,,,,",            # non-Hispanic non-white: Non-White, blank counts are 0
        "21,2,1,1,60,1,2,1,4,4,2,0,0",       # White, 10: high
        "21,1,2,2,33,5,3,2,9,0,0,0,0",       # Non-White, 9: low
        "20,2,1,1,41,1,2,1,30,0,0,0,0",      # another panel
        ",2,1,1,41,1,2,1,30,0,0,0,0",        # no panel
        "21,2,1,1,Inapplicable,1,2,1,30,0,0,0,0",  # no age
    ]
    raw = tmp_path / "h192.csv"
    raw.write_text(MEPS_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = prepare_meps(raw, tmp_path / "meps.csv")
    table = load_csv(out, load_schema(schema_path("meps")))
    assert table.columns == ("age", "sex", "race", "marital", "region", "insurance_coverage", "utilization")
    assert [row[2] for row in table.rows] == ["White", "White", "Non-White", "Non-White", "White", "Non-White"]
    assert [row[1] for row in table.rows] == ["male", "female", "male", "female", "male", "female"]
    assert [float(row[6]) for row in table.rows] == [12, 2, 15, 0, 10, 9]
    assert _encodes_and_fits_by_default(out, "meps") == ["race"]


@pytest.mark.parametrize("prepare, header, row, missing", [
    (prepare_meps, MEPS_HEADER.replace("PANEL,", ""), "2,1,1,30,1,2,1,6,3,1,1,1", "['PANEL']"),
    (prepare_compas, "sex,age,age_cat,race,juv_fel_count,juv_misd_count,juv_other_count,priors_count,"
                     "c_charge_degree,two_year_recid,is_recid", "Male,30,25 - 45,African-American,0,0,0,1,F,1,1",
     "['days_b_screening_arrest', 'score_text']"),
], ids=["meps-without-PANEL", "compas-without-screening-and-score"])
def test_a_raw_file_without_a_column_the_recipe_reads_is_refused(tmp_path, prepare, header, row, missing):
    # the rows of such a file were all dropped, or all kept, without a word
    raw = tmp_path / "raw.csv"
    raw.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"raw.csv: missing column\(s\) {re.escape(missing)}"):
        prepare(raw, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("prepare, header, row, cells", [
    (prepare_compas, COMPAS_HEADER, "Male,30", 2),
    (prepare_meps, MEPS_HEADER, "21,2,1,1,40", 5),
    (prepare_compas, COMPAS_HEADER, "Male,30,25 - 45,Caucasian,0,0,0,1,F,1,0,1,Low,extra", 14),
], ids=["compas-short-row", "meps-short-row", "compas-long-row"])
def test_a_raw_row_with_other_than_the_header_cell_count_is_refused(tmp_path, prepare, header, row, cells):
    # a row read by column name must have every cell: a missing one is no empty cell
    raw = tmp_path / "raw.csv"
    # line 2 is blank: skipped, but counted in the line number
    raw.write_text(f"{header}\n\n{row}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"raw.csv: line 3 has {cells} cells, header has 13$"):
        prepare(raw, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()
