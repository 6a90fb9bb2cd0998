"""Preparation recipes: raw benchmark downloads -> canonical header-ed CSVs.

The raw files are not redistributed with the package and are never downloaded
automatically; point each recipe at a locally obtained copy. Every recipe
writes a plain UTF-8 CSV that the bundled schema for that dataset consumes.

Raw-file location convention used by the test-suite and demos: set
FAIRBENCH_DATA to a directory containing the upstream files (german.data,
adult.data + adult.test, compas-scores-two-years.csv, bank-additional-full.csv,
h192.csv).
"""

import csv
import os
from importlib import resources
from pathlib import Path

from ..errors import DataFormatError

GERMAN_COLUMNS = [
    "checking_status", "duration", "credit_history", "purpose", "credit_amount",
    "savings_status", "employment", "installment_commitment", "personal_status",
    "other_parties", "residence_since", "property_magnitude", "age",
    "other_payment_plans", "housing", "existing_credits", "job",
    "num_dependents", "own_telephone", "foreign_worker", "credit_risk",
]

ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education_num",
    "marital_status", "occupation", "relationship", "race", "sex",
    "capital_gain", "capital_loss", "hours_per_week", "native_country",
    "income",
]

COMPAS_COLUMNS = [
    "sex", "age", "age_cat", "race", "juv_fel_count", "juv_misd_count",
    "juv_other_count", "priors_count", "c_charge_degree", "two_year_recid",
]

# visit-count components summed into the raw utilization score (panel 21,
# 2016 calendar-year variables)
MEPS_UTILIZATION_COMPONENTS = ["OBTOTV16", "OPTOTV16", "ERTOT16", "IPNGTD16", "HHTOTD16"]


def schema_path(name: str) -> Path:
    """Filesystem path of a bundled dataset schema YAML."""
    ref = resources.files("fairbench.dataset") / "schemas" / f"{name}.yaml"
    with resources.as_file(ref) as p:
        return Path(p)


def bundled_schemas():
    return sorted(p.stem for p in (resources.files("fairbench.dataset") / "schemas").iterdir())


def data_dir() -> Path:
    return Path(os.environ.get("FAIRBENCH_DATA", "data"))


def _records(raw_path, columns):
    """The rows of a header-ed CSV as dicts, blank lines skipped.

    A header without one of `columns`, or a row with more or fewer cells
    than the header, is a DataFormatError naming them.
    """
    with open(raw_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = sorted(set(columns) - set(header))
        if missing:
            raise DataFormatError(f"{raw_path}: missing column(s) {missing}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(f"{raw_path}: line {reader.line_num} has {len(row)} cells, "
                                      f"header has {len(header)}")
            yield dict(zip(header, row))


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def prepare_german(raw_path, out_path) -> Path:
    """german.data (space-separated, no header) -> named CSV; values untouched."""
    rows = []
    with open(raw_path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            cells = line.split()
            if not cells:
                continue
            if len(cells) != len(GERMAN_COLUMNS):
                raise DataFormatError(f"{raw_path}: line {i + 1} has {len(cells)} fields, expected {len(GERMAN_COLUMNS)}")
            rows.append(cells)
    return _write_csv(out_path, GERMAN_COLUMNS, rows)


def prepare_adult(data_path, out_path, test_path=None) -> Path:
    """adult.data (+ optional adult.test) -> one CSV covering all records.

    The test part's comment line is skipped and the trailing period on its
    labels is removed; no rows are dropped.
    """
    rows = []
    parts = [data_path] + ([test_path] if test_path else [])
    for part in parts:
        with open(part, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("|"):
                    continue
                cells = [c.strip() for c in line.split(",")]
                if len(cells) != len(ADULT_COLUMNS):
                    raise DataFormatError(f"{part}: record with {len(cells)} fields, expected {len(ADULT_COLUMNS)}")
                cells[-1] = cells[-1].rstrip(".")
                rows.append(cells)
    return _write_csv(out_path, ADULT_COLUMNS, rows)


def prepare_compas(raw_path, out_path) -> Path:
    """compas-scores-two-years.csv -> filtered two-year cohort, two race groups.

    Standard cohort filter: screening within 30 days of arrest, recidivism flag
    present, ordinary-traffic charges excluded, score available; races limited
    to African-American and Caucasian. The reference row counts for this cohort
    are a soft target; the filter is what is documented.
    """
    rows = []
    for rec in _records(raw_path, COMPAS_COLUMNS + ["days_b_screening_arrest", "is_recid", "score_text"]):
        try:
            days = float(rec["days_b_screening_arrest"])
        except ValueError:
            continue
        if (-30 <= days <= 30 and rec["is_recid"] != "-1" and rec["c_charge_degree"] != "O"
                and rec["score_text"] not in ("", "N/A") and rec["race"] in ("African-American", "Caucasian")):
            rows.append([rec[c] for c in COMPAS_COLUMNS])
    return _write_csv(out_path, COMPAS_COLUMNS, rows)


def prepare_bank(raw_path, out_path) -> Path:
    """bank-additional-full.csv (semicolon-separated, quoted) -> plain CSV.

    Dotted column names are rewritten with underscores to match the schema.
    """
    with open(raw_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        header = [c.strip().strip('"').replace(".", "_") for c in next(reader)]
        rows = [[c.strip().strip('"') for c in row] for row in reader if row]
    return _write_csv(out_path, header, rows)


def prepare_meps(raw_path, out_path, panel: int = 21) -> Path:
    """MEPS h192 full-year file -> compact panel cohort CSV.

    Derives race as White (non-Hispanic white) vs Non-White and sums the care
    visit counts into `utilization`; the schema binarizes it at 10. Column
    names follow the 2016 full-year codebook.
    """
    rows = []
    columns = ["PANEL", "HISPANX", "RACEV2X", "SEX", "AGELAST", "MARRY16X", "REGION16", "INSCOV16"]
    for rec in _records(raw_path, columns + MEPS_UTILIZATION_COMPONENTS):
        if rec["PANEL"] != str(panel):
            continue
        race = "White" if rec["HISPANX"] == "2" and rec["RACEV2X"] == "1" else "Non-White"
        try:
            utilization = sum(float(rec[c] or 0) for c in MEPS_UTILIZATION_COMPONENTS)
            age = float(rec["AGELAST"])
        except ValueError:
            continue
        sex = {"1": "male", "2": "female"}.get(rec["SEX"], "other")
        rows.append([age, sex, race, rec["MARRY16X"], rec["REGION16"], rec["INSCOV16"], utilization])
    header = ["age", "sex", "race", "marital", "region", "insurance_coverage", "utilization"]
    return _write_csv(out_path, header, rows)
