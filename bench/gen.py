"""Seeded generators for German-shaped and Adult-shaped raw CSVs.

The files use the columns and cell spellings of the bundled `german.yaml` and
`adult.yaml` schemas, so a batch job pays for CSV ingest, binarization (German
`sex` is derived from the A91-A95 personal-status codes), missing-token
handling (`?` cells in Adult) and one-hot encoding exactly as on the real data.
Labels follow a logistic model of a few columns plus a group effect, so both
labels occur in every group and the fairness metrics are non-trivial.
"""

import csv

import numpy as np

from fairbench.dataset.recipes import ADULT_COLUMNS, GERMAN_COLUMNS


def _codes(prefix, first, count):
    return [f"{prefix}{k}" for k in range(first, first + count)]


_GERMAN_LEVELS = {
    "checking_status": _codes("A1", 1, 4),
    "credit_history": _codes("A3", 0, 5),
    "purpose": ["A40", "A41", "A42", "A43", "A44", "A45", "A46", "A48", "A49", "A410"],
    "savings_status": _codes("A6", 1, 5),
    "employment": _codes("A7", 1, 5),
    "personal_status": _codes("A9", 1, 5),
    "other_parties": _codes("A10", 1, 3),
    "property_magnitude": _codes("A12", 1, 4),
    "other_payment_plans": _codes("A14", 1, 3),
    "housing": _codes("A15", 1, 3),
    "job": _codes("A17", 1, 4),
    "own_telephone": ["A191", "A192"],
    "foreign_worker": ["A201", "A202"],
}

_EDUCATION = [
    "Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th", "12th",
    "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm", "Bachelors", "Masters",
    "Prof-school", "Doctorate",
]
_ADULT_LEVELS = {
    "workclass": ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
                  "Local-gov", "State-gov", "Without-pay", "Never-worked"],
    "marital_status": ["Married-civ-spouse", "Divorced", "Never-married", "Separated",
                       "Widowed", "Married-spouse-absent", "Married-AF-spouse"],
    "occupation": ["Tech-support", "Craft-repair", "Other-service", "Sales",
                   "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
                   "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
                   "Transport-moving", "Priv-house-serv", "Protective-serv", "Armed-Forces"],
    "relationship": ["Wife", "Own-child", "Husband", "Not-in-family", "Other-relative", "Unmarried"],
    "race": ["White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"],
    "native_country": ["United-States", "Mexico", "Philippines", "Germany", "Canada",
                       "Puerto-Rico", "El-Salvador", "India", "Cuba", "England", "Jamaica",
                       "South", "China", "Italy", "Dominican-Republic", "Vietnam",
                       "Guatemala", "Japan", "Poland", "Columbia", "Taiwan", "Haiti",
                       "Iran", "Portugal", "Nicaragua", "Peru", "Greece", "France",
                       "Ecuador", "Ireland", "Hong", "Cambodia", "Trinadad&Tobago",
                       "Laos", "Thailand", "Yugoslavia", "Outlying-US(Guam-USVI-etc)",
                       "Hungary", "Honduras", "Scotland", "Holand-Netherlands"],
}


def _skewed_choice(rng, levels, n):
    """Draw levels with Zipf frequencies: skewed like real columns, yet every level occurs."""
    p = 1.0 / np.arange(1, len(levels) + 1)
    return np.asarray(levels, dtype=object)[rng.choice(len(levels), size=n, p=p / p.sum())]


def _labels(rng, score):
    return rng.random(len(score)) < 1.0 / (1.0 + np.exp(-score))


def _write(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(columns[name] for name in header)))


def write_german(path, n, seed, draw=0):
    """German-credit-shaped CSV with `n` rows, deterministic in (`seed`, `draw`)."""
    rng = np.random.default_rng([seed, draw, 1])
    cols = {name: _skewed_choice(rng, levels, n) for name, levels in _GERMAN_LEVELS.items()}
    duration = rng.integers(4, 73, n)
    amount = np.round(np.exp(rng.normal(7.8, 0.8, n))).astype(int)
    age = rng.integers(19, 76, n)
    female = np.isin(cols["personal_status"], ["A92", "A95"])
    score = (1.2 - 0.03 * (duration - 20) - 0.0001 * (amount - 3000) + 0.02 * (age - 35)
             - 0.4 * female + 0.8 * (cols["checking_status"] == "A14"))
    good = _labels(rng, score)
    cols.update({
        "duration": duration,
        "credit_amount": amount,
        "installment_commitment": rng.integers(1, 5, n),
        "residence_since": rng.integers(1, 5, n),
        "age": age,
        "existing_credits": rng.integers(1, 5, n),
        "num_dependents": rng.integers(1, 3, n),
        "credit_risk": np.where(good, 1, 2),
    })
    _write(path, GERMAN_COLUMNS, cols)


def write_adult(path, n, seed, draw=0):
    """Adult-census-shaped CSV with `n` rows and `?` cells, deterministic in (`seed`, `draw`)."""
    rng = np.random.default_rng([seed, draw, 2])
    cols = {name: _skewed_choice(rng, levels, n) for name, levels in _ADULT_LEVELS.items()}
    for name, rate in (("workclass", 0.055), ("occupation", 0.057), ("native_country", 0.018)):
        cols[name][rng.random(n) < rate] = "?"
    edu_num = rng.integers(1, 17, n)
    male = rng.random(n) < 0.67
    age = rng.integers(17, 91, n)
    hours = np.clip(np.round(rng.normal(40, 12, n)), 1, 99).astype(int)
    gain = np.where(rng.random(n) < 0.08, rng.integers(100, 99999, n), 0)
    loss = np.where(rng.random(n) < 0.05, rng.integers(100, 4356, n), 0)
    score = (-7.5 + 0.3 * edu_num + 0.04 * np.minimum(age, 60) + 0.03 * hours
             + 1.0 * male + 1.5 * (gain > 5000))
    rich = _labels(rng, score)
    cols.update({
        "age": age,
        "fnlwgt": rng.integers(12285, 1484706, n),
        "education": np.asarray(_EDUCATION, dtype=object)[edu_num - 1],
        "education_num": edu_num,
        "sex": np.where(male, "Male", "Female"),
        "capital_gain": gain,
        "capital_loss": loss,
        "hours_per_week": hours,
        "income": np.where(rich, ">50K", "<=50K"),
    })
    _write(path, ADULT_COLUMNS, cols)
