"""Tour of the data model and the seven data-level fairness metrics.

Builds a synthetic dataset with a known group disparity, encodes a tiny CSV
through a schema, and prints the stage-1 metric bundle for both.
"""

import tempfile
from pathlib import Path

from fairbench.dataset import encode, load_csv, make_synthetic, schema_from_dict
from fairbench.metrics import dataset_metrics

# --- a synthetic dataset with statistical parity difference ~ -0.4 ----------
ds = make_synthetic(seed=7, n=2000, disparity=0.4)
print("synthetic dataset:", ds.provenance)
print("  rows:", ds.n, " features:", ds.feature_names)

m = dataset_metrics(ds)
print("  base rate        ", round(m.base_rate, 3))
print("  per-group rates  ", round(m.base_rate_unprivileged, 3), "/", round(m.base_rate_privileged, 3))
print("  disparate impact ", round(m.disparate_impact, 3), "(<= 0.8 is the legal red line)")
print("  parity difference", round(m.statistical_parity_difference, 3))
print("  consistency (k=5)", round(m.consistency, 3))
print("  pos/neg counts   ", m.num_positives, "/", m.num_negatives)
print("  empirical diff.  ", round(m.empirical_difference, 3))

# --- the same metrics on a CSV file encoded through a schema ----------------
csv_text = """age,sex,income,city
34,M,high,amsterdam
29,F,low,utrecht
41,M,high,amsterdam
23,F,low,rotterdam
55,M,low,utrecht
38,F,high,amsterdam
47,M,high,rotterdam
31,F,low,utrecht
60,M,high,amsterdam
26,F,low,rotterdam
44,M,high,utrecht
36,F,high,amsterdam
"""

schema = schema_from_dict({
    "name": "toy_income",
    "label": {"column": "income", "favorable": "high"},
    "sensitive_options": {"sex": {"column": "sex", "privileged": ["M"]}},
    "features": {"numeric": ["age"], "categorical": ["city"]},
})

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "toy.csv"
    path.write_text(csv_text, encoding="utf-8")
    table = load_csv(path, schema)
    encoded = encode(table, schema)

print("\nencoded CSV:", encoded.provenance)
print("  feature columns:", encoded.feature_names)
print("  labels:   ", encoded.labels.tolist())
print("  protected:", encoded.protected.tolist())

m = dataset_metrics(encoded)
print("  disparate impact ", round(m.disparate_impact, 3))
print("  parity difference", round(m.statistical_parity_difference, 3))
