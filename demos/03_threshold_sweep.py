"""The benchmarking stage: train, sweep thresholds 0.01..0.99, pick the best.

Runs both arms (original and reweighed) of the two-stage protocol on synthetic
data and writes the dual-axis sweep plots next to this script.
"""

import tempfile
from pathlib import Path

from fairbench.dataset import SplitSpec, make_synthetic
from fairbench.pipeline import run_bench_stage, run_prep_stage
from fairbench.report import write_sweep_svg

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

ds = make_synthetic(seed=11, n=2000, disparity=0.4)

with tempfile.TemporaryDirectory() as cache:
    stage1 = run_prep_stage(ds, "RW", {}, seed=0, cache_dir=cache, dataset_name="demo")
    print("stage 1 done:")
    print("  original  DI", round(stage1.original_metrics.disparate_impact, 3),
          " SPD", round(stage1.original_metrics.statistical_parity_difference, 3))
    print("  reweighed DI", round(stage1.processed_metrics.disparate_impact, 3),
          " SPD", round(stage1.processed_metrics.statistical_parity_difference, 3))

    bench = run_bench_stage(
        stage1, model_name="logreg", split_spec=SplitSpec(seed=0),
        selection_metric="Theil", cache_dir=cache,
    )

for arm_name in ("original", "processed"):
    arm = getattr(bench, arm_name)
    m = arm.test_at_optimal
    print(f"\n{arm_name} arm: optimal threshold {arm.optimal_threshold:.2f} "
          f"(selected on validation by {arm.selection_metric})")
    print(f"  test balanced accuracy {m.balanced_accuracy:.3f}")
    print(f"  test SPD {m.statistical_parity_difference:+.3f}   "
          f"DI {m.disparate_impact:.3f}   Theil {m.theil_index:.4f}")
    svg = write_sweep_svg(arm, OUT / f"sweep_{arm_name}.svg")
    print(f"  plot: {svg}")

print("\nthe reweighed arm holds its parity metrics near zero across thresholds;")
print("open the SVGs to compare the five fairness panels side by side.")
