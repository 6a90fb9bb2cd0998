"""Command line interface: `fairbench prep`, `fairbench bench`, `fairbench batch`."""

import argparse
import json
import sys
from pathlib import Path

from .batch import expand_jobs, parse_batch_yaml, run_batch
from .batch.runner import write_job_artifacts
from .batch.spec import synthetic_params
from .dataset import SplitSpec, load_schema, make_synthetic
from .errors import FairbenchError
from .pipeline import FAIRNESS_METRICS, StageOneReport, run_bench_stage, run_prep_stage
from .preproc import METHOD_NAMES
from .report import stage1_rows, write_stage1_csv


def _parse_params(pairs):
    """--param k=v pairs; values parsed as YAML scalars (numbers stay numbers)."""
    import yaml

    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise FairbenchError(f"--param expects key=value, got {pair!r}")
        params[key] = yaml.safe_load(value)
    return params


def _parallelism(text):
    """--parallelism: an integer >= 1, as a batch config's `parallelism` must be."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_prep(args):
    params = _parse_params(args.param)
    if args.dataset.startswith("synthetic"):
        syn = _parse_params(args.dataset.split(":", 1)[1].split(",")) if ":" in args.dataset else {}
        source = make_synthetic(**synthetic_params(syn, "synthetic", seed=args.seed))
        schema = None
    else:
        if not args.csv:
            raise FairbenchError("--csv is required for file-backed datasets")
        schema = load_schema(args.schema, sensitive=args.sensitive)
        source = args.csv

    report = run_prep_stage(
        source, schema, args.method, params, seed=args.seed,
        cache_dir=args.cache_dir, dataset_name=args.dataset,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"stage1_{args.dataset}_{args.method}_{args.seed}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_stage1_csv(stage1_rows(report), out / f"stage1_{args.dataset}_{args.method}_{args.seed}.csv")
    print(f"stage-1 report: {report_path}")
    for label, metrics in (("original", report.original_metrics), ("processed", report.processed_metrics)):
        print(
            f"  {label}: base_rate={metrics.base_rate:.3f} DI={metrics.disparate_impact:.3f} "
            f"SPD={metrics.statistical_parity_difference:.3f} "
            f"pos/neg={metrics.num_positives}/{metrics.num_negatives}"
        )
    return 0


def _cmd_bench(args):
    with open(args.from_report, "r", encoding="utf-8") as fh:
        stage1 = StageOneReport.from_dict(json.load(fh))
    split = SplitSpec(train=args.train, validation=args.validation, test=args.test,
                      seed=stage1.seed if args.split_seed is None else args.split_seed)
    bench = run_bench_stage(
        stage1, model_name=args.model, model_params=_parse_params(args.param),
        split_spec=split, selection_metric=args.select_metric, cache_dir=args.cache_dir,
    )
    write_job_artifacts(stage1, bench, args.out)
    for arm in ("original", "processed"):
        result = getattr(bench, arm)
        if result is None:
            print(f"  {arm} arm FAILED: {bench.errors.get(arm)}", file=sys.stderr)
        else:
            print(f"  {arm}: optimal threshold {result.optimal_threshold:.2f} "
                  f"(selected on validation by {result.selection_metric})")
    print(f"benchmark outputs in {args.out}")
    return 1 if bench.errors else 0


def _cmd_batch(args):
    spec = parse_batch_yaml(Path(args.config).read_text(encoding="utf-8"))
    jobs, skipped = expand_jobs(spec)
    parallelism = args.parallelism if args.parallelism is not None else spec.parallelism
    output = args.out if args.out is not None else spec.output
    report = run_batch(jobs, parallelism=parallelism, output_dir=output,
                       cache_dir=args.cache_dir, skipped_expansions=skipped)
    ok = len(report.outcomes) - len(report.failures)
    print(f"batch: {ok}/{len(report.outcomes)} jobs ok, {skipped} expansion(s) skipped")
    for outcome in report.failures:
        print(f"  FAILED {outcome.job_id}: {outcome.error}", file=sys.stderr)
    print(f"outputs in {report.output_dir}")
    return report.exit_code


def build_parser():
    parser = argparse.ArgumentParser(prog="fairbench",
                                     description="Fairness pre-processing benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prep", help="stage 1: transform a dataset and report data metrics")
    prep.add_argument("--dataset", required=True, help="dataset name (or synthetic[:n=..,disparity=..,seed=..])")
    prep.add_argument("--schema", help="dataset schema YAML")
    prep.add_argument("--csv", help="prepared CSV path")
    prep.add_argument("--sensitive", help="sensitive attribute option declared in the schema")
    prep.add_argument("--method", required=True, choices=METHOD_NAMES)
    prep.add_argument("--param", action="append", metavar="k=v", help="method parameter")
    prep.add_argument("--seed", type=int, default=0)
    prep.add_argument("--out", default="fairbench_out")
    prep.add_argument("--cache-dir", default="fairbench_cache")
    prep.set_defaults(func=_cmd_prep)

    bench = sub.add_parser("bench", help="stage 2: train, sweep thresholds, select the best")
    bench.add_argument("--from", dest="from_report", required=True, help="stage-1 report JSON")
    bench.add_argument("--model", default="logreg")
    bench.add_argument("--param", action="append", metavar="k=v", help="model parameter")
    bench.add_argument("--select-metric", default="SPD", choices=FAIRNESS_METRICS)
    bench.add_argument("--train", type=float, default=0.70)
    bench.add_argument("--validation", type=float, default=0.15)
    bench.add_argument("--test", type=float, default=0.15)
    bench.add_argument("--split-seed", type=int, default=None)
    bench.add_argument("--out", default="fairbench_out")
    bench.add_argument("--cache-dir", default="fairbench_cache")
    bench.set_defaults(func=_cmd_bench)

    batch = sub.add_parser("batch", help="run a YAML experiment matrix")
    batch.add_argument("--config", required=True)
    batch.add_argument("--parallelism", type=_parallelism, default=None)
    batch.add_argument("--out", default=None)
    batch.add_argument("--cache-dir", default=None)
    batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FairbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
