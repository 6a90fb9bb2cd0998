"""Command line interface: `fairbench prep`, `fairbench bench`, `fairbench batch`."""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .batch import expand_jobs, parse_batch_yaml, run_batch
from .batch.runner import _prepare, write_job_artifacts
from .batch.spec import SYNTHETIC_ATTRIBUTE, dataset_entry
from .dataset import SplitSpec
from .errors import FairbenchError, SchemaError
from .model import model_params
from .pipeline import FAIRNESS_METRICS, StageOneReport, run_bench_stage, run_prep_stage
from .preproc import METHOD_NAMES, method_params
from .report import stage1_rows, write_stage1_csv
from .report.tables import write_json
from .util import integer, seed_value, yaml_document


def _parse_params(pairs, option="--param"):
    """`option`'s k=v pairs; values parsed as YAML scalars (numbers stay numbers)."""
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise FairbenchError(f"{option} expects key=value, got {pair!r}")
        params[key] = yaml_document(value, f"{option} {pair!r}")
    return params


def _integer_option(check, key):
    """An argparse type: the option's integer, checked by `check` as a batch config's `key` is."""
    def parse(text):
        try:
            return check(int(text), key)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        except SchemaError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _cmd_prep(args):
    stem = f"stage1_{args.dataset}_{args.method}_{args.seed}"  # the report's file name, checked before any work
    if Path(stem).name != stem:
        raise FairbenchError(f"--dataset names the report file, so it cannot hold a path separator: {args.dataset!r}")
    params = _parse_params(args.param)
    method_params(args.method, params, "--param")  # read before any work, as a batch's params are
    # the dataset is a batch config's `datasets` entry, checked and prepared by the batch's rules
    entry = {key: value for key, value in (("name", args.dataset), ("csv", args.csv), ("schema", args.schema))
             if value is not None}
    kind, colon, spec = args.dataset.partition(":")
    if kind == "synthetic":
        entry["synthetic"] = _parse_params(spec.split(","), "--dataset") if colon else {}
    dataset = dataset_entry(entry, "--dataset")
    if dataset.synthetic is not None and args.sensitive not in (None, SYNTHETIC_ATTRIBUTE):
        raise FairbenchError(f"a synthetic --dataset has the one sensitive attribute {SYNTHETIC_ATTRIBUTE!r}, "
                             f"got --sensitive {args.sensitive!r}")

    report = run_prep_stage(_prepare(dataset, args.sensitive, args.cache_dir), args.method, params,
                            seed=args.seed, cache_dir=args.cache_dir)
    report_path = write_json(report.to_dict(), Path(args.out) / f"{stem}.json")
    write_stage1_csv(stage1_rows(report), report_path.with_suffix(".csv"))
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
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8 or not JSON
            raise FairbenchError(f"{args.from_report}: not a JSON stage-1 report: {exc}") from None
    stage1 = StageOneReport.from_dict(doc)
    params = _parse_params(args.param)
    model_params(args.model, params, "--param")  # read before any work, as a batch's params are
    split = SplitSpec(train=args.train, validation=args.validation, test=args.test,
                      seed=stage1.seed if args.split_seed is None else args.split_seed)
    bench = run_bench_stage(
        stage1, model_name=args.model, model_params=params,
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
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FairbenchError(f"{args.config}: not UTF-8 text: {exc}") from None
    spec = parse_batch_yaml(text)
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
    prep.add_argument("--dataset", required=True,
                      help="dataset name, or synthetic[:n=..,disparity=..,seed=..] (data seed 0 unless given)")
    prep.add_argument("--schema", help="dataset schema YAML")
    prep.add_argument("--csv", help="prepared CSV path")
    prep.add_argument("--sensitive", help="sensitive attribute option declared in the schema")
    prep.add_argument("--method", required=True, choices=METHOD_NAMES)
    prep.add_argument("--param", action="append", metavar="k=v", help="method parameter")
    prep.add_argument("--seed", type=_integer_option(seed_value, "seed"), default=0)
    prep.add_argument("--out", default="fairbench_out")
    prep.add_argument("--cache-dir", default="fairbench_cache")
    prep.set_defaults(func=_cmd_prep)

    bench = sub.add_parser("bench", help="stage 2: train, sweep thresholds, select the best")
    bench.add_argument("--from", dest="from_report", required=True, help="stage-1 report JSON")
    bench.add_argument("--model", default="logreg")
    bench.add_argument("--param", action="append", metavar="k=v", help="model parameter")
    bench.add_argument("--select-metric", default="SPD", choices=FAIRNESS_METRICS)
    bench.add_argument("--train", type=float, default=SplitSpec.train)
    bench.add_argument("--validation", type=float, default=SplitSpec.validation)
    bench.add_argument("--test", type=float, default=SplitSpec.test)
    bench.add_argument("--split-seed", type=_integer_option(seed_value, "seed"), default=None)
    bench.add_argument("--out", default="fairbench_out")
    bench.add_argument("--cache-dir", default="fairbench_cache")
    bench.set_defaults(func=_cmd_bench)

    batch = sub.add_parser("batch", help="run a YAML experiment matrix")
    batch.add_argument("--config", required=True)
    batch.add_argument("--parallelism", type=_integer_option(partial(integer, least=1), "parallelism"), default=None)
    batch.add_argument("--out", default=None)
    batch.add_argument("--cache-dir", default=None)
    batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FairbenchError, OSError) as exc:  # an input file that is missing or cannot be read, too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
