"""Self-test of the benchmark, at tiny sizes.

    python3 bench/smoke.py

Run from the root of a checkout; it takes a few minutes. It runs every
workload run.py defines, with and without tracing, and checks that each
reports exactly the metrics and units BENCHMARK.json names; then it shows
that a corrupted artifact trips the determinism check and that the benchmark
refuses to run outside a checkout.
"""

import json
import shutil
import subprocess
import sys

import checks
import run

TINY_ROWS = {"german_matrix": 200, "adult_matrix": 300}


def expect(condition, message):
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def check_workloads(declared):
    for name, rows in TINY_ROWS.items():
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, problems = run.run_workload(name, seed=0, seconds=0, trace=trace, n=rows,
                                                log=lambda line: None)
            expect(result["correct"] and not problems, f"{name} trace={trace}: {problems}")
            units = {metric: v["unit"] for metric, v in result["metrics"].items()}
            expect(units == declared[kind],
                   f"{name} trace={trace}: metrics differ from BENCHMARK.json {kind}: "
                   f"{sorted(set(units.items()) ^ set(declared[kind].items()))}")
            print(f"smoke: {name} trace={trace} ok ({result['attempted']} jobs)")


def check_corruption_detected():
    out = run.WORK / "german_matrix" / "run-0" / "out"
    copy = run.WORK / "smoke" / "corrupted"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    victim = sorted(copy.glob("*/summary.json"))[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 1
    victim.write_bytes(bytes(blob))
    problems = checks.compare_artifacts(checks.artifact_digests(out), checks.artifact_digests(copy),
                                        "corrupted")
    expect(problems == [f"corrupted: {victim.relative_to(copy)} differs"],
           f"a flipped byte in {victim} gave {problems}")
    print("smoke: corrupted artifact detected")


def check_refuses_outside_checkout():
    bare = run.WORK / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "german_matrix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: refuses to run outside a checkout")


def main():
    run._require_checkout()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.py does not define")
    check_workloads(declared)
    check_corruption_detected()
    check_refuses_outside_checkout()
    shutil.rmtree(run.WORK / "smoke")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
