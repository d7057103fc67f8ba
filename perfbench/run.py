#!/usr/bin/env python3
"""End-to-end benchmark of the determinacy-analysis stack.

Builds the runner (perfbench/CMakeLists.txt, Release) from the checkout's
own sources into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload paper_pipeline --seed 1 \
        --seconds 20 --trace 0

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. A workload measures
only some layers; per-layer metrics of layers it does not measure
(layers_measured in perfbench/rationale.json) are reported as 0. The span
dump of a traced run lands in .bench_build/perfbench/traces/.

    python3 perfbench/run.py --self-check

runs every workload briefly, untraced and traced, and checks that every
metric of BENCHMARK.json is reported with its unit and that no op failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then lets the build tool bring the runner up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no analysis sources in src/ next to perfbench/; "
            "run from the root of a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: the result must stay the last line
        # of stdout.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    return bench, rationale


def complete_metrics(result, workload, trace, bench, rationale):
    """Checks the runner's metrics against BENCHMARK.json.

    Returns the metrics object to print, or raises ValueError.
    """
    got = result["metrics"]
    if not trace:
        wanted = bench["end_to_end"]
    else:
        wanted = bench["per_layer"]
    layer_of = {m: name for name, layer in rationale["layers"].items()
                for m in layer["metrics"]}
    measured = set(rationale["workloads"][workload]["layers_measured"])
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                raise ValueError(f"{name}: unit {got[name]['unit']}, "
                                 f"BENCHMARK.json says {unit}")
            out[name] = got[name]
        elif trace and layer_of.get(name) not in measured:
            out[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"{workload} did not report {name}")
    extra = sorted(set(got) - set(out))
    if extra:
        raise ValueError(f"metrics missing from BENCHMARK.json: {extra}")
    return out


def run_workload(runner, workload, seed, seconds, trace, bench, rationale):
    """Runs one workload; returns (record lines, result dict)."""
    work = os.path.join(build_dir(), "work", f"{workload}-{seed}-{os.getpid()}")
    traces = os.path.join(build_dir(), "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [runner, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        for name in os.listdir(work):
            if name.startswith("spans-"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(work, name),
                            os.path.join(traces, name))
    except subprocess.TimeoutExpired:
        die(f"{workload} ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["metrics"] = complete_metrics(result, workload, trace, bench,
                                         rationale)
    return lines[:-1], result


def self_check(runner, bench, rationale):
    """The benchmark's own test: every workload, both modes, short runs."""
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (False, True):
            try:
                _, result = run_workload(runner, workload, 1, 3, trace, bench,
                                         rationale)
            except ValueError as err:
                problems.append(f"{workload} trace={int(trace)}: {err}")
                continue
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(
                    f"{workload} trace={int(trace)}: correct="
                    f"{result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']} (failed_frac must be 0)")
            print(f"{workload:16s} trace={int(trace)}  attempted "
                  f"{result['attempted']:6d}  failed {result['failed']}  "
                  f"metrics {len(result['metrics'])}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    runner = build()
    bench, rationale = load_spec()
    if args.self_check:
        sys.exit(self_check(runner, bench, rationale))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {names}")
    try:
        record, result = run_workload(runner, args.workload, args.seed,
                                      args.seconds, bool(args.trace), bench,
                                      rationale)
    except ValueError as err:
        die(str(err))
    for line in record:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
