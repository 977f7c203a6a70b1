#!/usr/bin/env python3
"""Build and run the SRBB commit-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/ (or $CARGO_TARGET_DIR),
later calls reuse the build. The benchmark program's human-readable lines
are passed through; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics
(the traced run also writes its spans to .bench_build/spans/).

--selfcheck runs every workload at its tiny size (about 10^3 accounts and a
few superblocks) with its output checks, to keep the benchmark runnable.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "srbb_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                sys.exit(f"run.py: build step {step[:2]} failed: {err}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"run.py: build failed (see {log_path})")
    binary = out / "srbb_perfbench"
    if not binary.exists():
        sys.exit("run.py: build produced no srbb_perfbench")
    return binary


def run_program(binary: Path, args: list) -> tuple:
    """Runs the benchmark program; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout.splitlines()


def parse_result(lines: list) -> dict:
    if not lines:
        sys.exit("run.py: benchmark printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("run.py: benchmark's last line is not JSON")


def selfcheck(binary: Path, workloads: list) -> int:
    status = 0
    for name in workloads:
        code, lines = run_program(binary, ["--workload", name, "--seed", "1",
                                           "--seconds", "5", "--tiny"])
        result = parse_result(lines)
        ok = code == 0 and result.get("correct") is True \
            and result.get("failed") == 0 and result.get("attempted", 0) > 0
        print(f"selfcheck {name}: {'ok' if ok else 'FAILED'} "
              f"(attempted {result.get('attempted')}, failed {result.get('failed')})")
        if not ok:
            print("\n".join(lines[:-1]))
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"run.py: cannot read BENCHMARK.json: {err}")
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.selfcheck and args.workload not in workloads:
        sys.exit(f"run.py: --workload must be one of {workloads}")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary, workloads)

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    program_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        program_args += ["--spans",
                         str(spans / f"{args.workload}-seed{args.seed}.json")]
    code, lines = run_program(binary, program_args)
    measured = parse_result(lines)
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured["metrics"]:
            got = measured["metrics"][name]
            if got["unit"] != metric["unit"]:
                sys.exit(f"run.py: {name} measured in {got['unit']}, "
                         f"BENCHMARK.json says {metric['unit']}")
            metrics[name] = {"value": got["value"], "unit": metric["unit"]}
        elif args.trace:
            # A layer this workload does not run (a replay has no simulated
            # network, the simulation has no benchmark-side spans): reported as 0.
            metrics[name] = {"value": 0, "unit": metric["unit"]}
        else:
            sys.exit(f"run.py: benchmark did not measure {name}")
    result = {"correct": bool(measured["correct"]) and code == 0,
              "attempted": int(measured["attempted"]),
              "failed": int(measured["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
