#!/usr/bin/env python3
"""Run `bench/run.py` in two source trees in alternating pairs and record the
raw last lines of its output as a `BENCH_*.json` file.

    python3 scripts/bench_pairs.py --parent <tree> --change <tree> \\
        --workload code-build --seed 17 --pairs 10 --description "..." \\
        --output BENCH_21.json [--section paired_runs]

Each tree is the root of a checkout; the benchmark runs there with `python3
bench/run.py`, one run at a time, for the `run_seconds` of the repository's
`BENCHMARK.json` (the parent of this script's directory).  Pair i runs the
parent first when i is even and the change first when i is odd.
`--section` names the list the runs go into: `paired_runs` (the runs behind a claimed gain),
`traced_runs` (run with `--trace 1`) or `other_workload_runs`.  An existing
output file keeps its other runs, so one file collects several calls, and a
call numbers its pairs on from those already in its section; the
description, command, machine and pairing keys are written on every call.
Exits 1 without writing if a run fails or prints no JSON last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SECTIONS = ("paired_runs", "traced_runs", "other_workload_runs")
PAIRING = (
    "pair i runs parent first when i is even, change first when i is odd; "
    "'first' names the side that ran first"
)


def machine() -> str:
    """CPU model, core count and Python version of this machine."""
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    python = platform.python_version()
    return f"{os.cpu_count()}-core {platform.machine()} ({model}), Python {python}"


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `tree`: its last stdout line, parsed."""
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} exited {done.returncode}: "
                         f"{done.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: the last line of {' '.join(argv)} in {tree} is no JSON") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--section", choices=SECTIONS, default="paired_runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trace = int(args.section == "traced_runs")
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    data = json.loads(args.output.read_text()) if args.output.is_file() else {}
    start = len(data.get(args.section, [])) // 2  # pairs already in the section

    runs = []
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            output = run_bench(trees[side], args.workload, args.seed, seconds, trace)
            record = {"workload": args.workload, "seed": args.seed, "side": side}
            if trace:
                record["trace"] = 1
            runs.append({**record, "pair": pair, "first": order[0], "output": output})

    data.update(
        description=args.description,
        command=f"python3 bench/run.py --workload <workload> --seed <seed> "
        f"--seconds {seconds:g} --trace <0|1>",
        machine=machine(),
        pairing=PAIRING,
    )
    for section in SECTIONS:
        data.setdefault(section, [])
    data[args.section] += runs
    args.output.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
