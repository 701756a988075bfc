#!/usr/bin/env python3
"""Run two sets of benchmark runs of one source tree and compare them.

    python3 bench/steadiness.py

Each set runs every workload of BENCHMARK.json ten times for its
`run_seconds`, each run with its own seed (set 0 uses seeds 1-10, set 1
seeds 101-110).  For every end-to-end metric it prints each set's median
and its spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, against the bound
in BENCHMARK.json, and how far set 1's median moved from set 0's in the
metric's worse direction.  It reports "steady" when every spread and every
drift is within its bound, every output checked correct and the share of
failed ops is the same in every run.  Raw results go to
bench/out/steady-*.jsonl.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set and workload
SETS = 2


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        with open(out_dir / f"steady-{workload}-{stamp}.jsonl", "w") as raw:
            for k in range(SETS):
                results = []
                for i in range(RUNS):
                    seed = 100 * k + i + 1
                    result = one_run(workload, seed, seconds)
                    raw.write(json.dumps({"set": k, "seed": seed, **result}) + "\n")
                    raw.flush()
                    results.append(result)
                sets.append(results)
        print(f"\n{workload}: {SETS} sets of {RUNS} runs, {seconds} s each")
        for k, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in results}
            ok = all(r["correct"] for r in results)
            print(f"  set {k}: correct={ok} failed shares={sorted(shares)} "
                  f"attempted={[r['attempted'] for r in results]}")
            steady &= ok
        steady &= len({r["failed"] / r["attempted"] for results in sets for r in results}) == 1
        print(f"  {'metric':18s} {'median':>12s} {'spread':>8s}   ... per set   "
              f"{'bound':>6s} {'drift':>7s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            cells, medians, spreads = [], [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
                cells.append(f"{medians[-1]:12.5g} {spreads[-1]:8.4f}")
            drift = sign * (medians[-1] - medians[0]) / medians[0]
            steady &= drift <= bound and max(spreads) <= bound
            flag = "" if max(spreads) <= bound / 3 else "  (spread over bound/3)"
            print(f"  {name:18s} {'   '.join(cells)}   {bound:6.3f} {drift:+7.4f}{flag}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
