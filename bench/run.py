#!/usr/bin/env python3
"""Benchmark of the concatcode coding-map pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (the package is imported from ./src).
One process, one client, one BLAS thread, closed loop: the workload's
seeded op list is run as whole rounds until the ops have used `--seconds`
of program time; peak RSS is read after a fixed number of those rounds.
Before the timed phase one untimed round warms every cache and checks
every output; each timed op is checked again.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See bench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9  # fresh processes timed per run
MIN_TAIL = 10  # samples beyond p90 for it to be a percentile worth reporting
RSS_ROUNDS = 4  # timed rounds after which peak RSS is read, the same in every run
WALL_CAP = 2.5  # stop the timed phase after this many times --seconds of wall time

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_ops_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def import_package():
    """Import concatcode from ./src; return it and the seconds the import took."""
    src = ROOT / "src"
    if not (src / "concatcode" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'concatcode'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import concatcode

    return concatcode, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import, then serve the warm-up op of every code."""
    api, import_s = import_package()
    import workloads

    work = workloads.WORKLOADS[workload](api, seed)
    t0 = time.perf_counter()
    for op in work.warmup_ops():
        try:
            work.call(op)
        except Exception:  # counted as failed in the timed phase
            pass
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


def speed_probe() -> None:
    """Child process: the fresh-process calibration kernel (see measure_setup)."""
    t0 = time.perf_counter()
    import speed  # imports numpy

    kernel = speed.Kernel(tuple(speed.PARTS))
    for _ in range(speed.FRESH_CALLS):
        kernel.seconds()
    print(json.dumps({"seconds": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up timed in SETUP_SAMPLES fresh processes.

    Set-up time drifts with the machine over seconds to minutes.  The
    in-process calibration kernel does not track it, but the same kernel
    run in a fresh process right after each probe does (speed.py), so each
    probe is rescaled by that.
    """
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--probe"]

    def child(kind: str) -> dict:
        proc = subprocess.run(cmd + [kind], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: {kind} probe failed:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    samples = []
    for _ in range(SETUP_SAMPLES):
        setup = child("setup")
        factor = speed.FRESH_S / child("speed")["seconds"]
        samples.append({k: v * factor for k, v in setup.items()})
    return samples


class Runner:
    """Runs whole rounds of a workload's ops, timing each op and checking it.

    Each op's time is rescaled by the workload's calibration kernel run
    just before and just after it (see speed.py); the run length counts
    rescaled time.
    """

    def __init__(self, work, checks, kernel) -> None:
        self.work = work
        self.checks = checks
        self.kernel = kernel
        self.latencies: list[float] = []  # rescaled seconds of timed ops
        self.peak_rss_mb = 0.0  # read after RSS_ROUNDS timed rounds
        self.attempted = self.failed = self.wrong = 0
        self._last = kernel.seconds()

    def round(self, timed: bool = True) -> float:
        """Run every op once; return the rescaled op seconds."""
        scaled = 0.0
        for op in self.work.ops:
            if timed:
                self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.work.call(op)
            except Exception as exc:  # a failing op is counted, not fatal
                if timed:
                    self.failed += 1
                note(f"{op[0]}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            before, self._last = self._last, self.kernel.seconds()
            elapsed *= self.kernel.scale(before, self._last)
            scaled += elapsed
            if timed:
                self.latencies.append(elapsed)
            self.checked(self.work.check, op, out)
        return scaled

    def checked(self, check, *args) -> None:
        try:
            check(*args)
        except self.checks as exc:
            self.wrong += 1
            note(f"check failed: {exc}")

    def rounds(self, seconds: float, count: int | None = None) -> tuple[int, float]:
        """Whole rounds until `seconds` of rescaled op time (or exactly
        `count` rounds); return the rounds run and their rescaled seconds.
        On a machine far slower than the reference speed the phase also
        ends once it has taken WALL_CAP * seconds of wall time, but not
        before RSS_ROUNDS rounds.  Peak RSS is read after round RSS_ROUNDS:
        the package's caches keep fresh codes alive, so a reading at the
        end would grow with the rounds a run completes, that is with speed."""
        done, scaled, t0 = 0, 0.0, time.perf_counter()
        while (done < RSS_ROUNDS
               or scaled < seconds and time.perf_counter() - t0 < WALL_CAP * seconds
               if count is None else done < count):
            scaled += self.round()
            done += 1
            if done == RSS_ROUNDS:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return done, scaled


def note(message: str) -> None:
    print(message, file=sys.stderr)


def end_to_end(runner: Runner, busy: float, setup: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup),
        "throughput_ops_s": None, "op_p50_ms": None, "op_p90_ms": None,
        "peak_rss_mb": runner.peak_rss_mb,
    }
    lat = runner.latencies
    if len(lat) < 2:  # the counts are still reported
        note(f"error: only {len(lat)} timed ops succeeded; no latency can be measured")
    else:
        p90 = statistics.quantiles(lat, n=10)[8]
        tail = sum(v > p90 for v in lat)
        if tail < MIN_TAIL:
            note(f"warning: only {tail} samples beyond p90")
        values.update(throughput_ops_s=len(lat) / busy, op_p50_ms=statistics.median(lat) * 1e3,
                      op_p90_ms=p90 * 1e3)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(work, tracer, rounds: int, overhead: float, setup: list[dict], cold: list[dict]) -> dict:
    stats = tracer.stats

    def span(name):
        return stats.get(name)

    def per_round(count) -> int:
        if count % rounds:
            note(f"warning: count {count} is not a whole number per round")
        return count // rounds

    def calls(name) -> int:
        st = span(name)
        return per_round(len(st.durations)) if st else 0

    def p50(name, scale) -> float:
        st = span(name)
        return statistics.median(st.durations) * scale if st else 0.0

    def total_ms(name) -> float:
        st = span(name)
        return sum(st.durations) * 1e3 / rounds if st else 0.0

    def self_s(name) -> float:
        st = span(name)
        return st.self_s / rounds if st else 0.0

    iterate = span("dynamics.iterate")
    m = {key: (statistics.median(c[key] for c in cold), "ms") for key in cold[0]}
    m.update({
        "codingmap.diagonal_terms": (work.diagonal_terms(), "count"),
        "codingmap.diag_apply_calls": (calls("codingmap.apply"), "count"),
        "codingmap.diag_apply_us": (p50("codingmap.apply", 1e6), "us"),
        "codingmap.diag_apply_self_s": (self_s("codingmap.apply"), "s"),
        "codingmap.general_map_calls": (calls("codingmap.general_map"), "count"),
        "codingmap.general_map_self_s": (self_s("codingmap.general_map"), "s"),
        "dynamics.threshold_ms": (p50("dynamics.threshold", 1e3), "ms"),
        "dynamics.probes": (per_round(iterate.parents.get("dynamics.threshold", 0)) if iterate else 0, "count"),
        "dynamics.orbit_levels": (per_round(iterate.levels) if iterate else 0, "count"),
        "dynamics.iterate_self_s": (self_s("dynamics.iterate"), "s"),
        "dynamics.fixed_point_ms": (total_ms("dynamics.fixed_point_cross_check"), "ms"),
        "oracle.extract_calls": (calls("oracle.extract_stokes"), "count"),
        "oracle.extract_self_s": (self_s("oracle.extract_stokes"), "s"),
        "process.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "process.setup_build_s": (statistics.median(s["build_s"] for s in setup), "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    for n, code in ((3, "bitflip3"), (5, "five-qubit"), (7, "steane"), (9, "shor")):
        m[f"codingmap.general_map_ms.{code}"] = (p50(f"codingmap.general_map#{n}", 1e3), "ms")
        if n <= 7:
            m[f"oracle.extract_ms.{code}"] = (p50(f"oracle.extract_stokes#{n}", 1e3), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def write_trace(tracer, rounds: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = {
        name: {"calls_per_round": len(st.durations) / rounds,
               "total_s_per_round": sum(st.durations) / rounds,
               "self_s_per_round": st.self_s / rounds,
               "p50_s": statistics.median(st.durations),
               "parents": {str(k): v for k, v in st.parents.items()}}
        for name, st in sorted(tracer.stats.items())
    }
    path.write_text(json.dumps({"rounds": rounds, "spans": spans}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="required, except in a probe")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "speed"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe == "setup":
        setup_probe(args.workload, args.seed)
        return 0
    if args.probe == "speed":
        speed_probe()
        return 0
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be given and positive")
    api, _ = import_package()  # also leaves compiled bytecode for the probes
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    setup = measure_setup(args.workload, args.seed)

    work = workloads.WORKLOADS[args.workload](api, args.seed)
    work.prepare()
    cold = [work.cold_probe() for _ in range(3)] if args.trace else []
    runner = Runner(work, workloads.CheckFailed, speed.Kernel(work.kernel))
    runner.round(timed=False)  # warm-up and full verification
    runner.checked(work.verify)
    gc.collect()

    if args.trace:
        rounds, plain = runner.rounds(args.seconds / 2)
        tracer = spans.Tracer()
        missing = tracer.install()
        if missing:
            note(f"warning: not traced: {', '.join(missing)}")
        _, traced = runner.rounds(0, count=rounds)
        metrics = per_layer(work, tracer, rounds, (traced - plain) / rounds, setup, cold)
        write_trace(tracer, rounds, HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        _, busy = runner.rounds(args.seconds)
        metrics = end_to_end(runner, busy, setup)

    runner.checked(work.post)
    print(json.dumps({"correct": runner.wrong == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
