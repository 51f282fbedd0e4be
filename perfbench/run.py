"""Benchmark of the franklin_squares package: one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the workload's end-to-end metrics with
tracing off: set-up time (the median of several fresh interpreters that
import the package, build the inputs and run a warm-up), peak resident
memory, the workload's work rate, the time of one pass, and the median and
90th percentile over its operations of each one's best time (see
``measure``).  With ``--trace 1`` it reports the per-layer metrics instead
(see probes.py).  ``--smoke`` runs one pass at tiny size.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a run in which any output check fails exits 1.  The full result, with machine facts, raw times and spans,
is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "search", "seeds", "cli")
SETUP_REPEATS = 5
MEASURE_PROCESSES = 4


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "git_commit": commit,
    }


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def _child(args, flag: str, seed: int, seconds: float) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), flag,
        "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds),
    ] + (["--smoke"] if args.smoke else [])
    # Captured output makes run() wait on the pipes, not in 50 ms polls.
    proc = subprocess.run(cmd, cwd=ROOT, timeout=seconds + 120, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{flag} child failed:\n{proc.stderr}")
    return proc


def setup_once(args) -> float:
    """Wall time of a fresh interpreter that only sets the workload up."""
    t = perf_counter()
    _child(args, "--setup-only", args.seed, 0)
    return perf_counter() - t


def measure_here(args) -> dict:
    """Set up, then run passes for ``args.seconds`` in this process."""
    import workloads

    checks = workloads.Checks()
    wl = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    times = defaultdict(list)
    passes = 0
    start = perf_counter()
    try:
        while True:
            units = wl.run_pass(checks, times)
            passes += 1
            if args.smoke or perf_counter() - start >= args.seconds:
                break
    finally:
        if args.workload == "cli":
            wl.close()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    return {
        "times": times, "passes": passes, "units": units,
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": checks.attempted, "failed": checks.failed, "problems": checks.problems,
    }


def measure(args, checks) -> tuple[dict, dict]:
    """Measure in several fresh processes in turn and derive the metrics.

    The host's speed switches between states that last seconds, and a
    process can stay slow for its whole life.  So the run is split over
    MEASURE_PROCESSES processes (child i shuffles with seed * 100 + i), and
    timings use each part's fastest time in the run, as timeit does: a
    pass, a rate or an operation is timed by the sum of its parts' best
    times.  Set-ups run between the measuring processes; their median is
    reported.  The median and p90 of the raw operation samples go to the
    result file only: they follow the host's speed too closely to gate.
    """
    import workloads

    cls = workloads.CLASSES[args.workload]
    processes = 1 if args.smoke else MEASURE_PROCESSES
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = []
    times = defaultdict(list)
    passes = 0
    rss_mb = 0.0
    for i in range(processes):
        setups.append(setup_once(args))
        proc = _child(args, "--measure-only", args.seed * 100 + i, args.seconds / processes)
        part = json.loads(proc.stdout.splitlines()[-1])
        for kind, ms in part["times"].items():
            times[kind] += ms
        passes += part["passes"]
        units = part["units"]
        rss_mb = max(rss_mb, part["rss_mb"])
        checks.attempted += part["attempted"]
        checks.failed += part["failed"]
        checks.problems += part["problems"]
    while len(setups) < repeats:
        setups.append(setup_once(args))
    best = {kind: min(ms) for kind, ms in times.items()}
    per_pass = {kind: len(ms) / passes for kind, ms in times.items()}
    ops = sorted(best[k] for k in best if cls.is_op(k))
    rate_ms = sum(best[k] * per_pass[k] for k in best if cls.is_rate(k))
    samples = sorted(x for k, ms in times.items() if cls.is_op(k) for x in ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "work_per_s": units / rate_ms * 1e3,
        "pass_ms": sum(best[k] * per_pass[k] for k in best),
        "op_best_p50_ms": statistics.median(ops),
        "op_best_p90_ms": percentile(ops, 90),
    }
    details = {
        "passes": passes,
        "op_kinds": len(ops),
        "op_samples": len(samples),
        "op_sample_p50_ms": statistics.median(samples),
        "op_sample_p90_ms": percentile(samples, 90),
        "setup_walls_s": setups,
        "times_ms": times,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "franklin_squares" / "__init__.py").is_file():
        sys.stderr.write(f"error: no franklin_squares package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import franklin_squares
    import workloads

    if not Path(franklin_squares.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported {franklin_squares.__file__}, not {SRC}\n")
        return 2
    if args.setup_only:
        wl = workloads.make(args.workload, args.seed, args.smoke, ROOT)
        if args.workload == "cli":
            wl.close()
        return 0
    if args.measure_only:
        print(json.dumps(measure_here(args)))
        return 0

    facts = machine_facts()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    checks = workloads.Checks()
    spans = None
    if args.trace:
        import probes

        metrics, spans = probes.traced_run(ROOT, WORKLOADS, args.seed, args.seconds, args.smoke, checks)
        details = {}
    else:
        metrics, details = measure(args, checks)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                smoke=args.smoke, machine=facts, problems=checks.problems, **details)
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    for problem in checks.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"machine": facts, **{k: v for k, v in details.items() if k != "times_ms"}}))
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
