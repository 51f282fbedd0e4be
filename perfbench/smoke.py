"""Smoke test of the benchmark: every workload at tiny size, traced and not.

    python3 perfbench/smoke.py

For each run it asserts that the benchmark exits 0, that every output check
passed, and that the reported metrics are exactly the ones BENCHMARK.json
lists for that mode.  It also asserts that, in a directory holding only
BENCHMARK.json and perfbench/, the benchmark exits non-zero without
printing a result.  It is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = run(ROOT, "--workload", workload, "--seed", "7",
                       "--seconds", "1", "--trace", trace, "--smoke")
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = set(result["metrics"])
            assert got == expected[trace], (workload, trace, got ^ expected[trace])
            assert all(v["value"] > 0 for v in result["metrics"].values()), result
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
        print("ok bare directory exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
