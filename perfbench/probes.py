"""The traced run: per-layer metrics for every workload.

For each workload, untraced and traced passes alternate for a quarter of
``--seconds`` (at least one of each).  Spans give call counts, self times
and each layer's share of the traced wall time; the ratio of the traced to
the untraced sum of the parts' best times is the tracing overhead.  The cli workload's passes run
``cli.main`` in-process here, because spans cannot see into a subprocess;
interpreter start and package import are probed separately.  Direct
probes time line building and line checking per condition group at orders
8 and 40, and the unpruned search rate.  All values are per pass.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import franklin_squares as fs
from franklin_squares import fixtures
from franklin_squares.verify import _subsquare_result

import workloads
from spans import LINE_GROUPS, Tracer

CHECKED_GROUPS = ("rows", "columns", "diagonals", "pandiagonals", "bent", "half_lines")

# Layers each workload calls into; only these get a share metric.
SHARE_LAYERS = {
    "corpus": ("core", "lines", "verify", "composition", "formats", "fixtures", "patterns"),
    "search": ("core", "lines", "verify", "search"),
    "seeds": ("core", "lines", "verify", "composition", "patterns"),
    "cli": ("cli", "core", "lines", "verify", "composition", "formats", "patterns", "search"),
}
IMPORTED = ("core", "lines", "verify", "composition", "formats", "fixtures", "patterns", "search", "cli")


def _corpus(m, s, passes, wl, plain):
    for key in ("lines.family_lines", "verify.verify", "fixtures.load"):
        m[f"corpus.{key}.calls"] = s.calls[key] / passes
    m["corpus.core.is_natural.calls"] = s.calls["core.is_natural"] / passes
    for key in (
        "lines.family_lines", "verify.verify", "verify.classify",
        "composition.compose", "composition.decompose", "composition.is_orthogonal",
        "formats.report_to_json", "formats.parse_square_csv", "formats.square_to_csv",
        "fixtures.load",
    ):
        m[f"corpus.{key}.self_ms"] = s.self_ms[key] / passes
    for group in LINE_GROUPS:
        m[f"corpus.lines.build_ms.{group}"] = s.self_ms[("lines.family_lines", group)] / passes
    for group in CHECKED_GROUPS:
        m[f"corpus.verify.check_ms.{group}"] = s.self_ms[("verify.check_lines", group)] / passes


def _search(m, s, passes, wl, plain):
    leaf = ("verify.verify", "search.search_natural_franklin", "count")
    out = wl.last_count
    leaves = s.under_calls[leaf] / passes
    m["search.placements"] = out.nodes_visited
    m["search.leaves"] = leaves
    m["search.leaf_verify_ms"] = s.under_ms[leaf] / passes
    m["search.engine_self_ms"] = s.self_ms[("search.search_natural_franklin", "count")] / passes
    m["search.squares_per_placement"] = out.count / out.nodes_visited
    m["search.leaf_accept_ratio"] = out.count / leaves
    m["search.first.placements"] = wl.last_first.nodes_visited


def _seeds(m, s, passes, wl, plain):
    m["seeds.lines.family_lines.calls"] = s.calls["lines.family_lines"] / passes
    for key in (
        "lines.family_lines", "composition.compose", "composition.is_orthogonal",
        "patterns.find_remainder_seeds", "patterns.generate",
    ):
        m[f"seeds.{key}.self_ms"] = s.self_ms[key] / passes
    pruned = s.total_ms[("patterns.find_remainder_seeds", "n8.pruned")] / passes
    unpruned = s.total_ms[("patterns.find_remainder_seeds", "n8.unpruned")] / passes
    m["patterns.census8_pruned_ms"] = pruned
    m["patterns.census8_unpruned_ms"] = unpruned
    m["patterns.unpruned_over_pruned"] = unpruned / pruned
    m["patterns.seeds_found"] = wl.seeds_found


def _cli(m, s, passes, wl, plain):
    for label, ms in plain.items():
        m[f"cli.main_ms.{label}"] = sum(ms) / passes


EXTRACT = {"corpus": _corpus, "search": _search, "seeds": _seeds, "cli": _cli}


def _pass(wl, checks, times) -> float:
    """One pass, adding the times of its parts to ``times``; returns its wall time."""
    t = perf_counter()
    if wl.name == "cli":
        wl.run_pass(checks, times, in_process=True)
    else:
        wl.run_pass(checks, times)
    return perf_counter() - t


def _trace_workload(name, root, seed, seconds, smoke, checks, metrics):
    wl = workloads.make(name, seed, smoke, root)
    tracer = Tracer()
    traced_wall = 0.0
    plain, traced = defaultdict(list), defaultdict(list)
    passes = 0
    end = perf_counter() + seconds
    try:
        while True:
            _pass(wl, checks, plain)
            with tracer.installed():
                traced_wall += _pass(wl, checks, traced)
            passes += 1
            if smoke or perf_counter() >= end:
                break
    finally:
        if name == "cli":
            wl.close()
    summary = tracer.summary()
    # Best times per part, as in the untraced benchmark, damp the host's drift.
    best = lambda times: sum(min(ms) for ms in times.values())
    metrics[f"trace.overhead_ratio.{name}"] = best(traced) / best(plain)
    for layer in SHARE_LAYERS[name]:
        metrics[f"{name}.{layer}.share"] = summary.layer_self_ms[layer] / (traced_wall * 1e3)
    EXTRACT[name](metrics, summary, passes, wl, plain)
    return tracer.spans


def _per_call_us(fn, repeats: int) -> float:
    """Median per-call time over ``repeats`` batches of at least 10 ms."""
    number = 1
    while True:
        t = perf_counter()
        for _ in range(number):
            fn()
        elapsed = perf_counter() - t
        if elapsed >= 0.01:
            break
        number *= 2
    times = [elapsed / number]
    for _ in range(repeats - 1):
        t = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t) / number)
    return statistics.median(times) * 1e6


def _line_probes(metrics, repeats):
    for n, name in ((8, "f8_1769"), (40, "f40")):
        sq = fixtures.load(name)
        m = fs.magic_constant(n)
        targets = fs.IndexTargets.natural(n)
        for group, families in LINE_GROUPS.items():
            metrics[f"lines.build_us.{group}.n{n}"] = _per_call_us(
                lambda: [fs.family_lines(n, f) for f in families], repeats
            )
            if group == "subsquares":
                # verify checks subsquares in its own helper, which builds
                # its lines itself, so this time includes the build.
                check = lambda: _subsquare_result(sq, targets)
            else:
                built = tuple(line for f in families for line in fs.family_lines(n, f))
                doubled = group == "half_lines"
                check = lambda: fs.check_lines(sq, built, m, doubled=doubled)
            metrics[f"verify.check_us.{group}.n{n}"] = _per_call_us(check, repeats)


def _noprune_probe(metrics, checks):
    budget = 50_000
    opts = fs.SearchOptions(order=8, node_budget=budget, prune=False)
    t = perf_counter()
    out = fs.search_natural_franklin(opts)
    metrics["search.noprune.placements_per_s"] = out.nodes_visited / (perf_counter() - t)
    checks.op(
        "search noprune",
        count=out.count == workloads.REFERENCE["noprune_count_at_budget"][str(budget)],
        placements=out.nodes_visited == budget,
    )


def _import_times(root: Path, env) -> dict[str, float]:
    """Cumulative import time (us) per package module, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import franklin_squares.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    times = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("franklin_squares"):
            times[parts[2].strip()] = float(parts[1])
    return times


def _cli_probes(root: Path, metrics, repeats):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    walls = []
    for _ in range(repeats):
        t = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], env=env, check=True, timeout=120, capture_output=True
        )
        walls.append((perf_counter() - t) * 1e3)
    metrics["cli.interpreter_ms"] = statistics.median(walls)
    runs = [_import_times(root, env) for _ in range(repeats)]
    # Importing franklin_squares.cli imports the package first, inside it.
    for r in runs:
        r["franklin_squares.cli"] -= r["franklin_squares"]
    package = statistics.median(r["franklin_squares"] for r in runs)
    cli = statistics.median(r["franklin_squares.cli"] for r in runs)
    metrics["cli.import_ms"] = (package + cli) / 1e3
    metrics["import.package_us"] = package
    for module in IMPORTED:
        metrics[f"import.{module}_us"] = statistics.median(
            r[f"franklin_squares.{module}"] for r in runs
        )


def traced_run(root: Path, names, seed: int, seconds: int, smoke: bool, checks):
    """Return (per-layer metrics, spans by workload)."""
    metrics: dict[str, float] = {}
    spans = {}
    for name in names:
        spans[name] = _trace_workload(
            name, root, seed, seconds / len(names), smoke, checks, metrics
        )
    repeats = 1 if smoke else 5
    _line_probes(metrics, repeats)
    _noprune_probe(metrics, checks)
    _cli_probes(root, metrics, repeats)
    return metrics, spans

